//! `wbsn-serve`: a long-lived, fault-isolated, in-process query engine
//! for design-space-exploration scenario requests.
//!
//! The rest of the workspace answers one question per call: build an
//! evaluator, hand it a grid, wait. This crate keeps the expensive
//! state — warm `SoA` scratch pools, a sharded cross-request genome memo,
//! a pool of worker threads — alive across many requests, so callers
//! (sweep drivers, notebooks, benchmark harnesses) can submit a stream
//! of heterogeneous scenario queries and get robust, typed answers.
//!
//! # Request lifecycle
//!
//! 1. **Build** a [`ScenarioRequest`]: a [`Query`] (explicit points, a
//!    memoized genome batch, or an exhaustive Pareto sweep), an
//!    [`Objectives`] projection, and an optional wall-clock budget.
//! 2. **Submit** it via [`ServeEngine::try_submit`] (fails fast with
//!    [`ServeError::QueueFull`] under backpressure) or
//!    [`ServeEngine::submit`] (blocks, propagating backpressure to the
//!    producer). Acceptance stamps the request's deadline: queue wait
//!    counts against the budget.
//! 3. **A worker drains** the bounded queue and serves the request in
//!    [`ServeConfig::chunk_points`]-sized chunks through the existing
//!    [`Evaluator::evaluate_batch`] `SoA` engine, checking the deadline
//!    between chunks (cooperative cancellation — never mid-kernel).
//!    Genome queries consult the sharded cross-request memo first and
//!    record fresh outcomes back; sweeps degrade to a strided
//!    subsample when the queue is deep (the stride is reported, never
//!    silent).
//! 4. **Wait** on the returned [`QueryHandle`]: [`QueryHandle::wait`]
//!    blocks until the typed outcome arrives;
//!    [`QueryHandle::wait_timeout`] bounds the caller's patience. A
//!    handle never hangs past engine shutdown.
//!
//! ```text
//!  submit / try_submit            bounded queue (backpressure)
//!  ───────────────────▶ [ q q q q q q ] ─────────────┐
//!                                                    ▼ one job per worker turn
//!                      memo lookup (genomes) → evaluate_batch per chunk
//!                                                    ▼
//!                 response: Ok | DeadlineExceeded{bitwise prefix}
//!                                 | WorkerPanic (this request only)
//! ```
//!
//! # Failure taxonomy
//!
//! Every failure is a typed [`ServeError`] (see [`error`] for the full
//! taxonomy): `QueueFull` backpressure, `DeadlineExceeded` with the
//! completed partial response attached, `WorkerPanic` when an
//! evaluation panics (the panic is confined to the offending request —
//! leased scratch is discarded by drop guards, never recycled into the
//! warm pool, and a supervisor respawns the worker with capped
//! exponential backoff), `EngineShutdown`, and the caller-side
//! `WaitTimedOut`.
//!
//! # Determinism
//!
//! Fault-free responses are **bit-identical** to driving the evaluator
//! directly: chunking, memoization, worker count, and thread
//! interleaving are all observationally transparent (the evaluation is
//! pure, the memo stores exact outcomes, and sweep archives insert in
//! enumeration order). Property tests in `tests/parity.rs` pin this;
//! the chaos suite in `tests/chaos.rs` pins that injected faults never
//! leak into a *different* request's answer.
//!
//! # Fault injection
//!
//! With the `chaos` cargo feature the engine consults an optional
//! deterministic `chaos::ChaosSchedule` — injected panics, per-chunk
//! slowness, forced queue saturation, keyed by submission sequence
//! number and chunk index. The crate's own tests enable the feature
//! via a self dev-dependency; production consumers compile a hook-free
//! engine.
//!
//! # Tuning knobs
//!
//! All on [`ServeConfig`]: worker count, queue capacity (backpressure
//! point), chunk size (cancellation granularity), default budget,
//! degradation threshold/stride, respawn backoff base/cap, and memo
//! geometry. The defaults serve the paper's case-study spaces well;
//! see each field's docs for how to trade latency against throughput.
//!
//! ```
//! use wbsn_serve::{ScenarioRequest, ServeConfig, ServeEngine};
//! use wbsn_model::space::DesignSpace;
//!
//! let engine = ServeEngine::start(ServeConfig { workers: 2, ..ServeConfig::default() });
//! let mut space = DesignSpace::case_study(2);
//! space.cr_values = vec![0.17, 0.38];
//! space.payload_values = vec![114];
//! space.order_pairs = vec![(6, 6)];
//! let handle = engine.try_submit(ScenarioRequest::sweep(space)).expect("queue has room");
//! let response = handle.wait().expect("sweep completes");
//! assert_eq!(response.stride, 1);
//! assert!(response.result.front().is_some());
//! ```
//!
//! [`Evaluator::evaluate_batch`]: wbsn_dse::evaluator::Evaluator::evaluate_batch

#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod engine;
pub mod error;

pub use engine::{
    EngineStats, Objectives, Query, QueryHandle, QueryResult, ScenarioRequest, ScenarioResponse,
    ServeConfig, ServeEngine,
};
pub use error::ServeError;
