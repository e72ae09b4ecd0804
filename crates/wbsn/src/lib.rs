//! # wbsn — model-based energy-performance design exploration for WBSNs
//!
//! Umbrella crate re-exporting the four libraries of the workspace, which
//! together reproduce *Beretta et al., "Design Exploration of
//! Energy-Performance Trade-Offs for Wireless Sensor Networks" (DAC
//! 2012)*:
//!
//! * [`model`] (`wbsn-model`) — the paper's contribution: a multi-layer
//!   analytical model evaluating a full network configuration in
//!   microseconds.
//! * [`sim`] (`wbsn-sim`) — a packet-level discrete-event simulator of
//!   IEEE 802.15.4 beacon-enabled networks, the reproduction's ground
//!   truth for energy and delay.
//! * [`dsp`] (`wbsn-dsp`) — synthetic ECG plus real DWT and
//!   compressed-sensing codecs, the ground truth for the PRD quality
//!   metric.
//! * [`dse`] (`wbsn-dse`) — multi-objective design-space exploration
//!   (NSGA-II, simulated annealing) over the model.
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ## Batch evaluation engine
//!
//! The DSE hot loop runs on a three-level fast path:
//!
//! * [`model::evaluate::WbsnModel::evaluate_objectives`] — an
//!   objectives-only evaluation that reuses a caller-provided
//!   [`model::evaluate::EvalScratch`] (no steady-state allocations) and
//!   memoizes the MAC-independent part of each node's evaluation keyed
//!   by `(kind, CR, fµC)`. Nodes draw from a tiny grid (176 combinations
//!   in the case study), so a whole exploration performs at most `|grid|`
//!   application-model evaluations; every hit only recomputes the cheap
//!   per-MAC radio term. Results are bit-identical to
//!   [`model::evaluate::WbsnModel::evaluate`], including which error a
//!   given infeasible configuration raises.
//! * [`model::soa`] — the struct-of-arrays batch kernel
//!   ([`model::evaluate::WbsnModel::evaluate_objectives_batch`]):
//!   whole point batches walked through interned node/MAC/cell tables,
//!   with per-node energy/PRD/slot values served as plain loads,
//!   infeasibility carried as a per-point mask, and the Eq. 8/9
//!   reductions running as tight `f64` loops. Bit-identical to the
//!   scalar paths (objectives *and* errors — property-tested in
//!   `tests/soa_parity.rs`), zero allocations in steady state.
//! * [`dse::Evaluator::evaluate_batch`] — order-preserving batch
//!   evaluation; the model-backed evaluators run every batch through
//!   the `SoA` kernel, inline up to one 1,024-point chunk and per chunk
//!   across all cores above it (scoped threads, one pooled kernel
//!   scratch per worker). NSGA-II evaluates each generation's fresh
//!   genomes as one batch (about 36 on the default coarse 3-node run,
//!   so it runs inline on the calling thread), exhaustive search steps
//!   an odometer through the space
//!   ([`model::space::DesignSpace::step_point`]) into reused
//!   multi-chunk batches, and [`dse::mosa::mosa_restarts`] runs
//!   independent annealing chains concurrently. Evaluation consumes no
//!   randomness, so seeded searches are bit-identical whether batches
//!   execute serially or in parallel.
//!
//! Throughput is measured by the repository benchmark: `BENCHMARK.json`
//! names its command, workloads and metrics, and
//! `perfbench/WORKLOADS.md` explains each workload and layer metric.

#![warn(missing_docs)]

pub use wbsn_dse as dse;
pub use wbsn_dsp as dsp;
pub use wbsn_model as model;
pub use wbsn_sim as sim;
