//! Deterministic fault-injection tests: every failure pillar of the
//! serve engine has a repeatable test, and no injected fault ever
//! corrupts a *different* request's results.

use std::sync::Arc;
use std::time::Duration;
use wbsn_dse::evaluator::{Evaluator, ModelEvaluator};
use wbsn_dse::pareto::ParetoArchive;
use wbsn_model::space::{DesignPoint, DesignSpace};
use wbsn_serve::chaos::{ChaosKnobs, ChaosSchedule, Fault};
use wbsn_serve::{QueryResult, ScenarioRequest, ServeConfig, ServeEngine, ServeError};

/// Installs a process-wide panic hook that swallows the engine's
/// injected-chaos panics (they are the *point* of these tests) while
/// delegating every real panic to the default reporter.
fn quiet_chaos_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                info.payload().downcast_ref::<String>().is_some_and(|m| m.starts_with("chaos:"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// A small fixed space (16 points) shared by the targeted tests.
fn small_space() -> DesignSpace {
    let mut space = DesignSpace::case_study(2);
    space.cr_values.truncate(2);
    space.f_mcu_values.truncate(2);
    space.payload_values.truncate(1);
    space.order_pairs.truncate(1);
    space
}

fn all_points(space: &DesignSpace) -> Vec<DesignPoint> {
    let total = space.cardinality();
    (0..total).map(|n| space.point_at(n)).collect()
}

fn engine_with(chaos: ChaosSchedule, mut cfg: ServeConfig) -> ServeEngine {
    cfg.chaos = Some(Arc::new(chaos));
    ServeEngine::start(cfg)
}

const WAIT: Duration = Duration::from_mins(1);

/// Pillar 3 (panic isolation): an injected panic fails exactly the
/// targeted request with a typed `WorkerPanic`, sibling requests stay
/// bit-identical to the direct reference, the supervisor respawns the
/// worker, and the recycled scratch pool serves later requests
/// correctly (un-poisoned).
#[test]
fn injected_panic_fails_only_its_request() {
    quiet_chaos_panics();
    let space = small_space();
    let points = all_points(&space);
    let expected = ModelEvaluator::shimmer().evaluate_batch(&points);

    let chaos = ChaosSchedule::builder().panic_on(1, 0).build();
    let engine =
        engine_with(chaos, ServeConfig { workers: 2, chunk_points: 4, ..ServeConfig::default() });

    let handles: Vec<_> = (0..4)
        .map(|_| engine.submit(ScenarioRequest::evaluate(points.clone())).expect("alive"))
        .collect();
    for handle in handles {
        let seq = handle.seq();
        match handle.wait_timeout(WAIT) {
            Ok(response) => {
                assert_ne!(seq, 1, "request 1 is scheduled to panic");
                assert_eq!(response.result.evaluations(), Some(expected.as_slice()));
            }
            Err(ServeError::WorkerPanic { message, .. }) => {
                assert_eq!(seq, 1, "only the targeted request may fail");
                assert!(message.starts_with("chaos:"), "typed panic carries the payload");
            }
            Err(other) => panic!("unexpected outcome for request {seq}: {other}"),
        }
    }

    // The pool is un-poisoned and the pool of workers recovered: a
    // fresh batch after the panic still answers bit-identically.
    let after = engine
        .submit(ScenarioRequest::evaluate(points.clone()))
        .expect("alive")
        .wait_timeout(WAIT)
        .expect("the respawned pool serves requests");
    assert_eq!(after.result.evaluations(), Some(expected.as_slice()));
    let stats = engine.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.completed, 4);
}

/// Pillar 1 (deadlines): a chunk slowed past the request's budget
/// yields `DeadlineExceeded` whose partial response is the bitwise
/// prefix of the full answer; an unbudgeted sibling is unaffected.
#[test]
fn slowed_chunk_past_deadline_yields_bitwise_partial_prefix() {
    quiet_chaos_panics();
    let space = small_space();
    let points = all_points(&space); // 16 points -> 4 chunks of 4
    let expected = ModelEvaluator::shimmer().evaluate_batch(&points);

    // Sleep 400 ms before chunk 2 of request 0; its 60 ms budget
    // expires during the sleep, so chunks 0..=2 complete (the slept
    // chunk itself still runs: cancellation is cooperative, checked
    // between chunks) and chunk 3 is cancelled.
    let chaos = ChaosSchedule::builder().slow_on(0, 2, Duration::from_millis(400)).build();
    let engine =
        engine_with(chaos, ServeConfig { workers: 1, chunk_points: 4, ..ServeConfig::default() });

    let budgeted = engine
        .submit(ScenarioRequest::evaluate(points.clone()).with_budget(Duration::from_millis(60)))
        .expect("alive");
    let unbudgeted = engine.submit(ScenarioRequest::evaluate(points.clone())).expect("alive");

    match budgeted.wait_timeout(WAIT) {
        Err(ServeError::DeadlineExceeded { partial }) => {
            assert_eq!(partial.chunks_completed, 3);
            assert_eq!(partial.points_resolved, 12);
            assert_eq!(partial.result.evaluations(), Some(&expected[..12]));
        }
        other => panic!("expected a deadline expiry with partial results, got {other:?}"),
    }
    let sibling = unbudgeted.wait_timeout(WAIT).expect("unbudgeted sibling completes");
    assert_eq!(sibling.result.evaluations(), Some(expected.as_slice()));
    assert_eq!(engine.stats().deadline_expired, 1);
}

/// Pillar 2 (backpressure, forced): chaos-forced saturation makes one
/// submission fail fast with `QueueFull` without touching the others.
#[test]
fn forced_saturation_rejects_exactly_the_scheduled_submission() {
    quiet_chaos_panics();
    let space = small_space();
    let points = all_points(&space);
    let expected = ModelEvaluator::shimmer().evaluate_batch(&points);

    let chaos = ChaosSchedule::builder().reject_submission(1).build();
    let engine = engine_with(chaos, ServeConfig { workers: 1, ..ServeConfig::default() });

    let first = engine.try_submit(ScenarioRequest::evaluate(points.clone())).expect("accepted");
    assert_eq!(
        engine.try_submit(ScenarioRequest::evaluate(points.clone())).unwrap_err(),
        ServeError::QueueFull,
        "submission 1 is forced to saturate"
    );
    let third = engine.try_submit(ScenarioRequest::evaluate(points.clone())).expect("accepted");

    for handle in [first, third] {
        let response = handle.wait_timeout(WAIT).expect("accepted requests complete");
        assert_eq!(response.result.evaluations(), Some(expected.as_slice()));
    }
    let stats = engine.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 2);
}

/// Pillar 2 (backpressure, real): with the single worker pinned by a
/// slow chunk, submissions beyond the queue capacity fail fast with
/// `QueueFull` from genuine occupancy, and every accepted request
/// still answers bit-identically once the backlog drains.
#[test]
fn real_queue_saturation_fails_fast_and_backlog_drains_intact() {
    quiet_chaos_panics();
    let space = small_space();
    let points = all_points(&space);
    let expected = ModelEvaluator::shimmer().evaluate_batch(&points);

    // Request 0 sleeps 300 ms on its first chunk, pinning the worker.
    let chaos = ChaosSchedule::builder().slow_on(0, 0, Duration::from_millis(300)).build();
    let engine =
        engine_with(chaos, ServeConfig { workers: 1, queue_capacity: 2, ..ServeConfig::default() });

    let pinned = engine.try_submit(ScenarioRequest::evaluate(points.clone())).expect("accepted");
    // Give the worker time to dequeue request 0 and start sleeping.
    std::thread::sleep(Duration::from_millis(100));
    let queued: Vec<_> = (0..2)
        .map(|_| engine.try_submit(ScenarioRequest::evaluate(points.clone())).expect("fits"))
        .collect();
    assert_eq!(
        engine.try_submit(ScenarioRequest::evaluate(points.clone())).unwrap_err(),
        ServeError::QueueFull,
        "the bounded queue sheds load instead of buffering unboundedly"
    );

    for handle in std::iter::once(pinned).chain(queued) {
        let response = handle.wait_timeout(WAIT).expect("backlog drains");
        assert_eq!(response.result.evaluations(), Some(expected.as_slice()));
    }
    assert_eq!(engine.stats().rejected, 1);
}

/// Pillar 2 (graceful degradation): a sweep dequeued behind a deep
/// backlog coarsens to the configured stride — reported, never silent
/// — and matches the strided reference bitwise; a sweep served after
/// the backlog drains is exact again.
#[test]
fn deep_backlog_degrades_sweeps_to_the_reported_stride() {
    quiet_chaos_panics();
    let space = small_space();
    let evaluator = ModelEvaluator::shimmer();

    let strided_reference = |stride: u128| {
        let mut front = ParetoArchive::new();
        let mut n = 0u128;
        while n < space.cardinality() {
            let point = space.point_at(n);
            if let Some(outcome) = evaluator.evaluate(&point) {
                front.insert(outcome, point);
            }
            n += stride;
        }
        front
    };

    // Request 0 sleeps 300 ms, building a 3-deep backlog behind it:
    // sweep 1 dequeues with depth 2 >= threshold -> degraded; sweep 3
    // dequeues with an empty queue -> exact.
    let chaos = ChaosSchedule::builder().slow_on(0, 0, Duration::from_millis(300)).build();
    let engine = engine_with(
        chaos,
        ServeConfig {
            workers: 1,
            degrade_threshold: 2,
            degrade_stride: 4,
            ..ServeConfig::default()
        },
    );

    let pinned =
        engine.try_submit(ScenarioRequest::evaluate(all_points(&space))).expect("accepted");
    std::thread::sleep(Duration::from_millis(100));
    let sweeps: Vec<_> = (0..3)
        .map(|_| engine.try_submit(ScenarioRequest::sweep(space.clone())).expect("fits"))
        .collect();

    pinned.wait_timeout(WAIT).expect("pinned request completes");
    let responses: Vec<_> =
        sweeps.into_iter().map(|h| h.wait_timeout(WAIT).expect("sweeps complete")).collect();

    assert!(responses[0].degraded, "first sweep saw the 2-deep backlog");
    assert_eq!(responses[0].stride, 4);
    assert_eq!(responses[0].result.front(), Some(&strided_reference(4)));

    let last = responses.last().expect("three sweeps");
    assert!(!last.degraded, "the drained queue restores exact sweeps");
    assert_eq!(last.stride, 1);
    assert_eq!(last.result.front(), Some(&strided_reference(1)));
    assert!(engine.stats().degraded_sweeps >= 1);
}

/// What the chaos schedule predetermines for one submission: the
/// *first* fault in chunk order decides the outcome, so the storm's
/// assertions are exact, not probabilistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Rejected at submission (`QueueFull`).
    Rejected,
    /// A panic fires before any slowdown: `WorkerPanic`. The request
    /// carries no budget, so the panic chunk is always reached.
    Panic,
    /// A slowdown fires first with at least one chunk after it: the
    /// tight budget expires during (or before) the sleep and the next
    /// deadline check cancels the request — `DeadlineExceeded`.
    Expired,
    /// No outcome-changing fault: the response must be exact. (A
    /// slowdown on the *last* chunk lands here: cancellation is
    /// cooperative and there is no check after the final chunk, so the
    /// request finishes late but complete — the request carries no
    /// budget so queue wait cannot expire it first.)
    Exact,
}

fn classify(chaos: &ChaosSchedule, seq: u64, chunks: usize) -> Expect {
    if chaos.rejects_submission(seq) {
        return Expect::Rejected;
    }
    for chunk in 0..chunks {
        match chaos.fault(seq, chunk) {
            Some(Fault::Panic) => return Expect::Panic,
            Some(Fault::Slow(_)) if chunk + 1 < chunks => return Expect::Expired,
            Some(Fault::Slow(_)) => return Expect::Exact,
            None => {}
        }
    }
    Expect::Exact
}

/// The combined acceptance storm: one *seeded* chaos schedule that
/// panics workers, slows chunks past deadlines, and saturates the
/// queue — all at once, across a stream of requests. Every request
/// resolves to exactly the outcome its scheduled fault dictates (no
/// hangs), every surviving response is bit-identical to the direct
/// reference, and afterwards the engine (workers respawned, pools
/// un-poisoned) still answers a clean batch exactly.
#[test]
fn seeded_chaos_storm_never_corrupts_surviving_requests() {
    const REQUESTS: u64 = 32;
    const CHUNKS: usize = 4;
    quiet_chaos_panics();
    let space = small_space();
    let points = all_points(&space); // 16 points -> 4 chunks of 4
    let expected = ModelEvaluator::shimmer().evaluate_batch(&points);

    let knobs = ChaosKnobs {
        requests: REQUESTS,
        chunks_per_request: CHUNKS,
        panic_per_mille: 80,
        slow_per_mille: 80,
        slow_duration: Duration::from_millis(300),
        reject_per_mille: 60,
    };
    // Seed pinned so the storm is repeatable; the assertion below
    // double-checks it schedules every outcome class.
    let chaos = ChaosSchedule::seeded(0xC0FFEE, &knobs);
    let plan: Vec<Expect> = (0..REQUESTS).map(|seq| classify(&chaos, seq, CHUNKS)).collect();
    for class in [Expect::Rejected, Expect::Panic, Expect::Expired, Expect::Exact] {
        assert!(
            plan.contains(&class),
            "the pinned seed must schedule at least one {class:?} request"
        );
    }

    let engine = engine_with(
        chaos,
        ServeConfig {
            workers: 2,
            chunk_points: 4,
            queue_capacity: REQUESTS as usize,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(8),
            ..ServeConfig::default()
        },
    );

    let mut handles = Vec::new();
    let mut rejected = 0u64;
    for &expect in &plan {
        // Only slow-first requests carry a budget: 60 ms is roomy for
        // their fault-free prefix chunks (microseconds of work) and
        // hopeless against the 300 ms injected sleep, so their expiry
        // is certain whether it strikes in-queue or mid-request.
        let mut request = ScenarioRequest::evaluate(points.clone());
        if expect == Expect::Expired {
            request = request.with_budget(Duration::from_millis(60));
        }
        match engine.try_submit(request) {
            Ok(handle) => handles.push((handle, expect)),
            Err(ServeError::QueueFull) => {
                assert_eq!(expect, Expect::Rejected, "only scheduled saturation may reject");
                rejected += 1;
            }
            Err(other) => panic!("unexpected submission failure: {other}"),
        }
    }

    let (mut ok, mut panicked, mut expired) = (0u64, 0u64, 0u64);
    for (handle, expect) in handles {
        let seq = handle.seq();
        match handle.wait_timeout(WAIT) {
            Ok(response) => {
                assert_eq!(expect, Expect::Exact, "request {seq} completed unexpectedly");
                ok += 1;
                assert_eq!(
                    response.result.evaluations(),
                    Some(expected.as_slice()),
                    "request {seq} survived the storm but came back corrupted"
                );
            }
            Err(ServeError::WorkerPanic { message, .. }) => {
                assert_eq!(expect, Expect::Panic, "request {seq} panicked unexpectedly");
                panicked += 1;
                assert!(message.starts_with("chaos:"), "request {seq}: only injected panics");
            }
            Err(ServeError::DeadlineExceeded { partial }) => {
                assert_eq!(expect, Expect::Expired, "request {seq} expired unexpectedly");
                expired += 1;
                let resolved = usize::try_from(partial.points_resolved).expect("small");
                if let QueryResult::Evaluations(prefix) = &partial.result {
                    assert_eq!(
                        prefix.as_slice(),
                        &expected[..resolved],
                        "request {seq}: partial results must be a bitwise prefix"
                    );
                } else {
                    panic!("request {seq}: evaluation requests yield evaluation partials");
                }
            }
            Err(ServeError::WaitTimedOut) => panic!("request {seq} hung"),
            Err(other) => panic!("request {seq}: unexpected outcome {other}"),
        }
    }

    // Every outcome class fired, and every request resolved.
    assert!(rejected >= 1 && panicked >= 1 && expired >= 1 && ok >= 1);
    assert_eq!(ok + panicked + expired + rejected, REQUESTS);

    let stats = engine.stats();
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.deadline_expired, expired);
    assert_eq!(stats.worker_panics, panicked);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.deadline_expired + stats.worker_panics,
        "every accepted request is counted in exactly one terminal state"
    );
    assert!(stats.respawns >= 1, "the supervisor respawned panicked workers");

    // After the storm: respawned workers, recycled scratch, exact
    // answers — the pool was never poisoned.
    for _ in 0..4 {
        let response = engine
            .submit(ScenarioRequest::evaluate(points.clone()))
            .expect("engine survives the storm")
            .wait_timeout(WAIT)
            .expect("clean requests complete");
        assert_eq!(response.result.evaluations(), Some(expected.as_slice()));
    }
}

/// Engine drop with requests still queued: nothing hangs — queued
/// work is drained by the exiting workers, and handles whose engine
/// vanished entirely resolve to `EngineShutdown`, never a deadlock.
#[test]
fn dropping_the_engine_never_strands_a_caller() {
    quiet_chaos_panics();
    let space = small_space();
    let points = all_points(&space);

    let chaos = ChaosSchedule::builder().slow_on(0, 0, Duration::from_millis(150)).build();
    let engine =
        engine_with(chaos, ServeConfig { workers: 1, queue_capacity: 8, ..ServeConfig::default() });
    let handles: Vec<_> = (0..4)
        .map(|_| engine.try_submit(ScenarioRequest::evaluate(points.clone())).expect("fits"))
        .collect();
    drop(engine);
    for handle in handles {
        // Drained-on-drop semantics: each handle resolves promptly to
        // either its real response or a typed shutdown error.
        match handle.wait_timeout(WAIT) {
            Ok(_) | Err(ServeError::EngineShutdown) => {}
            Err(other) => panic!("unexpected post-drop outcome: {other}"),
        }
    }
}
