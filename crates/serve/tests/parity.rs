//! Serve-vs-direct parity: fault-free responses are bit-identical to
//! driving the evaluators directly, for any worker count, chunk size,
//! and thread interleaving (satellite of the robustness PR).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use wbsn_dse::evaluator::{EnergyDelayEvaluator, Evaluator, LifetimeEvaluator, ModelEvaluator};
use wbsn_dse::exhaustive::exhaustive;
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::Genome;
use wbsn_model::space::{DesignPoint, DesignSpace};
use wbsn_model::units::Hertz;
use wbsn_serve::{Objectives, Query, QueryResult, ScenarioRequest, ServeConfig, ServeEngine};

/// Random tiny design spaces (the dse property-test idiom): every grid
/// axis truncated to a random prefix so radices vary per case.
fn tiny_space() -> impl Strategy<Value = DesignSpace> {
    (1usize..=3, 1usize..=2, 1usize..=2, 1usize..=3, 1usize..=3).prop_map(
        |(n_cr, n_f, n_payload, n_orders, n_nodes)| {
            let mut space = DesignSpace::case_study(n_nodes);
            space.cr_values.truncate(n_cr);
            space.f_mcu_values = [4.0, 8.0][..n_f].iter().map(|&m| Hertz::from_mhz(m)).collect();
            space.payload_values.truncate(n_payload);
            space.order_pairs.truncate(n_orders);
            space
        },
    )
}

/// Every point of a space, in enumeration order.
fn all_points(space: &DesignSpace) -> Vec<DesignPoint> {
    let total = space.cardinality();
    assert!(total <= 4096, "tiny spaces only in these tests");
    let mut n = 0u128;
    let mut points = Vec::new();
    while n < total {
        points.push(space.point_at(n));
        n += 1;
    }
    points
}

/// The reference evaluator for an objective projection, over the same
/// Shimmer model `ServeEngine::start` uses.
fn direct(objectives: Objectives) -> Box<dyn Evaluator> {
    match objectives {
        Objectives::EnergyDelayPrd => Box::new(ModelEvaluator::shimmer()),
        Objectives::EnergyDelay => Box::new(EnergyDelayEvaluator::shimmer()),
        Objectives::EnergyDelayPrdLifetime => Box::new(LifetimeEvaluator::shimmer()),
    }
}

fn engine(workers: usize, chunk_points: usize) -> ServeEngine {
    ServeEngine::start(ServeConfig { workers, chunk_points, ..ServeConfig::default() })
}

/// A random stream of small point and genome requests over `space`,
/// each on a random objective lane.
fn random_requests(space: &DesignSpace, n: usize, seed: u64) -> Vec<ScenarioRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = all_points(space);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=8.min(points.len()));
            let objectives = Objectives::ALL[rng.gen_range(0..Objectives::ALL.len())];
            if rng.gen_bool(0.5) {
                let start = rng.gen_range(0..=points.len() - len);
                ScenarioRequest::evaluate(points[start..start + len].to_vec())
                    .with_objectives(objectives)
            } else {
                let genomes: Vec<Genome> =
                    (0..len).map(|_| Genome::random(space, &mut rng)).collect();
                ScenarioRequest::evaluate_genomes(space.clone(), genomes)
                    .with_objectives(objectives)
            }
        })
        .collect()
}

/// The direct (unserved) reference for one point or genome request.
fn reference(space: &DesignSpace, request: &ScenarioRequest) -> Vec<Option<ObjectiveVector>> {
    let evaluator = direct(request.objectives);
    match &request.query {
        Query::Evaluate(points) => evaluator.evaluate_batch(points),
        Query::EvaluateGenomes { genomes, .. } => {
            let decoded: Vec<DesignPoint> = genomes.iter().map(|g| g.decode(space)).collect();
            evaluator.evaluate_batch(&decoded)
        }
        Query::ParetoSweep { .. } => unreachable!("the stream holds no sweeps"),
    }
}

proptest! {
    // Point-evaluation requests equal `evaluate_batch` bitwise for any
    // worker count and chunk size (chunk boundaries exercised hard:
    // chunks of 1..=7 points slice every batch differently).
    #[test]
    fn serve_points_match_direct_evaluate_batch(
        space in tiny_space(),
        workers in 1usize..=4,
        chunk_points in 1usize..=7,
        lane in 0usize..Objectives::ALL.len(),
    ) {
        let objectives = Objectives::ALL[lane];
        let points = all_points(&space);
        let expected = direct(objectives).evaluate_batch(&points);

        let engine = engine(workers, chunk_points);
        let request =
            ScenarioRequest::evaluate(points.clone()).with_objectives(objectives);
        let response = engine.try_submit(request).expect("queue empty").wait().expect("no faults");
        prop_assert_eq!(response.result.evaluations(), Some(expected.as_slice()));
        prop_assert_eq!(response.points_resolved, points.len() as u64);
        prop_assert!(!response.degraded);
        prop_assert_eq!(response.stride, 1);
    }

    // Genome requests equal decode-then-`evaluate_batch` bitwise, and
    // the cross-request memo is observationally transparent: a repeat
    // submission answers from cache with the identical response.
    #[test]
    fn serve_genomes_match_direct_and_memo_is_transparent(
        space in tiny_space(),
        workers in 1usize..=4,
        chunk_points in 1usize..=7,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genomes: Vec<Genome> =
            (0..20).map(|_| Genome::random(&space, &mut rng)).collect();
        let decoded: Vec<DesignPoint> = genomes.iter().map(|g| g.decode(&space)).collect();
        let expected = direct(Objectives::EnergyDelayPrd).evaluate_batch(&decoded);

        let engine = engine(workers, chunk_points);
        let request = ScenarioRequest::evaluate_genomes(space.clone(), genomes.clone());
        let first = engine.try_submit(request.clone()).expect("queue empty").wait().expect("ok");
        prop_assert_eq!(first.result.evaluations(), Some(expected.as_slice()));

        let second = engine.try_submit(request).expect("queue empty").wait().expect("ok");
        prop_assert_eq!(second.result.evaluations(), Some(expected.as_slice()));
        // Every genome of the repeat hits the memo (duplicates in the
        // first batch may push hits above the repeat's own count).
        prop_assert!(second.memo_hits >= genomes.len() as u64);
        prop_assert_eq!(engine.stats().memo_hits, first.memo_hits + second.memo_hits);
    }

    // A fault-free sweep returns the exact exhaustive front, bitwise.
    #[test]
    fn serve_sweep_matches_exhaustive(
        space in tiny_space(),
        workers in 1usize..=4,
        chunk_points in 1usize..=7,
    ) {
        let reference = exhaustive(&space, &ModelEvaluator::shimmer(), 1 << 20);
        let engine = engine(workers, chunk_points);
        let response =
            engine.try_submit(ScenarioRequest::sweep(space)).expect("queue empty").wait().expect("ok");
        prop_assert_eq!(response.stride, 1);
        prop_assert!(!response.degraded);
        prop_assert_eq!(response.result.front(), Some(&reference.front));
    }

    // Up to 24 concurrent small point and genome requests, spread over
    // every objective lane and 1..=4 workers: each response equals its
    // direct reference bitwise, the per-response memo hits sum to the
    // engine total, and every accepted request is counted once.
    #[test]
    fn concurrent_small_requests_match_direct_across_lanes(
        space in tiny_space(),
        n_requests in 1usize..=24,
        workers in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let requests = random_requests(&space, n_requests, seed);
        let expected: Vec<_> = requests.iter().map(|r| reference(&space, r)).collect();

        let engine = ServeEngine::start(ServeConfig {
            workers,
            chunk_points: 32,
            queue_capacity: n_requests.max(1),
            ..ServeConfig::default()
        });
        let handles: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("alive"))
            .collect();
        let mut ledger = 0u64;
        for (handle, expected) in handles.into_iter().zip(&expected) {
            let response =
                handle.wait_timeout(Duration::from_mins(1)).expect("fault-free requests complete");
            prop_assert_eq!(response.result.evaluations(), Some(expected.as_slice()));
            prop_assert_eq!(response.points_resolved, expected.len() as u64);
            prop_assert_eq!(response.stride, 1);
            prop_assert!(!response.degraded);
            ledger += response.memo_hits;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.memo_hits, ledger, "per-response hits must sum to the engine total");
        prop_assert_eq!(stats.completed, n_requests as u64);
        prop_assert_eq!(stats.worker_panics, 0);
        prop_assert_eq!(
            stats.submitted,
            stats.completed + stats.deadline_expired + stats.worker_panics
        );
    }
}

/// Many concurrent in-flight requests of mixed shapes: every response
/// is bitwise equal to its direct reference no matter how the worker
/// pool interleaves them, and the engine drains cleanly on drop.
#[test]
fn concurrent_mixed_requests_all_match_their_direct_reference() {
    let mut space = DesignSpace::case_study(2);
    space.cr_values.truncate(2);
    space.payload_values.truncate(1);
    space.order_pairs.truncate(2);
    let points = all_points(&space);

    let engine =
        ServeEngine::start(ServeConfig { workers: 4, chunk_points: 3, ..ServeConfig::default() });
    let full = ModelEvaluator::shimmer();
    let reference_evals = full.evaluate_batch(&points);
    let reference_front = exhaustive(&space, &full, 1 << 20).front;

    let mut rng = StdRng::seed_from_u64(42);
    let mut handles = Vec::new();
    for i in 0..24 {
        let request = match i % 3 {
            0 => ScenarioRequest::evaluate(points.clone()),
            1 => {
                let genomes: Vec<Genome> =
                    (0..12).map(|_| Genome::random(&space, &mut rng)).collect();
                ScenarioRequest::evaluate_genomes(space.clone(), genomes)
            }
            _ => ScenarioRequest::sweep(space.clone()),
        };
        let expected = match &request.query {
            Query::Evaluate(_) => Some(reference_evals.clone()),
            Query::EvaluateGenomes { genomes, .. } => {
                let decoded: Vec<DesignPoint> = genomes.iter().map(|g| g.decode(&space)).collect();
                Some(full.evaluate_batch(&decoded))
            }
            Query::ParetoSweep { .. } => None,
        };
        handles.push((engine.submit(request).expect("engine alive"), expected));
    }
    for (handle, expected) in handles {
        let response =
            handle.wait_timeout(Duration::from_mins(1)).expect("every request completes");
        if let Some(evals) = expected {
            assert_eq!(response.result.evaluations(), Some(evals.as_slice()));
        } else {
            assert_eq!(response.stride, 1, "no degradation below the backlog threshold");
            assert_eq!(response.result.front(), Some(&reference_front));
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.submitted, stats.completed + stats.deadline_expired + stats.worker_panics);
}

/// `QueryResult`'s derived `PartialEq` compares evaluation outcomes
/// bitwise: two independent evaluations of the same points are equal.
#[test]
fn query_result_equality_is_bitwise_over_evaluations() {
    let mut space = DesignSpace::case_study(2);
    space.cr_values.truncate(2);
    space.f_mcu_values.truncate(2);
    space.payload_values.truncate(1);
    space.order_pairs.truncate(1);
    let points = all_points(&space);
    let a = QueryResult::Evaluations(ModelEvaluator::shimmer().evaluate_batch(&points));
    let b = QueryResult::Evaluations(ModelEvaluator::shimmer().evaluate_batch(&points));
    assert_eq!(a, b);
}
