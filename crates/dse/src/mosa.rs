//! Multi-objective simulated annealing (the paper's second optimizer,
//! §5.2, citing Nam & Park \[27\]).
//!
//! Archive-based acceptance: a candidate that is not dominated by the
//! current solution is always accepted; a dominated candidate is accepted
//! with probability `exp(−ΔE / T)`, where the domination energy `ΔE`
//! counts how much worse it is across objectives (normalized per axis).
//! Every feasible visited point feeds the Pareto archive.

use crate::evaluator::Evaluator;
use crate::genome::Genome;
use crate::memo::GenomeMemo;
use crate::nsga2::SearchResult;
use crate::objective::{Dominance, ObjectiveVector};
use crate::pareto::ParetoArchive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbsn_model::space::{DesignPoint, DesignSpace};

/// Simulated-annealing hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosaConfig {
    /// Total candidate evaluations.
    pub iterations: usize,
    /// Initial temperature (in normalized objective units).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied every iteration.
    pub cooling: f64,
    /// Per-gene mutation probability of the proposal move.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Memoize evaluation outcomes by genome (proposal moves revisit
    /// neighbors constantly). Fronts and counters are bit-identical
    /// either way; disable only to measure the dedup win.
    pub memo: bool,
}

impl Default for MosaConfig {
    fn default() -> Self {
        Self {
            iterations: 10_000,
            initial_temperature: 1.0,
            cooling: 0.9995,
            mutation_rate: 0.15,
            seed: 42,
            memo: true,
        }
    }
}

/// Replays `genome`'s outcome from the memo, or decodes and evaluates it,
/// recording the result. Fresh feasible points enter the archive; so
/// does a run's *first* hit on an outcome recorded by an earlier run
/// sharing the memo (the fresh archive has never seen it) — that replay
/// is what keeps cross-run sharing observationally transparent.
/// Within-run repeats skip the insertion: it would only be rejected as
/// weakly dominated (see [`GenomeMemo`]).
fn lookup_or_evaluate(
    genome: &Genome,
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    memo: &mut GenomeMemo,
    archive: &mut ParetoArchive<DesignPoint>,
) -> Option<ObjectiveVector> {
    if let Some((cached, from_earlier_run)) = memo.get_with_provenance(genome) {
        if from_earlier_run {
            if let Some(obj) = cached {
                archive.insert(obj, genome.decode(space));
            }
        }
        return cached;
    }
    let point = genome.decode(space);
    let outcome = evaluator.evaluate(&point);
    memo.record(genome.clone(), outcome);
    if let Some(obj) = outcome {
        archive.insert(obj, point);
    }
    outcome
}

/// Relative worsening of `b` vs `a`, summed over objectives (0 when `b`
/// is no worse anywhere).
fn domination_energy(a: &ObjectiveVector, b: &ObjectiveVector) -> f64 {
    a.values()
        .iter()
        .zip(b.values())
        .map(|(&va, &vb)| {
            let scale = va.abs().max(1e-9);
            ((vb - va) / scale).max(0.0)
        })
        .sum()
}

/// Runs multi-objective simulated annealing.
///
/// ```no_run
/// use wbsn_dse::evaluator::ModelEvaluator;
/// use wbsn_dse::mosa::{mosa, MosaConfig};
/// use wbsn_model::space::DesignSpace;
///
/// let space = DesignSpace::case_study(6);
/// let result = mosa(&space, &ModelEvaluator::shimmer(), &MosaConfig::default());
/// println!("{} Pareto points", result.front.len());
/// ```
#[must_use]
pub fn mosa(space: &DesignSpace, evaluator: &dyn Evaluator, cfg: &MosaConfig) -> SearchResult {
    let mut memo = GenomeMemo::new(cfg.memo);
    mosa_with_memo(space, evaluator, cfg, &mut memo)
}

/// [`mosa`] running against a caller-provided [`GenomeMemo`], so several
/// runs share one deduplication cache (see `nsga2_with_memo` for the
/// transparency argument). The memo's own enabled flag governs
/// memoization; [`MosaConfig::memo`] is ignored here.
/// [`SearchResult::memo_hits`] counts only this run's hits.
#[must_use]
pub fn mosa_with_memo(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    cfg: &MosaConfig,
    memo: &mut GenomeMemo,
) -> SearchResult {
    memo.begin_run();
    let hits_before = memo.hits();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0u64;
    let mut infeasible = 0u64;
    let mut archive = ParetoArchive::new();

    // Find a feasible starting point.
    let mut current_genome;
    let mut current_obj;
    loop {
        let g = Genome::random(space, &mut rng);
        evaluations += 1;
        if let Some(obj) = lookup_or_evaluate(&g, space, evaluator, memo, &mut archive) {
            current_genome = g;
            current_obj = obj;
            break;
        }
        infeasible += 1;
        if evaluations > 10_000 {
            // Space looks infeasible; bail with whatever we have.
            return SearchResult {
                front: archive,
                evaluations,
                infeasible,
                memo_hits: memo.hits() - hits_before,
            };
        }
    }

    let mut temperature = cfg.initial_temperature;
    while evaluations < cfg.iterations as u64 {
        let mut candidate = current_genome.clone();
        candidate.mutate(space, cfg.mutation_rate, &mut rng);
        evaluations += 1;
        temperature *= cfg.cooling;
        let Some(obj) = lookup_or_evaluate(&candidate, space, evaluator, memo, &mut archive) else {
            infeasible += 1;
            continue;
        };
        let accept = match current_obj.compare(&obj) {
            Dominance::DominatedBy | Dominance::Equal | Dominance::Incomparable => true,
            Dominance::Dominates => {
                let delta = domination_energy(&current_obj, &obj);
                rng.gen::<f64>() < (-delta / temperature.max(1e-12)).exp()
            }
        };
        if accept {
            current_genome = candidate;
            current_obj = obj;
        }
    }
    SearchResult { front: archive, evaluations, infeasible, memo_hits: memo.hits() - hits_before }
}

/// Runs `restarts` independent MOSA chains (seeds `seed`, `seed+1`, …)
/// and merges their archives into one front, restarts fanned out across
/// cores.
///
/// Annealing is inherently sequential — each step mutates the previous
/// accepted state — so a single chain cannot be parallelized without
/// changing its semantics. Independent restarts can: they explore from
/// different random starting points (escaping different local basins) and
/// their archives merge deterministically in restart order, so the result
/// is bit-identical regardless of how many threads executed them.
///
/// `SearchResult::evaluations` sums over all chains: quality comparisons
/// against other optimizers stay budget-honest.
///
/// # Panics
///
/// Panics if `restarts` is zero.
#[must_use]
pub fn mosa_restarts(
    space: &DesignSpace,
    evaluator: &(dyn Evaluator + Sync),
    cfg: &MosaConfig,
    restarts: usize,
) -> SearchResult {
    assert!(restarts >= 1, "at least one restart required");
    let chain_indices: Vec<u64> = (0..restarts as u64).collect();
    let runs = crate::parallel::parallel_map_with_block(
        &chain_indices,
        1,
        || (),
        |(), &i| {
            let chain_cfg = MosaConfig { seed: cfg.seed.wrapping_add(i), ..*cfg };
            mosa(space, evaluator, &chain_cfg)
        },
    );
    let mut merged =
        SearchResult { front: ParetoArchive::new(), evaluations: 0, infeasible: 0, memo_hits: 0 };
    for run in runs {
        merged.evaluations += run.evaluations;
        merged.infeasible += run.infeasible;
        merged.memo_hits += run.memo_hits;
        merged.front.merge(run.front);
    }
    merged
}

/// Pure random search with the same evaluation budget — the sanity
/// baseline every metaheuristic must beat.
#[must_use]
pub fn random_search(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    iterations: usize,
    seed: u64,
) -> SearchResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut archive = ParetoArchive::new();
    let mut infeasible = 0u64;
    for _ in 0..iterations {
        let point = Genome::random(space, &mut rng).decode(space);
        match evaluator.evaluate(&point) {
            Some(obj) => {
                archive.insert(obj, point);
            }
            None => infeasible += 1,
        }
    }
    SearchResult { front: archive, evaluations: iterations as u64, infeasible, memo_hits: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ModelEvaluator;

    #[test]
    fn energy_is_zero_for_improvements() {
        let a = ObjectiveVector::new(vec![2.0, 2.0]);
        let better = ObjectiveVector::new(vec![1.0, 1.0]);
        assert_eq!(domination_energy(&a, &better), 0.0);
        let worse = ObjectiveVector::new(vec![3.0, 2.0]);
        assert!((domination_energy(&a, &worse) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mosa_finds_points() {
        let space = DesignSpace::case_study(4);
        let cfg = MosaConfig { iterations: 400, seed: 5, ..MosaConfig::default() };
        let result = mosa(&space, &ModelEvaluator::shimmer(), &cfg);
        assert!(!result.front.is_empty());
        assert_eq!(result.evaluations, 400);
    }

    #[test]
    fn mosa_deterministic_for_seed() {
        let space = DesignSpace::case_study(4);
        let cfg = MosaConfig { iterations: 300, seed: 6, ..MosaConfig::default() };
        let a = mosa(&space, &ModelEvaluator::shimmer(), &cfg);
        let b = mosa(&space, &ModelEvaluator::shimmer(), &cfg);
        let ao: Vec<_> = a.front.objectives().copied().collect();
        let bo: Vec<_> = b.front.objectives().copied().collect();
        assert_eq!(ao, bo);
    }

    #[test]
    fn memoized_mosa_matches_plain_run_bitwise() {
        let space = DesignSpace::case_study(4);
        let cfg = MosaConfig { iterations: 400, seed: 21, ..MosaConfig::default() };
        let memoized = mosa(&space, &ModelEvaluator::shimmer(), &cfg);
        let plain = mosa(&space, &ModelEvaluator::shimmer(), &MosaConfig { memo: false, ..cfg });
        assert!(memoized.memo_hits > 0, "annealing revisits neighbors; expected hits");
        assert_eq!(plain.memo_hits, 0);
        assert_eq!(memoized.evaluations, plain.evaluations);
        assert_eq!(memoized.infeasible, plain.infeasible);
        assert_eq!(memoized.front.entries(), plain.front.entries());
    }

    #[test]
    fn restarts_merge_deterministically_and_never_shrink_the_front() {
        let space = DesignSpace::case_study(4);
        let eval = ModelEvaluator::shimmer();
        let cfg = MosaConfig { iterations: 300, seed: 11, ..MosaConfig::default() };
        let multi = mosa_restarts(&space, &eval, &cfg, 4);
        assert_eq!(multi.evaluations, 4 * 300);
        // Bit-identical on repetition (regardless of thread scheduling).
        let again = mosa_restarts(&space, &eval, &cfg, 4);
        let a: Vec<_> = multi.front.objectives().copied().collect();
        let b: Vec<_> = again.front.objectives().copied().collect();
        assert_eq!(a, b);
        // The merged front weakly dominates every single chain's front.
        for i in 0..4u64 {
            let chain_cfg = MosaConfig { seed: 11 + i, ..cfg };
            let single = mosa(&space, &eval, &chain_cfg);
            for p in single.front.objectives() {
                assert!(
                    multi.front.objectives().any(|m| m.weakly_dominates(p)),
                    "merged front lost chain {i}'s point {p}"
                );
            }
        }
    }

    #[test]
    fn single_restart_equals_plain_mosa() {
        let space = DesignSpace::case_study(4);
        let eval = ModelEvaluator::shimmer();
        let cfg = MosaConfig { iterations: 200, seed: 9, ..MosaConfig::default() };
        let single = mosa(&space, &eval, &cfg);
        let wrapped = mosa_restarts(&space, &eval, &cfg, 1);
        let a: Vec<_> = single.front.objectives().copied().collect();
        let b: Vec<_> = wrapped.front.objectives().copied().collect();
        assert_eq!(a, b);
        assert_eq!(single.evaluations, wrapped.evaluations);
    }

    #[test]
    fn random_search_counts_infeasible() {
        let space = DesignSpace::case_study(4);
        let result = random_search(&space, &ModelEvaluator::shimmer(), 500, 8);
        // 2 of 6 DWT-node clocks are infeasible (1, 2 MHz): expect a
        // substantial infeasible fraction.
        assert!(result.infeasible > 50, "infeasible {}", result.infeasible);
        assert!(!result.front.is_empty());
    }
}
