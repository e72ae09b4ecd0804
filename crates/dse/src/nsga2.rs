//! NSGA-II: elitist non-dominated sorting genetic algorithm.
//!
//! The paper employs genetic algorithms for the DSE (§5.2, citing \[3\]);
//! NSGA-II is the standard multi-objective variant: fast non-dominated
//! sorting into fronts, crowding-distance diversity preservation, binary
//! tournament selection and (µ+λ) elitism. Infeasible configurations are
//! assigned `+∞` objectives, which non-dominated sorting pushes to the
//! last fronts automatically.
//!
//! Evaluation is batched: each generation's fresh genomes (and the
//! initial population) go through [`Evaluator::evaluate_batch`] as one
//! batch. Only genomes the memo has not seen reach it: about 36 per
//! generation on the default coarse 3-node run, far below one
//! 1,024-point `SOA_CHUNK`, so the model evaluators run the batch inline
//! on the calling thread. A batch fans out across cores only above one
//! chunk, which no shipped configuration reaches (the largest population
//! is fig. 5's 200). Variation consumes the RNG, evaluation does not —
//! so a seeded run is bit-identical whether the evaluator executes the
//! batch serially or in parallel (see `SerialEvaluator`).
//!
//! Ranking reuses one set of buffers for the whole run: a bitset
//! dominance row and a `u32` domination count per individual, every
//! front written back to back into one index buffer, and crowding's
//! order and distance buffers. Each pair of individuals is compared
//! once. After the first generation of µ+λ individuals, ranking and
//! crowding allocate nothing.
//!
//! Evaluation is also deduplicated: a [`GenomeMemo`] keyed by genome
//! replays the outcome of every previously seen candidate (elitism and
//! crossover of similar parents regenerate identical genomes constantly),
//! so only first-occurrence genomes are decoded and evaluated. Counters
//! and fronts are bit-identical with the memo on or off; disable via
//! [`Nsga2Config::memo`] to benchmark the difference.

use crate::evaluator::Evaluator;
use crate::genome::Genome;
use crate::memo::GenomeMemo;
use crate::objective::{Dominance, ObjectiveVector};
use crate::pareto::ParetoArchive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use wbsn_model::space::{DesignPoint, DesignSpace};

/// NSGA-II hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Population size (µ).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of crossover (else the child is a parent clone).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Memoize evaluation outcomes by genome so identical genomes are
    /// never re-evaluated across generations. Fronts and counters are
    /// bit-identical either way; disable only to measure the dedup win.
    pub memo: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 100,
            crossover_rate: 0.9,
            mutation_rate: 0.08,
            seed: 42,
            memo: true,
        }
    }
}

/// Result of a run: the non-dominated feasible set over *every* visited
/// configuration (not just the final population) plus counters.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Non-dominated feasible design points with their objectives.
    pub front: ParetoArchive<DesignPoint>,
    /// Total candidate evaluations requested by the search (memo hits
    /// included — the number the evaluator would have run without dedup,
    /// which keeps evaluation budgets comparable across configurations).
    pub evaluations: u64,
    /// Evaluations that came back infeasible.
    pub infeasible: u64,
    /// Evaluations answered from the genome memo (evaluator calls
    /// actually skipped); 0 when memoization is off or not applicable.
    pub memo_hits: u64,
}

struct Individual {
    genome: Genome,
    objectives: ObjectiveVector,
    rank: usize,
    crowding: f64,
}

/// Runs NSGA-II over the design space with the given evaluator.
///
/// ```no_run
/// use wbsn_dse::evaluator::ModelEvaluator;
/// use wbsn_dse::nsga2::{nsga2, Nsga2Config};
/// use wbsn_model::space::DesignSpace;
///
/// let space = DesignSpace::case_study(6);
/// let result = nsga2(&space, &ModelEvaluator::shimmer(), &Nsga2Config::default());
/// println!("{} Pareto points", result.front.len());
/// ```
#[must_use]
pub fn nsga2(space: &DesignSpace, evaluator: &dyn Evaluator, cfg: &Nsga2Config) -> SearchResult {
    let mut memo = GenomeMemo::new(cfg.memo);
    nsga2_with_memo(space, evaluator, cfg, &mut memo)
}

/// [`nsga2`] running against a caller-provided [`GenomeMemo`], so
/// several runs (e.g. the optimizer-comparison experiment, or repeated
/// searches over the same space) share one deduplication cache. The
/// memo's own enabled flag governs memoization; [`Nsga2Config::memo`] is
/// ignored here. [`SearchResult::memo_hits`] counts only this run's
/// hits.
///
/// Sharing is observationally transparent: replayed outcomes are
/// re-inserted into the run's archive (a rejected no-op when the first
/// occurrence happened within the same run), so fronts and counters are
/// bit-identical to a run with a private memo — or with none at all.
#[must_use]
pub fn nsga2_with_memo(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    cfg: &Nsga2Config,
    memo: &mut GenomeMemo,
) -> SearchResult {
    memo.begin_run();
    let hits_before = memo.hits();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0u64;
    let mut infeasible = 0u64;
    let mut archive: ParetoArchive<DesignPoint> = ParetoArchive::new();
    let infeasible_objectives =
        ObjectiveVector::new(vec![f64::INFINITY; evaluator.num_objectives()]);
    let mut ranking = Ranking::default();

    // Initial population: all genomes drawn first (evaluation consumes no
    // randomness), then evaluated as one batch.
    let genomes: Vec<Genome> =
        (0..cfg.population).map(|_| Genome::random(space, &mut rng)).collect();
    let mut population = evaluate_generation(
        genomes,
        space,
        evaluator,
        memo,
        infeasible_objectives,
        &mut evaluations,
        &mut infeasible,
        &mut archive,
    );
    assign_rank_and_crowding(&mut population, &mut ranking);

    for _ in 0..cfg.generations {
        // Offspring via binary tournament + crossover + mutation.
        let children: Vec<Genome> = (0..cfg.population)
            .map(|_| {
                let a = tournament(&population, &mut rng);
                let b = tournament(&population, &mut rng);
                let mut child = if rng.gen::<f64>() < cfg.crossover_rate {
                    population[a].genome.crossover(&population[b].genome, &mut rng)
                } else {
                    population[a].genome.clone()
                };
                child.mutate(space, cfg.mutation_rate, &mut rng);
                child
            })
            .collect();
        let mut offspring = evaluate_generation(
            children,
            space,
            evaluator,
            memo,
            infeasible_objectives,
            &mut evaluations,
            &mut infeasible,
            &mut archive,
        );
        // (µ+λ) elitism: best `population` individuals survive.
        population.append(&mut offspring);
        assign_rank_and_crowding(&mut population, &mut ranking);
        population.sort_by(|x, y| {
            x.rank.cmp(&y.rank).then(
                y.crowding.partial_cmp(&x.crowding).expect("crowding distances are comparable"),
            )
        });
        population.truncate(cfg.population);
    }

    SearchResult { front: archive, evaluations, infeasible, memo_hits: memo.hits() - hits_before }
}

/// Evaluates one generation's genomes as a single batch, answering
/// repeated genomes from the memo.
///
/// Only genomes the memo has never seen (first occurrence within this
/// batch included) are decoded and sent to [`Evaluator::evaluate_batch`];
/// everything else replays its recorded outcome. Feasible replayed
/// outcomes are re-inserted into the archive: within one run that is
/// always rejected as weakly dominated (see [`GenomeMemo`]), and when a
/// memo is shared across runs it seeds the fresh archive with outcomes
/// first seen by an earlier run — either way the archive is bit-identical
/// to the memo-free run.
#[allow(clippy::too_many_arguments)]
fn evaluate_generation(
    genomes: Vec<Genome>,
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    memo: &mut GenomeMemo,
    infeasible_objectives: ObjectiveVector,
    evaluations: &mut u64,
    infeasible: &mut u64,
    archive: &mut ParetoArchive<DesignPoint>,
) -> Vec<Individual> {
    *evaluations += genomes.len() as u64;

    // Pass 1: decode only genomes with no recorded (or pending in-batch)
    // outcome. `slots[i]` is the fresh-batch index individual `i` reads
    // its result from; genomes replayed from the memo — previously
    // recorded, or an in-batch duplicate whose first occurrence records
    // before pass 2 reaches the repeat — carry `None`.
    let mut fresh_points: Vec<DesignPoint> = Vec::with_capacity(genomes.len());
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(genomes.len());
    {
        let mut seen_in_batch: HashSet<&Genome> = HashSet::new();
        for genome in &genomes {
            if memo.contains(genome) || (memo.enabled() && !seen_in_batch.insert(genome)) {
                slots.push(None);
                continue;
            }
            slots.push(Some(fresh_points.len()));
            fresh_points.push(genome.decode(space));
        }
    }
    let results = evaluator.evaluate_batch(&fresh_points);
    let mut fresh_points: Vec<Option<DesignPoint>> = fresh_points.into_iter().map(Some).collect();

    // Pass 2: resolve every individual in genome order. The first walk of
    // a fresh slot records the outcome and (if feasible) inserts into the
    // archive; later walks of the same genome hit the memo.
    genomes
        .into_iter()
        .zip(slots)
        .map(|(genome, slot)| {
            let outcome =
                if let Some((cached, from_earlier_run)) = memo.get_with_provenance(&genome) {
                    // A memo shared across runs must seed this run's fresh
                    // archive with outcomes an earlier run evaluated; the
                    // epoch confines the replay to exactly those hits
                    // (within-run repeats would only be rejected as weakly
                    // dominated).
                    if from_earlier_run {
                        if let Some(obj) = cached {
                            archive.insert(obj, genome.decode(space));
                        }
                    }
                    cached
                } else if let Some(slot) = slot {
                    let result = results[slot];
                    memo.record(genome.clone(), result);
                    if let Some(obj) = result {
                        let point = fresh_points[slot].take().expect("fresh slot consumed once");
                        archive.insert(obj, point);
                    }
                    result
                } else {
                    // Pass 1 saw this genome cached, but a pass-2
                    // `record` evicted it (LRU-capped memo). Re-evaluate
                    // in place: outcomes are pure, and the archive
                    // insertion is either rejected as weakly dominated
                    // (first seen this run) or exactly the cross-run
                    // replay the provenance hit would have performed —
                    // either way bit-identical to the uncapped memo.
                    let point = genome.decode(space);
                    let result = evaluator.evaluate(&point);
                    memo.record(genome.clone(), result);
                    if let Some(obj) = result {
                        archive.insert(obj, point);
                    }
                    result
                };
            let objectives = if let Some(obj) = outcome {
                obj
            } else {
                *infeasible += 1;
                infeasible_objectives
            };
            Individual { genome, objectives, rank: 0, crowding: 0.0 }
        })
        .collect()
}

/// Binary tournament by (rank, crowding): lower rank wins; ties prefer
/// the less crowded individual.
fn tournament<R: Rng + ?Sized>(pop: &[Individual], rng: &mut R) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if (pop[a].rank, -pop[a].crowding) <= (pop[b].rank, -pop[b].crowding) {
        a
    } else {
        b
    }
}

/// Ranking buffers of one NSGA-II run, reused by every generation.
#[derive(Default)]
struct Ranking {
    /// The population's objective vectors, gathered once per ranking.
    objectives: Vec<ObjectiveVector>,
    fronts: Fronts,
    crowding: Crowding,
}

/// Non-dominated sorting state, sized once per call and allocation-free
/// once the buffers have reached the population size.
#[derive(Default)]
struct Fronts {
    /// Bitset dominance rows of `n.div_ceil(64)` words, one per
    /// individual: bit `j` of row `i` is set when `i` dominates `j`.
    dominated: Vec<u64>,
    /// How many individuals dominate each one (the sort counts it down).
    count: Vec<u32>,
    /// Every front's members, back to back, in Deb's emission order.
    members: Vec<usize>,
    /// `ends[k]` is where front `k` ends in `members`.
    ends: Vec<usize>,
}

impl Fronts {
    /// Deb's fast non-dominated sort with one [`ObjectiveVector::compare`]
    /// per pair. The emitted order is exactly [`fast_non_dominated_sort`]'s
    /// (see there): walking a bitset row from the low bit up reproduces
    /// the ascending order in which Deb's pair loop fills each list of
    /// dominated individuals.
    fn sort(&mut self, objectives: &[ObjectiveVector]) {
        let n = objectives.len();
        let words = n.div_ceil(64);
        self.dominated.clear();
        self.dominated.resize(n * words, 0);
        self.count.clear();
        self.count.resize(n, 0);
        self.members.clear();
        self.members.resize(n, 0);
        self.ends.clear();
        self.ends.resize(n, 0);
        let mut fronts = 0;
        // verify: hot-path-begin(nsga2-rank)
        for (i, a) in objectives.iter().enumerate() {
            for (j, b) in objectives.iter().enumerate().skip(i + 1) {
                match a.compare(b) {
                    Dominance::Dominates => {
                        self.dominated[i * words + j / 64] |= 1 << (j % 64);
                        self.count[j] += 1;
                    }
                    Dominance::DominatedBy => {
                        self.dominated[j * words + i / 64] |= 1 << (i % 64);
                        self.count[i] += 1;
                    }
                    Dominance::Incomparable | Dominance::Equal => {}
                }
            }
        }
        // Front 0 in ascending index order; front k + 1 in the order its
        // members' counts reach zero while front k is walked in order.
        let mut len = 0;
        for (i, &count) in self.count.iter().enumerate() {
            if count == 0 {
                self.members[len] = i;
                len += 1;
            }
        }
        let mut start = 0;
        while start < len {
            let end = len;
            for p in start..end {
                let i = self.members[p];
                for (w, &word) in self.dominated[i * words..(i + 1) * words].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.count[j] -= 1;
                        if self.count[j] == 0 {
                            self.members[len] = j;
                            len += 1;
                        }
                    }
                }
            }
            self.ends[fronts] = end;
            fronts += 1;
            start = end;
        }
        // verify: hot-path-end(nsga2-rank)
        self.ends.truncate(fronts);
    }

    /// The fronts of the last [`Fronts::sort`], best first.
    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let front = &self.members[start..end];
            start = end;
            front
        })
    }
}

/// Crowding-distance buffers, reused front after front.
#[derive(Default)]
struct Crowding {
    order: Vec<usize>,
    distance: Vec<f64>,
}

impl Crowding {
    /// [`crowding_distances`] into the reused buffers.
    fn distances(&mut self, front: &[usize], objectives: &[ObjectiveVector]) -> &[f64] {
        let len = front.len();
        self.distance.clear();
        if len <= 2 {
            self.distance.resize(len, f64::INFINITY);
            return &self.distance;
        }
        self.distance.resize(len, 0.0);
        // `order` starts as `0..len` once per front; each objective's
        // stable sort starts from the previous objective's order, which
        // decides ties.
        self.order.clear();
        self.order.extend(0..len);
        let dims = objectives[front[0]].len();
        for d in 0..dims {
            self.order.sort_by(|&x, &y| {
                let a = objectives[front[x]].values()[d];
                let b = objectives[front[y]].values()[d];
                a.partial_cmp(&b).expect("objectives are not NaN")
            });
            let lo = objectives[front[self.order[0]]].values()[d];
            let hi = objectives[front[self.order[len - 1]]].values()[d];
            self.distance[self.order[0]] = f64::INFINITY;
            self.distance[self.order[len - 1]] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 || !span.is_finite() {
                continue;
            }
            for w in 1..len - 1 {
                let prev = objectives[front[self.order[w - 1]]].values()[d];
                let next = objectives[front[self.order[w + 1]]].values()[d];
                self.distance[self.order[w]] += (next - prev) / span;
            }
        }
        &self.distance
    }
}

/// Fast non-dominated sort plus crowding distances, written into the
/// individuals through the run's reused [`Ranking`] buffers.
fn assign_rank_and_crowding(pop: &mut [Individual], ranking: &mut Ranking) {
    let Ranking { objectives, fronts, crowding } = ranking;
    objectives.clear();
    objectives.extend(pop.iter().map(|i| i.objectives));
    fronts.sort(objectives);
    for (rank, front) in fronts.iter().enumerate() {
        let distances = crowding.distances(front, objectives);
        for (&i, &d) in front.iter().zip(distances) {
            pop[i].rank = rank;
            pop[i].crowding = d;
        }
    }
}

/// Deb's fast non-dominated sort: returns index fronts, best first.
///
/// Member order is part of the contract, because crowding's boundary
/// picks and tie-breaks and the stable (rank, crowding) survivor sort
/// all depend on it. Front 0 lists its members in ascending index order.
/// Front `k + 1` lists its members in the order their domination counts
/// reach zero while front `k` is walked in its own order, each member's
/// dominated individuals visited in ascending index order.
#[must_use]
pub fn fast_non_dominated_sort(objectives: &[ObjectiveVector]) -> Vec<Vec<usize>> {
    let mut fronts = Fronts::default();
    fronts.sort(objectives);
    fronts.iter().map(<[usize]>::to_vec).collect()
}

/// Crowding distance of each member of a front (boundary points get +∞).
///
/// `front` indexes into `objectives` (the whole population's vectors);
/// the returned distances are aligned with `front`.
///
/// Degenerate fronts are guarded: an objective whose values are constant
/// across the front (`max - min = 0`), or whose span is non-finite
/// (`±∞`-encoded infeasible individuals compared against each other, or
/// finite points coexisting with `∞`), contributes 0 to every interior
/// distance instead of dividing by the zero/non-finite range. Without the
/// guard such fronts produce NaN distances and the `partial_cmp(...)
/// .expect(...)` comparators in the selection loop panic.
#[must_use]
pub fn crowding_distances(front: &[usize], objectives: &[ObjectiveVector]) -> Vec<f64> {
    Crowding::default().distances(front, objectives).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ModelEvaluator;
    use proptest::prelude::*;

    fn ov(v: &[f64]) -> ObjectiveVector {
        ObjectiveVector::new(v.to_vec())
    }

    /// The list-based sort the flat ranking replaced, kept as the
    /// reference for its fronts and their member order.
    fn reference_sort(objectives: &[ObjectiveVector]) -> Vec<Vec<usize>> {
        let n = objectives.len();
        let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut domination_count = vec![0usize; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if objectives[i].dominates(&objectives[j]) {
                    dominated_by[i].push(j);
                    domination_count[j] += 1;
                } else if objectives[j].dominates(&objectives[i]) {
                    dominated_by[j].push(i);
                    domination_count[i] += 1;
                }
            }
        }
        let mut fronts = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
        while !current.is_empty() {
            let mut next = Vec::new();
            for &i in &current {
                for &j in &dominated_by[i] {
                    domination_count[j] -= 1;
                    if domination_count[j] == 0 {
                        next.push(j);
                    }
                }
            }
            fronts.push(std::mem::take(&mut current));
            current = next;
        }
        fronts
    }

    /// The per-front allocating crowding the reused buffers replaced,
    /// kept as the reference for its distances.
    fn reference_crowding(front: &[usize], objectives: &[ObjectiveVector]) -> Vec<f64> {
        let len = front.len();
        if len <= 2 {
            return vec![f64::INFINITY; len];
        }
        let dims = objectives[front[0]].len();
        let mut distance = vec![0.0f64; len];
        let mut order: Vec<usize> = (0..len).collect();
        for d in 0..dims {
            order.sort_by(|&x, &y| {
                let a = objectives[front[x]].values()[d];
                let b = objectives[front[y]].values()[d];
                a.partial_cmp(&b).expect("objectives are not NaN")
            });
            let lo = objectives[front[order[0]]].values()[d];
            let hi = objectives[front[order[len - 1]]].values()[d];
            distance[order[0]] = f64::INFINITY;
            distance[order[len - 1]] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 || !span.is_finite() {
                continue;
            }
            for w in 1..len - 1 {
                let prev = objectives[front[order[w - 1]]].values()[d];
                let next = objectives[front[order[w + 1]]].values()[d];
                distance[order[w]] += (next - prev) / span;
            }
        }
        distance
    }

    /// Populations of 0–400 vectors on a 5-value grid (ties and
    /// duplicates are common), with all-`+∞` infeasible rows mixed in.
    fn grid_population(dims: usize) -> impl Strategy<Value = Vec<ObjectiveVector>> {
        let grid_row = || {
            prop::collection::vec((0u8..5).prop_map(f64::from), dims..=dims)
                .prop_map(ObjectiveVector::new)
        };
        let infeasible = Just(ObjectiveVector::new(vec![f64::INFINITY; dims]));
        prop::collection::vec(prop_oneof![grid_row(), grid_row(), infeasible], 0..=400)
    }

    proptest! {
        // One `Ranking` ranks two populations in turn, as a run's
        // generations do: fronts must equal the reference as sequences
        // (member order included) and crowding must match bit for bit.
        #[test]
        fn ranking_matches_reference_member_order_included(
            populations in (2usize..=4).prop_flat_map(|dims| {
                (grid_population(dims), grid_population(dims))
            }),
        ) {
            let mut ranking = Ranking::default();
            for objectives in [&populations.0, &populations.1] {
                let expected = reference_sort(objectives);
                ranking.fronts.sort(objectives);
                let fronts: Vec<&[usize]> = ranking.fronts.iter().collect();
                prop_assert_eq!(fronts.len(), expected.len());
                for (front, reference) in fronts.iter().zip(&expected) {
                    prop_assert_eq!(*front, &reference[..]);
                    let got: Vec<u64> = ranking
                        .crowding
                        .distances(front, objectives)
                        .iter()
                        .map(|d| d.to_bits())
                        .collect();
                    let want: Vec<u64> = reference_crowding(reference, objectives)
                        .iter()
                        .map(|d| d.to_bits())
                        .collect();
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(fast_non_dominated_sort(objectives), expected);
            }
        }
    }

    #[test]
    fn sort_splits_known_fronts() {
        let objs = vec![
            ov(&[1.0, 4.0]), // front 0
            ov(&[4.0, 1.0]), // front 0
            ov(&[2.0, 5.0]), // front 1 (dominated by #0)
            ov(&[5.0, 5.0]), // front 2
            ov(&[2.0, 2.0]), // front 0
        ];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 1, 4]);
        assert_eq!(fronts[1], vec![2]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn sort_handles_single_front() {
        let objs = vec![ov(&[1.0, 3.0]), ov(&[2.0, 2.0]), ov(&[3.0, 1.0])];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 3);
    }

    #[test]
    fn small_run_finds_feasible_front() {
        let space = DesignSpace::case_study(4);
        let cfg =
            Nsga2Config { population: 24, generations: 10, seed: 7, ..Nsga2Config::default() };
        let result = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        assert!(!result.front.is_empty(), "must find feasible points");
        assert_eq!(result.evaluations, 24 + 24 * 10);
        // The archive is mutually non-dominated by construction; check
        // objectives are finite.
        for e in result.front.entries() {
            assert!(e.objectives.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let space = DesignSpace::case_study(4);
        let cfg = Nsga2Config { population: 16, generations: 5, seed: 3, ..Nsga2Config::default() };
        let a = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        let b = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        let ao: Vec<_> = a.front.objectives().copied().collect();
        let bo: Vec<_> = b.front.objectives().copied().collect();
        assert_eq!(ao, bo);
    }

    /// Regression: a front constant on one objective used to divide by a
    /// zero range, yielding NaN crowding distances that made the
    /// `partial_cmp(...).expect(...)` survival comparator panic.
    #[test]
    fn crowding_handles_degenerate_constant_objective() {
        // All points share objective 1; objective 0 spreads them out.
        let objs = vec![ov(&[1.0, 7.0]), ov(&[2.0, 7.0]), ov(&[3.0, 7.0]), ov(&[4.0, 7.0])];
        let front: Vec<usize> = (0..objs.len()).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "degenerate front produced NaN: {d:?}");
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        // Interior distances come from objective 0 alone.
        assert!((d[1] - (3.0 - 1.0) / 3.0).abs() < 1e-12);
        assert!((d[2] - (4.0 - 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn crowding_handles_fully_constant_and_infinite_fronts() {
        // Entirely constant front: every distance must be finite-or-∞,
        // never NaN (0/0).
        let objs = vec![ov(&[5.0, 5.0]); 4];
        let front: Vec<usize> = (0..4).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "{d:?}");

        // All-infeasible front (+∞ everywhere): span is ∞ − ∞ = NaN and
        // must be guarded too.
        let objs = vec![ov(&[f64::INFINITY, f64::INFINITY]); 5];
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "{d:?}");

        // Mixed finite/∞ on one axis: non-finite span, guarded.
        let objs = vec![ov(&[1.0, 2.0]), ov(&[2.0, 1.0]), ov(&[0.5, f64::INFINITY])];
        let front: Vec<usize> = (0..3).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "{d:?}");
    }

    /// End-to-end regression: an evaluator that is constant on one axis
    /// forces every front to be degenerate; the run must not panic.
    #[test]
    fn nsga2_survives_constant_objective_evaluator() {
        struct ConstantAxis;
        impl crate::evaluator::Evaluator for ConstantAxis {
            fn evaluate(&self, point: &wbsn_model::space::DesignPoint) -> Option<ObjectiveVector> {
                Some(ObjectiveVector::from_slice(&[
                    f64::from(point.mac.payload_bytes),
                    1.0, // constant on every feasible point
                ]))
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn name(&self) -> &'static str {
                "constant-axis"
            }
        }
        let space = DesignSpace::case_study(4);
        let cfg = Nsga2Config { population: 16, generations: 4, seed: 1, ..Nsga2Config::default() };
        let result = nsga2(&space, &ConstantAxis, &cfg);
        assert!(!result.front.is_empty());
    }

    #[test]
    fn memo_counts_hits_and_preserves_counters() {
        let space = DesignSpace::case_study(4);
        let cfg =
            Nsga2Config { population: 24, generations: 10, seed: 7, ..Nsga2Config::default() };
        let memoized = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        let plain = nsga2(&space, &ModelEvaluator::shimmer(), &Nsga2Config { memo: false, ..cfg });
        // Elitist re-selection guarantees repeats in a 10-generation run.
        assert!(memoized.memo_hits > 0, "expected genome repeats to hit the memo");
        assert_eq!(plain.memo_hits, 0);
        // Counters and front are bit-identical with and without the memo.
        assert_eq!(memoized.evaluations, plain.evaluations);
        assert_eq!(memoized.infeasible, plain.infeasible);
        assert_eq!(memoized.front.entries(), plain.front.entries());
    }

    #[test]
    fn more_generations_do_not_hurt_front_quality() {
        let space = DesignSpace::case_study(4);
        let eval = ModelEvaluator::shimmer();
        let short = nsga2(
            &space,
            &eval,
            &Nsga2Config { population: 24, generations: 2, seed: 9, ..Nsga2Config::default() },
        );
        let long = nsga2(
            &space,
            &eval,
            &Nsga2Config { population: 24, generations: 25, seed: 9, ..Nsga2Config::default() },
        );
        // Compare by best energy found (a scalar proxy that must not regress).
        let best = |r: &SearchResult| {
            r.front.objectives().map(|o| o.values()[0]).fold(f64::INFINITY, f64::min)
        };
        assert!(best(&long) <= best(&short) + 1e-9);
    }
}
