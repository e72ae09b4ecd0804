//! Bridges between design points and objective vectors.
//!
//! [`ModelEvaluator`] is the paper's proposal: the three-objective
//! (energy, delay, PRD) analytical model. [`EnergyDelayEvaluator`] is the
//! state-of-the-art baseline the paper compares against (\[26\]): the
//! same energy/delay physics but *blind to application quality* — the
//! reason it recovers only ~7 % of the true trade-offs (Fig. 5).
//! [`LifetimeEvaluator`] adds a fourth, battery-lifetime objective.
//!
//! All three override [`Evaluator::evaluate_batch`] with one batch path:
//! every batch, whatever its size or node count, runs through its
//! lane's struct-of-arrays kernel (`wbsn_model::soa`) —
//! [`WbsnModel::evaluate_objectives_batch`] for the two objective
//! lanes, [`WbsnModel::evaluate_batch_full`] for the lifetime lane —
//! through interned dense node/MAC tables held in a pooled
//! [`SoaScratch`]. A batch that fits one 1,024-point chunk, or any
//! batch when one thread is configured, runs inline on the calling
//! thread; larger ones fan out chunk by chunk across the workers.
//!
//! All three also override [`Evaluator::sweep_axis_major`] with the
//! kernel's whole-space walk ([`WbsnModel::sweep_axis_major`]), which
//! runs on the calling thread and projects each feasible leaf onto the
//! lane's objectives. Every kernel is bit-identical to the full model
//! evaluation, so the path is invisible to callers. [`SerialEvaluator`]
//! opts any evaluator back into the one-at-a-time defaults — the
//! baseline the speedup is measured against and the reference for
//! determinism tests.

use crate::exhaustive::batch_sweep;
use crate::objective::ObjectiveVector;
use crate::parallel::{num_threads, parallel_map_with_block};
use std::sync::{Arc, Mutex};
use wbsn_model::evaluate::WbsnModel;
use wbsn_model::lifetime::Battery;
use wbsn_model::soa::{FullEvalOut, SoaScratch, SweepLeaf};
use wbsn_model::space::{DesignPoint, DesignSpace, DigitOrder};
use wbsn_model::units::MilliWatts;
use wbsn_model::NetworkObjectives;

/// Receives the feasible points of a whole-space sweep, in enumeration
/// order: each point's objectives and a builder of the point itself,
/// to call only if the point is kept.
pub type SweepVisitor<'a> = dyn FnMut(ObjectiveVector, &dyn Fn() -> DesignPoint) + 'a;

/// Maps a design point to objectives; `None` marks infeasibility.
pub trait Evaluator {
    /// Evaluates one configuration; `None` when infeasible (duty-cycle
    /// overflow, GTS overflow, bandwidth shortfall).
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector>;

    /// Evaluates a batch of configurations, preserving order:
    /// `result[i]` corresponds to `points[i]`.
    ///
    /// Evaluation is a pure function of the point, so implementations may
    /// reorder or parallelize *execution* freely — the returned vector is
    /// indistinguishable from mapping [`Evaluator::evaluate`] serially.
    /// The default implementation does exactly that; model-backed
    /// evaluators override it with a multi-core fast path.
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        points.iter().map(|p| self.evaluate(p)).collect()
    }

    /// [`Evaluator::evaluate_batch`] for a batch laid out in axis runs
    /// (consecutive points sharing the MAC and every node but the
    /// last). A layout hint with no kernel behind it: it delegates to
    /// `evaluate_batch`, and nothing in the workspace calls it. It is
    /// kept only because perfbench's `TracedEvaluator` overrides it.
    fn evaluate_batch_axis_runs(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        self.evaluate_batch(points)
    }

    /// Evaluates every point of `space` in axis-major order
    /// ([`crate::exhaustive::point_at_axis_major`]), handing each
    /// feasible one to `visit` in that order, and returns the number of
    /// infeasible points. The stream is the one a serial map of
    /// [`Evaluator::evaluate`] over the enumeration yields.
    ///
    /// The default steps an odometer through the space and evaluates it
    /// in 4,096-point [`Evaluator::evaluate_batch`] calls. The model
    /// evaluators override it with the `SoA` whole-space walk on the
    /// calling thread.
    fn sweep_axis_major(&self, space: &DesignSpace, visit: &mut SweepVisitor<'_>) -> u64 {
        batch_sweep(self, space, DigitOrder::LastFastest, visit)
    }

    /// Number of objectives produced.
    fn num_objectives(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Wrapper forcing the trait's defaults on any evaluator — the serial
/// [`Evaluator::evaluate_batch`] and the batch-loop
/// [`Evaluator::sweep_axis_major`]: the reference implementation for
/// determinism tests and the baseline for speedup measurements.
#[derive(Debug, Clone)]
pub struct SerialEvaluator<E>(pub E);

impl<E: Evaluator> Evaluator for SerialEvaluator<E> {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.0.evaluate(point)
    }

    // evaluate_batch and sweep_axis_major deliberately NOT overridden:
    // they inherit the defaults even when `E` overrides them.

    fn num_objectives(&self) -> usize {
        self.0.num_objectives()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Pool of warm per-worker states shared by the batch workers of one
/// evaluator: `evaluate_batch` is called once per NSGA-II generation, and
/// without a pool each call would rebuild its scratches and re-derive the
/// interned kernel tables from scratch. Workers take a state on start
/// and return it (tables intact) when the batch ends.
#[derive(Debug, Default)]
struct Pool<T>(Mutex<Vec<T>>);

impl<T: Default> Pool<T> {
    fn take(self: &Arc<Self>) -> Pooled<T> {
        let state =
            self.0.lock().map_or_else(|_| T::default(), |mut p| p.pop().unwrap_or_default());
        Pooled { state, pool: Arc::clone(self) }
    }
}

/// RAII handle returning its state to the pool on drop (i.e. when the
/// worker thread finishes its share of the batch).
///
/// The drop guard is panic-aware: when the owning thread is unwinding
/// (a model bug or injected fault fired mid-evaluation), the leased
/// state is **discarded** instead of returned — a scratch abandoned
/// halfway through an evaluation may hold inconsistent tables, and
/// recycling it would poison every later batch served from the warm
/// pool. The pool lazily rebuilds a fresh state on the next take.
struct Pooled<T: Default> {
    state: T,
    pool: Arc<Pool<T>>,
}

impl<T: Default> Drop for Pooled<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if let Ok(mut pool) = self.pool.0.lock() {
            pool.push(std::mem::take(&mut self.state));
        }
    }
}

/// Points per `SoA` chunk: the batch size run inline on the calling
/// thread, and above it the work unit handed to one worker's pooled
/// kernel scratch. Large enough to amortize chunk bookkeeping, small
/// enough to split a large batch across every core.
const SOA_CHUNK: usize = 1024;

/// The model evaluators' [`Evaluator::sweep_axis_major`]: the `SoA`
/// whole-space walk through `scratch`, each feasible leaf projected onto
/// the lane's objectives by `project`. `None`, with nothing visited,
/// when the walk does not take the space; the caller then runs the
/// default batch loop.
fn walk(
    model: &WbsnModel,
    scratch: &mut SoaScratch,
    space: &DesignSpace,
    visit: &mut SweepVisitor<'_>,
    project: impl Fn(&SweepLeaf<'_>) -> ObjectiveVector,
) -> Option<u64> {
    model.sweep_axis_major(space, scratch, |leaf| {
        let point = || {
            let mut digits = leaf.digits.iter().copied();
            space.point_with(|_| digits.next().expect("one digit per dimension"))
        };
        visit(project(leaf), &point);
    })
}

/// The one batch dispatcher behind every model-backed evaluator: runs
/// `kernel` over the whole batch inline through one pooled state when
/// the batch fits a [`SOA_CHUNK`] or one thread is configured, and
/// otherwise fans [`SOA_CHUNK`]-point chunks out across the workers,
/// each worker leasing its own warm state. `kernel` maps a chunk to its
/// per-point results in order, so the output order never depends on
/// the split.
fn dispatch<T: Default + Send>(
    pool: &Arc<Pool<T>>,
    points: &[DesignPoint],
    kernel: impl Fn(&mut T, &[DesignPoint]) -> Vec<Option<ObjectiveVector>> + Sync,
) -> Vec<Option<ObjectiveVector>> {
    if points.len() <= SOA_CHUNK || num_threads() == 1 {
        return kernel(&mut pool.take().state, points);
    }
    let chunks: Vec<&[DesignPoint]> = points.chunks(SOA_CHUNK).collect();
    let per_chunk: Vec<Vec<Option<ObjectiveVector>>> = parallel_map_with_block(
        &chunks,
        1,
        || pool.take(),
        |pooled, chunk| kernel(&mut pooled.state, chunk),
    );
    per_chunk.into_iter().flatten().collect()
}

/// The objective lanes' kernel under [`dispatch`]: the plain `SoA`
/// objectives kernel, with each feasible outcome projected by `project`.
fn objectives_batch(
    model: &WbsnModel,
    pool: &Arc<Pool<SoaScratch>>,
    points: &[DesignPoint],
    project: impl Fn(&NetworkObjectives) -> ObjectiveVector + Sync,
) -> Vec<Option<ObjectiveVector>> {
    dispatch(pool, points, |scratch, chunk| {
        let outcomes = model.evaluate_objectives_batch(chunk, scratch);
        outcomes.iter().map(|outcome| outcome.as_ref().ok().map(&project)).collect()
    })
}

/// The proposed multi-layer model: objectives `(Enet, delay, PRD)`.
#[derive(Debug, Clone)]
pub struct ModelEvaluator {
    model: WbsnModel,
    pool: Arc<Pool<SoaScratch>>,
}

impl ModelEvaluator {
    /// Uses the Shimmer case-study model.
    #[must_use]
    pub fn shimmer() -> Self {
        Self::new(WbsnModel::shimmer())
    }

    /// Uses a custom model (e.g. different ϑ).
    #[must_use]
    pub fn new(model: WbsnModel) -> Self {
        Self { model, pool: Arc::default() }
    }
}

impl Evaluator for ModelEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.model
            .evaluate(&point.mac, &point.nodes)
            .ok()
            .map(|e| ObjectiveVector::from_slice(&e.objectives.to_array()))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        objectives_batch(&self.model, &self.pool, points, |o| {
            ObjectiveVector::from_slice(&o.to_array())
        })
    }

    fn sweep_axis_major(&self, space: &DesignSpace, visit: &mut SweepVisitor<'_>) -> u64 {
        let walked = walk(&self.model, &mut self.pool.take().state, space, visit, |leaf| {
            ObjectiveVector::from_slice(&leaf.objectives.to_array())
        });
        walked.unwrap_or_else(|| batch_sweep(self, space, DigitOrder::LastFastest, visit))
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn name(&self) -> &'static str {
        "proposed-model"
    }
}

/// The energy/delay-only baseline model (\[26\]): same physics, no
/// application-quality axis.
#[derive(Debug, Clone)]
pub struct EnergyDelayEvaluator {
    model: WbsnModel,
    pool: Arc<Pool<SoaScratch>>,
}

impl EnergyDelayEvaluator {
    /// Uses the Shimmer case-study model.
    #[must_use]
    pub fn shimmer() -> Self {
        Self::new(WbsnModel::shimmer())
    }

    /// Uses a custom model (e.g. different ϑ).
    #[must_use]
    pub fn new(model: WbsnModel) -> Self {
        Self { model, pool: Arc::default() }
    }
}

impl Evaluator for EnergyDelayEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.model
            .evaluate(&point.mac, &point.nodes)
            .ok()
            .map(|e| ObjectiveVector::from_slice(&e.objectives.energy_delay()))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        objectives_batch(&self.model, &self.pool, points, |o| {
            ObjectiveVector::from_slice(&o.energy_delay())
        })
    }

    fn sweep_axis_major(&self, space: &DesignSpace, visit: &mut SweepVisitor<'_>) -> u64 {
        let walked = walk(&self.model, &mut self.pool.take().state, space, visit, |leaf| {
            ObjectiveVector::from_slice(&leaf.objectives.energy_delay())
        });
        walked.unwrap_or_else(|| batch_sweep(self, space, DigitOrder::LastFastest, visit))
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "energy-delay-baseline"
    }
}

/// Warm per-worker state of the lifetime lane: the kernel scratch plus
/// the full per-node output buffer its batch path reads the `Enode`
/// lane from.
#[derive(Debug, Default)]
struct FullState {
    soa: SoaScratch,
    full: FullEvalOut,
}

/// The four-objective extension lane: the paper's `(Enet, delay, PRD)`
/// plus a battery-lifetime axis from [`wbsn_model::lifetime`].
///
/// The lifetime objective is **negated days** until the *first* node
/// drains its battery (the network is dead once any node is): smaller
/// is better, like every other axis, so the searchers need no special
/// casing. The first three components are produced by the exact same
/// kernel walk as [`ModelEvaluator`] and are bit-identical to it —
/// dropping the lane recovers the three-objective projection exactly
/// (tested below). A zero-draw configuration maps to `-∞`, which
/// [`ObjectiveVector`] accepts deliberately.
///
/// The batch path runs [`WbsnModel::evaluate_batch_full`] because the
/// lifetime axis needs the per-node `Enode` lane — the aggregate
/// objectives only carry the network mean. The whole-space walk hands
/// each leaf the same lane.
#[derive(Debug, Clone)]
pub struct LifetimeEvaluator {
    model: WbsnModel,
    battery: Battery,
    full_pool: Arc<Pool<FullState>>,
}

impl LifetimeEvaluator {
    /// Uses the Shimmer case-study model and its 450 mAh / 3.7 V cell.
    #[must_use]
    pub fn shimmer() -> Self {
        Self::new(WbsnModel::shimmer(), Battery::shimmer())
    }

    /// Uses a custom model and battery.
    #[must_use]
    pub fn new(model: WbsnModel, battery: Battery) -> Self {
        Self { model, battery, full_pool: Arc::default() }
    }

    /// The four objectives of a feasible point: its three model
    /// objectives, then negated lifetime-days at the worst of its
    /// per-node `Enode` draws (mJ/s).
    fn project(
        &self,
        objectives: &NetworkObjectives,
        draws: impl Iterator<Item = f64>,
    ) -> ObjectiveVector {
        let max_draw = draws.fold(0.0f64, f64::max);
        let [energy, delay, prd] = objectives.to_array();
        let lifetime = -self.battery.lifetime_days(MilliWatts::new(max_draw));
        ObjectiveVector::from_slice(&[energy, delay, prd, lifetime])
    }
}

impl Evaluator for LifetimeEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.model.evaluate(&point.mac, &point.nodes).ok().map(|e| {
            self.project(&e.objectives, e.per_node.iter().map(|n| n.energy.total().value()))
        })
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        dispatch(&self.full_pool, points, |state, chunk| {
            self.model.evaluate_batch_full(chunk, &mut state.soa, &mut state.full);
            let full = &state.full;
            full.outcomes()
                .iter()
                .enumerate()
                .map(|(i, outcome)| {
                    let draws = full.energy()[full.node_range(i)].iter().copied();
                    outcome.as_ref().ok().map(|o| self.project(o, draws))
                })
                .collect()
        })
    }

    fn sweep_axis_major(&self, space: &DesignSpace, visit: &mut SweepVisitor<'_>) -> u64 {
        let walked =
            walk(&self.model, &mut self.full_pool.take().state.soa, space, visit, |leaf| {
                self.project(&leaf.objectives, leaf.energies.iter().copied())
            });
        walked.unwrap_or_else(|| batch_sweep(self, space, DigitOrder::LastFastest, visit))
    }

    fn num_objectives(&self) -> usize {
        4
    }

    fn name(&self) -> &'static str {
        "lifetime-extended"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;
    use wbsn_model::space::DesignSpace;

    #[test]
    fn model_evaluator_produces_three_objectives() {
        let space = DesignSpace::case_study(6);
        let eval = ModelEvaluator::shimmer();
        // The all-last point uses fµC = 8 MHz: feasible.
        let point = space.point_with(|n| n - 1);
        let obj = eval.evaluate(&point).expect("feasible");
        assert_eq!(obj.len(), 3);
        assert_eq!(eval.num_objectives(), 3);
        assert!(obj.values().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn baseline_drops_prd_axis() {
        let space = DesignSpace::case_study(6);
        let point = space.point_with(|n| n - 1);
        let full = ModelEvaluator::shimmer().evaluate(&point).expect("feasible");
        let base = EnergyDelayEvaluator::shimmer().evaluate(&point).expect("feasible");
        assert_eq!(base.len(), 2);
        assert_eq!(base.values()[0], full.values()[0]);
        assert_eq!(base.values()[1], full.values()[1]);
    }

    #[test]
    fn infeasible_points_map_to_none() {
        let space = DesignSpace::case_study(6);
        // First index everywhere ⇒ fµC = 1 MHz on DWT nodes ⇒ infeasible.
        let point = space.point_with(|_| 0);
        assert!(ModelEvaluator::shimmer().evaluate(&point).is_none());
    }

    #[test]
    fn names() {
        assert_eq!(ModelEvaluator::shimmer().name(), "proposed-model");
        assert_eq!(EnergyDelayEvaluator::shimmer().name(), "energy-delay-baseline");
    }

    /// Batch shapes across the dispatcher's range: empty, one point,
    /// 63 and 64 points (NSGA-II generation sizes), one full chunk, one
    /// point past it and several fanned-out chunks. They are drawn from
    /// a 3-node space (the coarse truth scenario: the 3-node case study
    /// samples all infeasible), the 6-node case study and a 17-node one
    /// (all GTS-infeasible); plus a batch of alternating 6- and 18-node
    /// runs, mixed node counts in one batch.
    fn dispatch_batches() -> Vec<Vec<DesignPoint>> {
        let mut batches = Vec::new();
        let spaces = [
            crate::truth::coarse_3node().space,
            DesignSpace::case_study(6),
            DesignSpace::case_study(17),
        ];
        for space in spaces {
            let sweep = space.sample_sweep(2 * SOA_CHUNK + 7);
            for len in [0, 1, 63, 64, SOA_CHUNK, SOA_CHUNK + 1, 2 * SOA_CHUNK + 7] {
                batches.push(sweep[..len].to_vec());
            }
        }
        let narrow = DesignSpace::case_study(6).sample_sweep(SOA_CHUNK);
        let wide = DesignSpace::case_study(18).sample_sweep(SOA_CHUNK);
        let mut mixed = Vec::new();
        for (a, b) in narrow.chunks(10).zip(wide.chunks(10)) {
            mixed.extend_from_slice(a);
            mixed.extend_from_slice(b);
        }
        batches.push(mixed);
        batches
    }

    /// `evaluate_batch` of `eval`, inline (one thread) and fanned out
    /// (three threads), equals the serial map of `evaluate` on every
    /// [`dispatch_batches`] shape.
    fn assert_batch_paths_match_serial<E: Evaluator + Clone>(eval: &E) {
        let serial = SerialEvaluator(eval.clone());
        for points in dispatch_batches() {
            let expected = serial.evaluate_batch(&points);
            for threads in [1, 3] {
                with_threads(threads, || {
                    let nodes = points.first().map_or(0, |p| p.nodes.len());
                    let shape = format!("{} {nodes}-node points, {threads} threads", points.len());
                    assert_eq!(eval.evaluate_batch(&points), expected, "{shape}");
                });
            }
        }
    }

    #[test]
    fn batch_is_bit_identical_to_serial_for_both_evaluators() {
        let model = ModelEvaluator::shimmer();
        assert_batch_paths_match_serial(&model);
        assert_batch_paths_match_serial(&EnergyDelayEvaluator::shimmer());
        // And the serial default really is a map of `evaluate`.
        let points = DesignSpace::case_study(6).sample_sweep(300);
        for (p, o) in points.iter().zip(SerialEvaluator(model.clone()).evaluate_batch(&points)) {
            assert_eq!(o, model.evaluate(p));
        }
    }

    #[test]
    fn batch_marks_infeasible_points_as_none() {
        let space = DesignSpace::case_study(6);
        let feasible = space.point_with(|n| n - 1);
        let infeasible = space.point_with(|_| 0);
        let batch =
            ModelEvaluator::shimmer().evaluate_batch(&[feasible.clone(), infeasible, feasible]);
        assert!(batch[0].is_some());
        assert!(batch[1].is_none());
        assert_eq!(batch[0], batch[2]);
    }

    #[test]
    fn empty_batch() {
        assert!(ModelEvaluator::shimmer().evaluate_batch(&[]).is_empty());
    }

    /// A state leased while its thread panics must be discarded, not
    /// recycled: the warm pool only ever holds states that completed
    /// their batch share cleanly.
    #[test]
    fn panicking_lease_discards_state_instead_of_poisoning_the_pool() {
        let pool: Arc<Pool<Vec<u8>>> = Arc::default();

        // Clean lease/return round-trip: the state comes back warm.
        {
            let mut lease = pool.take();
            lease.state.push(42);
        }
        assert_eq!(pool.take().state, vec![42], "clean drops recycle the state");

        // Lease the warm state again, corrupt it, and panic holding it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = pool.take();
            lease.state.push(99); // half-written "poisoned" scratch
            panic!("evaluation died mid-batch");
        }));
        assert!(result.is_err());

        // The poisoned state was discarded: the next take builds fresh.
        assert!(pool.take().state.is_empty(), "panicked lease must not re-enter the pool");
    }

    /// Satellite: with the lifetime lane disabled (i.e. using
    /// [`ModelEvaluator`]), results are bit-identical to the first three
    /// components of the four-objective lane — the extension axis rides
    /// on the same kernel walk and cannot perturb the paper's
    /// objectives.
    #[test]
    fn lifetime_lane_first_three_objectives_are_bit_identical_to_model() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(300);
        let three = ModelEvaluator::shimmer();
        let four = LifetimeEvaluator::shimmer();
        assert_eq!(four.num_objectives(), 4);
        for (a, b) in three.evaluate_batch(&points).iter().zip(four.evaluate_batch(&points)) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(b.len(), 4);
                    for k in 0..3 {
                        assert_eq!(
                            a.values()[k].to_bits(),
                            b.values()[k].to_bits(),
                            "objective {k} must be bit-identical with the lane enabled"
                        );
                    }
                }
                (None, None) => {}
                (a, b) => panic!("feasibility disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn lifetime_batch_is_bit_identical_to_serial() {
        assert_batch_paths_match_serial(&LifetimeEvaluator::shimmer());
    }

    #[test]
    fn lifetime_objective_is_negated_days_of_the_worst_node() {
        let space = DesignSpace::case_study(6);
        let point = space.point_with(|n| n - 1);
        let eval = LifetimeEvaluator::shimmer();
        let obj = eval.evaluate(&point).expect("feasible");
        let lifetime = obj.values()[3];
        // Negated, finite, and bounded by the battery: no node draws
        // little enough to last a year, none so much it dies in a day.
        assert!(lifetime < 0.0, "{lifetime}");
        assert!((-365.0..=-1.0).contains(&lifetime), "{lifetime}");
        assert_eq!(eval.name(), "lifetime-extended");
    }

    #[test]
    fn dyn_evaluator_dispatches_batch_override() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(50);
        let concrete = ModelEvaluator::shimmer();
        let as_dyn: &dyn Evaluator = &concrete;
        assert_eq!(as_dyn.evaluate_batch(&points), concrete.evaluate_batch(&points));
    }
}
