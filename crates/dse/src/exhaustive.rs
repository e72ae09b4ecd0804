//! Exhaustive enumeration for small design spaces: the ground truth the
//! metaheuristics are validated against.

use crate::evaluator::{Evaluator, SweepVisitor};
use crate::nsga2::SearchResult;
use crate::pareto::{ParetoArchive, RejectFilter};
use wbsn_model::space::{DesignPoint, DesignSpace, DigitOrder};

/// Points decoded and evaluated per batch: large enough to keep every
/// core of a parallel batch evaluator busy, small enough that the decoded
/// points of one batch fit comfortably in cache.
const BATCH: usize = 4096;

/// Total number of points the mixed-radix enumeration would visit.
#[must_use]
pub fn enumeration_size(space: &DesignSpace) -> u128 {
    space.cardinality()
}

/// Exhaustively evaluates every configuration of `space`, returning the
/// exact Pareto front.
///
/// Points are visited in [`DesignSpace::point_at`] order and evaluated
/// through [`Evaluator::evaluate_batch`]; the archive's entries, their
/// order and payloads are those of a point-by-point serial pass.
///
/// # Panics
///
/// Panics if the space holds more than `limit` points — exhaustive search
/// is a ground-truth tool for reduced spaces, not a production explorer.
///
/// ```
/// use wbsn_dse::evaluator::ModelEvaluator;
/// use wbsn_dse::exhaustive::exhaustive;
/// use wbsn_model::space::DesignSpace;
///
/// let mut space = DesignSpace::case_study(2);
/// space.cr_values = vec![0.17, 0.38];
/// space.payload_values = vec![114];
/// space.order_pairs = vec![(6, 6)];
/// let result = exhaustive(&space, &ModelEvaluator::shimmer(), 10_000);
/// assert!(!result.front.is_empty());
/// ```
#[must_use]
pub fn exhaustive(space: &DesignSpace, evaluator: &dyn Evaluator, limit: u128) -> SearchResult {
    archive_sweep(space, limit, |visit| {
        batch_sweep(evaluator, space, DigitOrder::FirstFastest, visit)
    })
}

/// Decodes linear index `index` in **axis-major** order: the mirror of
/// [`DesignSpace::point_at`], with digit significance reversed so the
/// *last* pick dimension (the final node's fµC) varies fastest and the
/// first (the MAC payload) slowest.
///
/// This is the order of [`Evaluator::sweep_axis_major`], and the order
/// in which the `SoA` whole-space walk visits its leaves: the MAC
/// configuration, then each node's pick, is a depth-first descent.
/// Both orders visit exactly the same point set ([`enumeration_size`]
/// indices, each decoding a distinct digit vector).
///
/// # Panics
///
/// Panics if `index` is out of range.
#[must_use]
pub fn point_at_axis_major(space: &DesignSpace, index: u128) -> DesignPoint {
    let radices = space.dimension_radices();
    let mut digits = vec![0usize; radices.len()];
    let mut rem = index;
    // Least significant digit = LAST dimension: walk the radices from
    // the back, exactly `point_at` with the significance order flipped.
    for (digit, &radix) in digits.iter_mut().zip(&radices).rev() {
        *digit = usize::try_from(rem % radix as u128).expect("digit below its radix");
        rem /= radix as u128;
    }
    assert!(rem == 0, "axis-major index out of range");
    let mut it = digits.into_iter();
    space.point_with(|_| it.next().expect("one digit per dimension"))
}

/// Exhaustively evaluates every configuration of `space` like
/// [`exhaustive`], but in **axis-major** order
/// ([`point_at_axis_major`]) through [`Evaluator::sweep_axis_major`].
/// The model evaluators walk the `SoA` cell tables on the calling
/// thread: no point is built unless it enters the archive, and an
/// infeasible subtree is counted without being visited.
///
/// Visits exactly the same point set as [`exhaustive`] with the same
/// `evaluations`/`infeasible` counts and the same *set* of
/// non-dominated objective vectors. The archive's entries, their order
/// and payloads are those of a serial pass in axis-major order; that
/// order differs from `exhaustive`'s, and so does which payload
/// represents an objective tie (the first one enumerated). Compare the
/// two fronts as sets, the way the parity tests do.
///
/// # Panics
///
/// Panics if the space holds more than `limit` points.
#[must_use]
pub fn exhaustive_incremental(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    limit: u128,
) -> SearchResult {
    archive_sweep(space, limit, |visit| evaluator.sweep_axis_major(space, visit))
}

/// Runs `sweep` over a space of at most `limit` points and archives the
/// feasible points it visits, in visit order. A [`RejectFilter`] turns
/// the common rejected insert into one comparison, and a point is built
/// only when it enters the archive.
fn archive_sweep(
    space: &DesignSpace,
    limit: u128,
    sweep: impl FnOnce(&mut SweepVisitor<'_>) -> u64,
) -> SearchResult {
    let total = enumeration_size(space);
    assert!(total <= limit, "space holds {total} points, above the exhaustive limit {limit}");
    // Exhaustive enumeration never revisits a genome: no memo needed.
    let mut front = ParetoArchive::new();
    let mut filter = RejectFilter::default();
    let infeasible = if total == 0 {
        0
    } else {
        sweep(&mut |objectives, point| {
            filter.insert(&mut front, objectives, point);
        })
    };
    let evaluations = u64::try_from(total).expect("an enumerable space counts in u64");
    SearchResult { front, evaluations, infeasible, memo_hits: 0 }
}

/// The batch sweep loop: [`exhaustive`]'s (`FirstFastest`) and the
/// default [`Evaluator::sweep_axis_major`] (`LastFastest`). Returns the
/// number of infeasible points.
///
/// An odometer cursor steps through the space in `order`
/// ([`DesignSpace::step_point`]: a carry chain rewriting only the picks
/// that roll, no index decode) and refills one reused [`BATCH`]-point
/// buffer per round, which [`Evaluator::evaluate_batch`] fans out across
/// cores. Feasible points reach `visit` in enumeration order, so the
/// stream is that of the serial pass.
pub(crate) fn batch_sweep<E: Evaluator + ?Sized>(
    evaluator: &E,
    space: &DesignSpace,
    order: DigitOrder,
    visit: &mut SweepVisitor<'_>,
) -> u64 {
    let total = enumeration_size(space);
    let mut infeasible = 0;
    if total == 0 {
        return infeasible;
    }
    let mut cursor = space.point_at(0);
    let mut digits = vec![0usize; space.dimension_radices().len()];
    let mut points =
        vec![cursor.clone(); usize::try_from(total.min(BATCH as u128)).expect("bounded by BATCH")];
    let mut next: u128 = 0;
    while next < total {
        let count = usize::try_from((total - next).min(BATCH as u128)).expect("bounded by BATCH");
        points.truncate(count);
        for slot in &mut points {
            slot.clone_from(&cursor);
            space.step_point(&mut cursor, &mut digits, order);
        }
        for (point, outcome) in points.iter().zip(evaluator.evaluate_batch(&points)) {
            match outcome {
                Some(objectives) => visit(objectives, &|| point.clone()),
                None => infeasible += 1,
            }
        }
        next += count as u128;
    }
    infeasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EnergyDelayEvaluator, LifetimeEvaluator, ModelEvaluator};
    use crate::nsga2::{nsga2, Nsga2Config};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wbsn_model::evaluate::WbsnModel;
    use wbsn_model::shimmer::CompressionKind;
    use wbsn_model::soa::SoaScratch;
    use wbsn_model::space::{CR_AXIS, F_MCU_AXIS_HZ, PAYLOAD_AXIS};
    use wbsn_model::units::Hertz;

    fn tiny_space() -> DesignSpace {
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.25, 0.33];
        space.f_mcu_values =
            vec![wbsn_model::units::Hertz::from_mhz(4.0), wbsn_model::units::Hertz::from_mhz(8.0)];
        space.payload_values = vec![70, 114];
        space.order_pairs = vec![(5, 5), (6, 6), (6, 8)];
        space
    }

    #[test]
    fn visits_every_point_exactly_once() {
        let space = tiny_space();
        let result = exhaustive(&space, &ModelEvaluator::shimmer(), 100_000);
        assert_eq!(u128::from(result.evaluations), space.cardinality());
        // All DWT/CS nodes at 4/8 MHz are feasible here.
        assert_eq!(result.infeasible, 0);
        assert!(!result.front.is_empty());
    }

    /// Every space the decode tests enumerate. The wide slice's payload
    /// axis has radix 1, so its digit wraps on every carry through it.
    fn decode_spaces() -> [DesignSpace; 3] {
        [tiny_space(), error_heavy_space(), crate::truth::wide_6node_slice().space]
    }

    /// The linear-index enumeration visits exactly the point set (and
    /// sequence) of the retired serial odometer, and the in-place
    /// [`DesignSpace::step_point`] odometer reproduces it — wrapping back
    /// to index 0 past the last index.
    #[test]
    fn linear_decode_enumerates_the_odometer_sequence() {
        for space in decode_spaces() {
            // Reference: the old mixed-radix odometer.
            let radices = space.dimension_radices();
            let mut digits = vec![0usize; radices.len()];
            let mut stepped = space.point_at(0);
            let mut step_digits = vec![0usize; radices.len()];
            let mut index: u128 = 0;
            'sequence: loop {
                let mut it = digits.iter().copied();
                let odometer_point = space.point_with(|_| it.next().expect("digit per dimension"));
                assert_eq!(space.point_at(index), odometer_point, "index {index}");
                assert_eq!(stepped, odometer_point, "stepped to index {index}");
                let advanced =
                    space.step_point(&mut stepped, &mut step_digits, DigitOrder::FirstFastest);
                index += 1;
                let mut pos = 0;
                loop {
                    if pos == digits.len() {
                        assert_eq!(index, space.cardinality(), "sequence lengths differ");
                        assert!(!advanced, "the step past the last index wraps");
                        assert_eq!(stepped, space.point_at(0));
                        assert!(step_digits.iter().all(|&d| d == 0));
                        break 'sequence;
                    }
                    digits[pos] += 1;
                    if digits[pos] < radices[pos] {
                        break;
                    }
                    digits[pos] = 0;
                    pos += 1;
                }
                assert!(advanced, "index {index} is not past the end");
            }
        }
    }

    /// Batch-partitioned exhaustive search returns the identical archive
    /// (entries, order, payloads) as a point-by-point serial pass.
    #[test]
    fn batched_front_is_bit_identical_to_serial() {
        let space = tiny_space();
        let eval = ModelEvaluator::shimmer();
        let batched = exhaustive(&space, &eval, 100_000);
        let serial = exhaustive(&space, &crate::evaluator::SerialEvaluator(eval), 100_000);
        assert_eq!(batched.evaluations, serial.evaluations);
        assert_eq!(batched.infeasible, serial.infeasible);
        assert_eq!(batched.front.entries(), serial.front.entries());
    }

    #[test]
    fn nsga2_recovers_the_exact_front_on_a_tiny_space() {
        let space = tiny_space();
        let truth = exhaustive(&space, &ModelEvaluator::shimmer(), 100_000);
        let ga = nsga2(
            &space,
            &ModelEvaluator::shimmer(),
            &Nsga2Config { population: 60, generations: 40, seed: 11, ..Nsga2Config::default() },
        );
        // Every true Pareto point must be weakly dominated by (i.e.
        // present in) the GA's archive, and vice versa.
        for t in truth.front.objectives() {
            assert!(
                ga.front.objectives().any(|g| g.weakly_dominates(t)),
                "GA missed the true trade-off {t}"
            );
        }
        for g in ga.front.objectives() {
            assert!(
                truth.front.objectives().any(|t| t.weakly_dominates(g)),
                "GA returned a non-optimal point {g}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "above the exhaustive limit")]
    fn refuses_oversized_spaces() {
        let space = DesignSpace::case_study(6);
        let _ = exhaustive(&space, &ModelEvaluator::shimmer(), 1000);
    }

    /// A tiny space salted with infeasible axis values: 1 and 2 MHz
    /// clocks overflow the DWT duty cycle and tight superframe orders
    /// overflow bandwidth/GTS capacity, so the walk's dead subtrees
    /// (dead prefix picks as well as dead leaves) are exercised, not
    /// just its feasible leaves.
    fn error_heavy_space() -> DesignSpace {
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.38];
        space.f_mcu_values = vec![
            wbsn_model::units::Hertz::from_mhz(1.0),
            wbsn_model::units::Hertz::from_mhz(2.0),
            wbsn_model::units::Hertz::from_mhz(8.0),
        ];
        space.payload_values = vec![30, 114];
        space.order_pairs = vec![(4, 4), (4, 9), (9, 9)];
        space
    }

    /// Axis-major decode is a permutation of the canonical decode: every
    /// axis-major index maps back to a distinct canonical index (digit
    /// vectors reversed in significance, same digit set), and the two
    /// orders enumerate the same point sequence under that mapping. The
    /// `LastFastest` odometer step reproduces the axis-major sequence and
    /// wraps past its end.
    #[test]
    fn axis_major_decode_is_a_permutation_of_point_at() {
        for space in decode_spaces() {
            let radices = space.dimension_radices();
            let total = space.cardinality();
            let mut stepped = space.point_at(0);
            let mut step_digits = vec![0usize; radices.len()];
            for index in 0..total {
                // Recover the axis-major digits, then re-encode them in
                // canonical (first-dimension-fastest) significance.
                let mut rem = index;
                let mut digits = vec![0usize; radices.len()];
                for (digit, &radix) in digits.iter_mut().zip(&radices).rev() {
                    *digit = usize::try_from(rem % radix as u128).expect("digit below radix");
                    rem /= radix as u128;
                }
                let mut canonical: u128 = 0;
                let mut stride: u128 = 1;
                for (&digit, &radix) in digits.iter().zip(&radices) {
                    canonical += digit as u128 * stride;
                    stride *= radix as u128;
                }
                let axis_major = point_at_axis_major(&space, index);
                assert_eq!(axis_major, space.point_at(canonical), "axis-major index {index}");
                assert_eq!(stepped, axis_major, "stepped to axis-major index {index}");
                let advanced =
                    space.step_point(&mut stepped, &mut step_digits, DigitOrder::LastFastest);
                assert_eq!(advanced, index + 1 < total, "axis-major index {index}");
            }
            assert_eq!(stepped, space.point_at(0), "the step past the last index wraps");
            assert!(step_digits.iter().all(|&d| d == 0));
        }
    }

    /// Consecutive axis-major points form axis runs: within a run of
    /// `|CR| × |fµC|` points, the MAC configuration and every node but
    /// the last are shared — the leaves of one prefix in the walk.
    #[test]
    fn axis_major_neighbors_share_the_prefix() {
        let space = tiny_space();
        let run = (space.cr_values.len() * space.f_mcu_values.len()) as u128;
        let total = space.cardinality();
        for index in 0..total - 1 {
            let a = point_at_axis_major(&space, index);
            let b = point_at_axis_major(&space, index + 1);
            if (index + 1) % run != 0 {
                let n = a.nodes.len();
                assert_eq!(a.mac, b.mac, "index {index}");
                assert_eq!(a.nodes[..n - 1], b.nodes[..n - 1], "index {index}");
            }
        }
    }

    /// Reference sweep sharing no code with the sweeps: decode every
    /// index on its own, evaluate it with the scalar `evaluate` of
    /// `eval` and plainly `insert` every feasible point — no odometer,
    /// no reject filter, no batching, no walk.
    fn reference_sweep(
        space: &DesignSpace,
        order: DigitOrder,
        eval: &dyn Evaluator,
    ) -> SearchResult {
        let mut result = SearchResult {
            front: ParetoArchive::new(),
            evaluations: 0,
            infeasible: 0,
            memo_hits: 0,
        };
        for index in 0..space.cardinality() {
            let point = match order {
                DigitOrder::FirstFastest => space.point_at(index),
                DigitOrder::LastFastest => point_at_axis_major(space, index),
            };
            match eval.evaluate(&point) {
                Some(obj) => {
                    result.front.insert(obj, point);
                }
                None => result.infeasible += 1,
            }
            result.evaluations += 1;
        }
        result
    }

    /// Both sweeps equal the plain reference loop: archive entries
    /// (order and payloads) and counters.
    #[test]
    fn sweeps_equal_the_plain_reference_loop() {
        type Sweep = fn(&DesignSpace, &dyn Evaluator, u128) -> SearchResult;
        let sweeps: [(DigitOrder, Sweep); 2] = [
            (DigitOrder::FirstFastest, exhaustive),
            (DigitOrder::LastFastest, exhaustive_incremental),
        ];
        for space in [tiny_space(), error_heavy_space()] {
            for (order, sweep) in sweeps {
                let fast = sweep(&space, &ModelEvaluator::shimmer(), 100_000);
                let reference = reference_sweep(&space, order, &ModelEvaluator::shimmer());
                assert_eq!(fast.evaluations, reference.evaluations, "{order:?}");
                assert_eq!(fast.infeasible, reference.infeasible, "{order:?}");
                assert_eq!(fast.front.entries(), reference.front.entries(), "{order:?}");
            }
        }
    }

    /// Draws a random space of at most ~5k points for the walk: 1–3
    /// nodes of random kinds over random subsets of the canonical CR,
    /// fµC and payload axes and of the canonical `(SFO, BCO)` pairs.
    /// Low clocks kill nodes by duty cycle, heavy CRs and a lossy
    /// channel overflow bandwidth and GTS capacity, and some spaces
    /// carry an `SFO > BCO` pair (a MAC that fails validation). With
    /// `off_axis`, one CR (0.175) or payload (120) leaves the canonical
    /// axes, so the walk must refuse the space.
    fn random_walk_space(rng: &mut StdRng, off_axis: bool) -> DesignSpace {
        fn subset<T: Copy>(rng: &mut StdRng, axis: &[T], max: usize) -> Vec<T> {
            let mut picked: Vec<T> = axis.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            while picked.len() > max {
                picked.remove(rng.gen_range(0..picked.len()));
            }
            if picked.is_empty() {
                picked.push(axis[rng.gen_range(0..axis.len())]);
            }
            picked
        }
        let nodes = rng.gen_range(1..=3usize);
        let mut space = DesignSpace::case_study(nodes);
        space.node_kinds = (0..nodes)
            .map(|_| if rng.gen_bool(0.5) { CompressionKind::Dwt } else { CompressionKind::Cs })
            .collect();
        // Per-node picks small enough that picks^nodes stays ≤ 64.
        let max_picks = [0, 64, 8, 4][nodes];
        space.f_mcu_values =
            subset(rng, &F_MCU_AXIS_HZ, max_picks.min(4)).into_iter().map(Hertz::new).collect();
        space.cr_values = subset(rng, &CR_AXIS, max_picks / space.f_mcu_values.len());
        space.payload_values = subset(rng, &PAYLOAD_AXIS, 3);
        space.order_pairs = subset(rng, &space.order_pairs, 20);
        if rng.gen_bool(0.5) {
            space.order_pairs.insert(rng.gen_range(0..=space.order_pairs.len()), (7, 5));
        }
        if off_axis {
            if rng.gen_bool(0.5) {
                space.cr_values.push(0.175);
            } else {
                space.payload_values.push(120);
            }
        }
        space
    }

    proptest! {
        // The axis-major sweep of every model lane equals the plain
        // reference loop on random small spaces: objective bits, entry
        // order, payloads and both counters. On-axis spaces go through
        // the whole-space walk, off-axis ones through the default batch
        // loop.
        #[test]
        fn walk_sweeps_equal_the_plain_reference_loop(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            let off_axis = rng.gen_bool(0.25);
            let space = random_walk_space(&mut rng, off_axis);
            let loss = [0.0, 0.3, 0.6][rng.gen_range(0..3usize)];
            let model = WbsnModel::shimmer().with_packet_error_rate(loss);
            let walked = model.sweep_axis_major(&space, &mut SoaScratch::new(), |_| {});
            prop_assert_eq!(walked.is_some(), !off_axis);
            let lanes: [&dyn Evaluator; 3] = [
                &ModelEvaluator::new(model.clone()),
                &EnergyDelayEvaluator::new(model.clone()),
                &LifetimeEvaluator::new(model, wbsn_model::lifetime::Battery::shimmer()),
            ];
            for eval in lanes {
                let fast = exhaustive_incremental(&space, eval, 100_000);
                let reference = reference_sweep(&space, DigitOrder::LastFastest, eval);
                prop_assert_eq!(fast.evaluations, reference.evaluations);
                prop_assert_eq!(fast.infeasible, reference.infeasible);
                let bits = |r: &SearchResult| -> Vec<(Vec<u64>, DesignPoint)> {
                    r.front
                        .entries()
                        .iter()
                        .map(|e| {
                            let bits = e.objectives.values().iter().map(|v| v.to_bits()).collect();
                            (bits, e.payload.clone())
                        })
                        .collect()
                };
                prop_assert_eq!(bits(&fast), bits(&reference));
            }
        }
    }

    /// The incremental sweep through the whole-space walk is
    /// bit-identical (entries, order, payloads, counters) to the same
    /// axis-major enumeration through the serial reference evaluator's
    /// default batch loop — the walk must be invisible.
    #[test]
    fn incremental_sweep_is_bit_identical_to_serial_axis_major() {
        for space in [tiny_space(), error_heavy_space()] {
            let eval = ModelEvaluator::shimmer();
            let fast = exhaustive_incremental(&space, &eval, 100_000);
            let serial =
                exhaustive_incremental(&space, &crate::evaluator::SerialEvaluator(eval), 100_000);
            assert_eq!(fast.evaluations, serial.evaluations);
            assert_eq!(fast.infeasible, serial.infeasible);
            assert_eq!(fast.front.entries(), serial.front.entries());
        }
    }

    /// The incremental sweep finds exactly the canonical sweep's front
    /// *set* (insertion order legitimately differs between the two
    /// enumeration orders) with identical evaluation counts.
    #[test]
    fn incremental_sweep_front_matches_canonical_exhaustive() {
        for space in [tiny_space(), error_heavy_space()] {
            let eval = ModelEvaluator::shimmer();
            let canonical = exhaustive(&space, &eval, 100_000);
            let incremental = exhaustive_incremental(&space, &eval, 100_000);
            assert_eq!(incremental.evaluations, canonical.evaluations);
            assert_eq!(incremental.infeasible, canonical.infeasible);
            let sort = |r: &SearchResult| {
                let mut objs: Vec<String> =
                    r.front.objectives().map(|o| format!("{o:?}")).collect();
                objs.sort();
                objs
            };
            assert_eq!(sort(&incremental), sort(&canonical));
        }
    }

    /// The error-heavy space really exercises the error paths.
    #[test]
    fn error_heavy_space_has_infeasible_points() {
        let result =
            exhaustive_incremental(&error_heavy_space(), &ModelEvaluator::shimmer(), 100_000);
        assert!(result.infeasible > 0, "space must exercise the dead paths");
        assert!(!result.front.is_empty());
    }
}
