//! Exhaustive enumeration for small design spaces: the ground truth the
//! metaheuristics are validated against.

use crate::evaluator::Evaluator;
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
    sweep(space, evaluator, limit, DigitOrder::FirstFastest)
}

/// Decodes linear index `index` in **axis-major** order: the mirror of
/// [`DesignSpace::point_at`], with digit significance reversed so the
/// *last* pick dimension (the final node's fµC) varies fastest and the
/// first (the MAC payload) slowest.
///
/// This order is what makes single-axis deltas between consecutive
/// points structural: indices `i` and `i + 1` differ in exactly one
/// trailing dimension roll, so consecutive points share the MAC
/// configuration and every node but the last for runs of
/// `|CR| × |fµC|` points — the axis-run layout
/// `Evaluator::evaluate_batch_axis_runs` exploits. Both orders visit
/// exactly the same point set ([`enumeration_size`] indices, each
/// decoding a distinct digit vector).
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
/// [`exhaustive`], but enumerating in **axis-major** order
/// ([`point_at_axis_major`]) and evaluating through
/// [`Evaluator::evaluate_batch_axis_runs`] — the incremental sweep
/// mode: consecutive points differ only in the last node's `(CR, fµC)`
/// pick, so the batch kernel re-evaluates only the lane that single
/// axis step changes and reuses the shared prefix of each run.
///
/// Visits exactly the same point set as [`exhaustive`] with the same
/// `evaluations`/`infeasible` counts and the same *set* of
/// non-dominated objective vectors. The archive's entry order (and
/// therefore which payload represents an objective tie) follows the
/// axis-major insertion order, which differs from `exhaustive`'s —
/// compare fronts as sets, the way the parity tests do.
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
    sweep(space, evaluator, limit, DigitOrder::LastFastest)
}

/// The sweep loop behind [`exhaustive`] (`FirstFastest`, plain batches)
/// and [`exhaustive_incremental`] (`LastFastest`, axis-run batches).
///
/// An odometer cursor steps through the space in `order`
/// ([`DesignSpace::step_point`]: a carry chain rewriting only the picks
/// that roll, no index decode) and refills one reused [`BATCH`]-point
/// buffer per round. The evaluator fans each batch out across cores
/// through its `SoA` kernel (the axis-run kernel for the axis-major
/// order). Archive insertion stays in enumeration order, so the
/// result is bit-identical to the serial pass; a [`RejectFilter`] turns
/// the common rejected insert into one comparison, and a point is cloned
/// out of the buffer only when it enters the archive.
fn sweep(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    limit: u128,
    order: DigitOrder,
) -> SearchResult {
    let total = enumeration_size(space);
    assert!(total <= limit, "space holds {total} points, above the exhaustive limit {limit}");
    // Exhaustive enumeration never revisits a genome: no memo needed.
    let mut result =
        SearchResult { front: ParetoArchive::new(), evaluations: 0, infeasible: 0, memo_hits: 0 };
    if total == 0 {
        return result;
    }
    let mut filter = RejectFilter::default();
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
        let outcomes = match order {
            DigitOrder::FirstFastest => evaluator.evaluate_batch(&points),
            DigitOrder::LastFastest => evaluator.evaluate_batch_axis_runs(&points),
        };
        for (point, outcome) in points.iter().zip(outcomes) {
            match outcome {
                Some(obj) => {
                    filter.insert(&mut result.front, obj, || point.clone());
                }
                None => result.infeasible += 1,
            }
        }
        result.evaluations += count as u64;
        next += count as u128;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ModelEvaluator;
    use crate::nsga2::{nsga2, Nsga2Config};

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
    /// overflow bandwidth/GTS capacity, so the incremental sweep's
    /// fallback paths (dead run heads, per-variant infeasibility inside
    /// an alive run) are all exercised, not just the feasible fast path.
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
    /// the last are shared.
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

    /// Reference sweep sharing no code with [`sweep`]: decode every index
    /// on its own, evaluate it with the scalar model and plainly
    /// `insert` every feasible point — no odometer, no reject filter, no
    /// batching.
    fn reference_sweep(space: &DesignSpace, order: DigitOrder) -> SearchResult {
        let eval = ModelEvaluator::shimmer();
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
                let reference = reference_sweep(&space, order);
                assert_eq!(fast.evaluations, reference.evaluations, "{order:?}");
                assert_eq!(fast.infeasible, reference.infeasible, "{order:?}");
                assert_eq!(fast.front.entries(), reference.front.entries(), "{order:?}");
            }
        }
    }

    /// The incremental sweep through the axis-run kernel is bit-identical
    /// (entries, order, payloads, counters) to the same axis-major
    /// enumeration through the serial reference evaluator — the run
    /// fast path must be invisible.
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
