//! Golden ground-truth fronts: the exact full-space Pareto front of
//! every [`wbsn_dse::truth`] scenario, snapshotted under
//! `benchmarks/golden/truth_<scenario>.txt` and compared **bitwise**.
//!
//! The fronts are computed through the axis-major sweep
//! (`exhaustive_incremental`), which is property-tested bit-identical
//! to the scalar reference model — so this suite locks the *entire*
//! evaluation chain: the `SoA` cell tables, the whole-space walk and
//! its subtree pruning, the Eq. 8/9 reductions and Pareto archiving. Any drift in any of those layers moves at
//! least one objective bit and fails at the first diverging line.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release -p wbsn-bench --test golden_truth
//! ```
//!
//! (release strongly recommended: the scenarios total ~1.3M design
//! points) and commit the updated files under `benchmarks/golden/`.

use wbsn_bench::golden::assert_matches_golden;
use wbsn_dse::evaluator::ModelEvaluator;
use wbsn_dse::truth::{scenarios, TruthFront};

#[test]
fn truth_fronts_match_golden() {
    let eval = ModelEvaluator::shimmer();
    for scenario in scenarios() {
        let front = TruthFront::compute(&scenario, &eval);
        assert_matches_golden(&format!("truth_{}.txt", scenario.name), &front.render());
    }
}
