//! Figure 5 reproduction: energy/delay/PRD trade-off fronts found with
//! the proposed three-objective model, against the fronts found by a
//! state-of-the-art energy/delay model (\[26\]) that is blind to the
//! application-quality axis.
//!
//! Both searches and the baseline's 3-D re-evaluation run through the
//! batch evaluation engine (the `SoA` kernel under
//! `Evaluator::evaluate_batch`). The table is built by
//! [`wbsn_bench::figures::fig5_table`] and snapshotted under
//! `benchmarks/golden/` (see `crates/bench/tests/golden_figures.rs`).
//!
//! Paper's result: the energy/delay model recovers only ≈7 % of the
//! trade-offs of the proposed model — it approximates the energy/delay
//! curve but misses every mid-range-PRD solution.
//!
//! Run: `cargo run --release -p wbsn-bench --bin fig5_pareto`

fn main() {
    print!("{}", wbsn_bench::figures::fig5_table());
}
