//! Golden-figure table generators.
//!
//! Each function builds the deterministic numeric report of one paper
//! figure as a `String`: the `fig3_energy` / `fig4_prd` / `fig5_pareto`
//! binaries print it, and `crates/bench/tests/golden_figures.rs`
//! compares it bitwise against the snapshot committed under
//! `benchmarks/golden/` — figure output can never silently drift.
//!
//! All model-side numbers flow through the full-evaluation batch kernel
//! ([`WbsnModel::evaluate_batch_full`]) or the batch evaluator, not the
//! scalar point-by-point `evaluate()` loop: the kernels are bit-identical
//! to the scalar path (property-tested in
//! `crates/wbsn/tests/full_eval_parity.rs`), so the figures double as an
//! end-to-end regression net over the batch engine.

use crate::{header_to, percent_error, row_to, ErrorSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use wbsn_dse::evaluator::{EnergyDelayEvaluator, Evaluator, ModelEvaluator};
use wbsn_dse::nsga2::{nsga2, Nsga2Config};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::quality::membership_in_front;
use wbsn_dsp::compress::{measure_prd, Codec, CsCodec, DwtCodec};
use wbsn_dsp::ecg::EcgGenerator;
use wbsn_model::evaluate::{NodeConfig, WbsnModel};
use wbsn_model::ieee802154::Ieee802154Config;
use wbsn_model::shimmer::CompressionKind;
use wbsn_model::soa::{FullEvalOut, SoaScratch};
use wbsn_model::space::{DesignPoint, DesignSpace, NodeVec};
use wbsn_model::units::Hertz;
use wbsn_model::ModelError;
use wbsn_sim::engine::NetworkBuilder;

/// Simulated seconds per Fig. 3 configuration.
const FIG3_SIM_SECONDS: f64 = 60.0;

/// The Fig. 3 sweep: `fµC ∈ {1, 8} MHz × CR ∈ {0.17, 0.23, 0.32, 0.38}`
/// for both applications, in row order.
fn fig3_configs() -> Vec<(CompressionKind, f64, f64)> {
    let mut configs = Vec::new();
    for kind in [CompressionKind::Dwt, CompressionKind::Cs] {
        for f_mhz in [1.0, 8.0] {
            for cr in [0.17, 0.23, 0.32, 0.38] {
                configs.push((kind, f_mhz, cr));
            }
        }
    }
    configs
}

/// Fig. 3 — per-node energy, analytical model (via the full-evaluation
/// batch kernel) vs the packet-level simulator, across the paper's
/// sixteen configurations.
///
/// # Panics
///
/// Panics when the simulator disagrees with the model's feasibility
/// verdict or a configuration raises an unexpected error — both would
/// invalidate the figure.
#[must_use]
pub fn fig3_table() -> String {
    let mac = Ieee802154Config::new(114, 6, 6).expect("case-study MAC config");
    let model = WbsnModel::shimmer();
    let configs = fig3_configs();

    // All sixteen model evaluations in one batch through the kernel.
    let points: Vec<DesignPoint> = configs
        .iter()
        .map(|&(kind, f_mhz, cr)| DesignPoint {
            mac,
            nodes: (0..6).map(|_| NodeConfig::new(kind, cr, Hertz::from_mhz(f_mhz))).collect(),
        })
        .collect();
    let mut scratch = SoaScratch::new();
    let mut out = FullEvalOut::new();
    model.evaluate_batch_full(&points, &mut scratch, &mut out);

    let mut buf = String::new();
    buf.push_str("# Fig. 3 — node energy consumption per second [mJ/s], model vs simulation\n\n");
    header_to(
        &mut buf,
        &[
            "app",
            "fµC",
            "CR",
            "model [mJ/s]",
            "sim [mJ/s]",
            "error %",
            "model sensor/mcu/mem/radio",
            "sim sensor/mcu/mem/radio",
        ],
    );

    let mut summaries =
        [(CompressionKind::Cs, ErrorSummary::new()), (CompressionKind::Dwt, ErrorSummary::new())];
    for (i, &(kind, f_mhz, cr)) in configs.iter().enumerate() {
        let nodes = vec![NodeConfig::new(kind, cr, Hertz::from_mhz(f_mhz)); 6];
        let measured = NetworkBuilder::new(mac, nodes)
            .duration_s(FIG3_SIM_SECONDS)
            .seed(2012)
            .build()
            .expect("GTS assignment feasible for these rates")
            .run();
        let sim_node = &measured.nodes[0];
        let lane = out.node_range(i).start;
        match &out.outcomes()[i] {
            Ok(_) => {
                let model_total = out.energy()[lane];
                let sim_total = sim_node.energy.total_mj_s();
                let err = percent_error(model_total, sim_total);
                for (k, s) in &mut summaries {
                    if *k == kind {
                        s.record(err);
                    }
                }
                row_to(
                    &mut buf,
                    &[
                        kind.label().to_string(),
                        format!("{f_mhz} MHz"),
                        format!("{cr:.2}"),
                        format!("{model_total:.3}"),
                        format!("{sim_total:.3}"),
                        format!("{err:.2}"),
                        format!(
                            "{:.2}/{:.2}/{:.2}/{:.2}",
                            out.sensor()[lane],
                            out.mcu()[lane],
                            out.memory()[lane],
                            out.radio()[lane]
                        ),
                        format!(
                            "{:.2}/{:.2}/{:.2}/{:.2}",
                            sim_node.energy.sensor_mj_s,
                            sim_node.energy.mcu_mj_s,
                            sim_node.energy.memory_mj_s,
                            sim_node.energy.radio_mj_s
                        ),
                    ],
                );
            }
            Err(ModelError::DutyCycleExceeded { duty, .. }) => {
                row_to(
                    &mut buf,
                    &[
                        kind.label().to_string(),
                        format!("{f_mhz} MHz"),
                        format!("{cr:.2}"),
                        format!("INFEASIBLE (duty {:.0} %)", duty * 100.0),
                        if sim_node.cpu_overrun { "CPU OVERRUN".into() } else { "?".into() },
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ],
                );
                assert!(
                    sim_node.cpu_overrun,
                    "simulator must confirm the model's infeasibility verdict"
                );
            }
            Err(e) => panic!("unexpected model error: {e}"),
        }
    }

    buf.push('\n');
    for (kind, summary) in &summaries {
        let _ = writeln!(
            buf,
            "{}: average error {:.2} % | max error {:.2} % over {} feasible configurations",
            kind.label(),
            summary.mean(),
            summary.max(),
            summary.count()
        );
    }
    buf.push_str(
        "\npaper: avg 0.88 % (CS) / 0.13 % (DWT), max <= 1.74 %; DWT infeasible at 1 MHz\n",
    );
    buf
}

/// Samples per second of the Fig. 4 synthetic ECG.
const FIG4_FS: usize = 250;
/// Block length the codecs compress.
const FIG4_BLOCK: usize = 256;
/// Seconds of signal (held-out seed: different recordings than the ones
/// `fit_prd` used).
const FIG4_SECONDS: usize = 64;
const FIG4_SIGNAL_SEED: u64 = 777;

/// The Fig. 4 compression-ratio sweep (0.17 to 0.38 in steps of 0.03,
/// with the binary's historical floating-point accumulation).
fn fig4_crs() -> Vec<f64> {
    let mut crs = Vec::new();
    let mut cr = 0.17;
    while cr <= 0.38 + 1e-9 {
        crs.push(cr);
        cr += 0.03;
    }
    crs
}

/// Fig. 4 — application quality (PRD): the model's estimate (via the
/// full-evaluation batch kernel, which evaluates the `P5(CR)`
/// polynomials inside the node model) vs the PRD measured by running the
/// real DWT and CS codecs on synthetic ECG and reconstructing.
///
/// # Panics
///
/// Panics when a sweep configuration is infeasible (all are, by
/// construction) or the measured PRD stops decreasing with CR.
#[must_use]
pub fn fig4_table() -> String {
    let mut rng = StdRng::seed_from_u64(FIG4_SIGNAL_SEED);
    let signal = EcgGenerator::default().generate(FIG4_FS * FIG4_SECONDS, &mut rng);
    let crs = fig4_crs();

    // Model-side estimates in one batch: one single-node point per
    // (application, CR) under the case-study MAC.
    let mac = Ieee802154Config::new(114, 6, 6).expect("case-study MAC config");
    let kinds = [CompressionKind::Dwt, CompressionKind::Cs];
    let points: Vec<DesignPoint> = kinds
        .iter()
        .flat_map(|&kind| {
            crs.iter().map(move |&cr| DesignPoint {
                mac,
                nodes: std::iter::once(NodeConfig::new(kind, cr, Hertz::from_mhz(8.0)))
                    .collect::<NodeVec>(),
            })
        })
        .collect();
    let model = WbsnModel::shimmer();
    let mut scratch = SoaScratch::new();
    let mut out = FullEvalOut::new();
    model.evaluate_batch_full(&points, &mut scratch, &mut out);

    let mut buf = String::new();
    buf.push_str("# Fig. 4 — PRD [%], polynomial model vs real codec measurement\n\n");
    header_to(
        &mut buf,
        &["app", "CR", "estimated PRD %", "measured PRD %", "abs error [PRD pts]", "rel error %"],
    );
    for (k, (kind, codec)) in kinds
        .iter()
        .zip([Codec::Dwt(DwtCodec::default()), Codec::Cs(CsCodec::default())])
        .enumerate()
    {
        let mut errors = ErrorSummary::new();
        let mut abs_errors = ErrorSummary::new();
        let mut last_measured = f64::INFINITY;
        for (c, &cr) in crs.iter().enumerate() {
            let point = k * crs.len() + c;
            let mut crng = StdRng::seed_from_u64(FIG4_SIGNAL_SEED ^ 0xBEEF);
            let report = measure_prd(&codec, &signal, FIG4_BLOCK, cr, &mut crng)
                .expect("block length divides signal");
            assert!(out.outcomes()[point].is_ok(), "fig4 sweep point must be feasible");
            let estimated = out.prd()[out.node_range(point).start];
            let abs = (estimated - report.prd).abs();
            let rel = abs / report.prd * 100.0;
            errors.record(rel);
            abs_errors.record(abs);
            row_to(
                &mut buf,
                &[
                    kind.label().to_string(),
                    format!("{cr:.2}"),
                    format!("{estimated:.2}"),
                    format!("{:.2}", report.prd),
                    format!("{abs:.2}"),
                    format!("{rel:.1}"),
                ],
            );
            assert!(
                report.prd < last_measured + 1.5,
                "PRD should decrease (roughly monotonically) with CR"
            );
            last_measured = report.prd;
        }
        let _ = writeln!(
            buf,
            "\n{}: mean abs error {:.2} PRD pts | mean rel error {:.1} % | max rel {:.1} %\n",
            kind.label(),
            abs_errors.mean(),
            errors.mean(),
            errors.max()
        );
    }
    buf.push_str("paper: error 0.46 % (DWT) / 0.92 % (CS) against the measured PRD\n");
    buf
}

/// The case-study space with a finer CR grid (step 0.005) and more
/// payload/order options, matching the paper's "tens of millions of
/// configurations" resolution more closely than the default grid.
#[must_use]
pub fn fig5_fine_space() -> DesignSpace {
    let mut space = DesignSpace::case_study(6);
    space.cr_values = (0..=42).map(|i| 0.17 + 0.005 * f64::from(i)).collect();
    space.payload_values = vec![30, 40, 50, 60, 70, 80, 90, 100, 114];
    space.order_pairs.clear();
    for sfo in 3u8..=9 {
        for bco in sfo..=10 {
            space.order_pairs.push((sfo, bco));
        }
    }
    space
}

/// Fig. 5 — energy/delay/PRD trade-off fronts of the proposed
/// three-objective model vs the energy/delay-only baseline (\[26\]), both
/// searched with NSGA-II over the batch evaluation engine; the
/// baseline's front is re-placed in 3-D objective space through the
/// batch evaluator.
///
/// # Panics
///
/// Panics on non-finite objective values (would invalidate the figure).
#[must_use]
pub fn fig5_table() -> String {
    let space = fig5_fine_space();
    let mut buf = String::new();
    buf.push_str(
        "# Fig. 5 — Pareto trade-offs, proposed 3-objective model vs energy/delay baseline\n\n",
    );
    let _ = writeln!(
        buf,
        "design space cardinality: {:.3e} configurations\n",
        space.cardinality() as f64
    );

    let cfg =
        Nsga2Config { population: 200, generations: 250, seed: 2012, ..Nsga2Config::default() };
    let proposed = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
    let baseline = nsga2(&space, &EnergyDelayEvaluator::shimmer(), &cfg);

    let _ = writeln!(
        buf,
        "proposed model  : {} Pareto points ({} evaluations, {} infeasible)",
        proposed.front.len(),
        proposed.evaluations,
        proposed.infeasible
    );
    let _ = writeln!(
        buf,
        "energy/delay [26]: {} Pareto points ({} evaluations, {} infeasible)\n",
        baseline.front.len(),
        baseline.evaluations,
        baseline.infeasible
    );

    // Re-evaluate the baseline's configurations under the full model —
    // in one batch — to place them in 3-D objective space.
    let model3 = ModelEvaluator::shimmer();
    let baseline_points: Vec<DesignPoint> =
        baseline.front.entries().iter().map(|e| e.payload.clone()).collect();
    let baseline_in_3d: Vec<ObjectiveVector> =
        model3.evaluate_batch(&baseline_points).into_iter().flatten().collect();
    let proposed_objs: Vec<ObjectiveVector> = proposed.front.objectives().copied().collect();

    let member = membership_in_front(&baseline_in_3d, &proposed_objs);
    let _ = writeln!(
        buf,
        "fraction of baseline solutions that survive as 3-objective trade-offs: {:.1} %",
        member * 100.0
    );
    let survivors = (member * baseline_in_3d.len() as f64).round();
    let _ = writeln!(
        buf,
        "trade-offs found by the baseline vs proposed: {} / {} = {:.1} %",
        survivors,
        proposed.front.len(),
        survivors / proposed.front.len() as f64 * 100.0
    );
    // Complementary view: how much of the proposed front does the
    // baseline actually cover?
    let covered = proposed_objs
        .iter()
        .filter(|p| baseline_in_3d.iter().any(|b| b.weakly_dominates(p)))
        .count();
    let _ = writeln!(
        buf,
        "proposed-front points covered by the baseline: {} / {} = {:.1} %\n",
        covered,
        proposed_objs.len(),
        covered as f64 / proposed_objs.len() as f64 * 100.0
    );
    buf.push_str(
        "paper: the energy/delay Pareto set contains only ~7 % of the proposed model's trade-offs\n\n",
    );

    // The three 2-D projections of Fig. 5 (proposed model's front).
    for (title, ix, iy) in [
        ("Energy-Delay Tradeoffs [mJ/s vs s]", 0usize, 1usize),
        ("Energy-PRD Tradeoffs [mJ/s vs %]", 0, 2),
        ("PRD-Delay Tradeoffs [% vs s]", 2, 1),
    ] {
        let _ = writeln!(buf, "## {title}\n");
        header_to(&mut buf, &["source", "x", "y"]);
        let mut rows: Vec<(f64, f64, &str)> = proposed_objs
            .iter()
            .map(|o| (o.values()[ix], o.values()[iy], "proposed"))
            .chain(baseline_in_3d.iter().map(|o| (o.values()[ix], o.values()[iy], "baseline")))
            .collect();
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        // Print a readable subsample (every k-th point).
        let step = (rows.len() / 40).max(1);
        for (x, y, src) in rows.iter().step_by(step) {
            row_to(&mut buf, &[(*src).to_string(), format!("{x:.3}"), format!("{y:.3}")]);
        }
        buf.push('\n');
    }
    buf
}
