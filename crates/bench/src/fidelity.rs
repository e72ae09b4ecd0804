//! Statistical model-vs-sim fidelity harness over scenario families.
//!
//! The paper validates its analytical model against simulation on a
//! single hand-picked 6-node body-area deployment (Fig. 3, §5.1). This
//! module measures how far that fidelity *generalizes*: for every
//! [`fidelity_families`] family it samples N seeded scenarios, runs each
//! through the full-evaluation batch kernel
//! ([`WbsnModel::evaluate_batch_full`]) and the `wbsn-sim`
//! discrete-event simulator, and folds the per-node
//! disagreements into one [`FamilyEnvelope`] per family:
//!
//! * **energy** — per-node total consumption (Eq. 7, mJ/s) against the
//!   simulator's measured breakdown, as mean/max relative error;
//! * **delay** — the Eq. 9 worst-case bound against the simulated delay
//!   distribution under `TrafficMode::PacketStream` (the traffic the
//!   bound is stated for: scheduled GTS streams, see
//!   `crates/wbsn/tests/delay_bound.rs`), as the minimum headroom factor
//!   `bound / observed-max` (≥ 1 ⟺ the bound held) and the maximum
//!   utilization (how tight, i.e. non-vacuous, the bound is);
//! * **PRD** — the polynomial quality model against the real DWT/CS
//!   codecs on held-out synthetic ECG, as max absolute error in PRD
//!   points.
//!
//! Every measurement is a pure function of the seeds (deterministic
//! generators, deterministic simulator, seeded codec noise), so the
//! rendered per-family table is golden-snapshotted bitwise
//! (`benchmarks/golden/fidelity_*.txt`) and the envelope scores are
//! floor-gated in `bench_gate` through the shared `MIN_*` constants
//! below — the same constants the tier-1 `model_vs_sim` suite asserts,
//! so the gate and the test can never disagree.
//!
//! The harness also *asserts* (not assumes) a kernel invariant while it
//! measures: the scalar-spill counter accounts for exactly every point
//! of an off-axis family (and none of an on-axis one).
//!
//! [`WbsnModel::evaluate_batch_full`]: wbsn_model::evaluate::WbsnModel::evaluate_batch_full
//! [`fidelity_families`]: wbsn_dse::scenario::fidelity_families

use crate::{header_to, percent_error, row_to, ErrorSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wbsn_dse::parallel::parallel_map_with;
use wbsn_dse::scenario::{fidelity_families, AxisPolicy, ScenarioFamily, Traffic};
use wbsn_dsp::compress::{measure_prd, Codec, CsCodec, DwtCodec};
use wbsn_dsp::ecg::EcgGenerator;
use wbsn_model::evaluate::WbsnModel;
use wbsn_model::shimmer::CompressionKind;
use wbsn_model::soa::{FullEvalOut, SoaScratch};
use wbsn_model::space::DesignPoint;
use wbsn_sim::engine::{NetworkBuilder, TrafficMode};
use wbsn_sim::AlertConfig;

/// Scenarios sampled per family in the tier-1 (default) sweep. The
/// golden snapshots are blessed at exactly this count.
pub const TIER1_SAMPLES: usize = 2;

/// Scenarios per family under `FIDELITY_FULL=1` (the deep sweep: floors
/// only, no golden comparison — goldens are tier-1-shaped).
pub const FULL_SAMPLES: usize = 6;

/// First seed of every family's sample window (`base..base + n`).
pub const BASE_SEED: u64 = 1000;

/// Simulated seconds for the energy-agreement runs (long enough that
/// per-frame quantization noise settles under the floor's headroom).
pub const ENERGY_SIM_S: f64 = 40.0;

/// Simulated seconds for the delay-distribution runs
/// (`TrafficMode::PacketStream`).
pub const DELAY_SIM_S: f64 = 20.0;

/// Energy floor: the worst per-node agreement percent
/// (`100 − max relative error %`) any family may report. Measured
/// envelope (tier-1 and `FIDELITY_FULL` sweeps): worst family ≈ 97 %
/// agreement; the floor leaves ~3 points of headroom.
pub const MIN_ENERGY_AGREEMENT_PCT: f64 = 94.0;

/// Delay floor: the minimum headroom factor `Eq. 9 bound / observed
/// max delay`. 1.0 is the correctness line — the bound must never be
/// observed violated; every measured family sits well above it.
pub const MIN_DELAY_HEADROOM: f64 = 1.0;

/// Delay tightness floor on `1 / max utilization`: the bound must stay
/// non-vacuous (within ~4× of an observed delay; the delay-bound suite
/// uses the same order of tightness).
pub const MIN_DELAY_TIGHTNESS: f64 = 0.25;

/// PRD floor: the margin `10 − max |polynomial − measured|` in PRD
/// points (10 spans the worst codec tolerance of the Fig. 4 suite).
/// Measured (tier-1 and `FIDELITY_FULL` sweeps): the DWT polynomial
/// stays within ~2 PRD points everywhere; the coarse CS fit reaches
/// ~6.9 points on one `cluster-bursty` node, so the worst margin is
/// ≈ 3.1 and the floor sits at 2.5.
pub const MIN_PRD_MARGIN: f64 = 2.5;

/// Per-family scenario count honouring `FIDELITY_FULL=1`.
#[must_use]
pub fn sample_count() -> usize {
    if std::env::var("FIDELITY_FULL").is_ok_and(|v| v == "1") {
        FULL_SAMPLES
    } else {
        TIER1_SAMPLES
    }
}

/// The measured model-vs-sim error envelope of one scenario family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyEnvelope {
    /// Family name (table rows, golden files, gate fields).
    pub family: &'static str,
    /// Scenarios sampled.
    pub scenarios: usize,
    /// Per-node observations folded in (scenarios × nodes).
    pub node_obs: usize,
    /// Mean per-node total-energy relative error, percent.
    pub energy_mean_err_pct: f64,
    /// Worst per-node total-energy relative error, percent.
    pub energy_max_err_pct: f64,
    /// Minimum `bound / observed max delay` over all nodes (≥ 1 ⟺ the
    /// Eq. 9 bound held everywhere it was observed).
    pub delay_headroom_min: f64,
    /// Maximum `observed max delay / bound` (bound tightness).
    pub delay_util_max: f64,
    /// Worst absolute PRD disagreement, in PRD points.
    pub prd_max_err: f64,
    /// Scalar-spill count accounted by the batch kernel over every
    /// sampled point (= points for off-axis families, 0 for on-axis).
    pub spills: u64,
}

impl FamilyEnvelope {
    /// Gated energy score: agreement percent (higher is better).
    #[must_use]
    pub fn energy_agreement_pct(&self) -> f64 {
        100.0 - self.energy_max_err_pct
    }

    /// Gated delay score: minimum bound headroom (higher is better;
    /// < 1 means the Eq. 9 bound was observed violated).
    #[must_use]
    pub fn delay_headroom(&self) -> f64 {
        self.delay_headroom_min
    }

    /// Gated PRD score: margin below the 10-point budget (higher is
    /// better).
    #[must_use]
    pub fn prd_margin(&self) -> f64 {
        10.0 - self.prd_max_err
    }
}

/// The `BENCH_dse.json` / `bench_gate` field name for one family ×
/// metric pair, e.g. `fidelity_energy_body_area_periodic`.
#[must_use]
pub fn gate_field(family: &str, metric: &str) -> String {
    format!("fidelity_{metric}_{}", family.replace('-', "_"))
}

/// Runs the full batch kernel over `points`, asserts the scalar-spill
/// accounting matches the family's axis policy, and returns the
/// kernel's output.
fn full_kernel_spill_checked(
    model: &WbsnModel,
    family: &ScenarioFamily,
    points: &[DesignPoint],
) -> FullEvalOut {
    let mut soa = SoaScratch::new();
    let mut out = FullEvalOut::new();
    model.evaluate_batch_full(points, &mut soa, &mut out);

    // The spill path is exercised exactly as the axis policy promises —
    // asserted via the kernel's own accounting, not assumed from the
    // generator's intent.
    let expected = match family.axis_policy {
        AxisPolicy::OffAxis => points.len() as u64,
        AxisPolicy::OnAxis => 0,
    };
    assert_eq!(soa.spill_count(), expected, "{}: spill count", family.name);
    out
}

/// Measures the fidelity envelope of one family over `n` seeded
/// scenarios starting at `base_seed`.
///
/// # Panics
///
/// Panics when a structural invariant fails: the spill accounting
/// contradicts the axis policy, a fidelity scenario turns out infeasible, or a simulation reports an
/// overrun. Envelope *quality* (how large the errors are) is never
/// asserted here — that is the floors' job, in the tier-1 suite and the
/// bench gate.
#[must_use]
pub fn measure_family(
    model: &WbsnModel,
    family: &ScenarioFamily,
    n: usize,
    base_seed: u64,
) -> FamilyEnvelope {
    let scenarios = family.sample(n, base_seed);
    let points: Vec<DesignPoint> =
        scenarios.iter().map(wbsn_dse::scenario::Scenario::point).collect();
    let full = full_kernel_spill_checked(model, family, &points);

    // Held-out ECG for the PRD ground truth (seed disjoint from the
    // polynomial-fitting seeds; 250 Hz × 32 s → 31 full 256-blocks,
    // the Fig. 4 suite's length, which keeps the CS measurement
    // variance inside the floor's margin).
    let signal = {
        let mut rng = StdRng::seed_from_u64(777);
        EcgGenerator::default().generate(250 * 32, &mut rng)
    };

    let mut energy = ErrorSummary::new();
    let mut delay_headroom_min = f64::INFINITY;
    let mut delay_util_max = 0.0f64;
    let mut delay_obs = 0u64;
    let mut prd_max_err = 0.0f64;
    let mut node_obs = 0usize;

    for (si, scenario) in scenarios.iter().enumerate() {
        let lanes = full.node_range(si);
        assert!(
            full.outcomes()[si].is_ok(),
            "{} seed {}: fidelity scenarios are feasible by construction",
            family.name,
            scenario.seed
        );

        // Energy: simulate in the family's own traffic mode (bursty
        // alert traffic is deliberately outside the analytical model —
        // its cost lands in the error envelope, not under the rug).
        let mut energy_sim = NetworkBuilder::new(scenario.mac, scenario.nodes.clone())
            .duration_s(ENERGY_SIM_S)
            .seed(scenario.seed)
            .distances(scenario.distances_m.clone());
        if let Traffic::EventBursts { mean_interval_s, payload_bytes } = scenario.traffic {
            energy_sim = energy_sim.alerts(AlertConfig { mean_interval_s, payload_bytes });
        }
        let energy_report = energy_sim.build().expect("feasible by construction").run();
        assert!(
            energy_report.all_feasible(),
            "{} seed {}: energy sim overran",
            family.name,
            scenario.seed
        );
        for (lane, node_report) in lanes.clone().zip(&energy_report.nodes) {
            energy.record(percent_error(full.energy()[lane], node_report.energy.total_mj_s()));
        }

        // Delay: the Eq. 9 bound covers the scheduled GTS stream, so
        // the distribution it is checked against is simulated under
        // `PacketStream` with no alert traffic (the delay-bound suite's
        // idiom).
        let delay_report = NetworkBuilder::new(scenario.mac, scenario.nodes.clone())
            .duration_s(DELAY_SIM_S)
            .seed(scenario.seed ^ 0x5EED)
            .distances(scenario.distances_m.clone())
            .traffic(TrafficMode::PacketStream)
            .build()
            .expect("feasible by construction")
            .run();
        for (lane, node_report) in lanes.clone().zip(&delay_report.nodes) {
            if node_report.delay.count() == 0 {
                continue;
            }
            delay_obs += node_report.delay.count();
            let bound = full.delay()[lane];
            let observed = node_report.delay.max_s();
            delay_headroom_min = delay_headroom_min.min(bound / observed);
            delay_util_max = delay_util_max.max(observed / bound);
        }

        // PRD: the polynomial estimate in the kernel's lane against the
        // real codec on held-out ECG, per node (off-axis CRs exercise
        // the polynomials between their fitting knots).
        for (ni, (lane, node)) in lanes.clone().zip(&scenario.nodes).enumerate() {
            let codec = match node.kind {
                CompressionKind::Dwt => Codec::Dwt(DwtCodec::default()),
                CompressionKind::Cs => Codec::Cs(CsCodec::default()),
            };
            let mut rng =
                StdRng::seed_from_u64(scenario.seed.wrapping_add(ni as u64 * 0x9E37_79B9));
            let measured = measure_prd(&codec, &signal, 256, node.cr, &mut rng)
                .expect("16 s of ECG holds full blocks")
                .prd;
            prd_max_err = prd_max_err.max((full.prd()[lane] - measured).abs());
            node_obs += 1;
        }
    }

    assert!(delay_obs > 0, "{}: delay envelope would be vacuous", family.name);
    FamilyEnvelope {
        family: family.name,
        scenarios: scenarios.len(),
        node_obs,
        energy_mean_err_pct: energy.mean(),
        energy_max_err_pct: energy.max(),
        delay_headroom_min,
        delay_util_max,
        prd_max_err,
        spills: match family.axis_policy {
            AxisPolicy::OffAxis => points.len() as u64,
            AxisPolicy::OnAxis => 0,
        },
    }
}

/// Measures every fidelity family (in parallel — each family is a pure
/// function of its seeds, so the result is thread-count independent).
#[must_use]
pub fn measure_all(n: usize, base_seed: u64) -> Vec<FamilyEnvelope> {
    let families = fidelity_families();
    parallel_map_with(&families, WbsnModel::shimmer, |model, family| {
        measure_family(model, family, n, base_seed)
    })
}

/// Renders envelopes as a deterministic Markdown table (the golden /
/// report format).
#[must_use]
pub fn render_envelopes(envelopes: &[FamilyEnvelope]) -> String {
    let mut buf = String::new();
    header_to(
        &mut buf,
        &[
            "family",
            "scenarios",
            "node-obs",
            "energy mean err %",
            "energy max err %",
            "delay headroom min",
            "delay util max",
            "PRD max err",
            "spills",
        ],
    );
    for e in envelopes {
        row_to(
            &mut buf,
            &[
                e.family.to_string(),
                e.scenarios.to_string(),
                e.node_obs.to_string(),
                format!("{:.4}", e.energy_mean_err_pct),
                format!("{:.4}", e.energy_max_err_pct),
                format!("{:.4}", e.delay_headroom_min),
                format!("{:.4}", e.delay_util_max),
                format!("{:.4}", e.prd_max_err),
                e.spills.to_string(),
            ],
        );
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_field_names_are_json_safe() {
        assert_eq!(
            gate_field("body-area-periodic", "energy"),
            "fidelity_energy_body_area_periodic"
        );
        assert!(gate_field("hex-grid-bursty", "delay")
            .chars()
            .all(|c| c == '_' || c.is_ascii_alphanumeric()));
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let e = FamilyEnvelope {
            family: "body-area-periodic",
            scenarios: 2,
            node_obs: 12,
            energy_mean_err_pct: 1.25,
            energy_max_err_pct: 2.5,
            delay_headroom_min: 1.75,
            delay_util_max: 0.5714,
            prd_max_err: 3.125,
            spills: 0,
        };
        let a = render_envelopes(std::slice::from_ref(&e));
        assert_eq!(a, render_envelopes(&[e]));
        assert!(a.contains(
            "| body-area-periodic | 2 | 12 | 1.2500 | 2.5000 | 1.7500 | 0.5714 | 3.1250 | 0 |"
        ));
    }

    #[test]
    fn scores_orient_higher_is_better() {
        let worse = FamilyEnvelope {
            family: "x",
            scenarios: 1,
            node_obs: 1,
            energy_mean_err_pct: 5.0,
            energy_max_err_pct: 9.0,
            delay_headroom_min: 1.1,
            delay_util_max: 0.9,
            prd_max_err: 6.0,
            spills: 0,
        };
        let better = FamilyEnvelope {
            energy_max_err_pct: 2.0,
            delay_headroom_min: 3.0,
            prd_max_err: 1.0,
            ..worse.clone()
        };
        assert!(better.energy_agreement_pct() > worse.energy_agreement_pct());
        assert!(better.delay_headroom() > worse.delay_headroom());
        assert!(better.prd_margin() > worse.prd_margin());
    }

    #[test]
    fn tier1_sampling_is_the_default() {
        // (Does not manipulate the environment: asserting the constant
        // wiring only, so parallel tests cannot race on env state.)
        const { assert!(TIER1_SAMPLES < FULL_SAMPLES) };
        assert!(sample_count() == TIER1_SAMPLES || sample_count() == FULL_SAMPLES);
    }
}
