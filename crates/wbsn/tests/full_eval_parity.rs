//! Differential property test: the full-evaluation batch kernel
//! (`WbsnModel::evaluate_batch_full`) against the scalar
//! `WbsnModel::evaluate` reference, over random node grids, MAC
//! configurations, batch sizes and model variants.
//!
//! The contract under test is the strongest one the kernel claims:
//! **bit-identical** aggregate objectives AND per-node lanes — energy
//! breakdown (sensor/µC/memory/radio and the Eq. 7 total), Eq. 9 delay
//! bound, PRD, Eq. 1 slot counts — for every feasible point, and the
//! **identical `ModelError`** (same variant, same node index, same
//! payload values) with zero-filled lanes for every infeasible one:
//! invalid MAC parameters, invalid compression ratios, duty-cycle
//! overflows, per-node bandwidth shortfalls and GTS capacity overflows,
//! in the scalar path's resolution order. The kernel runs through a
//! *shared, persistent* scratch and output buffer across the whole
//! batch sequence, so stale interned tables, stale lanes or stale
//! offsets would be caught too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbsn::model::evaluate::{NodeConfig, WbsnModel};
use wbsn::model::ieee802154::Ieee802154Config;
use wbsn::model::shimmer::CompressionKind;
use wbsn::model::soa::{FullEvalOut, SoaScratch};
use wbsn::model::space::{DesignPoint, NodeVec, CR_AXIS};
use wbsn::model::units::Hertz;

/// Draws one random design point. Roughly: realistic case-study draws
/// (canonical axis values, so the dense-index kernel path — not just
/// the scalar spill — is what gets exercised), salted with off-axis
/// continuous CRs (which must spill bit-identically), out-of-range MAC
/// parameters (payload 0 / SFO > BCO), invalid compression ratios,
/// clocks that overflow the DWT duty cycle, and CRs large enough to
/// overflow slot capacity on small payloads.
fn random_point(rng: &mut StdRng) -> DesignPoint {
    let n = rng.gen_range(0..=8usize);
    let nodes: NodeVec = (0..n)
        .map(|_| {
            let kind = if rng.gen_bool(0.5) { CompressionKind::Dwt } else { CompressionKind::Cs };
            let cr = match rng.gen_range(0..10u8) {
                0 => *[0.0, -0.25, 1.5].get(rng.gen_range(0..3usize)).expect("in range"),
                1 => rng.gen_range(0.5..1.0), // heavy traffic: capacity errors
                2 | 3 => rng.gen_range(0.17..0.38), // off-axis: the spill path
                _ => CR_AXIS[rng.gen_range(0..CR_AXIS.len())], // dense path
            };
            let f = *[1.0, 2.0, 4.0, 8.0].get(rng.gen_range(0..4usize)).expect("in range");
            NodeConfig::new(kind, cr, Hertz::from_mhz(f))
        })
        .collect();
    let payload = match rng.gen_range(0..8u8) {
        0 => 0u16, // invalid
        1 => 120,  // invalid (above MAX_PAYLOAD_BYTES)
        _ => *[30u16, 50, 70, 90, 114].get(rng.gen_range(0..5usize)).expect("in range"),
    };
    let sfo = rng.gen_range(3..=9u8);
    let bco = rng.gen_range(3..=9u8); // sfo > bco sometimes: invalid
    DesignPoint {
        mac: Ieee802154Config {
            payload_bytes: payload,
            sfo,
            bco,
            beacon_payload_bytes: 0,
            acknowledged: rng.gen_bool(0.9),
        },
        nodes,
    }
}

/// Checks the kernel output against the scalar reference, per node and
/// per metric, bitwise.
fn assert_full_parity(model: &WbsnModel, points: &[DesignPoint], out: &FullEvalOut) {
    assert_eq!(out.len(), points.len(), "outcome count");
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for (i, p) in points.iter().enumerate() {
        let lanes = out.node_range(i);
        assert_eq!(lanes.len(), p.nodes.len(), "point {i} lane range");
        match (model.evaluate(&p.mac, &p.nodes), &out.outcomes()[i]) {
            (Ok(eval), Ok(obj)) => {
                feasible += 1;
                assert_eq!(eval.objectives.energy.to_bits(), obj.energy.to_bits(), "point {i}");
                assert_eq!(eval.objectives.delay.to_bits(), obj.delay.to_bits(), "point {i}");
                assert_eq!(eval.objectives.prd.to_bits(), obj.prd.to_bits(), "point {i}");
                for (j, node) in eval.per_node.iter().enumerate() {
                    let o = lanes.start + j;
                    for (name, got, want) in [
                        ("sensor", out.sensor()[o], node.energy.sensor.mj_per_s()),
                        ("mcu", out.mcu()[o], node.energy.mcu.mj_per_s()),
                        ("memory", out.memory()[o], node.energy.memory.mj_per_s()),
                        ("radio", out.radio()[o], node.energy.radio.mj_per_s()),
                        ("energy", out.energy()[o], node.energy.total().mj_per_s()),
                        ("delay", out.delay()[o], node.delay_bound.value()),
                        ("prd", out.prd()[o], node.prd),
                    ] {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "point {i} node {j} lane `{name}`: {got} vs {want}"
                        );
                    }
                    assert_eq!(out.slots()[o], node.slots, "point {i} node {j} slots");
                }
            }
            (Err(a), Err(b)) => {
                infeasible += 1;
                assert_eq!(&a, b, "point {i} errors must be identical");
                let zeroed = out.sensor()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.mcu()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.memory()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.radio()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.energy()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.delay()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.prd()[lanes.clone()].iter().all(|&v| v == 0.0)
                    && out.slots()[lanes.clone()].iter().all(|&v| v == 0);
                assert!(zeroed, "point {i} infeasible lanes must be zero-filled");
            }
            (a, b) => panic!("point {i} feasibility disagreement: {a:?} vs {b:?}"),
        }
    }
    // Batches big enough to carry both outcomes must show both over the
    // sequence; tiny batches may legitimately be one-sided.
    if points.len() >= 64 {
        assert!(feasible > 0, "degenerate batch: nothing feasible");
        assert!(infeasible > 0, "degenerate batch: nothing infeasible");
    }
}

proptest! {
    #[test]
    fn full_kernels_match_scalar_reference(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = match rng.gen_range(0..3u8) {
            0 => WbsnModel::shimmer(),
            1 => WbsnModel::shimmer().with_theta(rng.gen_range(0.0..2.0)),
            _ => WbsnModel::shimmer()
                .with_packet_error_rate(rng.gen_range(0.0..0.9))
                .with_theta(rng.gen_range(0.0..2.0)),
        };
        // One persistent kernel scratch and output buffer across several
        // random batch sizes (odd sizes, singletons, empty) — exactly
        // how callers reuse them batch to batch.
        let mut soa = SoaScratch::new();
        let mut out = FullEvalOut::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let len = *[0usize, 1, 7, 64, 170].get(rng.gen_range(0..5usize)).expect("in range");
            let points: Vec<DesignPoint> = (0..len).map(|_| random_point(&mut rng)).collect();
            model.evaluate_batch_full(&points, &mut soa, &mut out);
            assert_full_parity(&model, &points, &out);
        }
    }
}
