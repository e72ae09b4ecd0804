//! Per-layer replays: a workload's own recorded inputs fed back through
//! one layer's public function on one thread, so each layer's cost is
//! measured where its work happens.

use std::hint::black_box;
use std::time::Instant;
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::pareto::ParetoArchive;
use wbsn_model::evaluate::{EvalScratch, WbsnModel};
use wbsn_model::soa::SoaScratch;
use wbsn_model::space::DesignPoint;

/// Chunk size of the kernel replays: the batch evaluators' own chunk.
const CHUNK: usize = 1024;

/// Repeats `pass` (which handles `items` items) until `min_secs` have
/// elapsed, at least once, and returns nanoseconds per item.
fn ns_per_item(items: usize, min_secs: f64, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < min_secs {
        pass();
        passes += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / (passes as f64 * items as f64)
}

/// Decode cost: `decode(i)` for `i in 0..count`.
pub fn decode_ns(count: usize, min_secs: f64, decode: impl Fn(usize) -> DesignPoint) -> f64 {
    ns_per_item(count, min_secs, || {
        for i in 0..count {
            black_box(decode(black_box(i)));
        }
    })
}

/// Archive-insert replay of a recorded outcome stream, in its original
/// order, into a fresh archive per pass.
pub struct ParetoReplay {
    pub insert_ns: f64,
    pub inserts: u64,
    pub accept_ratio: f64,
}

pub fn pareto_replay(outcomes: &[Option<ObjectiveVector>], min_secs: f64) -> ParetoReplay {
    let feasible: Vec<ObjectiveVector> = outcomes.iter().flatten().copied().collect();
    let mut accepted = 0u64;
    let insert_ns = ns_per_item(feasible.len(), min_secs, || {
        let mut archive = ParetoArchive::new();
        accepted = 0;
        for (i, o) in feasible.iter().enumerate() {
            accepted += u64::from(archive.insert(*o, i as u32));
        }
        black_box(archive.len());
    });
    ParetoReplay {
        insert_ns,
        inserts: feasible.len() as u64,
        accept_ratio: crate::stats::ratio(accepted as f64, feasible.len() as f64),
    }
}

/// The `SoA` kernel's cost split by outcome.
pub struct KernelSplit {
    pub feasible_ns: f64,
    pub infeasible_ns: f64,
    pub feasible_share: f64,
    /// Points of one pass over the whole sample that spilled to the
    /// scalar path.
    pub spills: u64,
}

/// Replays `points`, partitioned into feasible and infeasible, through
/// the public objectives kernel on one thread.
pub fn soa_split(model: &WbsnModel, points: &[DesignPoint], min_secs: f64) -> KernelSplit {
    let mut scratch = SoaScratch::new();
    let mut feasible = Vec::new();
    let mut infeasible = Vec::new();
    for chunk in points.chunks(CHUNK) {
        let outcomes = model.evaluate_objectives_batch(chunk, &mut scratch);
        for (p, o) in chunk.iter().zip(outcomes) {
            if o.is_ok() {
                feasible.push(p.clone());
            } else {
                infeasible.push(p.clone());
            }
        }
    }
    let spills = scratch.spill_count();
    let mut time = |set: &[DesignPoint]| {
        ns_per_item(set.len(), min_secs, || {
            for chunk in set.chunks(CHUNK) {
                black_box(model.evaluate_objectives_batch(chunk, &mut scratch).len());
            }
        })
    };
    KernelSplit {
        feasible_ns: time(&feasible),
        infeasible_ns: time(&infeasible),
        feasible_share: crate::stats::ratio(feasible.len() as f64, points.len() as f64),
        spills,
    }
}

/// The scalar per-point path (`evaluate_objectives`, the fallback for
/// batches under 64 points) over the same sample.
pub fn scalar_ns(model: &WbsnModel, points: &[DesignPoint], min_secs: f64) -> f64 {
    let mut scratch = EvalScratch::default();
    ns_per_item(points.len(), min_secs, || {
        for p in points {
            black_box(model.evaluate_objectives(&p.mac, &p.nodes, &mut scratch).is_ok());
        }
    })
}

/// Fills the kernel, scalar and archive metrics shared by every
/// workload from its recorded point sample and outcome stream.
pub fn report_common(
    out: &mut crate::Outcome,
    points: &[DesignPoint],
    outcomes: &[Option<ObjectiveVector>],
    min_secs: f64,
) {
    let model = WbsnModel::shimmer();
    let split = soa_split(&model, points, min_secs);
    out.set("soa.feasible_ns_per_point", split.feasible_ns);
    out.set("soa.infeasible_ns_per_point", split.infeasible_ns);
    out.set("soa.feasible_share", split.feasible_share);
    out.set("soa.spills", split.spills as f64);
    out.set("scalar.ns_per_point", scalar_ns(&model, points, min_secs));
    let pareto = pareto_replay(outcomes, min_secs);
    out.set("pareto.insert_ns", pareto.insert_ns);
    out.set("pareto.inserts", pareto.inserts as f64);
    out.set("pareto.accept_ratio", pareto.accept_ratio);
}
