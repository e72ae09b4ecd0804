//! Layered benchmark of the wbsn workspace.
//!
//! One binary, three workloads, driven only through the crates' public
//! API:
//!
//! * `sweep-2node` — back-to-back exact Pareto fronts of the paper's
//!   2-node space (`TruthFront::compute`), the §5.2 whole-space
//!   throughput;
//! * `nsga2-3node` — default NSGA-II runs on the coarse 3-node space,
//!   scored against its exact front;
//! * `serve-genomes` — open-loop 256-genome requests (half from a hot
//!   set) against a default-sized `wbsn-serve` engine.
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run, including
//! the traced-vs-untraced gap as tracing overhead. See `WORKLOADS.md`
//! for why each workload exists and which layer metric should move which
//! end-to-end metric.
//!
//! Usage:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod batch;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics (untraced run), with units. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("evals_per_s", "1/s"),
    ("front_coverage", "ratio"),
    ("p50_ms_low", "ms"),
    ("p90_ms_low", "ms"),
    ("p50_ms_high", "ms"),
    ("p90_ms_high", "ms"),
    ("goodput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units. A layer a workload does
/// not reach reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("space.decode_ns_per_point", "ns"),
    ("pareto.insert_ns", "ns"),
    ("pareto.inserts", "count"),
    ("pareto.accept_ratio", "ratio"),
    ("soa.feasible_ns_per_point", "ns"),
    ("soa.infeasible_ns_per_point", "ns"),
    ("soa.feasible_share", "ratio"),
    ("soa.spills", "count"),
    ("scalar.ns_per_point", "ns"),
    ("evaluator.calls", "count"),
    ("evaluator.points_per_call", "count"),
    ("evaluator.busy_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("nsga2.self_s", "s"),
    ("memo.hit_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.queue_depth_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("serve.p99_ms", "ms"),
    ("generator.late_ms_max", "ms"),
    ("coalesce.super_batches", "count"),
    ("coalesce.members_per_batch", "count"),
    ("memo.sharded_hit_ratio", "ratio"),
    ("memo.len", "count"),
    ("span.root_self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sweep-2node", "nsga2-3node", "serve-genomes"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run hands back: the correctness verdict, operation counts
/// and the metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Renders the result line, checking that exactly the metrics of the
    /// selected list are present and finite.
    fn to_json(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut names: Vec<&str> = self.metrics.keys().copied().collect();
        let mut expected: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        expected.sort_unstable();
        if names != expected {
            return Err(format!("metric set mismatch: got {names:?}, expected {expected:?}"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.metrics[name];
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep-2node" => batch::run(batch::Workload::Sweep, &args),
        "nsga2-3node" => batch::run(batch::Workload::Nsga2, &args),
        _ => serve::run(&serve::Traffic::new(args.seed), &args),
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match outcome.to_json(list) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
