//! Serve-layer throughput and latency: the DSE-as-a-service engine
//! under concurrent load (the serve fields tracked in `BENCH_dse.json`).
//!
//! Where `dse_throughput` measures the raw kernels, this binary
//! measures the robustness layer wrapped around them: requests flow
//! through the bounded queue, the worker pool, the warm scratch pools,
//! and the per-request bookkeeping of `wbsn-serve`. The interesting
//! questions are *how many scenario queries per second* the engine
//! sustains and *what latency a caller sees* — including everything
//! the direct `evaluate_batch` call never pays: submission, queueing,
//! response channels, and deadline checks.
//!
//! Each query evaluates one 512-point batch of the 6-node case-study
//! sweep (the same shape `dse_throughput` uses for its batch paths).
//! Closed-loop clients keep a fixed number of queries in flight; the
//! run sweeps several concurrency levels and reports per-level
//! queries/s and latency percentiles.
//!
//! Gated fields (written into `BENCH_dse.json` next to the kernel
//! fields, preserving everything else in the document):
//! * `serve_queries_per_s` — best sustained rate across the levels
//!   (higher is better);
//! * `serve_p50_ms` / `serve_p99_ms` — single-client (concurrency 1)
//!   round-trip latency percentiles (lower is better), the cleanest
//!   view of per-request overhead.
//!
//! Run: `cargo run --release -p wbsn-bench --bin serve_throughput`
//! Smoke mode (CI): `SERVE_SMOKE=1` shrinks the run to a few hundred
//! queries and skips the JSON merge.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wbsn_model::space::{DesignPoint, DesignSpace};
use wbsn_serve::{ScenarioRequest, ServeConfig, ServeEngine};

/// Concurrency levels swept: clients keeping queries in flight.
const LEVELS: [usize; 3] = [1, 4, 16];

/// One measured level: sustained rate plus latency percentiles.
struct LevelResult {
    clients: usize,
    queries: usize,
    queries_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Sorted-latency percentile (nearest-rank).
fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// The engine configuration for one measured level.
fn level_config(clients: usize) -> ServeConfig {
    ServeConfig { queue_capacity: clients.max(16) * 2, ..ServeConfig::default() }
}

/// Runs `queries` closed-loop queries across `clients` submitter
/// threads against one engine, returning rate and latency stats.
fn run_level(
    points: &[DesignPoint],
    clients: usize,
    queries: usize,
    cfg: ServeConfig,
) -> LevelResult {
    let engine = ServeEngine::start(cfg);
    // Warm the scratch pools and fault in the lazy interning tables so
    // the measurement sees steady state, not first-touch costs.
    for _ in 0..4 {
        engine
            .try_submit(ScenarioRequest::evaluate(points.to_vec()))
            .expect("queue empty during warmup")
            .wait()
            .expect("warmup query succeeds");
    }

    let per_client = queries.div_ceil(clients);
    let t0 = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let submitted = Instant::now();
                        let response = engine
                            .submit(ScenarioRequest::evaluate(points.to_vec()))
                            .expect("engine alive")
                            .wait()
                            .expect("fault-free query succeeds");
                        local.push(submitted.elapsed());
                        assert_eq!(
                            response.points_resolved,
                            points.len() as u64,
                            "every query resolves the full batch"
                        );
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    LevelResult {
        clients,
        queries: latencies.len(),
        queries_per_s: latencies.len() as f64 / elapsed,
        p50_ms: percentile_ms(&latencies, 50.0),
        p99_ms: percentile_ms(&latencies, 99.0),
    }
}

/// Replaces the `serve_*` lines of an existing `BENCH_dse.json` with
/// `serve_lines`, preserving every other field; starts a fresh document
/// when none exists.
fn merge_into_bench_json(doc: Option<&str>, serve_lines: &str) -> String {
    match doc {
        Some(doc) if doc.trim_start().starts_with('{') => {
            let mut out = String::with_capacity(doc.len() + serve_lines.len());
            let mut inserted = false;
            for line in doc.lines() {
                if line.trim_start().starts_with("\"serve_") {
                    continue; // stale serve fields from a previous run
                }
                out.push_str(line);
                out.push('\n');
                if !inserted && line.trim_end().ends_with('{') {
                    out.push_str(serve_lines);
                    inserted = true;
                }
            }
            out
        }
        _ => format!("{{\n{serve_lines}  \"bench\": \"serve_throughput\"\n}}\n"),
    }
}

fn main() {
    let smoke = std::env::var("SERVE_SMOKE").is_ok_and(|v| v == "1");
    let queries_per_level = if smoke { 64 } else { 2000 };

    println!("# serve-layer throughput (DSE-as-a-service)\n");
    let space = DesignSpace::case_study(6);
    let points = space.sample_sweep(512);
    println!(
        "{} queries/level, {} points/query, levels {:?}{}\n",
        queries_per_level,
        points.len(),
        LEVELS,
        if smoke { " [smoke]" } else { "" }
    );

    let results: Vec<LevelResult> = LEVELS
        .iter()
        .map(|&clients| run_level(&points, clients, queries_per_level, level_config(clients)))
        .collect();
    for r in &results {
        println!(
            "clients {:>2}: {:>9.0} queries/s  ({:>8.0} evals/s)  p50 {:.3} ms  p99 {:.3} ms  \
             ({} queries)",
            r.clients,
            r.queries_per_s,
            r.queries_per_s * points.len() as f64,
            r.p50_ms,
            r.p99_ms,
            r.queries
        );
    }

    let best_rate = results.iter().map(|r| r.queries_per_s).fold(f64::NEG_INFINITY, f64::max);
    let single = &results[0];
    assert_eq!(single.clients, 1, "latency percentiles come from the single-client level");
    println!(
        "\nbest sustained rate: {best_rate:.0} queries/s; \
         single-client p50 {:.3} ms, p99 {:.3} ms",
        single.p50_ms, single.p99_ms
    );

    if smoke {
        println!("\nSERVE_SMOKE set — skipping the BENCH_dse.json merge");
        return;
    }

    let mut serve_lines = String::new();
    let _ = writeln!(serve_lines, "  \"serve_queries_per_s\": {best_rate:.1},");
    let _ = writeln!(serve_lines, "  \"serve_p50_ms\": {:.4},", single.p50_ms);
    let _ = writeln!(serve_lines, "  \"serve_p99_ms\": {:.4},", single.p99_ms);
    let levels: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\": {}, \"queries_per_s\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
                r.clients, r.queries_per_s, r.p50_ms, r.p99_ms
            )
        })
        .collect();
    let _ = writeln!(serve_lines, "  \"serve_levels\": [{}],", levels.join(", "));
    let existing = std::fs::read_to_string("BENCH_dse.json").ok();
    let merged = merge_into_bench_json(existing.as_deref(), &serve_lines);
    match std::fs::write("BENCH_dse.json", &merged) {
        Ok(()) => println!("\nmerged serve fields into BENCH_dse.json"),
        Err(e) => eprintln!("\ncould not write BENCH_dse.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{merge_into_bench_json, percentile_ms};
    use std::time::Duration;

    #[test]
    fn merge_replaces_serve_fields_and_preserves_the_rest() {
        let doc = "{\n  \"bench\": \"dse_throughput\",\n  \"serve_queries_per_s\": 1.0,\n  \
                   \"serve_levels\": [{\"clients\": 1}],\n  \"batch_evals_per_s\": 2.5\n}\n";
        let merged = merge_into_bench_json(Some(doc), "  \"serve_queries_per_s\": 9.0,\n");
        assert!(merged.contains("\"serve_queries_per_s\": 9.0"));
        assert!(!merged.contains("\"serve_queries_per_s\": 1.0"));
        assert!(!merged.contains("\"serve_levels\": [{\"clients\": 1}]"));
        assert!(merged.contains("\"batch_evals_per_s\": 2.5"));
        assert!(merged.contains("\"bench\": \"dse_throughput\""));
    }

    #[test]
    fn merge_without_a_document_starts_a_fresh_one() {
        let merged = merge_into_bench_json(None, "  \"serve_p50_ms\": 0.5,\n");
        assert!(merged.starts_with('{'));
        assert!(merged.contains("\"serve_p50_ms\": 0.5"));
        assert!(merged.trim_end().ends_with('}'));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!((percentile_ms(&sorted, 50.0) - 50.0).abs() < 1e-9);
        assert!((percentile_ms(&sorted, 99.0) - 99.0).abs() < 1e-9);
        assert!((percentile_ms(&sorted, 100.0) - 100.0).abs() < 1e-9);
    }
}
