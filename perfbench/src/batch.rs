//! The two solve workloads: `sweep-2node` (exact fronts) and
//! `nsga2-3node` (default NSGA-II runs), each driven from one caller
//! thread with the batch evaluator on 2 threads.
//!
//! An operation is one complete solve. The high reference rate is
//! back-to-back solves (the most one caller can offer); the low one is
//! an open-loop schedule with the caller idle between solves, so each
//! solve starts on idle threads and cold caches. Latency is timed from
//! when each solve was due.

use crate::stats::{interquartile_mean, mean, median, percentile, ratio};
use crate::trace::{write_spans, TracedEvaluator};
use crate::{layers, peak_rss_mb, Args, Outcome};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use wbsn_dse::evaluator::{Evaluator, ModelEvaluator, SerialEvaluator};
use wbsn_dse::exhaustive::point_at_axis_major;
use wbsn_dse::nsga2::{nsga2, Nsga2Config, SearchResult};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::parallel::with_threads;
use wbsn_dse::truth::{self, TruthFront, TruthScenario};
use wbsn_dse::Genome;

/// Golden exact fronts, compiled in from the repository's snapshots.
const GOLDEN_2NODE: &str = include_str!("../../benchmarks/golden/truth_paper-2node.txt");
const GOLDEN_3NODE: &str = include_str!("../../benchmarks/golden/truth_coarse-3node.txt");

/// Evaluator threads of both solve workloads.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// NSGA-II run `i` uses seed `workload seed + i mod NSGA_SEEDS`, so every
/// timed run has a serial reference checked outside the window.
const NSGA_SEEDS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Nsga2,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::Sweep => "sweep-2node",
            Self::Nsga2 => "nsga2-3node",
        }
    }

    /// Open-loop rate of the low reference level, solves per second.
    fn low_rate_hz(self) -> f64 {
        match self {
            Self::Sweep => 3.0,
            Self::Nsga2 => 5.0,
        }
    }

    /// Latency limit a solve must meet to count towards goodput.
    fn limit_s(self) -> f64 {
        match self {
            Self::Sweep => 0.5,
            Self::Nsga2 => 0.25,
        }
    }

    /// Target length of one measurement round, seconds.
    fn round_s(self) -> f64 {
        match self {
            Self::Sweep => 3.6,
            Self::Nsga2 => 1.0,
        }
    }

    /// The root span name of one solve.
    fn span(self) -> &'static str {
        match self {
            Self::Sweep => "dse.truth",
            Self::Nsga2 => "dse.nsga2",
        }
    }
}

/// Parses a golden truth snapshot back into a [`TruthFront`].
fn parse_golden(text: &str, scenario: &TruthScenario) -> TruthFront {
    let header = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .expect("golden snapshot header")
    };
    let objectives = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let values: Vec<f64> =
                l.split_whitespace().map(|v| v.parse().expect("golden value")).collect();
            ObjectiveVector::from_slice(&values)
        })
        .collect();
    TruthFront {
        scenario: scenario.name,
        cardinality: u128::from(header("# space points:")),
        feasible: header("# feasible:"),
        objectives,
    }
}

/// Hash of a search result's front (objective bits, in archive order)
/// and counters.
fn fingerprint(result: &SearchResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for o in result.front.objectives() {
        for v in o.values() {
            v.to_bits().hash(&mut h);
        }
    }
    (result.evaluations, result.infeasible, result.memo_hits).hash(&mut h);
    h.finish()
}

/// Runs solves and keeps the correctness record.
struct Bench {
    workload: Workload,
    scenario: TruthScenario,
    golden: TruthFront,
    seed: u64,
    attempted: u64,
    failed: u64,
    /// Per NSGA-II seed: fingerprint and front of its first run.
    runs: Vec<Option<(u64, Vec<ObjectiveVector>)>>,
    memo_hits: u64,
    evaluations: u64,
    last_front: Vec<ObjectiveVector>,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let (scenario, golden) = match workload {
            Workload::Sweep => (truth::paper_2node(), GOLDEN_2NODE),
            Workload::Nsga2 => (truth::coarse_3node(), GOLDEN_3NODE),
        };
        let golden = parse_golden(golden, &scenario);
        Self {
            workload,
            scenario,
            golden,
            seed,
            attempted: 0,
            failed: 0,
            runs: vec![None; NSGA_SEEDS as usize],
            memo_hits: 0,
            evaluations: 0,
            last_front: Vec::new(),
        }
    }

    fn nsga_config(&self, op: u64) -> Nsga2Config {
        Nsga2Config { seed: self.seed.wrapping_add(op % NSGA_SEEDS), ..Nsga2Config::default() }
    }

    /// Runs solve number `op`; returns the design points it resolved.
    fn solve(&mut self, ev: &dyn Evaluator, op: u64) -> u64 {
        self.attempted += 1;
        match self.workload {
            Workload::Sweep => {
                let front = TruthFront::compute(&self.scenario, ev);
                if front.render() != GOLDEN_2NODE {
                    self.failed += 1;
                }
                self.last_front = front.objectives;
                u64::try_from(front.cardinality).expect("truth spaces fit in u64")
            }
            Workload::Nsga2 => {
                let result = nsga2(&self.scenario.space, ev, &self.nsga_config(op));
                let fp = fingerprint(&result);
                let slot = &mut self.runs[(op % NSGA_SEEDS) as usize];
                match slot {
                    None => *slot = Some((fp, result.front.objectives().copied().collect())),
                    Some((first, _)) if *first != fp => self.failed += 1,
                    Some(_) => {}
                }
                self.memo_hits += result.memo_hits;
                self.evaluations += result.evaluations;
                result.evaluations
            }
        }
    }

    /// One solve as a root span, with the evaluator's calls as children.
    fn traced_solve(&mut self, ev: &TracedEvaluator, op: u64) -> u64 {
        let root = ev.log.borrow_mut().tracer.open(self.workload.span(), Instant::now(), op);
        {
            let mut log = ev.log.borrow_mut();
            log.parent = Some(root);
            log.request = op;
        }
        let points = self.solve(ev, op);
        let mut log = ev.log.borrow_mut();
        log.tracer.close(root, Instant::now());
        log.parent = None;
        points
    }

    /// Checks every NSGA-II seed against the same seed through
    /// `SerialEvaluator` (outside any timed window), running seeds the
    /// window never reached first. Returns the mean front coverage over
    /// the seeds against the exact front.
    fn finish_nsga(&mut self, ev: &dyn Evaluator) -> f64 {
        for op in 0..NSGA_SEEDS {
            if self.runs[op as usize].is_none() {
                self.solve(ev, op);
            }
        }
        let serial = SerialEvaluator(ModelEvaluator::shimmer());
        let mut coverage = Vec::new();
        for op in 0..NSGA_SEEDS {
            let reference = nsga2(&self.scenario.space, &serial, &self.nsga_config(op));
            let (fp, front) = self.runs[op as usize].as_ref().expect("every seed ran");
            if *fp != fingerprint(&reference) {
                self.failed += 1;
            }
            coverage.push(self.golden.quality_of(front).front_coverage);
        }
        mean(&coverage)
    }
}

/// Back-to-back solves for `secs`; returns per-solve seconds and the
/// points resolved.
fn closed_loop(
    bench: &mut Bench,
    secs: f64,
    op: &mut u64,
    mut solve: impl FnMut(&mut Bench, u64) -> u64,
) -> (Vec<f64>, u64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut points = 0;
    while times.is_empty() || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        points += solve(bench, *op);
        times.push(t.elapsed().as_secs_f64());
        *op += 1;
    }
    (times, points)
}

/// Open-loop solves at `rate_hz` for `secs`, each timed from when it was
/// due; returns the latencies in seconds.
fn open_loop(
    bench: &mut Bench,
    ev: &dyn Evaluator,
    rate_hz: f64,
    secs: f64,
    op: &mut u64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    for k in 0u32.. {
        let due = start + Duration::from_secs_f64(f64::from(k) / rate_hz);
        if (due - start).as_secs_f64() >= secs && k > 0 {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        bench.solve(ev, *op);
        *op += 1;
        latencies.push(due.elapsed().as_secs_f64());
    }
    latencies
}

pub fn run(workload: Workload, args: &Args) -> Outcome {
    with_threads(THREADS, || run_pinned(workload, args))
}

fn run_pinned(workload: Workload, args: &Args) -> Outcome {
    let mut bench = Bench::new(workload, args.seed);
    let mut out = Outcome::default();

    // Set-up: evaluator construction plus the first (cold) solve.
    let mut setups = Vec::new();
    let mut evaluator = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ev = ModelEvaluator::shimmer();
        bench.solve(&ev, 0);
        setups.push(t.elapsed().as_secs_f64());
        evaluator = Some(ev);
    }
    let ev = evaluator.expect("at least one set-up");
    let mut op = 1;
    let w = args.seconds;

    if args.trace {
        trace_run(&mut bench, &ev, args, &mut op, &mut out);
    } else {
        // Rounds interleave the two rates across the whole run, so both
        // sample the same mix of the host's fast and slow spells. The
        // p50s are interquartile means of per-round medians, which move
        // smoothly with the share of slow rounds where a pooled median
        // jumps between the fast and the slow cluster.
        let (mut times, mut low, mut points) = (Vec::new(), Vec::new(), 0);
        let (mut high_p50, mut low_p50) = (Vec::new(), Vec::new());
        let rounds = (w / workload.round_s()).round().max(1.0) as usize;
        let round_s = w / rounds as f64;
        for _ in 0..rounds {
            let (t, p) = closed_loop(&mut bench, 0.5 * round_s, &mut op, |b, k| b.solve(&ev, k));
            high_p50.push(median(&t));
            times.extend(t);
            points += p;
            let l = open_loop(&mut bench, &ev, workload.low_rate_hz(), 0.5 * round_s, &mut op);
            low_p50.push(median(&l));
            low.extend(l);
        }
        let solve_s = interquartile_mean(&high_p50);
        let busy: f64 = times.iter().sum();
        let within = times.iter().filter(|&&t| t <= workload.limit_s()).count();
        out.set("setup_s", median(&setups));
        out.set("solve_s", solve_s);
        out.set("evals_per_s", points as f64 / times.len() as f64 / solve_s);
        out.set("p50_ms_high", solve_s * 1e3);
        out.set("p90_ms_high", percentile(&times, 90.0) * 1e3);
        out.set("p50_ms_low", interquartile_mean(&low_p50) * 1e3);
        out.set("p90_ms_low", percentile(&low, 90.0) * 1e3);
        out.set("goodput_qps", within as f64 / busy);
        out.set("peak_rss_mb", peak_rss_mb());
    }

    let coverage = match workload {
        Workload::Sweep => bench.golden.quality_of(&bench.last_front).front_coverage,
        Workload::Nsga2 => bench.finish_nsga(&ev),
    };
    if !args.trace {
        out.set("front_coverage", coverage);
    }
    // The exact sweep must recover the whole golden front.
    let coverage_ok = workload != Workload::Sweep || coverage == 1.0;
    out.correct = bench.failed == 0 && coverage_ok;
    out.attempted = bench.attempted;
    out.failed = bench.failed;
    out
}

/// The traced run: an untraced closed loop, the same loop through the
/// tracing wrapper, then one-thread and per-layer replays of the
/// workload's recorded inputs.
fn trace_run(bench: &mut Bench, ev: &ModelEvaluator, args: &Args, op: &mut u64, out: &mut Outcome) {
    let workload = bench.workload;
    let w = args.seconds;
    let epoch = Instant::now();
    let (plain, _) = closed_loop(bench, 0.25 * w, op, |b, k| b.solve(ev, k));

    let traced = TracedEvaluator::new(ev, epoch);
    {
        // Record the first traced solve's inputs and outcomes for the
        // layer replays (a strided point sample on the big sweep).
        let mut log = traced.log.borrow_mut();
        log.sample_stride = if workload == Workload::Sweep { 16 } else { 1 };
        log.keep_outcomes = true;
    }
    let first_op = *op;
    let (times, _) = closed_loop(bench, 0.25 * w, op, |b, k| {
        let points = b.traced_solve(&traced, k);
        if k == first_op {
            let mut log = traced.log.borrow_mut();
            log.keep_outcomes = false;
            if workload == Workload::Sweep {
                log.sample_stride = 0;
            }
        }
        if k >= first_op + 3 {
            traced.log.borrow_mut().sample_stride = 0;
        }
        points
    });
    let solves = times.len() as f64;
    let log = traced.log.into_inner();
    let root_self = log.tracer.root_self_secs();

    // One-thread replay of the same solves: the parallel layer's
    // efficiency is the one-thread busy time over threads × busy time.
    let one = TracedEvaluator::new(ev, epoch);
    let replays = match workload {
        Workload::Sweep => 2,
        Workload::Nsga2 => NSGA_SEEDS,
    };
    with_threads(1, || {
        for k in 0..replays {
            bench.solve(&one, first_op + k);
        }
    });
    let busy_one = one.log.borrow().busy_s / replays as f64;
    let busy = log.busy_s / solves;

    out.set("evaluator.calls", log.calls as f64 / solves);
    out.set("evaluator.points_per_call", ratio(log.points as f64, log.calls as f64));
    out.set("evaluator.busy_s", busy);
    out.set("parallel.efficiency", ratio(busy_one, THREADS as f64 * busy));
    out.set("span.root_self_ms", median(&root_self) * 1e3);
    out.set("trace.spans", log.tracer.len() as f64);
    out.set("trace.overhead_pct", (median(&times) / median(&plain) - 1.0) * 100.0);
    let (nsga_self, memo_ratio) = match workload {
        Workload::Sweep => (0.0, 0.0),
        Workload::Nsga2 => {
            (median(&root_self), ratio(bench.memo_hits as f64, bench.evaluations as f64))
        }
    };
    out.set("nsga2.self_s", nsga_self);
    out.set("memo.hit_ratio", memo_ratio);

    let space = bench.scenario.space.clone();
    let decode_ns = match workload {
        Workload::Sweep => {
            layers::decode_ns(100_000, 0.2, |i| point_at_axis_major(&space, i as u128))
        }
        Workload::Nsga2 => {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
            let genomes: Vec<Genome> =
                (0..10_000).map(|_| Genome::random(&space, &mut rng)).collect();
            layers::decode_ns(genomes.len(), 0.2, |i| genomes[i].decode(&space))
        }
    };
    out.set("space.decode_ns_per_point", decode_ns);
    layers::report_common(out, &log.sampled, &log.outcomes, 0.2);
    for name in [
        "serve.submit_us",
        "serve.queue_depth_mean",
        "serve.queue_depth_max",
        "serve.overhead_ms_p50",
        "serve.rejected",
        "serve.p99_ms",
        "generator.late_ms_max",
        "coalesce.super_batches",
        "coalesce.members_per_batch",
        "memo.sharded_hit_ratio",
        "memo.len",
    ] {
        out.set(name, 0.0);
    }
    write_spans(&log.tracer, workload.name(), args.seed);
}
