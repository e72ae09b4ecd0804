//! The serve workload, `serve-genomes`: open-loop traffic from one
//! submitter thread on a fixed schedule (`try_submit`), plus one
//! collector thread, against an engine with the default worker count.
//!
//! Every request is timed from when it was due to be sent, so a
//! generator stall is charged to the requests it delayed, and the
//! generator's lateness is reported. The collector waits on handles in
//! submission order: `QueryHandle::wait` consumes the handle, so a
//! response that lands before its predecessor's is read only after it,
//! which can overstate its latency by at most the predecessor's
//! remaining time.
//!
//! An operation is one request. `solve_s` is the time to answer a burst
//! of requests submitted at once (the engine's capacity), `goodput_qps`
//! the highest open-loop rate whose p90 meets the limit with no failed
//! request and no growing backlog.

use crate::stats::{interquartile_mean, mean, median, percentile, ratio};
use crate::trace::Tracer;
use crate::{layers, peak_rss_mb, Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use wbsn_dse::evaluator::{EnergyDelayEvaluator, Evaluator, LifetimeEvaluator, ModelEvaluator};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::pareto::ParetoArchive;
use wbsn_dse::quality::coverage;
use wbsn_dse::Genome;
use wbsn_model::space::{DesignPoint, DesignSpace};
use wbsn_serve::{
    EngineStats, Objectives, QueryHandle, ScenarioRequest, ServeConfig, ServeEngine, ServeError,
};

const NAME: &str = "serve-genomes";
/// Genomes per request.
const SIZE: u64 = 256;
/// Genomes in the seeded hot set half of every request draws from.
const HOT_SET: usize = 2048;
/// Reference rates (requests/s) and the limit on p90 latency.
const LOW_RATE: f64 = 600.0;
const HIGH_RATE: f64 = 1_000.0;
const LIMIT_S: f64 = 2e-3;
/// Requests per burst of the capacity measurement.
const BURST: u64 = 64;
/// Every `SAMPLE_EVERY`-th request (offset by the seed) is checked bit
/// for bit.
const SAMPLE_EVERY: u64 = 8;
/// Submission-queue capacity: deep, so a scheduler stall shows as
/// latency rather than as `QueueFull`.
const DEEP_QUEUE: usize = 16_384;
/// Set-ups per run; `setup_s` is their median (a set-up takes only
/// milliseconds, so take enough of them to steady the median).
const SETUPS: usize = 9;
/// Requests answered closed-loop as each set-up's warm-up.
const WARMUP: u64 = 32;
/// Measurement rounds per run.
const ROUNDS: usize = 24;
/// Goodput ladder rates above the high reference rate.
const RUNGS: usize = 6;
/// A goodput window stops once its queue holds this many seconds of
/// traffic.
const ABORT_BACKLOG_S: f64 = 0.02;

/// 256-genome `evaluate_genomes` requests on the 6-node case study, half
/// of the genomes from a seeded hot set, the objective lane rotating
/// over `Objectives::ALL`. Request `k` is a pure function of the seed
/// and `k`.
pub struct Traffic {
    seed: u64,
    space: DesignSpace,
    hot: Vec<Genome>,
}

impl Traffic {
    pub fn new(seed: u64) -> Self {
        let space = DesignSpace::case_study(6);
        let mut rng = StdRng::seed_from_u64(seed);
        let hot = (0..HOT_SET).map(|_| Genome::random(&space, &mut rng)).collect();
        Self { seed, space, hot }
    }

    fn lane(k: u64) -> Objectives {
        Objectives::ALL[(k % Objectives::ALL.len() as u64) as usize]
    }

    fn genomes(&self, k: u64) -> Vec<Genome> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (0..SIZE)
            .map(|_| {
                if rng.gen::<bool>() {
                    self.hot[rng.gen_range(0..self.hot.len())].clone()
                } else {
                    Genome::random(&self.space, &mut rng)
                }
            })
            .collect()
    }

    fn request(&self, k: u64) -> ScenarioRequest {
        ScenarioRequest::evaluate_genomes(self.space.clone(), self.genomes(k))
            .with_objectives(Self::lane(k))
    }

    /// The design points request `k` asks about, decoded.
    fn points(&self, k: u64) -> Vec<DesignPoint> {
        self.genomes(k).iter().map(|g| g.decode(&self.space)).collect()
    }
}

/// Direct evaluators, one per objective lane, for the bitwise checks.
struct Direct {
    full: ModelEvaluator,
    energy_delay: EnergyDelayEvaluator,
    lifetime: LifetimeEvaluator,
}

impl Direct {
    fn new() -> Self {
        Self {
            full: ModelEvaluator::shimmer(),
            energy_delay: EnergyDelayEvaluator::shimmer(),
            lifetime: LifetimeEvaluator::shimmer(),
        }
    }

    fn evaluator(&self, lane: Objectives) -> &dyn Evaluator {
        match lane {
            Objectives::EnergyDelayPrd => &self.full,
            Objectives::EnergyDelay => &self.energy_delay,
            Objectives::EnergyDelayPrdLifetime => &self.lifetime,
        }
    }
}

/// One request handed from the submitter to the collector.
struct Sent {
    k: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: Result<QueryHandle, ServeError>,
}

/// Per-round p50 and p90 of one reference rate.
#[derive(Default)]
struct Stat {
    p50: Vec<f64>,
    p90: Vec<f64>,
}

impl Stat {
    fn add(&mut self, window: &Window) {
        self.p50.push(window.p(50.0));
        self.p90.push(window.p(90.0));
    }
}

/// A sampled response kept for the bitwise check.
struct Sample {
    k: u64,
    latency_s: f64,
    outcomes: Vec<Option<ObjectiveVector>>,
}

/// What one open-loop window measured.
#[derive(Default)]
struct Window {
    /// Per-request latency from due time, in send order (answered only).
    latencies: Vec<f64>,
    late_max_s: f64,
    sent: u64,
    failed: u64,
    submit_s: Vec<f64>,
    depth: Vec<f64>,
    samples: Vec<Sample>,
    before: EngineStats,
    after: EngineStats,
    tracer: Option<Tracer>,
    /// The submitter stopped early because the backlog passed its cap.
    aborted: bool,
}

impl Window {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies, q)
    }
}

/// Sleeps until close to `due`, then spins the rest of the way.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open-loop traffic at `rate` requests/s for `secs`, requests numbered
/// from `k0`. With `epoch` set, records spans per request. With
/// `abort_backlog` set, the submitter stops once the queue holds more
/// than that many seconds of traffic (a probe that is failing anyway
/// would otherwise only grow the backlog and the heap).
fn open_loop(
    engine: &ServeEngine,
    traffic: &Traffic,
    rate: f64,
    secs: f64,
    k0: u64,
    epoch: Option<Instant>,
    abort_backlog: Option<f64>,
) -> Window {
    let abort_depth = abort_backlog.map_or(usize::MAX, |s| ((rate * s) as usize).max(64));
    let n = ((rate * secs).ceil() as u64).max(1);
    let offset = traffic.seed % SAMPLE_EVERY;
    let before = engine.stats();
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut window = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut w = Window { tracer: epoch.map(Tracer::new), ..Window::default() };
            for sent in rx {
                let response = sent.handle.and_then(QueryHandle::wait);
                let done = Instant::now();
                let Ok(response) = response else {
                    w.failed += 1;
                    continue;
                };
                let latency = (done - sent.due).as_secs_f64();
                if response.points_resolved != SIZE {
                    w.failed += 1;
                }
                w.latencies.push(latency);
                if sent.k % SAMPLE_EVERY == offset {
                    let outcomes = response.result.evaluations().unwrap_or_default().to_vec();
                    w.samples.push(Sample { k: sent.k, latency_s: latency, outcomes });
                }
                if let Some(tracer) = w.tracer.as_mut() {
                    let root = tracer.open("serve.request", sent.due, sent.k);
                    tracer.close(root, done);
                    tracer.push("generator.late", sent.due, sent.submit_start, Some(root), sent.k);
                    tracer.push(
                        "serve.submit",
                        sent.submit_start,
                        sent.submit_end,
                        Some(root),
                        sent.k,
                    );
                }
            }
            w
        });
        let mut late_max = 0.0f64;
        let mut submit_s = Vec::with_capacity(n as usize);
        let mut depth = Vec::new();
        let mut aborted = false;
        let start = Instant::now();
        for i in 0..n {
            let k = k0 + i;
            let request = traffic.request(k);
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due);
            let submit_start = Instant::now();
            let handle = engine.try_submit(request);
            let submit_end = Instant::now();
            late_max = late_max.max((submit_start - due).as_secs_f64());
            submit_s.push((submit_end - submit_start).as_secs_f64());
            tx.send(Sent { k, due, submit_start, submit_end, handle })
                .expect("collector outlives the submitter");
            if i % 16 == 0 {
                let queued = engine.queue_depth();
                depth.push(queued as f64);
                if queued > abort_depth {
                    aborted = true;
                    break;
                }
            }
        }
        drop(tx);
        let mut w = collector.join().expect("collector thread");
        w.late_max_s = late_max;
        w.submit_s = submit_s;
        w.depth = depth;
        w.aborted = aborted;
        w
    });
    window.sent = window.latencies.len() as u64 + window.failed;
    window.before = before;
    window.after = engine.stats();
    window
}

/// Submits `n` pre-built requests at once and waits for all of them;
/// returns the seconds taken and the failures.
fn burst(engine: &ServeEngine, traffic: &Traffic, n: u64, k0: u64) -> (f64, u64) {
    let requests: Vec<ScenarioRequest> = (0..n).map(|i| traffic.request(k0 + i)).collect();
    let start = Instant::now();
    let handles: Vec<_> = requests.into_iter().map(|r| engine.try_submit(r)).collect();
    let mut failed = 0;
    for h in handles {
        match h.and_then(QueryHandle::wait) {
            Ok(r) if r.points_resolved == SIZE => {}
            _ => failed += 1,
        }
    }
    (start.elapsed().as_secs_f64(), failed)
}

/// One rate of the goodput ladder, one window per round.
struct Rung {
    rate: f64,
    /// Per-window p90; infinite for a window stopped on a full backlog.
    p90s: Vec<f64>,
    failed: u64,
}

impl Rung {
    fn new(rate: f64) -> Self {
        Self { rate, p90s: Vec::new(), failed: 0 }
    }

    fn add(&mut self, window: &Window) {
        self.p90s.push(if window.aborted { f64::INFINITY } else { window.p(90.0) });
        self.failed += window.failed;
    }

    /// Median over the rung's windows: one stalled round cannot fail a
    /// rate the engine sustains, and a backlog that grows in most rounds
    /// fails it.
    fn p90(&self) -> f64 {
        median(&self.p90s)
    }

    fn passes(&self, limit_s: f64) -> bool {
        self.failed == 0 && !self.p90s.is_empty() && self.p90() <= limit_s
    }
}

/// The highest rate that meets the limit: the first failing rung and the
/// one below it bracket it, and the crossing of the limit is
/// interpolated in log rate against log p90, so the answer is not a
/// rung of the ladder. A failing rung's p90 is clamped to [2, 50] ×
/// limit (an overloaded rung has no finite p90).
fn goodput(rungs: &[Rung], limit_s: f64) -> f64 {
    let Some(i) = rungs.iter().position(|r| !r.passes(limit_s)) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    let fail_p90 = rungs[i].p90().clamp(2.0 * limit_s, 50.0 * limit_s);
    let (lo_rate, lo_p90) = if i == 0 {
        // Even the lowest rate fails: extrapolate below it.
        (rungs[0].rate / 2.0, limit_s / 2.0)
    } else {
        (rungs[i - 1].rate, rungs[i - 1].p90().max(f64::MIN_POSITIVE))
    };
    let t = ((limit_s.ln() - lo_p90.ln()) / (fail_p90.ln() - lo_p90.ln())).clamp(0.0, 1.0);
    (lo_rate.ln() + t * (rungs[i].rate.ln() - lo_rate.ln())).exp()
}

/// Starts an engine and answers the warm-up requests closed-loop.
fn start_engine(traffic: &Traffic, k0: u64) -> (ServeEngine, u64) {
    let engine =
        ServeEngine::start(ServeConfig { queue_capacity: DEEP_QUEUE, ..ServeConfig::default() });
    let mut failed = 0;
    for k in k0..k0 + WARMUP {
        let ok = engine
            .try_submit(traffic.request(k))
            .and_then(QueryHandle::wait)
            .is_ok_and(|r| r.points_resolved == SIZE);
        failed += u64::from(!ok);
    }
    (engine, failed)
}

/// Request-number bases keeping every phase's inputs distinct.
const PHASE: u64 = 1 << 32;

pub fn run(traffic: &Traffic, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let w = args.seconds;

    let mut setups = Vec::new();
    let mut engine = None;
    for s in 0..SETUPS {
        let t = Instant::now();
        let (e, f) = start_engine(traffic, s as u64 * WARMUP);
        setups.push(t.elapsed().as_secs_f64());
        attempted += WARMUP;
        failed += f;
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let mut windows: Vec<Window> = Vec::new();

    if args.trace {
        let plain = open_loop(&engine, traffic, HIGH_RATE, 0.25 * w, PHASE, None, None);
        let epoch = Instant::now();
        let mut high =
            open_loop(&engine, traffic, HIGH_RATE, 0.25 * w, 2 * PHASE, Some(epoch), None);
        let mut low = open_loop(&engine, traffic, LOW_RATE, 0.2 * w, 3 * PHASE, Some(epoch), None);
        layer_metrics(traffic, &engine, &plain, &high, &low, &mut out);
        out.set("generator.late_ms_max", high.late_max_s.max(low.late_max_s) * 1e3);
        let mut tracer = Tracer::new(epoch);
        tracer.append(high.tracer.take().expect("traced window"));
        tracer.append(low.tracer.take().expect("traced window"));
        out.set("trace.spans", tracer.len() as f64);
        out.set("span.root_self_ms", median(&tracer.root_self_secs()) * 1e3);
        crate::trace::write_spans(&tracer, NAME, args.seed);
        windows.extend([plain, high, low]);
    } else {
        // Rounds interleave every measurement across the whole run, so
        // each metric samples the same mix of the host's fast and slow
        // spells: a burst phase (capacity), the two reference rates, and
        // one window per goodput rung. Timings are interquartile means
        // over rounds of each round's statistic, robust to one stalled
        // round and smooth in the share of slow rounds.
        let round_s = w / ROUNDS as f64;
        let mut k = 4 * PHASE;
        let (mut burst_s, mut low, mut high) = (Vec::new(), Stat::default(), Stat::default());
        let mut rungs = vec![Rung::new(LOW_RATE), Rung::new(HIGH_RATE)];
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let mut bursts = Vec::new();
            while bursts.len() < 2 || start.elapsed().as_secs_f64() < 0.2 * round_s {
                let (secs, f) = burst(&engine, traffic, BURST, k);
                k += BURST;
                attempted += BURST;
                failed += f;
                bursts.push(secs);
            }
            burst_s.push(median(&bursts));
            if rungs.len() == 2 {
                // The ladder climbs geometrically from the high rate to
                // 1.3 × the first round's burst capacity.
                let top = 1.3 * (BURST as f64 / median(&bursts)).max(HIGH_RATE);
                rungs.extend((1..=RUNGS).map(|j| {
                    Rung::new(HIGH_RATE * (top / HIGH_RATE).powf(j as f64 / RUNGS as f64))
                }));
            }
            for (stat, rung) in [(&mut low, 0), (&mut high, 1)] {
                let window =
                    open_loop(&engine, traffic, rungs[rung].rate, 0.15 * round_s, k, None, None);
                k += PHASE;
                stat.add(&window);
                rungs[rung].add(&window);
                windows.push(window);
            }
            for rung in &mut rungs[2..] {
                let window = open_loop(
                    &engine,
                    traffic,
                    rung.rate,
                    0.5 * round_s / RUNGS as f64,
                    k,
                    None,
                    Some(ABORT_BACKLOG_S),
                );
                k += PHASE;
                // Rungs above capacity fail by design: their requests
                // count as attempted, not as failed.
                attempted += window.sent;
                rung.add(&window);
            }
        }
        let solve_s = interquartile_mean(&burst_s);
        out.set("setup_s", median(&setups));
        out.set("solve_s", solve_s);
        out.set("evals_per_s", (BURST * SIZE) as f64 / solve_s);
        out.set("p50_ms_low", interquartile_mean(&low.p50) * 1e3);
        out.set("p90_ms_low", interquartile_mean(&low.p90) * 1e3);
        out.set("p50_ms_high", interquartile_mean(&high.p50) * 1e3);
        out.set("p90_ms_high", interquartile_mean(&high.p90) * 1e3);
        out.set("goodput_qps", goodput(&rungs, LIMIT_S));
        out.set("peak_rss_mb", peak_rss_mb());
    }

    // Bitwise check of the sampled responses against a direct
    // evaluate_batch of the same request, and front coverage of the
    // served sample against the direct one.
    let direct = Direct::new();
    let mut served_front: ParetoArchive<()> = ParetoArchive::new();
    let mut direct_front: ParetoArchive<()> = ParetoArchive::new();
    for window in &windows {
        attempted += window.sent;
        failed += window.failed;
        for s in &window.samples {
            let lane = Traffic::lane(s.k);
            let expected = direct.evaluator(lane).evaluate_batch(&traffic.points(s.k));
            let same = expected.len() == s.outcomes.len()
                && expected.iter().zip(&s.outcomes).all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a
                        .values()
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(b.values().iter().map(|v| v.to_bits())),
                    (None, None) => true,
                    _ => false,
                });
            failed += u64::from(!same);
            if lane == Objectives::default() {
                for o in s.outcomes.iter().flatten() {
                    served_front.insert(*o, ());
                }
                for o in expected.iter().flatten() {
                    direct_front.insert(*o, ());
                }
            }
        }
    }
    let served: Vec<ObjectiveVector> = served_front.objectives().copied().collect();
    let exact: Vec<ObjectiveVector> = direct_front.objectives().copied().collect();
    let front_coverage = coverage(&served, &exact);
    if !args.trace {
        out.set("front_coverage", front_coverage);
    }
    drop(engine);
    out.correct = failed == 0 && !exact.is_empty() && front_coverage == 1.0;
    out.attempted = attempted;
    out.failed = failed;
    out
}

/// Per-layer metrics of a traced serve run. `plain` is the untraced
/// high-rate window, `high`/`low` the traced ones.
fn layer_metrics(
    traffic: &Traffic,
    engine: &ServeEngine,
    plain: &Window,
    high: &Window,
    low: &Window,
    out: &mut Outcome,
) {
    let d = |f: fn(&EngineStats) -> u64| (f(&high.after) - f(&high.before)) as f64;
    out.set("serve.submit_us", median(&high.submit_s) * 1e6);
    out.set("serve.queue_depth_mean", mean(&high.depth));
    out.set("serve.queue_depth_max", high.depth.iter().copied().fold(0.0, f64::max));
    out.set("serve.p99_ms", high.p(99.0) * 1e3);
    out.set(
        "serve.rejected",
        [plain, high, low].iter().map(|w| (w.after.rejected - w.before.rejected) as f64).sum(),
    );
    out.set("coalesce.super_batches", d(|s| s.super_batches));
    out.set(
        "coalesce.members_per_batch",
        ratio(d(|s| s.coalesced_requests), d(|s| s.super_batches)),
    );
    out.set("memo.sharded_hit_ratio", ratio(d(|s| s.memo_hits), (high.sent * SIZE) as f64));
    out.set("memo.len", engine.stats().memo_len as f64);
    out.set("trace.overhead_pct", (high.p(50.0) / plain.p(50.0) - 1.0) * 100.0);

    // Serve overhead: each sampled low-rate request's latency minus a
    // direct evaluate_batch of the same request (median of 3).
    let direct = Direct::new();
    let overhead: Vec<f64> = low
        .samples
        .iter()
        .map(|s| {
            let points = traffic.points(s.k);
            let ev = direct.evaluator(Traffic::lane(s.k));
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(ev.evaluate_batch(&points));
                    t.elapsed().as_secs_f64()
                })
                .collect();
            s.latency_s - median(&times)
        })
        .collect();
    out.set("serve.overhead_ms_p50", median(&overhead) * 1e3);

    // Layer replays over the workload's own inputs: the hot set plus as
    // many cold genomes.
    let mut genomes = traffic.hot.clone();
    let mut rng = StdRng::seed_from_u64(traffic.seed ^ 0xC01D);
    genomes.extend((0..HOT_SET).map(|_| Genome::random(&traffic.space, &mut rng)));
    let decode_ns = layers::decode_ns(genomes.len(), 0.2, |i| genomes[i].decode(&traffic.space));
    let points: Vec<DesignPoint> = genomes.iter().map(|g| g.decode(&traffic.space)).collect();
    out.set("space.decode_ns_per_point", decode_ns);
    let outcomes: Vec<Option<ObjectiveVector>> = high
        .samples
        .iter()
        .filter(|s| Traffic::lane(s.k) == Objectives::default())
        .flat_map(|s| s.outcomes.iter().copied())
        .collect();
    layers::report_common(out, &points, &outcomes, 0.2);
    for name in [
        "evaluator.calls",
        "evaluator.points_per_call",
        "evaluator.busy_s",
        "parallel.efficiency",
        "nsga2.self_s",
        "memo.hit_ratio",
    ] {
        out.set(name, 0.0);
    }
}
