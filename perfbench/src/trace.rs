//! In-memory span tracing from the benchmark side of each layer
//! boundary, and the evaluator wrapper that times `dse.evaluator`.
//!
//! Spans are recorded only in `--trace 1` runs: the untraced run hands
//! the program its plain evaluator and records nothing, so the gap
//! between the two runs is the tracing overhead.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use wbsn_dse::evaluator::Evaluator;
use wbsn_dse::objective::ObjectiveVector;
use wbsn_model::space::DesignPoint;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The operation (solve index or request number) the span belongs to.
    pub request: u64,
}

/// An append-only span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new() }
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Tracer::close`]. Returns its index, the parent id of children.
    pub fn open(&mut self, name: &'static str, start: Instant, request: u64) -> usize {
        self.push(name, start, start, None, request)
    }

    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end = end;
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span { name, start, end, parent, request });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another log, re-basing its parent indices.
    pub fn append(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Self time (seconds) of every root span: its duration minus the
    /// part of its interval that its child spans cover.
    pub fn root_self_secs(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0.0;
                let mut cursor = s.start;
                for (a, b) in kids {
                    let a = a.max(cursor).min(s.end);
                    let b = b.min(s.end);
                    if b > a {
                        covered += (b - a).as_secs_f64();
                        cursor = b;
                    }
                }
                (s.end - s.start).as_secs_f64() - covered
            })
            .collect()
    }

    /// Writes the log as tab-separated `name start_ns end_ns parent
    /// request` lines (`parent` is -1 for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{}\t{}\t{}\t{parent}\t{}", s.name, ns(s.start), ns(s.end), s.request)?;
        }
        out.flush()
    }
}

/// Writes a traced run's spans to `perfbench/spans/<workload>-seed<n>.tsv`
/// under the working directory (the root of the checkout). Best effort:
/// a read-only checkout still gets its metrics.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let path = Path::new("perfbench").join("spans").join(format!("{workload}-seed{seed}.tsv"));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// What the evaluator wrapper has seen so far.
#[derive(Debug)]
pub struct EvalLog {
    pub tracer: Tracer,
    /// Root span the next evaluator call is a child of.
    pub parent: Option<usize>,
    pub request: u64,
    pub calls: u64,
    pub points: u64,
    pub busy_s: f64,
    /// Keep every `sample_stride`-th point passed in (0 keeps none).
    pub sample_stride: usize,
    pub sampled: Vec<DesignPoint>,
    /// Keep every outcome handed back, in order (for the archive replay).
    pub keep_outcomes: bool,
    pub outcomes: Vec<Option<ObjectiveVector>>,
}

/// Benchmark-owned wrapper around an [`Evaluator`]: forwards every call
/// (the axis-runs layout hint included) and records a `dse.evaluator`
/// span, call/point counts and busy time for each batch.
pub struct TracedEvaluator<'a> {
    inner: &'a dyn Evaluator,
    pub log: RefCell<EvalLog>,
}

impl<'a> TracedEvaluator<'a> {
    pub fn new(inner: &'a dyn Evaluator, epoch: Instant) -> Self {
        Self {
            inner,
            log: RefCell::new(EvalLog {
                tracer: Tracer::new(epoch),
                parent: None,
                request: 0,
                calls: 0,
                points: 0,
                busy_s: 0.0,
                sample_stride: 0,
                sampled: Vec::new(),
                keep_outcomes: false,
                outcomes: Vec::new(),
            }),
        }
    }

    fn timed(
        &self,
        points: &[DesignPoint],
        call: impl FnOnce() -> Vec<Option<ObjectiveVector>>,
    ) -> Vec<Option<ObjectiveVector>> {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let mut log = self.log.borrow_mut();
        let (parent, request) = (log.parent, log.request);
        log.tracer.push("dse.evaluator", start, end, parent, request);
        log.calls += 1;
        log.points += points.len() as u64;
        log.busy_s += (end - start).as_secs_f64();
        if log.sample_stride > 0 {
            let stride = log.sample_stride;
            log.sampled.extend(points.iter().step_by(stride).cloned());
        }
        if log.keep_outcomes {
            log.outcomes.extend_from_slice(&out);
        }
        out
    }
}

impl Evaluator for TracedEvaluator<'_> {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.timed(std::slice::from_ref(point), || vec![self.inner.evaluate(point)])[0]
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        self.timed(points, || self.inner.evaluate_batch(points))
    }

    fn evaluate_batch_axis_runs(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        self.timed(points, || self.inner.evaluate_batch_axis_runs(points))
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
