//! The long-lived query engine: worker pool, bounded queue, deadlines,
//! degradation, panic isolation, and supervised respawn.
//!
//! See the crate docs for the request lifecycle; this module holds the
//! moving parts. The design constraints, in order:
//!
//! 1. **No request hangs.** Every accepted job's responder is owned by
//!    exactly one worker while the job runs; the worker always sends
//!    exactly one response (success, typed failure, or `WorkerPanic`
//!    from the unwind boundary). Jobs still queued when the engine
//!    drops are drained by the exiting workers; jobs stranded by a
//!    dying engine resolve to [`ServeError::EngineShutdown`] when the
//!    queue itself drops.
//! 2. **Failures are confined.** `catch_unwind` wraps each request;
//!    the evaluator's scratch-pool drop guards discard (never recycle)
//!    states leased by an unwinding thread, so the warm pool cannot be
//!    poisoned. A panicked worker retires and the supervisor respawns
//!    a replacement with capped exponential backoff.
//! 3. **Answers stay bit-identical.** Fault-free responses equal the
//!    direct [`Evaluator::evaluate_batch`] / exhaustive-sweep results
//!    bitwise: chunking, memoization, worker count and interleaving
//!    are all observationally transparent (property-tested).

use crate::error::ServeError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wbsn_dse::evaluator::{EnergyDelayEvaluator, Evaluator, LifetimeEvaluator, ModelEvaluator};
use wbsn_dse::memo::ShardedGenomeMemo;
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::pareto::ParetoArchive;
use wbsn_dse::Genome;
use wbsn_model::evaluate::WbsnModel;
use wbsn_model::lifetime::Battery;
use wbsn_model::space::{DesignPoint, DesignSpace};

// The projection repertoire lives with the evaluators in `wbsn-dse`;
// the engine re-exports it so request construction stays one import.
pub use wbsn_dse::objective::Objectives;

/// What a request asks the engine to compute.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Evaluate explicit design points, returning one outcome per point
    /// in order (`None` = infeasible), bit-identical to calling
    /// [`Evaluator::evaluate_batch`] directly.
    Evaluate(Vec<DesignPoint>),
    /// Evaluate index-encoded genomes against `space`, deduplicated
    /// through the engine's sharded cross-request memo. Outcomes are
    /// pure, so memoization is observationally transparent.
    EvaluateGenomes {
        /// The space the genomes are encoded against.
        space: DesignSpace,
        /// The genomes to evaluate, in response order.
        genomes: Vec<Genome>,
    },
    /// Exhaustively sweep `space` and return its Pareto front. Under
    /// overload the sweep degrades to an axis-stride subsample (the
    /// stride is reported in the response).
    ParetoSweep {
        /// The space to enumerate.
        space: DesignSpace,
    },
}

/// One scenario request: a query, an objective projection, and an
/// optional execution budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// What to compute.
    pub query: Query,
    /// Which objectives to project.
    pub objectives: Objectives,
    /// Wall-clock budget measured from submission (queue wait counts).
    /// `None` falls back to [`ServeConfig::default_budget`].
    pub budget: Option<Duration>,
}

impl ScenarioRequest {
    /// A raw point-evaluation request with default objectives/budget.
    #[must_use]
    pub fn evaluate(points: Vec<DesignPoint>) -> Self {
        Self { query: Query::Evaluate(points), objectives: Objectives::default(), budget: None }
    }

    /// A memoized genome-evaluation request.
    #[must_use]
    pub fn evaluate_genomes(space: DesignSpace, genomes: Vec<Genome>) -> Self {
        Self {
            query: Query::EvaluateGenomes { space, genomes },
            objectives: Objectives::default(),
            budget: None,
        }
    }

    /// An exhaustive Pareto-sweep request.
    #[must_use]
    pub fn sweep(space: DesignSpace) -> Self {
        Self {
            query: Query::ParetoSweep { space },
            objectives: Objectives::default(),
            budget: None,
        }
    }

    /// Sets the wall-clock budget (measured from submission).
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the objective projection.
    #[must_use]
    pub fn with_objectives(mut self, objectives: Objectives) -> Self {
        self.objectives = objectives;
        self
    }
}

/// The computed payload of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Per-point (or per-genome) outcomes in request order.
    Evaluations(Vec<Option<ObjectiveVector>>),
    /// The Pareto front of a sweep.
    Front(ParetoArchive<DesignPoint>),
}

impl QueryResult {
    /// The outcome vector, when this is an evaluation result.
    #[must_use]
    pub fn evaluations(&self) -> Option<&[Option<ObjectiveVector>]> {
        match self {
            Self::Evaluations(v) => Some(v),
            Self::Front(_) => None,
        }
    }

    /// The Pareto front, when this is a sweep result.
    #[must_use]
    pub fn front(&self) -> Option<&ParetoArchive<DesignPoint>> {
        match self {
            Self::Front(front) => Some(front),
            Self::Evaluations(_) => None,
        }
    }
}

/// A completed (or, inside [`ServeError::DeadlineExceeded`], partial)
/// response.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResponse {
    /// The computed payload.
    pub result: QueryResult,
    /// Sweep enumeration stride: 1 = exact; >1 = the sweep was
    /// coarsened under load and covered every `stride`-th point.
    pub stride: usize,
    /// Whether the engine degraded this request (`stride > 1`).
    pub degraded: bool,
    /// Evaluation chunks completed.
    pub chunks_completed: usize,
    /// Points resolved into the result (memo hits included).
    pub points_resolved: u64,
    /// Points answered from the cross-request memo without evaluation.
    pub memo_hits: u64,
}

/// Tuning knobs of the engine (see crate docs for guidance).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue. Default: the machine's
    /// available parallelism (`WBSN_THREADS` respected).
    pub workers: usize,
    /// Bounded submission-queue capacity; `try_submit` fails fast with
    /// [`ServeError::QueueFull`] beyond it. Default 64.
    pub queue_capacity: usize,
    /// Points per evaluation chunk — the granularity of deadline
    /// checks and fault injection. Defaults to 1024 (the `SoA` kernel's
    /// chunk size, so each chunk runs inline on its worker through one
    /// pooled scratch).
    pub chunk_points: usize,
    /// Budget applied to requests that carry none. Default: `None`
    /// (no deadline).
    pub default_budget: Option<Duration>,
    /// Queue depth (jobs still waiting at dequeue time) at which sweep
    /// requests degrade to strided subsampling. Default 48.
    pub degrade_threshold: usize,
    /// Enumeration stride applied to degraded sweeps. Default 4.
    pub degrade_stride: usize,
    /// First respawn backoff after a worker panic; doubles per
    /// consecutive panic of the same slot. Default 5 ms.
    pub backoff_base: Duration,
    /// Respawn backoff cap. Default 160 ms.
    pub backoff_max: Duration,
    /// Shards of the cross-request genome memo. Default 16.
    pub memo_shards: usize,
    /// LRU capacity per memo shard. Default 4096.
    pub memo_capacity_per_shard: usize,
    /// Fault-injection schedule (chaos builds only).
    #[cfg(feature = "chaos")]
    pub chaos: Option<Arc<crate::chaos::ChaosSchedule>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: wbsn_dse::parallel::num_threads(),
            queue_capacity: 64,
            chunk_points: 1024,
            default_budget: None,
            degrade_threshold: 48,
            degrade_stride: 4,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(160),
            memo_shards: 16,
            memo_capacity_per_shard: 4096,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// Point-in-time counters of the engine (monotonic except `memo_len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected with `QueueFull` (real or chaos-forced).
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that expired their deadline.
    pub deadline_expired: u64,
    /// Requests failed by a worker panic.
    pub worker_panics: u64,
    /// Workers respawned by the supervisor.
    pub respawns: u64,
    /// Sweep requests served degraded (stride > 1).
    pub degraded_sweeps: u64,
    /// Always 0: every request is served on its own. Kept only because
    /// perfbench's `coalesce.*` layer metrics read it; a benchmark
    /// change removes both together.
    pub coalesced_requests: u64,
    /// Always 0, for the same reason as
    /// [`EngineStats::coalesced_requests`].
    pub super_batches: u64,
    /// Lookups answered by the cross-request genome memo.
    pub memo_hits: u64,
    /// Genomes currently resident in the memo.
    pub memo_len: u64,
}

/// Raw atomic counters behind [`EngineStats`].
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    deadline_expired: AtomicU64,
    panics: AtomicU64,
    respawns: AtomicU64,
    degraded: AtomicU64,
}

/// One queued request: everything a worker needs to serve and answer it.
struct Job {
    seq: u64,
    request: ScenarioRequest,
    deadline: Option<Instant>,
    responder: Sender<Result<ScenarioResponse, ServeError>>,
}

/// State shared by the engine handle, workers, and supervisor.
struct Shared {
    queue_rx: Mutex<Receiver<Job>>,
    /// Jobs accepted but not yet picked up by a worker.
    queue_depth: AtomicUsize,
    shutdown: AtomicBool,
    /// Per-worker-slot consecutive-panic counters (respawn backoff);
    /// cleared by the slot's worker on its next successful request.
    consecutive_panics: Vec<AtomicU32>,
    /// The three-objective evaluator (shared warm scratch pools).
    full: ModelEvaluator,
    /// The energy/delay baseline evaluator.
    energy_delay: EnergyDelayEvaluator,
    /// The four-objective lifetime-extended evaluator.
    lifetime: LifetimeEvaluator,
    /// Cross-request memos, one per objective projection (outcomes of
    /// different projections have different shapes and must not mix);
    /// indexed by [`Objectives::lane`].
    memos: [ShardedGenomeMemo; Objectives::ALL.len()],
    cfg: ServeConfig,
    stats: Stats,
}

impl Shared {
    fn evaluator(&self, objectives: Objectives) -> &dyn Evaluator {
        match objectives {
            Objectives::EnergyDelayPrd => &self.full,
            Objectives::EnergyDelay => &self.energy_delay,
            Objectives::EnergyDelayPrdLifetime => &self.lifetime,
        }
    }

    fn memo(&self, objectives: Objectives) -> &ShardedGenomeMemo {
        &self.memos[objectives.lane()]
    }
}

/// The fault-injection hook: consults the installed schedule (chaos
/// builds only; compiled to nothing otherwise).
#[cfg(feature = "chaos")]
fn chaos_hook(shared: &Shared, seq: u64, chunk: usize) {
    use crate::chaos::Fault;
    if let Some(chaos) = &shared.cfg.chaos {
        match chaos.fault(seq, chunk) {
            // verify: allow(panic-surface, reason = "chaos-injected fault: the panic IS the test stimulus; catch_unwind in worker_loop converts it to ServeError::WorkerPanic")
            Some(Fault::Panic) => panic!("chaos: injected panic (request {seq}, chunk {chunk})"),
            Some(Fault::Slow(delay)) => std::thread::sleep(delay),
            None => {}
        }
    }
}

#[cfg(not(feature = "chaos"))]
fn chaos_hook(_shared: &Shared, _seq: u64, _chunk: usize) {}

/// Handle to one in-flight request. Dropping it abandons the response
/// (the request still runs to completion).
#[derive(Debug)]
pub struct QueryHandle {
    seq: u64,
    rx: Receiver<Result<ScenarioResponse, ServeError>>,
}

impl QueryHandle {
    /// The request's submission sequence number (the chaos-schedule
    /// coordinate).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the response arrives. Never hangs past engine
    /// shutdown: a vanished engine resolves to
    /// [`ServeError::EngineShutdown`].
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the request failed with.
    pub fn wait(self) -> Result<ScenarioResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::EngineShutdown))
    }

    /// [`QueryHandle::wait`] with a caller-side patience bound.
    ///
    /// # Errors
    ///
    /// [`ServeError::WaitTimedOut`] when `timeout` elapses first (the
    /// request may still complete), otherwise as [`QueryHandle::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<ScenarioResponse, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::WaitTimedOut),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::EngineShutdown),
        }
    }
}

/// The long-lived query engine (see crate docs).
///
/// Dropping the engine shuts it down: queued requests are drained by
/// the exiting workers, worker threads are joined, and later `wait`s
/// on abandoned handles resolve to [`ServeError::EngineShutdown`].
#[derive(Debug)]
pub struct ServeEngine {
    shared: Arc<Shared>,
    queue_tx: Option<SyncSender<Job>>,
    supervisor: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("queue_depth", &self.queue_depth).finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Starts an engine over the Shimmer case-study model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate (zero workers, capacity, chunk
    /// size, stride, or memo shape).
    #[must_use]
    pub fn start(cfg: ServeConfig) -> Self {
        Self::start_with_model(WbsnModel::shimmer(), cfg)
    }

    /// Starts an engine over a custom model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate (zero workers, capacity, chunk
    /// size, stride, or memo shape).
    #[must_use]
    pub fn start_with_model(model: WbsnModel, cfg: ServeConfig) -> Self {
        assert!(cfg.workers > 0, "the engine needs at least one worker");
        assert!(cfg.queue_capacity > 0, "the submission queue needs capacity");
        assert!(cfg.chunk_points > 0, "chunks must hold at least one point");
        assert!(cfg.degrade_stride >= 1, "the degraded stride cannot be zero");
        let (queue_tx, queue_rx) = mpsc::sync_channel(cfg.queue_capacity);
        let workers = cfg.workers;
        let memos = Objectives::ALL
            .map(|_| ShardedGenomeMemo::new(cfg.memo_shards, cfg.memo_capacity_per_shard));
        let shared = Arc::new(Shared {
            queue_rx: Mutex::new(queue_rx),
            queue_depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            consecutive_panics: (0..workers).map(|_| AtomicU32::new(0)).collect(),
            full: ModelEvaluator::new(model.clone()),
            energy_delay: EnergyDelayEvaluator::new(model.clone()),
            lifetime: LifetimeEvaluator::new(model, Battery::shimmer()),
            memos,
            cfg,
            stats: Stats::default(),
        });

        let (obituary_tx, obituary_rx) = mpsc::channel();
        let handles: Vec<Option<JoinHandle<()>>> = (0..workers)
            .map(|id| {
                let worker = spawn_worker(Arc::clone(&shared), id, obituary_tx.clone());
                // verify: allow(panic-surface, reason = "startup-only: no requests are in flight before start returns, and a host that cannot spawn its initial threads cannot run an engine")
                Some(worker.expect("spawning a serve worker thread"))
            })
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wbsn-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared, &obituary_rx, &obituary_tx, handles))
                // verify: allow(panic-surface, reason = "startup-only: no requests are in flight before start returns; once running, thread respawns go through the fallible supervisor path")
                .expect("spawning the supervisor thread")
        };
        Self {
            shared,
            queue_tx: Some(queue_tx),
            supervisor: Some(supervisor),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Submits a request without blocking: full queues fail fast.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] under backpressure (or chaos-forced
    /// saturation), [`ServeError::EngineShutdown`] if the engine died.
    pub fn try_submit(&self, request: ScenarioRequest) -> Result<QueryHandle, ServeError> {
        self.submit_inner(request, false)
    }

    /// Submits a request, blocking while the queue is full — the
    /// backpressure-propagating variant of [`ServeEngine::try_submit`].
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] only when chaos forces saturation,
    /// [`ServeError::EngineShutdown`] if the engine died.
    pub fn submit(&self, request: ScenarioRequest) -> Result<QueryHandle, ServeError> {
        self.submit_inner(request, true)
    }

    fn submit_inner(
        &self,
        request: ScenarioRequest,
        block: bool,
    ) -> Result<QueryHandle, ServeError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.shared.cfg.chaos {
            if chaos.rejects_submission(seq) {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull);
            }
        }
        let budget = request.budget.or(self.shared.cfg.default_budget);
        let deadline = budget.map(|b| Instant::now() + b);
        let (responder, rx) = mpsc::channel();
        let job = Job { seq, request, deadline, responder };
        let Some(queue_tx) = self.queue_tx.as_ref() else {
            return Err(ServeError::EngineShutdown);
        };
        // Count the job as queued BEFORE the send: a worker may pick it
        // up (and decrement) the instant it lands in the channel.
        self.shared.queue_depth.fetch_add(1, Ordering::AcqRel);
        let send_result = if block {
            queue_tx.send(job).map_err(|_| ServeError::EngineShutdown)
        } else {
            queue_tx.try_send(job).map_err(|e| match e {
                TrySendError::Full(_) => ServeError::QueueFull,
                TrySendError::Disconnected(_) => ServeError::EngineShutdown,
            })
        };
        match send_result {
            Ok(()) => {
                self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(QueryHandle { seq, rx })
            }
            Err(e) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::AcqRel);
                if matches!(e, ServeError::QueueFull) {
                    self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Jobs accepted but not yet picked up by a worker.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth.load(Ordering::Acquire)
    }

    /// A point-in-time snapshot of the engine's counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let s = &self.shared.stats;
        EngineStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            deadline_expired: s.deadline_expired.load(Ordering::Relaxed),
            worker_panics: s.panics.load(Ordering::Relaxed),
            respawns: s.respawns.load(Ordering::Relaxed),
            degraded_sweeps: s.degraded.load(Ordering::Relaxed),
            coalesced_requests: 0,
            super_batches: 0,
            memo_hits: self.shared.memos.iter().map(ShardedGenomeMemo::hits).sum(),
            memo_len: self.shared.memos.iter().map(|m| m.len() as u64).sum(),
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Disconnect the queue: workers drain the remaining jobs and
        // exit; the supervisor reaps them and follows.
        self.queue_tx = None;
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns worker `id`, which drains the queue until it disconnects or
/// the worker dies on a caught panic. Spawn failure (host thread
/// exhaustion) is returned, not panicked: at startup the caller treats
/// it as fatal, but the supervisor's respawn path must survive it.
fn spawn_worker(
    shared: Arc<Shared>,
    id: usize,
    obituary_tx: Sender<usize>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("wbsn-serve-worker-{id}"))
        .spawn(move || worker_loop(&shared, id, &obituary_tx))
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

// verify: hot-path-begin(worker-drain-loop)
fn worker_loop(shared: &Arc<Shared>, id: usize, obituary_tx: &Sender<usize>) {
    loop {
        // Lock held across the blocking recv only: the mutex is the
        // worker's turn at the shared single-consumer queue (idle
        // workers park on the mutex, the holder parks in recv), and it
        // is released as soon as one job is off the queue.
        let job = {
            let rx = shared.queue_rx.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv() {
                Ok(job) => {
                    shared.queue_depth.fetch_sub(1, Ordering::AcqRel);
                    job
                }
                Err(_) => return, // engine dropped and queue drained
            }
        };
        let Job { seq, request, deadline, responder } = job;
        let outcome = catch_unwind(AssertUnwindSafe(|| process(shared, seq, &request, deadline)));
        match outcome {
            Ok(result) => {
                if result.is_ok() {
                    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                }
                let _ = responder.send(result);
                shared.consecutive_panics[id].store(0, Ordering::Relaxed);
            }
            Err(payload) => {
                // The panic is confined to this request: answer it with
                // the typed failure, then retire the thread — any state
                // it leased was discarded by the pool drop guards
                // during the unwind, so the warm pool stays clean. The
                // supervisor respawns a replacement.
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                let message = panic_message(payload.as_ref());
                let _ = responder.send(Err(ServeError::WorkerPanic { worker: id, message }));
                let _ = obituary_tx.send(id);
                return;
            }
        }
    }
}
// verify: hot-path-end(worker-drain-loop)

/// Reaps dead workers and respawns them with capped exponential
/// backoff; on shutdown, joins every remaining worker.
fn supervisor_loop(
    shared: &Arc<Shared>,
    obituary_rx: &Receiver<usize>,
    obituary_tx: &Sender<usize>,
    mut handles: Vec<Option<JoinHandle<()>>>,
) {
    loop {
        match obituary_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(id) => {
                if let Some(handle) = handles[id].take() {
                    let _ = handle.join();
                }
                let deaths = shared.consecutive_panics[id].fetch_add(1, Ordering::Relaxed) + 1;
                let exponent = deaths.saturating_sub(1).min(16);
                let backoff = shared
                    .cfg
                    .backoff_base
                    .saturating_mul(1u32 << exponent)
                    .min(shared.cfg.backoff_max);
                // Shutdown-aware backoff: sleep in slices so engine
                // drop is never blocked behind a long delay.
                let until = Instant::now() + backoff;
                loop {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() || shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1).min(left));
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    continue; // keep reaping, but don't respawn
                }
                match spawn_worker(Arc::clone(shared), id, obituary_tx.clone()) {
                    Ok(handle) => {
                        shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
                        handles[id] = Some(handle);
                    }
                    Err(_) => {
                        // Host thread exhaustion at respawn time must
                        // not kill the supervisor. Re-enqueue the
                        // obituary: the worker comes back through this
                        // path with a grown consecutive-panic count,
                        // so retries back off toward backoff_max until
                        // the host recovers.
                        let _ = obituary_tx.send(id);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for handle in handles.iter_mut().filter_map(Option::take) {
        let _ = handle.join();
    }
}

/// Serves one request on the calling worker thread.
fn process(
    shared: &Shared,
    seq: u64,
    request: &ScenarioRequest,
    deadline: Option<Instant>,
) -> Result<ScenarioResponse, ServeError> {
    match &request.query {
        Query::Evaluate(points) => {
            process_points(shared, seq, request.objectives, points, deadline)
        }
        Query::EvaluateGenomes { space, genomes } => {
            process_genomes(shared, seq, request.objectives, space, genomes, deadline)
        }
        Query::ParetoSweep { space } => {
            process_sweep(shared, seq, request.objectives, space, deadline)
        }
    }
}

/// Whether the request's budget has run out.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn process_points(
    shared: &Shared,
    seq: u64,
    objectives: Objectives,
    points: &[DesignPoint],
    deadline: Option<Instant>,
) -> Result<ScenarioResponse, ServeError> {
    let evaluator = shared.evaluator(objectives);
    let mut outcomes: Vec<Option<ObjectiveVector>> = Vec::with_capacity(points.len());
    let mut chunks_completed = 0usize;
    for (chunk_idx, chunk) in points.chunks(shared.cfg.chunk_points).enumerate() {
        if expired(deadline) {
            shared.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let points_resolved = outcomes.len() as u64;
            return Err(ServeError::DeadlineExceeded {
                partial: Box::new(ScenarioResponse {
                    result: QueryResult::Evaluations(outcomes),
                    stride: 1,
                    degraded: false,
                    chunks_completed,
                    points_resolved,
                    memo_hits: 0,
                }),
            });
        }
        chaos_hook(shared, seq, chunk_idx);
        outcomes.extend(evaluator.evaluate_batch(chunk));
        chunks_completed += 1;
    }
    let points_resolved = outcomes.len() as u64;
    Ok(ScenarioResponse {
        result: QueryResult::Evaluations(outcomes),
        stride: 1,
        degraded: false,
        chunks_completed,
        points_resolved,
        memo_hits: 0,
    })
}

fn process_genomes(
    shared: &Shared,
    seq: u64,
    objectives: Objectives,
    space: &DesignSpace,
    genomes: &[Genome],
    deadline: Option<Instant>,
) -> Result<ScenarioResponse, ServeError> {
    let evaluator = shared.evaluator(objectives);
    let memo = shared.memo(objectives);
    let mut outcomes: Vec<Option<ObjectiveVector>> = Vec::with_capacity(genomes.len());
    let mut chunks_completed = 0usize;
    let mut memo_hits = 0u64;
    let mut miss_slots: Vec<usize> = Vec::new();
    let mut miss_points: Vec<DesignPoint> = Vec::new();
    for (chunk_idx, chunk) in genomes.chunks(shared.cfg.chunk_points).enumerate() {
        if expired(deadline) {
            shared.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let points_resolved = outcomes.len() as u64;
            return Err(ServeError::DeadlineExceeded {
                partial: Box::new(ScenarioResponse {
                    result: QueryResult::Evaluations(outcomes),
                    stride: 1,
                    degraded: false,
                    chunks_completed,
                    points_resolved,
                    memo_hits,
                }),
            });
        }
        chaos_hook(shared, seq, chunk_idx);
        // Pass 1: answer what the cross-request memo already knows.
        let base = outcomes.len();
        miss_slots.clear();
        miss_points.clear();
        for (offset, genome) in chunk.iter().enumerate() {
            if let Some(cached) = memo.get(genome) {
                memo_hits += 1;
                outcomes.push(cached);
            } else {
                miss_slots.push(base + offset);
                miss_points.push(genome.decode(space));
                outcomes.push(None); // placeholder, overwritten below
            }
        }
        // Pass 2: evaluate the misses as one batch, in order, and
        // record them for future requests. Outcomes are pure, so a
        // concurrent recorder of the same genome agrees bitwise.
        let evaluated = evaluator.evaluate_batch(&miss_points);
        for (&slot, outcome) in miss_slots.iter().zip(&evaluated) {
            memo.record(chunk[slot - base].clone(), *outcome);
            outcomes[slot] = *outcome;
        }
        chunks_completed += 1;
    }
    let points_resolved = outcomes.len() as u64;
    Ok(ScenarioResponse {
        result: QueryResult::Evaluations(outcomes),
        stride: 1,
        degraded: false,
        chunks_completed,
        points_resolved,
        memo_hits,
    })
}

fn process_sweep(
    shared: &Shared,
    seq: u64,
    objectives: Objectives,
    space: &DesignSpace,
    deadline: Option<Instant>,
) -> Result<ScenarioResponse, ServeError> {
    let evaluator = shared.evaluator(objectives);
    // Load shedding: when this request waited behind a deep backlog,
    // coarsen the enumeration instead of collapsing. The stride is a
    // visible part of the response, never a silent approximation.
    let backlog = shared.queue_depth.load(Ordering::Acquire);
    let stride =
        if backlog >= shared.cfg.degrade_threshold { shared.cfg.degrade_stride.max(1) } else { 1 };
    if stride > 1 {
        shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
    }
    let total = space.cardinality();
    let mut front: ParetoArchive<DesignPoint> = ParetoArchive::new();
    let mut points: Vec<DesignPoint> = Vec::with_capacity(shared.cfg.chunk_points);
    let mut next: u128 = 0;
    let mut chunks_completed = 0usize;
    let mut points_resolved = 0u64;
    let mut chunk_idx = 0usize;
    while next < total {
        if expired(deadline) {
            shared.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded {
                partial: Box::new(ScenarioResponse {
                    result: QueryResult::Front(front),
                    stride,
                    degraded: stride > 1,
                    chunks_completed,
                    points_resolved,
                    memo_hits: 0,
                }),
            });
        }
        chaos_hook(shared, seq, chunk_idx);
        points.clear();
        while next < total && points.len() < shared.cfg.chunk_points {
            points.push(space.point_at(next));
            next += stride as u128;
        }
        // Archive insertion in enumeration order: a stride-1 sweep is
        // bit-identical to `wbsn_dse::exhaustive::exhaustive`.
        for (point, outcome) in points.iter().zip(evaluator.evaluate_batch(&points)) {
            if let Some(objective_values) = outcome {
                front.insert(objective_values, point.clone());
            }
        }
        points_resolved += points.len() as u64;
        chunks_completed += 1;
        chunk_idx += 1;
    }
    Ok(ScenarioResponse {
        result: QueryResult::Front(front),
        stride,
        degraded: stride > 1,
        chunks_completed,
        points_resolved,
        memo_hits: 0,
    })
}
