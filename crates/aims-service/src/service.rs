//! The query service: one scheduler multiplexing many sessions over one
//! blocked coefficient store.
//!
//! Execution model (one round per scheduler iteration):
//!
//! 1. **Admit** — pull queued tickets (interactive first) into the active
//!    set, up to `max_batch`.
//! 2. **Cull** — drop cancelled and deadline-expired sessions *before*
//!    any I/O, emitting their terminal updates.
//! 3. **Fetch (shared scan)** — pick this round's blocks (the utility
//!    scheduler by default: [`qos::select_round_blocks`] spends the
//!    `round_blocks` budget where it shrinks aggregate error bounds
//!    fastest; `SchedulerPolicy::Fifo` falls back to the ascending union
//!    of still-needed blocks) and pull each once through the
//!    [`SharedBlockCache`]. A block needed only by cancelled queries is
//!    skipped — cancellation halts fetches.
//! 4. **Fan out** — one compute task per query on the shared
//!    [`ThreadPool`]; each task advances its query's running sum through
//!    the entries whose blocks arrived this round, in ascending flat
//!    offset order with a single accumulator.
//! 5. **Deliver** — emit a [`Update::Progress`] (or [`Update::Done`])
//!    refinement per query, with a Cauchy–Schwarz bound over the unseen
//!    suffix plus a lost-block term when storage degraded.
//!
//! Under overload a [`qos::DegradeController`] walks sessions through
//! graduated [`Tier`]s — coarser delivery cadence, then widened target
//! bounds, then best-so-far early termination ([`Update::Shed`]) — with
//! hysteresis, so precision degrades long before the admission queue
//! hard-fills into typed rejections, and recovery is smooth.
//!
//! # Determinism
//!
//! A query's plan blocks are consumed strictly in plan (ascending)
//! order, each through [`BlockedCoefficients::accumulate`] — ascending
//! blocks ⇒ ascending flat offsets — and each query's floating-point
//! accumulation happens inside exactly one task with one running sum.
//! Both block-selection policies grant each query a contiguous prefix of
//! its remaining plan per round, so the final estimate is
//! **bit-identical** to [`Propolyne::evaluate_prepared`] for every thread
//! count, cache size, batch composition, round budget, and scheduler
//! policy — only I/O order and counts change.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aims_dsp::filters::{FilterKind, WaveletFilter};
use aims_exec::{configured_threads, ThreadPool};
use aims_propolyne::engine::{prepare, PreparedQuery};
use aims_propolyne::{BlockedCoefficients, DataCube, RangeSumQuery, WaveletCube};
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::{BoundLedger, SharedBlockCache};
use aims_telemetry::{global, AttrValue, Counter, Gauge, TraceContext};

use crate::admission::{AdmissionController, Priority};
use crate::error::ServiceError;
use crate::profile::{QueryProfile, SlowQueryEntry, SlowQueryLog, SlowReason, TrajectoryPoint};
use crate::qos::{self, DegradeController, QosConfig, SchedulerPolicy, Tier, TierChange};
use crate::session::{QuerySpec, Refinement, SessionHandle, Update};

/// The deterministic demo cube every harness in this workspace serves
/// (`aims-serve`, `aims-cli serve|trace`, the service test suites): a
/// `side`×`side` grid of small pseudo-random counts from one xorshift
/// seed, wavelet-transformed with Db4.
pub fn demo_cube(side: usize, seed: u64) -> WaveletCube {
    let mut cube = DataCube::zeros(&[side, side]);
    let mut state = seed;
    for v in cube.values_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state % 9) as f64;
    }
    cube.transform(&FilterKind::Db4.filter())
}

/// Degraded (permanently failed) blocks at which a completed query lands
/// in the slow-query log.
const SLOW_DEGRADED_BLOCKS: usize = 1;
/// Slow-query log entries retained (newest kept).
const SLOW_LOG_CAPACITY: usize = 128;

/// Tuning knobs for a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bounded admission queue size; submits beyond it get
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum sessions refined concurrently per round.
    pub max_batch: usize,
    /// Shared block cache capacity, in blocks.
    pub cache_blocks: usize,
    /// Device blocks fetched per shared-scan round.
    pub round_blocks: usize,
    /// Retry budget for transient device faults.
    pub retry: RetryPolicy,
    /// Worker threads for compute fan-out; `None` follows `AIMS_THREADS`.
    pub threads: Option<usize>,
    /// How long the idle scheduler waits for new work per iteration.
    pub idle_wait: Duration,
    /// Pause inserted after every round — throttles background refinement
    /// I/O (and gives tests a deterministic mid-flight window). Zero by
    /// default.
    pub round_pause: Duration,
    /// Cold-start gather window: the scheduler sleeps this long once,
    /// before its first admission drain, so a cohort of queries
    /// submitted together is admitted as one concurrent mix instead of
    /// trickling into whichever early rounds the submission loop races.
    /// Benchmarks comparing scheduler policies rely on it for
    /// run-to-run determinism. Zero (no gather) by default.
    pub admission_warmup: Duration,
    /// Adaptive QoS knobs: scheduler policy, shedding thresholds,
    /// hysteresis.
    pub qos: QosConfig,
    /// Per-session cap on undelivered [`Update::Progress`] frames. A
    /// consumer that falls further behind has intermediate refinements
    /// dropped (counted as `service.backpressure.dropped_progress`);
    /// terminal updates and profiles are never dropped.
    pub progress_outbox: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 32,
            cache_blocks: 256,
            round_blocks: 32,
            retry: RetryPolicy::none(),
            threads: None,
            idle_wait: Duration::from_millis(20),
            round_pause: Duration::ZERO,
            admission_warmup: Duration::ZERO,
            qos: QosConfig::default(),
            progress_outbox: 256,
        }
    }
}

/// Cached handles to the global `service.*` metrics.
struct ServiceTelemetry {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    cancelled: Arc<Counter>,
    expired: Arc<Counter>,
    rounds: Arc<Counter>,
    block_requests: Arc<Counter>,
    block_fanout: Arc<Counter>,
    active: Arc<Gauge>,
    queue_interactive: Arc<Gauge>,
    queue_batch: Arc<Gauge>,
    traced: Arc<Counter>,
    slow: Arc<Counter>,
    qos_tier: Arc<Gauge>,
    qos_shed: Arc<Counter>,
    qos_resumed: Arc<Counter>,
    qos_utility_rounds: Arc<Counter>,
    dropped_progress: Arc<Counter>,
}

fn service_telemetry() -> &'static ServiceTelemetry {
    static T: OnceLock<ServiceTelemetry> = OnceLock::new();
    T.get_or_init(|| {
        let r = global();
        ServiceTelemetry {
            submitted: r.counter("service.submitted"),
            rejected: r.counter("service.rejected"),
            completed: r.counter("service.completed"),
            cancelled: r.counter("service.cancelled"),
            expired: r.counter("service.deadline_expired"),
            rounds: r.counter("service.rounds"),
            block_requests: r.counter("service.blocks.requested"),
            block_fanout: r.counter("service.blocks.fanout"),
            active: r.gauge("service.active"),
            queue_interactive: r.gauge("service.queue.interactive"),
            queue_batch: r.gauge("service.queue.batch"),
            traced: r.counter("service.traced"),
            slow: r.counter("service.slow_queries"),
            qos_tier: r.gauge("service.qos.tier"),
            qos_shed: r.counter("service.qos.shed"),
            qos_resumed: r.counter("service.qos.resumed"),
            qos_utility_rounds: r.counter("service.qos.utility_rounds"),
            dropped_progress: r.counter("service.backpressure.dropped_progress"),
        }
    })
}

fn priority_label(p: Priority) -> &'static str {
    match p {
        Priority::Interactive => "interactive",
        Priority::Batch => "batch",
    }
}

/// A queued query, built at submit time so the scheduler never touches
/// the engine.
struct Ticket {
    /// Service-assigned session id (the [`SessionHandle::id`]).
    id: u64,
    prepared: PreparedQuery,
    /// The session's block plan (distinct blocks ascending, with the
    /// per-block bound gains the utility scheduler ranks by, priced from
    /// the block-energy catalog at submit time) and its error bound,
    /// consumed in plan order. Tighter than the aggregate
    /// `sqrt(Σw² · E_total)`: per-block Cauchy–Schwarz plus the triangle
    /// inequality.
    ledger: BoundLedger,
    /// Scheduling class (utility weight and tier softening).
    priority: Priority,
    tx: Sender<Update>,
    cancel: Arc<AtomicBool>,
    /// Undelivered progress updates; shared with the [`SessionHandle`].
    pending: Arc<AtomicUsize>,
    deadline: Option<Instant>,
    /// Disabled for untraced queries — cloning and event calls are then
    /// free (a `None` word).
    trace: TraceContext,
    submitted_at: Instant,
}

/// A ticket plus its in-flight refinement state.
///
/// The profile counters are plain integers updated in place — the
/// untraced hot path allocates nothing for them, and integer bumps
/// cannot perturb the f64 accumulation (bit-identity is preserved).
struct ActiveQuery {
    ticket: Ticket,
    /// Next entry index to consume (entries are ascending by offset).
    /// Always rests on a plan-block boundary: the compute loop consumes
    /// whole blocks, in step with `ticket.ledger`.
    cursor: usize,
    /// The single running accumulator — the whole bit-identity story.
    sum: f64,
    /// Time spent queued before admission.
    queue_wait_ns: u64,
    /// Rounds this query participated in.
    rounds: u32,
    /// Device reads this query paid for.
    blocks_read: u64,
    /// Blocks served without charging this query a device read.
    blocks_shared: u64,
    /// Shared-cache hits among consumed blocks.
    cache_hits: u64,
    /// Shared-cache misses among consumed blocks.
    cache_misses: u64,
    /// Transient failures retried on reads this query paid for.
    retries: u64,
    /// Per-round `(round, used, bound)`; pushed only when traced, so
    /// untraced queries keep the empty (non-allocating) `Vec`.
    trajectory: Vec<TrajectoryPoint>,
    /// The session's bound before any refinement — the utility
    /// normalizer (relative progress) and the widened-tier target base.
    initial_bound: f64,
    /// Effective degradation tier this round (service tier, softened one
    /// step for interactive sessions).
    tier: Tier,
    /// Set by phase 3 when a terminal update was delivered this round.
    retired: bool,
}

impl ActiveQuery {
    fn new(ticket: Ticket) -> Self {
        let queue_wait_ns = ticket.submitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let initial_bound = ticket.ledger.bound();
        ActiveQuery {
            ticket,
            cursor: 0,
            sum: 0.0,
            queue_wait_ns,
            rounds: 0,
            blocks_read: 0,
            blocks_shared: 0,
            cache_hits: 0,
            cache_misses: 0,
            retries: 0,
            trajectory: Vec::new(),
            initial_bound,
            tier: Tier::Normal,
            retired: false,
        }
    }

    /// Materializes the profile (called at terminal delivery only).
    fn profile(&self) -> QueryProfile {
        QueryProfile {
            trace_id: self.ticket.trace.id().map_or(0, |t| t.0),
            queue_wait_ns: self.queue_wait_ns,
            latency_ns: self.ticket.submitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            rounds: self.rounds,
            blocks_read: self.blocks_read,
            blocks_shared: self.blocks_shared,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            retries: self.retries,
            degraded_blocks: self.ticket.ledger.lost_blocks().len() as u64,
            trajectory: self.trajectory.clone(),
        }
    }

    fn cancelled(&self) -> bool {
        self.ticket.cancel.load(Ordering::SeqCst)
    }

    /// The plan blocks not yet consumed, ascending.
    fn remaining_plan(&self) -> &[usize] {
        &self.ticket.ledger.plan().blocks[self.ticket.ledger.consumed()..]
    }

    /// Whether `block` lies in this round's granted prefix — the first
    /// `granted` remaining plan blocks, exactly the ones the compute
    /// phase will consume, so charging against it is exact.
    fn consumes(&self, block: usize, granted: usize) -> bool {
        self.remaining_plan()[..granted].binary_search(&block).is_ok()
    }

    fn complete(&self) -> bool {
        self.cursor == self.ticket.prepared.nnz()
    }

    fn refinement(&self, round: u32) -> Refinement {
        Refinement {
            round,
            coefficients_used: self.cursor,
            total_coefficients: self.ticket.prepared.nnz(),
            estimate: self.sum,
            error_bound: self.ticket.ledger.bound(),
            tier: self.tier,
        }
    }

    /// Sends an update; a dropped receiver flips the cancel flag so the
    /// next cull stops fetching on this query's behalf.
    fn emit(&self, update: Update) {
        if self.ticket.tx.send(update).is_err() {
            self.ticket.cancel.store(true, Ordering::SeqCst);
        }
    }

    /// Sends a progress update unless the session's outbox is full —
    /// backpressure for consumers that stopped draining. Returns whether
    /// the update was sent.
    fn emit_progress(&self, refinement: Refinement, outbox: usize) -> bool {
        if self.ticket.pending.load(Ordering::SeqCst) >= outbox {
            return false;
        }
        self.ticket.pending.fetch_add(1, Ordering::SeqCst);
        self.emit(Update::Progress(refinement));
        true
    }
}

/// What one round's compute task hands back for its query.
struct ComputeResult {
    ledger: BoundLedger,
    cursor: usize,
    sum: f64,
}

/// Live state of one session, as shown by METRICS_REPLY session rows
/// (the `aims-cli top` table).
#[derive(Clone, Copy, Debug)]
struct SessionRow {
    priority: Priority,
    traced: bool,
    /// False while still queued, true once admitted.
    active: bool,
    rounds: u32,
    coefficients_used: u64,
    total_coefficients: u64,
    error_bound: f64,
    queue_wait_ns: u64,
    submitted_at: Instant,
    /// Effective degradation tier at the last delivered round.
    tier: Tier,
}

/// Per-service QoS and backpressure counters (monotone; unlike the
/// process-wide `service.*` telemetry these are never shared across
/// services, so tests and drills can assert on them exactly).
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct QosStats {
    /// Sessions terminated early with a best-so-far answer.
    pub shed: u64,
    /// Tier-recovery steps (service-wide, hysteresis-paced).
    pub resumed: u64,
    /// Scheduler rounds whose block budget was utility-allocated.
    pub utility_rounds: u64,
    /// Progress updates dropped at the per-session outbox cap.
    pub dropped_progress: u64,
}

struct Inner<D: BlockDevice + Send + Sync + 'static> {
    /// The served cube's geometry — all that preparing a query needs. The
    /// coefficients live on the device only; what stays resident is this,
    /// the store's energy catalog and the cache.
    dims: Vec<usize>,
    filter: WaveletFilter,
    blocked: BlockedCoefficients<D>,
    cache: SharedBlockCache,
    admission: AdmissionController<Ticket>,
    pool: ThreadPool,
    config: ServiceConfig,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    slow_log: SlowQueryLog,
    sessions: Mutex<BTreeMap<u64, SessionRow>>,
    /// Current service degradation tier ([`Tier::to_wire`] encoding).
    qos_tier: AtomicU8,
    qos_shed: AtomicU64,
    qos_resumed: AtomicU64,
    qos_utility_rounds: AtomicU64,
    qos_dropped_progress: AtomicU64,
}

/// An embeddable concurrent query service over one wavelet store.
///
/// Submit [`QuerySpec`]s from any thread; a dedicated scheduler thread
/// batches overlapping plans into shared scans and streams refinements
/// back through [`SessionHandle`]s. Dropping the service shuts it down.
pub struct QueryService<D: BlockDevice + Send + Sync + 'static = MemDevice> {
    inner: Arc<Inner<D>>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl QueryService<MemDevice> {
    /// Builds a service over an in-memory device.
    pub fn new(cube: WaveletCube, block_size: usize, config: ServiceConfig) -> Self {
        QueryService::on_device(cube, block_size, config, MemDevice::new)
    }
}

impl<D: BlockDevice + Send + Sync + 'static> QueryService<D> {
    /// Builds a service whose coefficients live on a device built by
    /// `make(block_size, num_blocks)` — the hook for fault-injected
    /// devices.
    pub fn on_device(
        cube: WaveletCube,
        block_size: usize,
        config: ServiceConfig,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        let blocked = BlockedCoefficients::on_device(cube.coeffs(), block_size, make);
        QueryService::with_blocked(cube, blocked, config)
    }

    /// Builds a service over a blocked store that was loaded from `cube`
    /// by the caller. Only the cube's geometry is kept.
    pub fn with_blocked(
        cube: WaveletCube,
        blocked: BlockedCoefficients<D>,
        config: ServiceConfig,
    ) -> Self {
        QueryService::open(cube.dims().to_vec(), cube.filter().clone(), blocked, config)
    }

    /// Serves an already-populated blocked store holding a cube of shape
    /// `dims` transformed with `filter` — the reopen path: the
    /// coefficients were recovered from a durable device and are never
    /// materialised in memory.
    ///
    /// # Panics
    /// If the store's coefficient count is not the cube volume.
    pub fn open(
        dims: Vec<usize>,
        filter: WaveletFilter,
        blocked: BlockedCoefficients<D>,
        config: ServiceConfig,
    ) -> Self {
        assert!(config.round_blocks > 0, "round budget must be positive");
        assert!(config.max_batch > 0, "batch size must be positive");
        assert_eq!(blocked.len(), dims.iter().product(), "blocked store / cube size mismatch");
        let threads = config.threads.unwrap_or_else(configured_threads);
        let slow_log = SlowQueryLog::new(SLOW_LOG_CAPACITY);
        let inner = Arc::new(Inner {
            dims,
            filter,
            blocked,
            cache: SharedBlockCache::new(config.cache_blocks),
            admission: AdmissionController::new(config.queue_capacity),
            pool: ThreadPool::new(threads),
            config,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            slow_log,
            sessions: Mutex::new(BTreeMap::new()),
            qos_tier: AtomicU8::new(0),
            qos_shed: AtomicU64::new(0),
            qos_resumed: AtomicU64::new(0),
            qos_utility_rounds: AtomicU64::new(0),
            qos_dropped_progress: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let scheduler = std::thread::Builder::new()
            .name("aims-service-scheduler".into())
            .spawn(move || scheduler_loop(worker))
            .expect("failed to spawn service scheduler");
        QueryService { inner, scheduler: Mutex::new(Some(scheduler)) }
    }

    /// Dimensions of the served cube.
    pub fn dims(&self) -> &[usize] {
        &self.inner.dims
    }

    /// The backing device (I/O accounting).
    pub fn device(&self) -> &D {
        self.inner.blocked.device()
    }

    /// The shared block cache (hit/miss accounting).
    pub fn cache(&self) -> &SharedBlockCache {
        &self.inner.cache
    }

    /// Queued tickets per class: `(interactive, batch)`.
    pub fn queue_depth(&self) -> (usize, usize) {
        self.inner.admission.depth()
    }

    /// Profiles of queries that tripped a slow-query threshold (oldest
    /// first, bounded at 128 entries).
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.inner.slow_log.entries()
    }

    /// Current service degradation tier ([`Tier::Normal`] when healthy).
    pub fn qos_tier(&self) -> Tier {
        Tier::from_wire(self.inner.qos_tier.load(Ordering::SeqCst)).unwrap_or(Tier::Normal)
    }

    /// Per-service QoS and backpressure counters.
    pub fn qos_stats(&self) -> QosStats {
        QosStats {
            shed: self.inner.qos_shed.load(Ordering::SeqCst),
            resumed: self.inner.qos_resumed.load(Ordering::SeqCst),
            utility_rounds: self.inner.qos_utility_rounds.load(Ordering::SeqCst),
            dropped_progress: self.inner.qos_dropped_progress.load(Ordering::SeqCst),
        }
    }

    /// One `{"kind":"session",...}` JSON line per live (queued or
    /// active) session — appended to the METRICS_REPLY payload so `top`
    /// can render a per-session table.
    pub fn sessions_json_lines(&self) -> String {
        let sessions = self.inner.sessions.lock().unwrap();
        let mut out = String::new();
        for (id, row) in sessions.iter() {
            let bound = if row.error_bound.is_finite() {
                format!("{}", row.error_bound)
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "{{\"kind\":\"session\",\"id\":{id},\"state\":\"{}\",\"priority\":\"{}\",\
                 \"traced\":{},\"rounds\":{},\"used\":{},\"total\":{},\"bound\":{bound},\
                 \"queue_wait_ns\":{},\"age_ms\":{},\"tier\":\"{}\"}}\n",
                if row.active { "active" } else { "queued" },
                priority_label(row.priority),
                row.traced,
                row.rounds,
                row.coefficients_used,
                row.total_coefficients,
                row.queue_wait_ns,
                row.submitted_at.elapsed().as_millis(),
                row.tier.label(),
            ));
        }
        out
    }

    /// Validates and enqueues a query. Typed failures: queue full,
    /// shutting down, malformed ranges. Never blocks, never panics on
    /// overload.
    pub fn submit(&self, spec: QuerySpec) -> Result<SessionHandle, ServiceError> {
        let t = service_telemetry();
        if self.inner.shutdown.load(Ordering::SeqCst) {
            t.rejected.inc();
            return Err(ServiceError::ShuttingDown);
        }
        if let Err(e) = self.validate(&spec.ranges) {
            t.rejected.inc();
            return Err(e);
        }
        let prepared =
            prepare(&self.inner.dims, &self.inner.filter, &RangeSumQuery::count(spec.ranges));
        let plan = Arc::new(self.inner.blocked.plan(&prepared));
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let trace = if spec.trace {
            t.traced.inc();
            TraceContext::start_global()
        } else {
            TraceContext::disabled()
        };
        trace.event(
            "service.submit",
            &[
                ("priority", AttrValue::Str(priority_label(spec.priority))),
                ("plan_blocks", AttrValue::U64(plan.blocks.len() as u64)),
                ("coefficients", AttrValue::U64(prepared.nnz() as u64)),
            ],
        );
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let pending = Arc::new(AtomicUsize::new(0));
        let submitted_at = Instant::now();
        let total_coefficients = prepared.nnz() as u64;
        let ticket = Ticket {
            id,
            prepared,
            ledger: BoundLedger::in_fold_order(plan),
            priority: spec.priority,
            tx,
            cancel: Arc::clone(&cancel),
            pending: Arc::clone(&pending),
            deadline: spec.deadline.map(|d| submitted_at + d),
            trace,
            submitted_at,
        };
        // Registered before admission so the scheduler's admit-time
        // update always finds the row.
        self.inner.sessions.lock().unwrap().insert(
            id,
            SessionRow {
                priority: spec.priority,
                traced: spec.trace,
                active: false,
                rounds: 0,
                coefficients_used: 0,
                total_coefficients,
                error_bound: f64::INFINITY,
                queue_wait_ns: 0,
                submitted_at,
                tier: Tier::Normal,
            },
        );
        match self.inner.admission.submit(ticket, spec.priority) {
            Ok(()) => {
                t.submitted.inc();
                Ok(SessionHandle { id, rx, cancel, pending })
            }
            Err(e) => {
                self.inner.sessions.lock().unwrap().remove(&id);
                t.rejected.inc();
                Err(e)
            }
        }
    }

    fn validate(&self, ranges: &[(usize, usize)]) -> Result<(), ServiceError> {
        let dims = self.dims();
        if ranges.len() != dims.len() {
            return Err(ServiceError::InvalidQuery(format!(
                "{} range(s) for a {}-dimensional cube",
                ranges.len(),
                dims.len()
            )));
        }
        for (d, (&(lo, hi), &size)) in ranges.iter().zip(dims).enumerate() {
            if lo > hi || hi >= size {
                return Err(ServiceError::InvalidQuery(format!(
                    "dimension {d}: range {lo}..={hi} outside 0..{size}"
                )));
            }
        }
        Ok(())
    }

    /// Stops accepting work, finishes in-flight sessions, and joins the
    /// scheduler. Queued-but-unstarted tickets are dropped (their
    /// sessions observe `Disconnected`). Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let dropped = self.inner.admission.close();
        {
            let mut sessions = self.inner.sessions.lock().unwrap();
            for ticket in &dropped {
                sessions.remove(&ticket.id);
            }
        }
        drop(dropped);
        if let Some(handle) = self.scheduler.lock().unwrap().take() {
            handle.join().expect("service scheduler panicked");
        }
    }
}

impl<D: BlockDevice + Send + Sync + 'static> Drop for QueryService<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Classifies a finished query against the slow-query threshold.
fn slow_reason(q: &ActiveQuery) -> Option<SlowReason> {
    (q.ticket.ledger.lost_blocks().len() >= SLOW_DEGRADED_BLOCKS).then_some(SlowReason::Degraded)
}

/// How a session's terminal update is classified.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Terminal {
    /// Ran to its (possibly widened) target.
    Done,
    /// Wall-clock deadline hit first.
    Expired,
    /// Shed under overload with its best-so-far answer.
    Shed,
}

/// Terminal delivery: profile (traced), slow-query log, terminal update,
/// session-registry removal. The profile is materialized only when the
/// query was traced or tripped a slow threshold — untraced healthy
/// queries allocate nothing here.
fn finish_query<D: BlockDevice + Send + Sync + 'static>(
    inner: &Inner<D>,
    t: &ServiceTelemetry,
    q: &ActiveQuery,
    refinement: Refinement,
    terminal: Terminal,
) {
    let traced = q.ticket.trace.is_enabled();
    let slow = slow_reason(q);
    if traced || slow.is_some() {
        let profile = q.profile();
        if let Some(reason) = slow {
            t.slow.inc();
            inner.slow_log.push(SlowQueryEntry {
                session_id: q.ticket.id,
                reason,
                profile: profile.clone(),
            });
        }
        if traced {
            q.ticket.trace.event(
                match terminal {
                    Terminal::Done => "service.done",
                    Terminal::Expired => "service.expired",
                    Terminal::Shed => "service.shed",
                },
                &[
                    ("latency_ns", AttrValue::U64(profile.latency_ns)),
                    ("blocks_read", AttrValue::U64(profile.blocks_read)),
                    ("blocks_shared", AttrValue::U64(profile.blocks_shared)),
                    ("degraded", AttrValue::U64(profile.degraded_blocks)),
                ],
            );
            q.emit(Update::Profile(Box::new(profile)));
        }
    }
    // Remove the registry row before the terminal update: a client woken
    // by Done must never observe its own session as still live.
    inner.sessions.lock().unwrap().remove(&q.ticket.id);
    // Counters move before the terminal emit: the emit wakes the waiting
    // client, and a client that has observed its outcome must never read
    // a statistic that hasn't counted that outcome yet.
    match terminal {
        Terminal::Done => {
            t.completed.inc();
            q.emit(Update::Done(refinement));
        }
        Terminal::Expired => {
            t.expired.inc();
            q.emit(Update::DeadlineExpired(refinement));
        }
        Terminal::Shed => {
            inner.qos_shed.fetch_add(1, Ordering::SeqCst);
            t.qos_shed.inc();
            q.emit(Update::Shed(refinement));
        }
    }
}

/// The effective tier a session runs at: interactive sessions ride one
/// tier softer than the service (they are the latency-sensitive class
/// the degradation ladder exists to protect).
fn effective_tier(service: Tier, priority: Priority) -> Tier {
    match priority {
        Priority::Interactive => service.relaxed(),
        Priority::Batch => service,
    }
}

fn scheduler_loop<D: BlockDevice + Send + Sync + 'static>(inner: Arc<Inner<D>>) {
    let t = service_telemetry();
    if !inner.config.admission_warmup.is_zero() {
        std::thread::sleep(inner.config.admission_warmup);
    }
    let mut active: Vec<ActiveQuery> = Vec::new();
    let mut round: u32 = 0;
    let mut controller = DegradeController::new();
    // Reused across rounds so per-block consumer lists never allocate on
    // the steady-state path.
    let mut consumers: Vec<usize> = Vec::new();
    loop {
        // Admit: top the active set up from the queue, interactive first.
        let room = inner.config.max_batch.saturating_sub(active.len());
        let wait = if active.is_empty() { inner.config.idle_wait } else { Duration::ZERO };
        for ticket in inner.admission.drain(room, wait) {
            let q = ActiveQuery::new(ticket);
            if let Some(row) = inner.sessions.lock().unwrap().get_mut(&q.ticket.id) {
                row.active = true;
                row.queue_wait_ns = q.queue_wait_ns;
            }
            q.ticket
                .trace
                .event("service.admit", &[("queue_wait_ns", AttrValue::U64(q.queue_wait_ns))]);
            active.push(q);
        }
        let (qi, qb) = inner.admission.depth();
        t.queue_interactive.set(qi as f64);
        t.queue_batch.set(qb as f64);
        t.active.set(active.len() as f64);
        // Feed the overload controller every iteration — idle ones
        // included, so the tier decays back to Normal after a drain even
        // when no sessions are left to refine.
        let pressure = (qi + qb) as f64 / inner.admission.capacity().max(1) as f64;
        match controller.observe(pressure, &inner.config.qos) {
            TierChange::Recovered(_) => {
                inner.qos_resumed.fetch_add(1, Ordering::SeqCst);
                t.qos_resumed.inc();
            }
            TierChange::Escalated(_) | TierChange::None => {}
        }
        let service_tier = controller.tier();
        inner.qos_tier.store(service_tier.to_wire(), Ordering::SeqCst);
        t.qos_tier.set(service_tier.to_wire() as f64);
        if active.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            continue;
        }
        round += 1;
        t.rounds.inc();

        // Cull cancelled and expired sessions before any I/O.
        let now = Instant::now();
        active.retain(|q| {
            if q.cancelled() {
                q.ticket.trace.event("service.cancelled", &[]);
                inner.sessions.lock().unwrap().remove(&q.ticket.id);
                q.emit(Update::Cancelled);
                t.cancelled.inc();
                return false;
            }
            if q.ticket.deadline.is_some_and(|d| now >= d) {
                finish_query(&inner, t, q, q.refinement(round), Terminal::Expired);
                return false;
            }
            true
        });
        if active.is_empty() {
            continue;
        }
        for q in active.iter_mut() {
            q.tier = effective_tier(service_tier, q.ticket.priority);
        }

        // Phase 1 — shared scan: pick this round's blocks and pull each
        // once through the cache. Both policies grant every query a
        // contiguous prefix of its remaining plan (FIFO because the
        // budget takes the smallest blocks of the ascending union;
        // utility because the grant below stops at the first plan block
        // not selected), so charging consumers against their granted
        // prefix here (before compute) attributes exactly the blocks
        // each query consumes this round. A utility-selected block
        // ahead of every consumer's prefix is a prefetch: fetched and
        // cached this round, granted free once the blocks before it
        // arrive.
        //
        // The round budget bounds *device reads*, not grants: a block
        // already resident in the shared cache costs no I/O, so both
        // policies hand it out for free. `contains` is a pure probe (no
        // hit/miss accounting, no LRU touch), so planning around
        // residence doesn't distort the cache statistics the fetch loop
        // below records.
        let is_cached = |b: usize| inner.cache.contains(b);
        let selected: BTreeSet<usize> = match inner.config.qos.policy {
            SchedulerPolicy::Fifo => {
                let mut wanted: BTreeSet<usize> = BTreeSet::new();
                for q in &active {
                    wanted.extend(q.remaining_plan().iter().copied());
                }
                let mut picked: BTreeSet<usize> = BTreeSet::new();
                let mut charged = 0usize;
                for b in wanted {
                    let free = is_cached(b);
                    if !free && charged >= inner.config.round_blocks {
                        break;
                    }
                    if !free {
                        charged += 1;
                    }
                    picked.insert(b);
                }
                picked
            }
            SchedulerPolicy::Utility => {
                inner.qos_utility_rounds.fetch_add(1, Ordering::SeqCst);
                t.qos_utility_rounds.inc();
                let lenses: Vec<qos::SessionLens> = active
                    .iter()
                    .map(|q| qos::SessionLens {
                        plan: q.remaining_plan(),
                        gain: &q.ticket.ledger.plan().gains[q.ticket.ledger.consumed()..],
                        weight: {
                            let boost = match q.ticket.priority {
                                Priority::Interactive => qos::INTERACTIVE_BOOST,
                                Priority::Batch => 1.0,
                            };
                            // Deadline slack sharpens urgency toward 2×
                            // as expiry approaches.
                            let urgency = q.ticket.deadline.map_or(1.0, |d| {
                                let slack = d.saturating_duration_since(now).as_secs_f64();
                                1.0 + 1.0 / (1.0 + 20.0 * slack)
                            });
                            // Normalizing by the initial bound turns the
                            // gain into *relative* progress: a block that
                            // halves a small query's bound outranks one
                            // nibbling at a huge query's.
                            boost * urgency / q.initial_bound.max(1e-12)
                        },
                    })
                    .collect();
                qos::select_round_blocks(&lenses, inner.config.round_blocks, is_cached)
            }
        };
        // Each query's granted prefix: how many of its leading remaining
        // plan blocks made this round's selection.
        let granted: Vec<usize> = active
            .iter()
            .map(|q| q.remaining_plan().iter().take_while(|b| selected.contains(b)).count())
            .collect();
        let mut fetched: BTreeMap<usize, Option<Arc<Vec<f64>>>> = BTreeMap::new();
        for b in selected {
            // A block wanted only by since-cancelled queries is not
            // fetched: cancellation halts I/O, not just delivery.
            consumers.clear();
            consumers.extend(
                active
                    .iter()
                    .enumerate()
                    .filter(|(i, q)| !q.cancelled() && q.consumes(b, granted[*i]))
                    .map(|(i, _)| i),
            );
            if consumers.is_empty() {
                // No granted prefix covers the block this round. If a
                // live query still wants it further down its plan, this
                // is a prefetch: warm the cache so a later round grants
                // it for free. A read failure is fine to swallow here —
                // nothing consumed the block, and the consuming round
                // will retry and account the degradation itself. Blocks
                // wanted only by since-cancelled queries are not
                // fetched: cancellation halts I/O, not just delivery.
                let wanted = active
                    .iter()
                    .any(|q| !q.cancelled() && q.remaining_plan().binary_search(&b).is_ok());
                if wanted {
                    t.block_requests.inc();
                    let _ = inner.cache.get_or_read_outcome(
                        inner.blocked.device(),
                        b,
                        &inner.config.retry,
                    );
                }
                continue;
            }
            t.block_requests.inc();
            t.block_fanout.add(consumers.len() as u64 - 1);
            // Each *physical* device read is recorded once, on the
            // first traced consumer's timeline, carrying its fan-out;
            // exact per-consumer attribution (including cache hits)
            // lives in the branch-free profile counters, and only
            // degraded outcomes — which cost every consumer accuracy —
            // get a per-session event. Cache hits are counter-only:
            // recording a nanosecond-scale hit would cost more than
            // the hit itself, and the per-round event already anchors
            // each query's progress on the timeline. One clock reading
            // covers the whole fan-out.
            let reporter =
                consumers.iter().copied().find(|&ci| active[ci].ticket.trace.is_enabled());
            let fetch_ts = reporter.map_or(0, |ri| active[ri].ticket.trace.now_ns());
            match inner.cache.get_or_read_outcome(inner.blocked.device(), b, &inner.config.retry) {
                Ok((payload, outcome)) => {
                    if let (Some(ri), false) = (reporter, outcome.cache_hit) {
                        active[ri].ticket.trace.event_at(
                            fetch_ts,
                            "storage.fetch",
                            &[
                                ("block", AttrValue::U64(b as u64)),
                                ("outcome", AttrValue::Str("read")),
                                ("retries", AttrValue::U64(outcome.retries as u64)),
                                ("fanout", AttrValue::U64(consumers.len() as u64)),
                            ],
                        );
                    }
                    for (slot, &ci) in consumers.iter().enumerate() {
                        let q = &mut active[ci];
                        if outcome.cache_hit {
                            q.cache_hits += 1;
                            q.blocks_shared += 1;
                        } else {
                            q.cache_misses += 1;
                            // The first consumer pays the device read (and
                            // its retries); the rest share the payload.
                            if slot == 0 {
                                q.blocks_read += 1;
                                q.retries += outcome.retries as u64;
                            } else {
                                q.blocks_shared += 1;
                            }
                        }
                    }
                    fetched.insert(b, Some(payload));
                }
                Err(_) => {
                    global().counter("storage.degraded").inc();
                    for &ci in consumers.iter() {
                        let q = &mut active[ci];
                        q.cache_misses += 1;
                        q.ticket.trace.event_at(
                            fetch_ts,
                            "storage.fetch",
                            &[
                                ("block", AttrValue::U64(b as u64)),
                                ("outcome", AttrValue::Str("degraded")),
                            ],
                        );
                    }
                    fetched.insert(b, None);
                }
            }
        }

        // Phase 2 — fan out: one task per query, input-order results,
        // each query's sum accumulated sequentially inside its task.
        let results: Vec<ComputeResult> = inner.pool.par_map(&active, |q| {
            let mut r =
                ComputeResult { ledger: q.ticket.ledger.clone(), cursor: q.cursor, sum: q.sum };
            // Consume the leading plan blocks that arrived this round; a
            // block the device could not deliver contributes nothing and
            // keeps its gain in the bound.
            while let Some(k) = r.ledger.peek() {
                let b = r.ledger.plan().blocks[k];
                let Some(payload) = fetched.get(&b) else { break };
                let data = payload.as_ref().map(|d| d.as_slice());
                inner.blocked.accumulate(&q.ticket.prepared, b, data, &mut r.cursor, &mut r.sum);
                match payload {
                    Some(_) => r.ledger.deliver(),
                    None => r.ledger.lose(),
                }
            }
            r
        });

        // Phase 3 — deliver refinements and retire finished sessions.
        // Graduated degradation acts here, in escalating order: coarse
        // tiers thin the progress cadence, the widened tier completes
        // early once the bound is "good enough" relative to where it
        // started, and the shed tier retires the session now with its
        // best-so-far answer (always after at least this one round of
        // refinement — a shed session gets an answer, never an error).
        for (q, r) in active.iter_mut().zip(results) {
            q.cursor = r.cursor;
            q.sum = r.sum;
            q.ticket.ledger = r.ledger;
            q.rounds += 1;
            let refinement = q.refinement(round);
            if q.ticket.trace.is_enabled() {
                q.trajectory.push(TrajectoryPoint {
                    round,
                    coefficients_used: refinement.coefficients_used as u64,
                    error_bound: refinement.error_bound,
                });
                q.ticket.trace.event(
                    "service.round",
                    &[
                        ("round", AttrValue::U64(round as u64)),
                        ("used", AttrValue::U64(refinement.coefficients_used as u64)),
                        ("bound", AttrValue::F64(refinement.error_bound)),
                    ],
                );
            }
            let widened_target_met = q.tier >= Tier::Widened
                && refinement.error_bound <= inner.config.qos.widen_rel * q.initial_bound;
            if q.complete() {
                finish_query(&inner, t, q, refinement, Terminal::Done);
                q.retired = true;
            } else if q.tier == Tier::Shed {
                finish_query(&inner, t, q, refinement, Terminal::Shed);
                q.retired = true;
            } else if widened_target_met {
                finish_query(&inner, t, q, refinement, Terminal::Done);
                q.retired = true;
            } else {
                // Coarse tiers and harder thin the delivery cadence;
                // the outbox cap drops updates for stalled consumers.
                let due = q.tier < Tier::Coarse || q.rounds % qos::COARSE_CADENCE == 0;
                if due && !q.emit_progress(refinement, inner.config.progress_outbox) {
                    inner.qos_dropped_progress.fetch_add(1, Ordering::SeqCst);
                    t.dropped_progress.inc();
                }
                if let Some(row) = inner.sessions.lock().unwrap().get_mut(&q.ticket.id) {
                    row.rounds = q.rounds;
                    row.coefficients_used = refinement.coefficients_used as u64;
                    row.error_bound = refinement.error_bound;
                    row.tier = q.tier;
                }
            }
        }
        active.retain(|q| !q.retired);
        if !inner.config.round_pause.is_zero() {
            std::thread::sleep(inner.config.round_pause);
        }
    }
    t.active.set(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Outcome;
    use aims_propolyne::Propolyne;
    use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};

    fn service(config: ServiceConfig) -> QueryService {
        QueryService::new(demo_cube(32, 41), 16, config)
    }

    /// The in-memory reference for [`service`]'s cube.
    fn reference() -> Propolyne {
        Propolyne::new(demo_cube(32, 41))
    }

    #[test]
    fn single_query_is_bit_identical_to_serial() {
        let svc = service(ServiceConfig::default());
        let engine = reference();
        for ranges in [vec![(0, 31), (0, 31)], vec![(3, 25), (7, 19)], vec![(16, 16), (0, 30)]] {
            let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
            let expect = engine.evaluate_prepared(&prepared);
            let (trace, outcome) = svc.submit(QuerySpec::interactive(ranges)).unwrap().collect();
            match outcome {
                Outcome::Done(r) => {
                    assert_eq!(r.estimate.to_bits(), expect.to_bits());
                    assert_eq!(r.error_bound, 0.0);
                    assert_eq!(r.coefficients_used, prepared.nnz());
                }
                other => panic!("expected Done, got {other:?}"),
            }
            // Bounds refine monotonically and always hold.
            for w in trace.windows(2) {
                assert!(w[1].error_bound <= w[0].error_bound + 1e-12);
            }
            for r in &trace {
                assert!((r.estimate - expect).abs() <= r.error_bound + 1e-9);
            }
        }
    }

    #[test]
    fn overlapping_queries_share_device_reads() {
        let svc = service(ServiceConfig { round_blocks: 16, ..ServiceConfig::default() });
        let engine = reference();
        // 16 queries over nearly the same region: plans overlap heavily.
        let specs: Vec<QuerySpec> =
            (0..16).map(|k| QuerySpec::interactive(vec![(k % 4, 28 + (k % 3)), (0, 30)])).collect();
        let mut solo_blocks = 0usize;
        for s in &specs {
            let p = engine.prepare(&RangeSumQuery::count(s.ranges.clone()));
            solo_blocks += svc.inner.blocked.plan_blocks(&p).len();
        }
        let handles: Vec<_> = specs.iter().map(|s| svc.submit(s.clone()).unwrap()).collect();
        for h in handles {
            match h.wait() {
                Outcome::Done(r) => assert_eq!(r.error_bound, 0.0),
                other => panic!("expected Done, got {other:?}"),
            }
        }
        let reads = svc.device().stats().reads as usize;
        assert!(
            reads * 2 <= solo_blocks,
            "shared scan should at least halve reads: {reads} vs {solo_blocks} solo"
        );
    }

    #[test]
    fn queue_overload_is_a_typed_rejection_not_a_hang() {
        let svc = service(ServiceConfig {
            queue_capacity: 2,
            max_batch: 1,
            round_blocks: 1,
            idle_wait: Duration::from_millis(1),
            // Without a pause a serial scheduler can shed sessions as fast
            // as this thread prepares them, and nothing is ever rejected.
            round_pause: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        // Flood far past capacity; every failure must be QueueFull.
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..64 {
            match svc.submit(QuerySpec::batch(vec![(0, 31), (0, 31)])) {
                Ok(h) => accepted.push(h),
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(rejected > 0, "flooding a capacity-2 queue must reject something");
        for h in accepted {
            // Under sustained overload the graduated shedder may retire
            // a session early with its best-so-far answer — either way,
            // every admitted query ends in a well-formed terminal.
            match h.wait() {
                Outcome::Done(r) | Outcome::Shed(r) => {
                    assert!(r.estimate.is_finite());
                    assert!(r.error_bound.is_finite());
                }
                other => panic!("expected Done or Shed, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_queries_are_rejected_up_front() {
        let svc = service(ServiceConfig::default());
        for bad in [vec![(0, 31)], vec![(0, 32), (0, 31)], vec![(5, 2), (0, 31)]] {
            assert!(matches!(
                svc.submit(QuerySpec::interactive(bad)),
                Err(ServiceError::InvalidQuery(_))
            ));
        }
    }

    #[test]
    fn cancellation_halts_remaining_block_fetches() {
        // One block per round + a per-round pause gives a wide
        // deterministic window to cancel mid-flight.
        let svc = service(ServiceConfig {
            round_blocks: 1,
            max_batch: 1,
            round_pause: Duration::from_millis(5),
            ..ServiceConfig::default()
        });
        let engine = reference();
        let full = vec![(0, 31), (0, 31)];
        let h = svc.submit(QuerySpec::interactive(full.clone())).unwrap();
        match h.next() {
            Some(Update::Progress(_)) => {}
            other => panic!("expected a first refinement, got {other:?}"),
        }
        h.cancel();
        let (_, outcome) = h.collect();
        assert!(matches!(outcome, Outcome::Cancelled), "got {outcome:?}");
        // The plan is ~dozens of blocks at one per round; cancellation
        // must have stopped the scan far from the end.
        let prepared = engine.prepare(&RangeSumQuery::count(full));
        let plan_len = svc.inner.blocked.plan_blocks(&prepared).len();
        std::thread::sleep(Duration::from_millis(25));
        let reads = svc.device().stats().reads as usize;
        assert!(
            reads < plan_len,
            "cancel must halt fetches: {reads} of {plan_len} plan blocks read"
        );
    }

    #[test]
    fn expired_deadlines_deliver_best_effort() {
        let svc =
            service(ServiceConfig { round_blocks: 1, max_batch: 2, ..ServiceConfig::default() });
        let h = svc
            .submit(
                QuerySpec::interactive(vec![(0, 31), (0, 31)])
                    .with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        match h.wait() {
            Outcome::DeadlineExpired(r) => {
                assert!(r.coefficients_used < r.total_coefficients);
                assert!(r.error_bound > 0.0);
            }
            // A very fast machine may legitimately finish within 1ms.
            Outcome::Done(_) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn degraded_storage_widens_the_bound_but_still_answers() {
        let cube = demo_cube(32, 77);
        let engine = Propolyne::new(cube.clone());
        let svc = QueryService::on_device(
            cube,
            16,
            ServiceConfig { retry: RetryPolicy::none(), ..ServiceConfig::default() },
            |bs, nb| {
                FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(19, FaultKind::DeadBlock, 0.2))
            },
        );
        let exact = {
            let p = engine.prepare(&RangeSumQuery::count(vec![(0, 31), (0, 31)]));
            engine.evaluate_prepared(&p)
        };
        match svc.submit(QuerySpec::interactive(vec![(0, 31), (0, 31)])).unwrap().wait() {
            Outcome::Done(r) => {
                assert!((r.estimate - exact).abs() <= r.error_bound + 1e-9);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn traced_profile_matches_device_ground_truth() {
        let cube = demo_cube(32, 99);
        let engine = Propolyne::new(cube.clone());
        let fault_plan = FaultPlan {
            seed: 4242,
            read_error_rate: 0.25,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
            dead_fraction: 0.12,
            latency: Duration::ZERO,
            latency_rate: 0.0,
        };
        let svc = QueryService::on_device(
            cube,
            16,
            ServiceConfig {
                retry: RetryPolicy::with_retries(8),
                round_blocks: 4,
                ..ServiceConfig::default()
            },
            |bs, nb| FaultyDevice::with_plan(bs, nb, fault_plan),
        );
        let ranges = vec![(2, 29), (0, 31)];
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let plan_blocks = svc.inner.blocked.plan_blocks(&prepared);
        // Predict per-block costs on the fresh device, before any read
        // consumes the fault schedule.
        let mut want_read = 0u64;
        let mut want_retries = 0u64;
        let mut want_degraded = 0u64;
        for &b in plan_blocks.iter() {
            if svc.device().is_dead(b) {
                want_degraded += 1;
            } else {
                want_read += 1;
                want_retries += svc.device().planned_read_failures(b) as u64;
            }
        }
        assert!(want_degraded > 0, "fault plan should kill at least one plan block");
        assert!(want_retries > 0, "fault plan should force at least one retry");
        let reads_before = svc.device().stats().reads;
        let (_, outcome, profile) =
            svc.submit(QuerySpec::interactive(ranges).traced()).unwrap().collect_profiled();
        assert!(matches!(outcome, Outcome::Done(_)), "got {outcome:?}");
        let p = profile.expect("traced query must yield a profile");
        let n = plan_blocks.len() as u64;
        assert_ne!(p.trace_id, 0);
        assert_eq!(p.blocks_read, want_read);
        assert_eq!(p.blocks_read, svc.device().stats().reads - reads_before);
        assert_eq!(p.retries, want_retries);
        assert_eq!(p.degraded_blocks, want_degraded);
        assert_eq!(p.blocks_read + p.blocks_shared + p.degraded_blocks, n);
        assert_eq!(p.cache_hits + p.cache_misses, n);
        assert_eq!(p.cache_hits, 0, "a solo cold query never hits the shared cache");
        assert_eq!(p.rounds as usize, p.trajectory.len());
        assert!(p.latency_ns > 0);
        let last = p.trajectory.last().unwrap();
        assert_eq!(last.coefficients_used as usize, prepared.nnz());
        // The flight recorder holds the query's full event stream.
        let events =
            aims_telemetry::global_recorder().events_for(aims_telemetry::TraceId(p.trace_id));
        assert!(events.iter().any(|e| e.name == "service.admit"));
        assert!(events.iter().any(|e| e.name == "service.done"));
        let fetches = events.iter().filter(|e| e.name == "storage.fetch").count() as u64;
        assert_eq!(fetches, n);
    }

    #[test]
    fn tracing_never_perturbs_results_across_pool_sizes() {
        let ranges = vec![(1, 30), (3, 28)];
        let mut baseline: Option<u64> = None;
        for threads in [1usize, 2, 8] {
            for traced in [false, true] {
                let svc = QueryService::new(
                    demo_cube(32, 55),
                    16,
                    ServiceConfig { threads: Some(threads), ..ServiceConfig::default() },
                );
                let mut spec = QuerySpec::interactive(ranges.clone());
                if traced {
                    spec = spec.traced();
                }
                let (_, outcome) = svc.submit(spec).unwrap().collect();
                let bits = match outcome {
                    Outcome::Done(r) => r.estimate.to_bits(),
                    other => panic!("expected Done, got {other:?}"),
                };
                match baseline {
                    None => baseline = Some(bits),
                    Some(b) => assert_eq!(bits, b, "threads={threads} traced={traced}"),
                }
            }
        }
    }

    #[test]
    fn degraded_untraced_queries_land_in_the_slow_log() {
        let cube = demo_cube(32, 77);
        let engine = Propolyne::new(cube.clone());
        let svc = QueryService::on_device(
            cube,
            16,
            ServiceConfig { retry: RetryPolicy::none(), ..ServiceConfig::default() },
            |bs, nb| {
                FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(19, FaultKind::DeadBlock, 0.2))
            },
        );
        let ranges = vec![(0, 31), (0, 31)];
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let dead = svc
            .inner
            .blocked
            .plan_blocks(&prepared)
            .iter()
            .filter(|&&b| svc.device().is_dead(b))
            .count();
        assert!(dead > 0, "fault plan should kill at least one plan block");
        let outcome = svc.submit(QuerySpec::interactive(ranges)).unwrap().wait();
        assert!(matches!(outcome, Outcome::Done(_)), "got {outcome:?}");
        let entries = svc.slow_queries();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.reason, SlowReason::Degraded);
        assert_eq!(e.profile.trace_id, 0, "untraced profiles carry no trace id");
        assert_eq!(e.profile.degraded_blocks, dead as u64);
        assert!(e.profile.trajectory.is_empty(), "untraced queries record no trajectory");
        assert!(e.to_json_line().contains("\"reason\":\"degraded\""));
        // The live-session registry is empty once the query retires.
        assert_eq!(svc.sessions_json_lines(), "");
    }

    #[test]
    fn utility_and_fifo_schedules_are_bit_identical() {
        // The utility scheduler reorders I/O, never results: the same
        // overlapping workload must produce bit-identical answers under
        // both policies (and match serial evaluation).
        let specs: Vec<QuerySpec> =
            (0..8).map(|k| QuerySpec::interactive(vec![(k % 4, 27 + (k % 4)), (1, 30)])).collect();
        let engine = reference();
        let mut baseline: Vec<u64> = Vec::new();
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Utility] {
            let svc = service(ServiceConfig {
                round_blocks: 4,
                qos: QosConfig { policy, ..QosConfig::default() },
                ..ServiceConfig::default()
            });
            let handles: Vec<_> = specs.iter().map(|s| svc.submit(s.clone()).unwrap()).collect();
            let bits: Vec<u64> = handles
                .into_iter()
                .map(|h| match h.wait() {
                    Outcome::Done(r) => {
                        assert_eq!(r.error_bound, 0.0);
                        r.estimate.to_bits()
                    }
                    other => panic!("expected Done, got {other:?}"),
                })
                .collect();
            if baseline.is_empty() {
                baseline = bits;
                // Sanity: the baseline itself matches serial evaluation.
                for (s, &b) in specs.iter().zip(&baseline) {
                    let p = engine.prepare(&RangeSumQuery::count(s.ranges.clone()));
                    assert_eq!(engine.evaluate_prepared(&p).to_bits(), b);
                }
            } else {
                assert_eq!(bits, baseline, "policy {policy:?} perturbed results");
            }
        }
    }

    #[test]
    fn sustained_overload_sheds_with_best_so_far_then_recovers() {
        // Slow, mostly-uncached reads (latency-only faults, tiny cache)
        // keep each round far slower than the flood below, so queue
        // pressure genuinely sustains — against a µs-fast in-memory
        // device the feeder could never keep the queue full.
        let mut slow = FaultPlan::none(7);
        slow.latency = Duration::from_micros(500);
        slow.latency_rate = 1.0;
        let svc = QueryService::on_device(
            demo_cube(32, 41),
            16,
            ServiceConfig {
                queue_capacity: 8,
                max_batch: 4,
                round_blocks: 2,
                cache_blocks: 2,
                idle_wait: Duration::from_millis(1),
                qos: QosConfig {
                    enter_pressure: [0.2, 0.4, 0.5],
                    exit_pressure: [0.05, 0.1, 0.15],
                    escalate_rounds: 1,
                    recover_rounds: 2,
                    // A near-exact widened target: the per-block bound
                    // is tight enough that the default 10% target lets
                    // widened early-exits absorb the whole flood before
                    // shedding ever engages — which is the ladder
                    // working, but this test exists to exercise Shed.
                    widen_rel: 0.01,
                    ..QosConfig::default()
                },
                ..ServiceConfig::default()
            },
            |bs, nb| FaultyDevice::with_plan(bs, nb, slow),
        );
        // A sustained flood, not a burst: retry rejected submits so the
        // queue stays saturated while the scheduler churns — that is
        // what drives sustained pressure ≥ the Shed threshold. Unaligned
        // ranges keep plans multi-block so sessions survive past round 1.
        let mut accepted = Vec::new();
        let flood_deadline = Instant::now() + Duration::from_secs(20);
        for _ in 0..48 {
            loop {
                match svc.submit(QuerySpec::batch(vec![(1, 30), (2, 29)])) {
                    Ok(h) => {
                        accepted.push(h);
                        break;
                    }
                    Err(ServiceError::QueueFull { .. }) => {
                        assert!(Instant::now() < flood_deadline, "flood never drained");
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("unexpected rejection: {e:?}"),
                }
            }
        }
        assert_eq!(accepted.len(), 48);
        let mut shed = 0usize;
        for h in accepted {
            match h.wait() {
                Outcome::Done(r) => assert!(r.error_bound.is_finite()),
                Outcome::Shed(r) => {
                    // Best-so-far, not an error: a real partial answer
                    // with a finite guaranteed bound.
                    assert!(r.estimate.is_finite());
                    assert!(r.error_bound.is_finite());
                    assert!(r.coefficients_used <= r.total_coefficients);
                    shed += 1;
                }
                other => panic!("admitted query lost: {other:?}"),
            }
        }
        assert!(shed > 0, "sustained 6x overload must shed something");
        assert!(svc.qos_stats().shed >= shed as u64);
        // Drain: with the queue empty the controller recovers tier by
        // tier back to Normal (hysteresis-paced, so poll briefly).
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.qos_tier() != Tier::Normal {
            assert!(Instant::now() < deadline, "tier stuck at {:?}", svc.qos_tier());
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(svc.qos_stats().resumed > 0);
        // Steady state restored: a fresh query runs undegraded.
        let engine = reference();
        let p = engine.prepare(&RangeSumQuery::count(vec![(2, 29), (3, 28)]));
        let expect = engine.evaluate_prepared(&p);
        match svc.submit(QuerySpec::interactive(vec![(2, 29), (3, 28)])).unwrap().wait() {
            Outcome::Done(r) => {
                assert_eq!(r.estimate.to_bits(), expect.to_bits());
                assert_eq!(r.error_bound, 0.0);
            }
            other => panic!("post-drain query must run to Done, got {other:?}"),
        }
    }

    #[test]
    fn stalled_consumer_drops_progress_but_never_the_answer() {
        let svc = service(ServiceConfig {
            round_blocks: 1,
            progress_outbox: 2,
            ..ServiceConfig::default()
        });
        let engine = reference();
        let ranges = vec![(0, 31), (0, 31)];
        let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let expect = engine.evaluate_prepared(&p);
        // Don't consume anything until the query has finished: the
        // one-block rounds want to emit dozens of updates into a
        // capacity-2 outbox.
        let h = svc.submit(QuerySpec::interactive(ranges)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.sessions_json_lines().contains("\"kind\":\"session\"") {
            assert!(Instant::now() < deadline, "query did not finish");
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = svc.qos_stats();
        assert!(stats.dropped_progress > 0, "a stalled consumer must shed progress updates");
        let (trace, outcome) = h.collect();
        assert!(trace.len() <= 2 + 1, "outbox cap bounds buffered progress: {}", trace.len());
        match outcome {
            Outcome::Done(r) => {
                assert_eq!(r.estimate.to_bits(), expect.to_bits(), "final answer never degraded");
                assert_eq!(r.error_bound, 0.0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_is_clean_and_post_shutdown_submits_are_typed() {
        let svc = service(ServiceConfig::default());
        let h = svc.submit(QuerySpec::interactive(vec![(0, 31), (0, 31)])).unwrap();
        assert!(matches!(h.wait(), Outcome::Done(_)));
        svc.shutdown();
        assert!(matches!(
            svc.submit(QuerySpec::interactive(vec![(0, 31), (0, 31)])),
            Err(ServiceError::ShuttingDown)
        ));
        svc.shutdown(); // idempotent
    }
}
