//! The query service: one scheduler multiplexing many sessions over one
//! blocked coefficient store.
//!
//! Execution model: the scheduler thread (`scheduler_loop`) admits
//! queued tickets (interactive first, up to `max_batch` active), feeds
//! the overload controller, and runs one round as three stages — plain
//! functions over one `Rounds` state, each callable from a test with no
//! thread. A served query runs on that one thread from admission to its
//! terminal update:
//!
//! 1. **`plan`** — cull cancelled and deadline-expired sessions *before*
//!    any I/O, set each session's tier, and spend the round's
//!    `round_blocks` budget of device reads (`qos::select_round`). The
//!    output is the round's **block set**: blocks some session still
//!    wants, the cache-resident ones free.
//! 2. **`fetch`** — pull each block of the set once through the
//!    [`SharedBlockCache`] and fold it into the [`Evaluation`] of every
//!    live session still missing it, in place (a block the device could
//!    not deliver is that session's loss); the first consumer pays for
//!    the device read, and a block wanted only by since-cancelled
//!    sessions is not read — cancellation halts fetches.
//! 3. **`deliver`** — one refinement per query (progress, or its
//!    terminal), with a Cauchy–Schwarz bound over the blocks not yet
//!    delivered, lost ones included when storage degraded.
//!
//! Under overload a [`qos::DegradeController`] walks sessions through
//! graduated [`Tier`]s — coarser delivery cadence, then widened target
//! bounds, then best-so-far early termination (a `Shed` terminal) — with
//! hysteresis, so precision degrades long before the admission queue
//! hard-fills into typed rejections, and recovery is smooth.
//!
//! # Determinism
//!
//! A prepared query's entries are put into the store's block-major fold
//! order once, at submit ([`CoefficientStore::block_major`]; under a
//! sequential store they are already in it). Its plan blocks arrive in
//! whatever order the rounds select them, and each is folded into the
//! query's [`Evaluation`] as it is fetched. The estimate is one fold of
//! the delivered products `w·c` in that order, whatever order they were
//! fetched in, so the final estimate is **bit-identical** to
//! [`CoefficientStore::evaluate`] on the same store — and, on a
//! sequential store, to [`aims_propolyne::Propolyne::evaluate_prepared`]
//! — for every cache size, batch composition, round budget, and
//! scheduler policy — only I/O order and counts, and so the in-flight
//! estimates and bounds, change.
//!
//! # Telemetry
//!
//! Each stage records into the global `service.*` metrics through
//! call-site handles (`counter!`, `gauge!`). A handle used only on a rare
//! branch is bound at the top of its function, so every `service.*`
//! metric is in the snapshot, at zero, from the first query on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aims_dsp::filters::WaveletFilter;
use aims_propolyne::engine::{prepare, PreparedQuery};
use aims_propolyne::{BlockedCoefficients, RangeSumQuery, WaveletCube};
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::store::AllocKind;
use aims_storage::{BlockPlan, CoefficientStore, Evaluation, SharedBlockCache};
use aims_telemetry::{counter, gauge, AttrValue, TraceContext};

use crate::admission::{AdmissionController, Priority};
use crate::error::ServiceError;
use crate::profile::{QueryProfile, SlowQueryEntry, SlowQueryLog, SlowReason, TrajectoryPoint};
use crate::qos::{self, DegradeController, SchedulerPolicy, Tier, TierChange};
use crate::session::{QuerySpec, Refinement, SessionHandle, SessionShared, Update};
use crate::wire::ProgressKind;

/// Degraded (permanently failed) blocks at which a completed query lands
/// in the slow-query log.
const SLOW_DEGRADED_BLOCKS: usize = 1;
/// Slow-query log entries retained (newest kept).
const SLOW_LOG_CAPACITY: usize = 128;
/// How long the idle scheduler waits for new work per iteration.
const IDLE_WAIT: Duration = Duration::from_millis(20);
/// Per-session cap on undelivered progress updates. A consumer that
/// falls further behind has intermediate refinements dropped (counted as
/// `service.backpressure.dropped_progress`); terminal updates and
/// profiles are never dropped.
const PROGRESS_OUTBOX: usize = 256;

/// What an operator (or a test) sets on a [`QueryService`]. The overload
/// ladder is not here: its thresholds are the [`qos`] constants, the same
/// in every deployment.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bounded admission queue size; submits beyond it get
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum sessions refined concurrently per round. With
    /// [`ServiceConfig::round_blocks`] it is the shared scan's budget,
    /// which the experiments and the chaos drill set to different values.
    pub max_batch: usize,
    /// Shared block cache capacity, in blocks.
    pub cache_blocks: usize,
    /// Device blocks fetched per shared-scan round: the other half of the
    /// shared scan's budget beside [`ServiceConfig::max_batch`].
    pub round_blocks: usize,
    /// Retry budget for transient device faults: three retries by default,
    /// like every other reader of a block device.
    pub retry: RetryPolicy,
    /// Pause inserted after every round, zero by default. It simulates
    /// slow rounds for the experiments and the chaos drill, which no
    /// other input can do without the cache cancelling it out, and gives
    /// tests a deterministic mid-flight window.
    pub round_pause: Duration,
    /// Block-selection policy for the shared scan.
    pub policy: SchedulerPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 32,
            cache_blocks: 256,
            round_blocks: 32,
            retry: RetryPolicy::default(),
            round_pause: Duration::ZERO,
            policy: SchedulerPolicy::Utility,
        }
    }
}

fn priority_label(p: Priority) -> &'static str {
    match p {
        Priority::Interactive => "interactive",
        Priority::Batch => "batch",
    }
}

/// A session on its way into the queue: its spec, the tag and channel its
/// updates go out on, and the state it shares with its consumer.
type Entrant = (QuerySpec, u64, Sender<(u64, Update)>, Arc<SessionShared>);

/// A queued query, built at submit time so the scheduler never touches
/// the engine.
struct Ticket {
    /// Service-assigned session id (the [`SessionHandle::id`]).
    id: u64,
    /// The prepared query's entries in the store's block-major fold order.
    indices: Vec<usize>,
    weights: Vec<f64>,
    /// The session's block plan: distinct blocks ascending, with the
    /// per-block bound gains the utility scheduler ranks by, priced from
    /// the block-energy catalog at submit time. Their sum bounds the error
    /// more tightly than the aggregate `sqrt(Σw² · E_total)`: per-block
    /// Cauchy–Schwarz plus the triangle inequality.
    plan: Arc<BlockPlan>,
    /// Scheduling class (utility weight and tier softening).
    priority: Priority,
    /// The consumer's channel, and the tag this session's updates carry
    /// on it (a TCP connection's sessions share one channel).
    tx: Sender<(u64, Update)>,
    tag: u64,
    /// Cancel flag and outbox fill; shared with the consumer.
    shared: Arc<SessionShared>,
    deadline: Option<Instant>,
    /// Disabled for untraced queries — cloning and event calls are then
    /// free (a `None` word).
    trace: TraceContext,
    submitted_at: Instant,
}

impl Ticket {
    /// Sends an update; a dropped receiver flips the cancel flag so the
    /// next cull stops fetching on this query's behalf.
    fn emit(&self, update: Update) {
        if self.tx.send((self.tag, update)).is_err() {
            self.shared.cancel.store(true, Ordering::SeqCst);
        }
    }
}

/// A ticket plus its in-flight refinement state.
struct ActiveQuery {
    ticket: Ticket,
    /// The entry products delivered so far and the bound ledger — the
    /// whole bit-identity story. Built at admission, so only active
    /// sessions hold a product buffer.
    eval: Evaluation,
    /// The cost attribution so far: integers bumped in place (they cannot
    /// perturb the f64 accumulation) and a trajectory pushed only when
    /// traced, so the untraced hot path allocates nothing. `latency_ns`
    /// and `degraded_blocks` are filled in by [`ActiveQuery::profile`].
    cost: QueryProfile,
    /// The session's bound before any refinement — the utility
    /// normalizer (relative progress) and the widened-tier target base.
    initial_bound: f64,
    /// Effective degradation tier this round (service tier, softened one
    /// step for interactive sessions).
    tier: Tier,
}

impl ActiveQuery {
    fn new(ticket: Ticket) -> Self {
        let cost = QueryProfile {
            trace_id: ticket.trace.id().map_or(0, |t| t.0),
            queue_wait_ns: ticket.submitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            ..QueryProfile::default()
        };
        let eval = Evaluation::new(Arc::clone(&ticket.plan));
        let initial_bound = eval.ledger().bound();
        ActiveQuery { ticket, eval, cost, initial_bound, tier: Tier::Normal }
    }

    /// The finished profile (called at terminal delivery only).
    fn profile(&self) -> QueryProfile {
        QueryProfile {
            latency_ns: self.ticket.submitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            degraded_blocks: self.eval.ledger().lost_blocks().len() as u64,
            ..self.cost.clone()
        }
    }

    fn cancelled(&self) -> bool {
        self.ticket.shared.cancel.load(Ordering::SeqCst)
    }

    /// The plan position of block `b` if this session still misses it.
    fn wants(&self, b: usize) -> Option<usize> {
        let k = self.ticket.plan.blocks.binary_search(&b).ok()?;
        self.eval.ledger().pending(k).then_some(k)
    }

    fn complete(&self) -> bool {
        self.eval.ledger().done()
    }

    fn refinement(&self, round: u32) -> Refinement {
        Refinement {
            round,
            coefficients_used: self.eval.entries_used(),
            total_coefficients: self.ticket.indices.len(),
            estimate: self.eval.estimate(),
            error_bound: self.eval.ledger().bound(),
            tier: self.tier,
        }
    }
}

/// Live state of one session, as shown by METRICS_REPLY session rows
/// (the `aims-cli top` table).
#[derive(Clone, Copy, Debug)]
struct SessionRow {
    priority: Priority,
    traced: bool,
    /// False while still queued, true once admitted.
    active: bool,
    /// Rounds the session took part in.
    rounds: u32,
    /// Its last delivered round (before the first: nothing used, an
    /// infinite bound).
    last: Refinement,
    queue_wait_ns: u64,
    submitted_at: Instant,
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
    store: CoefficientStore<D>,
    cache: SharedBlockCache,
    admission: AdmissionController<Ticket>,
    config: ServiceConfig,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    slow_log: SlowQueryLog,
    sessions: Mutex<BTreeMap<u64, SessionRow>>,
    /// Current service degradation tier ([`Tier::to_wire`] encoding).
    qos_tier: AtomicU8,
    /// Written by the scheduler only.
    qos: Mutex<QosStats>,
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

impl<D: BlockDevice + Send + Sync + 'static> Inner<D> {
    /// Everything a service shares with its scheduler; spawns nothing.
    ///
    /// # Panics
    /// If the store's coefficient count is not the cube volume.
    fn new(
        dims: Vec<usize>,
        filter: WaveletFilter,
        store: CoefficientStore<D>,
        config: ServiceConfig,
    ) -> Self {
        assert!(config.round_blocks > 0, "round budget must be positive");
        assert!(config.max_batch > 0, "batch size must be positive");
        assert_eq!(store.len(), dims.iter().product(), "store / cube size mismatch");
        Inner {
            dims,
            filter,
            store,
            cache: SharedBlockCache::new(config.cache_blocks),
            admission: AdmissionController::new(config.queue_capacity),
            config,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY),
            sessions: Mutex::new(BTreeMap::new()),
            qos_tier: AtomicU8::new(0),
            qos: Mutex::default(),
        }
    }
}

impl<D: BlockDevice + Send + Sync + 'static> QueryService<D> {
    /// Builds a service whose coefficients live on a device built by
    /// `make(block_size, num_blocks)`, in a sequential store — the hook
    /// for fault-injected devices.
    pub fn on_device(
        cube: WaveletCube,
        block_size: usize,
        config: ServiceConfig,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        let store = CoefficientStore::load(cube.coeffs(), block_size, AllocKind::Sequential, make);
        QueryService::open(cube.dims().to_vec(), cube.filter().clone(), store, config)
    }

    /// Builds a service over the benchmark harness's shim store, loaded
    /// from `cube` by the caller. Only the cube's geometry is kept.
    pub fn with_blocked(
        cube: WaveletCube,
        blocked: BlockedCoefficients<D>,
        config: ServiceConfig,
    ) -> Self {
        QueryService::open(
            cube.dims().to_vec(),
            cube.filter().clone(),
            blocked.into_store(),
            config,
        )
    }

    /// Serves a populated store, under any allocation, holding a cube of
    /// shape `dims` transformed with `filter`. It may have been reopened
    /// from a durable device: the coefficients are never materialised in
    /// memory.
    ///
    /// # Panics
    /// If the store's coefficient count is not the cube volume.
    pub fn open(
        dims: Vec<usize>,
        filter: WaveletFilter,
        store: CoefficientStore<D>,
        config: ServiceConfig,
    ) -> Self {
        let inner = Arc::new(Inner::new(dims, filter, store, config));
        let worker = Arc::clone(&inner);
        let scheduler = std::thread::Builder::new()
            .name("aims-service-scheduler".into())
            .spawn(move || scheduler_loop(&worker))
            .expect("failed to spawn service scheduler");
        QueryService { inner, scheduler: Mutex::new(Some(scheduler)) }
    }

    /// Dimensions of the served cube.
    pub fn dims(&self) -> &[usize] {
        &self.inner.dims
    }

    /// The backing device (I/O accounting).
    pub fn device(&self) -> &D {
        self.inner.store.device()
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
        *self.inner.qos.lock().unwrap()
    }

    /// One `{"kind":"session",...}` JSON line per live (queued or
    /// active) session — appended to the METRICS_REPLY payload so `top`
    /// can render a per-session table.
    pub fn sessions_json_lines(&self) -> String {
        let sessions = self.inner.sessions.lock().unwrap();
        let mut out = String::new();
        for (id, row) in sessions.iter() {
            let bound = if row.last.error_bound.is_finite() {
                format!("{}", row.last.error_bound)
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
                row.last.coefficients_used,
                row.last.total_coefficients,
                row.queue_wait_ns,
                row.submitted_at.elapsed().as_millis(),
                row.last.tier.label(),
            ));
        }
        out
    }

    /// Validates and enqueues a query: [`QueryService::submit_all`] of one
    /// spec. Never blocks, never panics on overload.
    pub fn submit(&self, spec: QuerySpec) -> Result<SessionHandle, ServiceError> {
        Ok(self.submit_all(vec![spec])?.pop().expect("one handle per spec"))
    }

    /// Validates and prepares every spec, then enqueues the whole cohort
    /// under one admission lock, all or nothing. Typed failures: the cohort
    /// does not fit in the queue's free capacity, shutting down, a
    /// malformed range in any spec. A cohort of at most `max_batch` specs
    /// is admitted by one scheduler drain, so its sessions share every
    /// round from the first. Handles come back in spec order.
    pub fn submit_all(&self, specs: Vec<QuerySpec>) -> Result<Vec<SessionHandle>, ServiceError> {
        let (mut ends, mut cohort) = (Vec::new(), Vec::new());
        for spec in specs {
            let (tx, rx) = mpsc::channel();
            let shared = Arc::new(SessionShared::default());
            ends.push((rx, Arc::clone(&shared)));
            cohort.push((spec, 0, tx, shared));
        }
        let ids = self.submit_tagged(cohort)?.into_iter();
        Ok(ids.zip(ends).map(|(id, (rx, shared))| SessionHandle { id, rx, shared }).collect())
    }

    /// The one enqueue path, for consumers that multiplex sessions too:
    /// each session's updates arrive on its `tx` as `(tag, update)`, and
    /// `shared` is the cancel flag and outbox fill the consumer keeps. The
    /// cohort is admitted together or refused together. Returns the
    /// session ids.
    pub(crate) fn submit_tagged(&self, cohort: Vec<Entrant>) -> Result<Vec<u64>, ServiceError> {
        let (submitted, rejected, traced) = (
            counter!("service.submitted"),
            counter!("service.rejected"),
            counter!("service.traced"),
        );
        let n = cohort.len() as u64;
        if self.inner.shutdown.load(Ordering::SeqCst) {
            rejected.add(n);
            return Err(ServiceError::ShuttingDown);
        }
        if let Some(e) = cohort.iter().find_map(|(spec, ..)| self.validate(&spec.ranges).err()) {
            rejected.add(n);
            return Err(e);
        }
        let tickets: Vec<Ticket> = cohort
            .into_iter()
            .map(|(spec, tag, tx, shared)| {
                let PreparedQuery { indices, weights, .. } = prepare(
                    &self.inner.dims,
                    &self.inner.filter,
                    &RangeSumQuery::count(spec.ranges),
                );
                let (indices, weights) = self.inner.store.block_major(indices, weights);
                let plan = Arc::new(self.inner.store.plan(&indices, &weights));
                let trace = if spec.trace {
                    traced.inc();
                    TraceContext::start_global()
                } else {
                    TraceContext::disabled()
                };
                trace.event(
                    "service.submit",
                    &[
                        ("priority", AttrValue::Str(priority_label(spec.priority))),
                        ("plan_blocks", AttrValue::U64(plan.blocks.len() as u64)),
                        ("coefficients", AttrValue::U64(indices.len() as u64)),
                    ],
                );
                let submitted_at = Instant::now();
                Ticket {
                    id: self.inner.next_id.fetch_add(1, Ordering::SeqCst) + 1,
                    indices,
                    weights,
                    plan,
                    priority: spec.priority,
                    tx,
                    tag,
                    shared,
                    deadline: spec.deadline.map(|d| submitted_at + d),
                    trace,
                    submitted_at,
                }
            })
            .collect();
        let ids: Vec<u64> = tickets.iter().map(|t| t.id).collect();
        // Registered before admission so the scheduler's admit-time
        // update always finds the row.
        let mut sessions = self.inner.sessions.lock().unwrap();
        for t in &tickets {
            let row = SessionRow {
                priority: t.priority,
                traced: t.trace.is_enabled(),
                active: false,
                rounds: 0,
                last: Refinement { total_coefficients: t.indices.len(), ..Refinement::NONE },
                queue_wait_ns: 0,
                submitted_at: t.submitted_at,
            };
            sessions.insert(t.id, row);
        }
        drop(sessions);
        if let Err(e) =
            self.inner.admission.submit_all(tickets.into_iter().map(|t| (t.priority, t)))
        {
            let mut sessions = self.inner.sessions.lock().unwrap();
            for id in &ids {
                sessions.remove(id);
            }
            rejected.add(n);
            return Err(e);
        }
        submitted.add(n);
        Ok(ids)
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
    /// scheduler. Queued-but-unstarted sessions end `Cancelled`.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for ticket in self.inner.admission.close() {
            self.inner.sessions.lock().unwrap().remove(&ticket.id);
            counter!("service.cancelled").inc();
            ticket.emit(Update::Progress {
                kind: ProgressKind::Cancelled,
                refinement: Refinement::NONE,
            });
        }
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

/// Ends a session with the terminal `kind`: profile (traced), slow-query
/// log, session-registry removal, counters, then the terminal update. The
/// profile is materialized only when the query was traced or tripped a
/// slow threshold — untraced healthy queries allocate nothing here — and
/// a cancelled session gets neither.
fn finish<D: BlockDevice + Send + Sync + 'static>(
    inner: &Inner<D>,
    q: &ActiveQuery,
    kind: ProgressKind,
    refinement: Refinement,
) {
    let (completed, expired, shed, cancelled, slow_queries) = (
        counter!("service.completed"),
        counter!("service.deadline_expired"),
        counter!("service.qos.shed"),
        counter!("service.cancelled"),
        counter!("service.slow_queries"),
    );
    let (event, counter) = match kind {
        ProgressKind::Done => ("service.done", completed),
        ProgressKind::DeadlineExpired => ("service.expired", expired),
        ProgressKind::Shed => ("service.shed", shed),
        ProgressKind::Cancelled => ("service.cancelled", cancelled),
        ProgressKind::Progress => unreachable!("finish takes a terminal kind"),
    };
    let traced = q.ticket.trace.is_enabled();
    let slow = (q.eval.ledger().lost_blocks().len() >= SLOW_DEGRADED_BLOCKS)
        .then_some(SlowReason::Degraded);
    if kind == ProgressKind::Cancelled {
        q.ticket.trace.event(event, &[]);
    } else if traced || slow.is_some() {
        let profile = q.profile();
        if let Some(reason) = slow {
            slow_queries.inc();
            inner.slow_log.push(SlowQueryEntry {
                session_id: q.ticket.id,
                reason,
                profile: profile.clone(),
            });
        }
        if traced {
            q.ticket.trace.event(
                event,
                &[
                    ("latency_ns", AttrValue::U64(profile.latency_ns)),
                    ("blocks_read", AttrValue::U64(profile.blocks_read)),
                    ("blocks_shared", AttrValue::U64(profile.blocks_shared)),
                    ("degraded", AttrValue::U64(profile.degraded_blocks)),
                ],
            );
            q.ticket.emit(Update::Profile(Box::new(profile)));
        }
    }
    // Remove the registry row before the terminal update: a client woken
    // by Done must never observe its own session as still live.
    inner.sessions.lock().unwrap().remove(&q.ticket.id);
    // Counters move before the terminal emit: the emit wakes the waiting
    // client, and a client that has observed its outcome must never read
    // a statistic that hasn't counted that outcome yet.
    if kind == ProgressKind::Shed {
        inner.qos.lock().unwrap().shed += 1;
    }
    counter.inc();
    q.ticket.emit(Update::Progress { kind, refinement });
}

/// Everything the scheduler carries from round to round, and from stage
/// to stage within one.
#[derive(Default)]
struct Rounds {
    /// Admitted sessions, in admission order.
    active: Vec<ActiveQuery>,
    /// Rounds run so far; stamped on every refinement.
    round: u32,
    controller: DegradeController,
    /// plan → fetch: the blocks this round fetches, ascending.
    selected: Vec<usize>,
}

/// Tops the active set up from the queue (interactive first), waiting up
/// to `wait` for work when it has to, and feeds the overload controller —
/// every iteration, idle ones included, so the tier decays back to Normal
/// after a drain even when no sessions are left to refine.
fn admit<D: BlockDevice + Send + Sync + 'static>(inner: &Inner<D>, s: &mut Rounds, wait: Duration) {
    let resumed = counter!("service.qos.resumed");
    let room = inner.config.max_batch.saturating_sub(s.active.len());
    for ticket in inner.admission.drain(room, wait) {
        let q = ActiveQuery::new(ticket);
        let queue_wait_ns = q.cost.queue_wait_ns;
        if let Some(row) = inner.sessions.lock().unwrap().get_mut(&q.ticket.id) {
            row.active = true;
            row.queue_wait_ns = queue_wait_ns;
        }
        q.ticket.trace.event("service.admit", &[("queue_wait_ns", AttrValue::U64(queue_wait_ns))]);
        s.active.push(q);
    }
    let (qi, qb) = inner.admission.depth();
    gauge!("service.queue.interactive").set(qi as f64);
    gauge!("service.queue.batch").set(qb as f64);
    gauge!("service.active").set(s.active.len() as f64);
    let pressure = inner.admission.pressure();
    if let TierChange::Recovered(_) = s.controller.observe(pressure) {
        inner.qos.lock().unwrap().resumed += 1;
        resumed.inc();
    }
    let tier = s.controller.tier().to_wire();
    inner.qos_tier.store(tier, Ordering::SeqCst);
    gauge!("service.qos.tier").set(tier as f64);
}

/// The selection's view of the active set at `now`.
fn lenses(active: &[ActiveQuery], now: Instant) -> Vec<qos::SessionLens<'_>> {
    active
        .iter()
        .map(|q| {
            let boost = match q.ticket.priority {
                Priority::Interactive => qos::INTERACTIVE_BOOST,
                Priority::Batch => 1.0,
            };
            // Deadline slack sharpens urgency toward 2× as expiry
            // approaches.
            let urgency = q.ticket.deadline.map_or(1.0, |d| {
                let slack = d.saturating_duration_since(now).as_secs_f64();
                1.0 + 1.0 / (1.0 + 20.0 * slack)
            });
            qos::SessionLens {
                ledger: q.eval.ledger(),
                // Normalizing by the initial bound turns the gain into
                // *relative* progress: a block that halves a small
                // query's bound outranks one nibbling at a huge query's.
                weight: boost * urgency / q.initial_bound.max(1e-12),
                fresh: q.cost.rounds == 0,
            }
        })
        .collect()
}

/// Stage 1: culls cancelled and expired sessions before any I/O, sets the
/// survivors' tiers, and spends the round's read budget. Writes
/// `s.selected` and nothing else a later stage reads; a second plan
/// source — tiered segments beside cube blocks — would extend the lenses
/// here and leave the other stages alone.
///
/// The budget bounds *device reads*, not blocks: a block already resident
/// in the shared cache costs no I/O, so both policies select it for free.
/// `contains` is a pure probe (no hit/miss accounting, no LRU touch), so
/// planning around residence doesn't distort the cache statistics the
/// fetch stage records.
fn plan<D: BlockDevice + Send + Sync + 'static>(inner: &Inner<D>, s: &mut Rounds, now: Instant) {
    let utility_rounds = counter!("service.qos.utility_rounds");
    s.round += 1;
    counter!("service.rounds").inc();
    let round = s.round;
    s.active.retain(|q| {
        if q.cancelled() {
            finish(inner, q, ProgressKind::Cancelled, Refinement::NONE);
        } else if q.ticket.deadline.is_some_and(|d| now >= d) {
            finish(inner, q, ProgressKind::DeadlineExpired, q.refinement(round));
        } else {
            return true;
        }
        false
    });
    s.selected.clear();
    if s.active.is_empty() {
        return;
    }
    // Interactive sessions ride one tier softer than the service: they
    // are the latency-sensitive class the ladder exists to protect.
    let tier = s.controller.tier();
    for q in s.active.iter_mut() {
        q.tier = if q.ticket.priority == Priority::Interactive { tier.relaxed() } else { tier };
    }
    let policy = inner.config.policy;
    if policy == SchedulerPolicy::Utility {
        inner.qos.lock().unwrap().utility_rounds += 1;
        utility_rounds.inc();
    }
    s.selected =
        qos::select_round(policy, &lenses(&s.active, now), inner.config.round_blocks, |b| {
            inner.cache.contains(b)
        });
}

/// Stage 2: pulls every selected block once through the shared cache and
/// folds its outcome into each live session still missing it, in place,
/// charging the profile counters as it goes: a payload's products join
/// the session's [`Evaluation`], a block the device could not deliver
/// keeps its gain in the bound. Cancellation halts I/O, not just delivery:
/// a session cancelled since the plan stage is no consumer, and a block
/// with no live consumer is not read.
///
/// Each *physical* device read is recorded once, on the first traced
/// consumer's timeline, carrying its fan-out; exact per-consumer
/// attribution (including cache hits) lives in the branch-free profile
/// counters, and only degraded outcomes — which cost every consumer
/// accuracy — get a per-session event. Cache hits are counter-only:
/// recording a nanosecond-scale hit would cost more than the hit itself,
/// and the per-round event already anchors each query's progress on the
/// timeline. One clock reading covers the whole fan-out.
fn fetch<D: BlockDevice + Send + Sync + 'static>(inner: &Inner<D>, s: &mut Rounds) {
    let requested = counter!("service.blocks.requested");
    let active = &mut s.active;
    // One block's live consumers and their plan positions, in admission
    // order; reused from block to block.
    let mut consumers: Vec<(usize, usize)> = Vec::new();
    for &b in &s.selected {
        consumers.clear();
        let live = active.iter().enumerate().filter(|(_, q)| !q.cancelled());
        consumers.extend(live.filter_map(|(i, q)| q.wants(b).map(|k| (i, k))));
        if consumers.is_empty() {
            continue;
        }
        requested.inc();
        counter!("service.blocks.fanout").add(consumers.len() as u64 - 1);
        let reporter =
            consumers.iter().map(|&(i, _)| i).find(|&i| active[i].ticket.trace.is_enabled());
        let fetch_ts = reporter.map_or(0, |ri| active[ri].ticket.trace.now_ns());
        match inner.cache.get_or_read_outcome(inner.store.device(), b, &inner.config.retry) {
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
                for (slot, &(ci, k)) in consumers.iter().enumerate() {
                    let q = &mut active[ci];
                    if outcome.cache_hit {
                        q.cost.cache_hits += 1;
                        q.cost.blocks_shared += 1;
                    } else {
                        q.cost.cache_misses += 1;
                        // The first consumer pays the device read (and
                        // its retries); the rest share the payload.
                        if slot == 0 {
                            q.cost.blocks_read += 1;
                            q.cost.retries += outcome.retries as u64;
                        } else {
                            q.cost.blocks_shared += 1;
                        }
                    }
                    let (indices, weights) = (&q.ticket.indices, &q.ticket.weights);
                    inner.store.fold(&mut q.eval, indices, weights, k, Some(payload.as_slice()));
                }
            }
            Err(_) => {
                counter!("storage.degraded").inc();
                for &(ci, k) in consumers.iter() {
                    let q = &mut active[ci];
                    q.cost.cache_misses += 1;
                    q.ticket.trace.event_at(
                        fetch_ts,
                        "storage.fetch",
                        &[
                            ("block", AttrValue::U64(b as u64)),
                            ("outcome", AttrValue::Str("degraded")),
                        ],
                    );
                    inner.store.fold(&mut q.eval, &q.ticket.indices, &q.ticket.weights, k, None);
                }
            }
        }
    }
}

/// Stage 3: one refinement per query, and retirement of the finished.
/// Graduated degradation acts here, in escalating order: coarse tiers
/// thin the progress cadence, the widened tier completes early once the
/// bound is "good enough" relative to where it started, and the shed tier
/// retires the session now with its best-so-far answer (always after at
/// least this one round of refinement — a shed session gets an answer,
/// never an error).
fn deliver<D: BlockDevice + Send + Sync + 'static>(inner: &Inner<D>, s: &mut Rounds) {
    let dropped_progress = counter!("service.backpressure.dropped_progress");
    let round = s.round;
    s.active.retain_mut(|q| {
        q.cost.rounds += 1;
        let refinement = q.refinement(round);
        if q.ticket.trace.is_enabled() {
            q.cost.trajectory.push(TrajectoryPoint {
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
        let widened_target_met =
            q.tier >= Tier::Widened && refinement.error_bound <= qos::WIDEN_REL * q.initial_bound;
        let terminal = if q.complete() {
            Some(ProgressKind::Done)
        } else if q.tier == Tier::Shed {
            Some(ProgressKind::Shed)
        } else {
            widened_target_met.then_some(ProgressKind::Done)
        };
        if let Some(kind) = terminal {
            finish(inner, q, kind, refinement);
            return false;
        }
        // Coarse tiers and harder thin the delivery cadence; the outbox
        // cap drops updates for consumers that stopped draining.
        if q.tier < Tier::Coarse || q.cost.rounds % qos::COARSE_CADENCE == 0 {
            let pending = &q.ticket.shared.pending;
            if pending.load(Ordering::SeqCst) < PROGRESS_OUTBOX {
                pending.fetch_add(1, Ordering::SeqCst);
                q.ticket.emit(Update::Progress { kind: ProgressKind::Progress, refinement });
            } else {
                inner.qos.lock().unwrap().dropped_progress += 1;
                dropped_progress.inc();
            }
        }
        if let Some(row) = inner.sessions.lock().unwrap().get_mut(&q.ticket.id) {
            (row.rounds, row.last) = (q.cost.rounds, refinement);
        }
        true
    });
}

/// The scheduler thread: admit, then one round of the three stages, until
/// shutdown finds nothing left in flight.
fn scheduler_loop<D: BlockDevice + Send + Sync + 'static>(inner: &Inner<D>) {
    let mut s = Rounds::default();
    loop {
        let wait = if s.active.is_empty() { IDLE_WAIT } else { Duration::ZERO };
        admit(inner, &mut s, wait);
        if s.active.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            continue;
        }
        plan(inner, &mut s, Instant::now());
        if s.active.is_empty() {
            continue;
        }
        fetch(inner, &mut s);
        deliver(inner, &mut s);
        if !inner.config.round_pause.is_zero() {
            std::thread::sleep(inner.config.round_pause);
        }
    }
    gauge!("service.active").set(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_cube;
    use crate::session::Outcome;
    use aims_dsp::filters::FilterKind;
    use aims_propolyne::{DataCube, Propolyne};
    use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn service(config: ServiceConfig) -> QueryService {
        QueryService::new(demo_cube(32, 41), 16, config)
    }

    /// The in-memory reference for [`service`]'s cube.
    fn reference() -> Propolyne {
        Propolyne::new(demo_cube(32, 41))
    }

    /// The served cube is the transform of the row-major xorshift cells
    /// the benchmark oracle mirrors, bit for bit, whether taken through
    /// the borrowing `DataCube::transform` or the copying
    /// `dwt_standard_md`: the in-place build path must not drift from them.
    #[test]
    fn demo_cube_is_the_transform_of_the_xorshift_cells() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let filter = FilterKind::Db4.filter();
        for (side, seed) in [(64usize, 41u64), (256, 7), (256, 0x9E37_79B9_7F4A_7C15)] {
            let mut state = seed;
            let cells: Vec<f64> = (0..side * side)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 9) as f64
                })
                .collect();
            let mut cube = DataCube::zeros(&[side, side]);
            cube.values_mut().copy_from_slice(&cells);
            let got = demo_cube(side, seed);
            assert_eq!(got.dims(), [side, side]);
            let ctx = format!("side {side} seed {seed}");
            assert_eq!(bits(got.coeffs()), bits(cube.transform(&filter).coeffs()), "{ctx}");
            let copied = aims_dsp::dwt::dwt_standard_md(&cells, &[side, side], &filter);
            assert_eq!(bits(got.coeffs()), bits(&copied), "{ctx}");
        }
    }

    /// Unaligned ranges: a 26-block plan, where the full-cube sum needs 4.
    const LONG: [(usize, usize); 2] = [(1, 30), (2, 29)];

    fn exact(engine: &Propolyne, ranges: &[(usize, usize)]) -> f64 {
        engine.evaluate_prepared(&engine.prepare(&RangeSumQuery::count(ranges.to_vec())))
    }

    /// A service with no scheduler thread: the test is the driver, so
    /// every stage runs exactly when, and as often as, the test says.
    fn unscheduled<D: BlockDevice + Send + Sync + 'static>(
        cube: &WaveletCube,
        config: ServiceConfig,
        make: impl FnOnce(usize, usize) -> D,
    ) -> QueryService<D> {
        let store = CoefficientStore::load(cube.coeffs(), 16, AllocKind::Sequential, make);
        let inner = Inner::new(cube.dims().to_vec(), cube.filter().clone(), store, config);
        QueryService { inner: Arc::new(inner), scheduler: Mutex::new(None) }
    }

    /// The blocks `prepared` plans on a sequential service's store, whose
    /// fold order its ascending entries already are.
    fn plan_blocks<D: BlockDevice + Send + Sync>(
        svc: &QueryService<D>,
        prepared: &PreparedQuery,
    ) -> Vec<usize> {
        svc.inner.store.plan(&prepared.indices, &prepared.weights).blocks
    }

    /// [`unscheduled`] over [`service`]'s cube, in memory.
    fn staged(config: ServiceConfig) -> QueryService {
        unscheduled(&demo_cube(32, 41), config, MemDevice::new)
    }

    /// One scheduler iteration at `now`, with every session forced to
    /// `tier` (when given) between the plan stage and the rest.
    fn round<D: BlockDevice + Send + Sync + 'static>(
        svc: &QueryService<D>,
        s: &mut Rounds,
        now: Instant,
        tier: Option<Tier>,
    ) {
        admit(&svc.inner, s, Duration::ZERO);
        plan(&svc.inner, s, now);
        for q in s.active.iter_mut() {
            q.tier = tier.unwrap_or(q.tier);
        }
        fetch(&svc.inner, s);
        deliver(&svc.inner, s);
    }

    /// Rounds until nothing is queued or active.
    fn run_dry<D: BlockDevice + Send + Sync + 'static>(
        svc: &QueryService<D>,
        s: &mut Rounds,
        tier: Option<Tier>,
    ) {
        while !s.active.is_empty() || svc.inner.admission.depth() != (0, 0) {
            round(svc, s, Instant::now(), tier);
        }
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
                assert!(w[1].error_bound <= w[0].error_bound);
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
            solo_blocks += plan_blocks(&svc, &p).len();
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
        // One block per round, driven by hand: the cancel lands between
        // two rounds, deterministically.
        let svc =
            staged(ServiceConfig { round_blocks: 1, max_batch: 1, ..ServiceConfig::default() });
        let mut s = Rounds::default();
        let full = vec![(0, 31), (0, 31)];
        let h = svc.submit(QuerySpec::interactive(full.clone())).unwrap();
        round(&svc, &mut s, Instant::now(), None);
        assert!(matches!(h.next(), Some(u) if !u.is_terminal()), "expected a first refinement");
        h.cancel();
        let reads = svc.device().stats().reads;
        round(&svc, &mut s, Instant::now(), None);
        assert!(s.active.is_empty(), "the cull retires a cancelled session");
        assert_eq!(svc.device().stats().reads, reads, "cancel must halt fetches");
        assert!(matches!(h.wait(), Outcome::Cancelled));
        // The plan is ~dozens of blocks at one per round; cancellation
        // stopped the scan far from the end.
        let prepared = reference().prepare(&RangeSumQuery::count(full));
        assert!((reads as usize) < plan_blocks(&svc, &prepared).len());
        assert_eq!(svc.sessions_json_lines(), "");
    }

    #[test]
    fn expired_deadlines_deliver_best_effort() {
        let svc =
            staged(ServiceConfig { round_blocks: 1, max_batch: 2, ..ServiceConfig::default() });
        let mut s = Rounds::default();
        let full = vec![(0, 31), (0, 31)];
        let spec = QuerySpec::interactive(full.clone()).with_deadline(Duration::from_secs(60));
        let h = svc.submit(spec).unwrap();
        let start = Instant::now();
        round(&svc, &mut s, start, None);
        // The next round begins after the deadline: the cull answers with
        // what one block bought, before any further I/O.
        let reads = svc.device().stats().reads;
        round(&svc, &mut s, start + Duration::from_secs(61), None);
        assert_eq!(svc.device().stats().reads, reads);
        match h.wait() {
            Outcome::DeadlineExpired(r) => {
                assert!(0 < r.coefficients_used && r.coefficients_used < r.total_coefficients);
                assert!(r.error_bound > 0.0 && r.error_bound.is_finite());
                assert!((r.estimate - exact(&reference(), &full)).abs() <= r.error_bound);
            }
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
        let plan_blocks = plan_blocks(&svc, &prepared);
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
    fn tracing_never_perturbs_results() {
        let ranges = vec![(1, 30), (3, 28)];
        let mut baseline: Option<u64> = None;
        for traced in [false, true] {
            let svc = QueryService::new(demo_cube(32, 55), 16, ServiceConfig::default());
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
                Some(b) => assert_eq!(bits, b, "traced={traced}"),
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
        let dead =
            plan_blocks(&svc, &prepared).iter().filter(|&&b| svc.device().is_dead(b)).count();
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
            let svc =
                service(ServiceConfig { round_blocks: 4, policy, ..ServiceConfig::default() });
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
    fn overload_walks_the_ladder_sheds_best_so_far_then_recovers() {
        // A flood driven round by round against the shipped ladder: one
        // admission slot a round keeps a 20-ticket queue at least 95% full
        // when `admit` looks, at or above every enter threshold.
        let svc = staged(ServiceConfig {
            queue_capacity: 20,
            max_batch: 1,
            round_blocks: 2,
            ..ServiceConfig::default()
        });
        let mut s = Rounds::default();
        let flood = || svc.submit(QuerySpec::batch(LONG.to_vec()));
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        let mut tiers = Vec::new();
        for _ in 0..12 {
            // Top the queue up past its capacity; the excess is refused at
            // the door with the typed error.
            loop {
                match flood() {
                    Ok(h) => accepted.push(h),
                    Err(ServiceError::QueueFull { capacity: 20 }) => break,
                    Err(e) => panic!("unexpected rejection: {e:?}"),
                }
            }
            rejected += 1;
            round(&svc, &mut s, Instant::now(), None);
            tiers.push(svc.qos_tier());
        }
        // One step per ESCALATE_ROUNDS observations, saturating at Shed.
        let climb: Vec<Tier> =
            (1..=12u32).map(|k| Tier::ALL[(k / qos::ESCALATE_ROUNDS).min(3) as usize]).collect();
        assert_eq!(tiers, climb, "sustained pressure climbs the ladder and holds the top");
        assert!(rejected >= 12);
        // Drain: with the door shut behind the flood the queue empties,
        // and the controller recovers one tier at a time.
        let mut recovery = vec![svc.qos_tier()];
        while !s.active.is_empty()
            || svc.inner.admission.depth() != (0, 0)
            || svc.qos_tier() != Tier::Normal
        {
            round(&svc, &mut s, Instant::now(), None);
            recovery.push(svc.qos_tier());
            assert!(recovery.len() <= 1000, "tier stuck at {:?}", svc.qos_tier());
        }
        let mut shed = 0u64;
        for h in accepted {
            match h.wait() {
                Outcome::Done(r) => assert!(r.error_bound.is_finite()),
                Outcome::Shed(r) => {
                    // Best-so-far, not an error: a real partial answer
                    // with a finite guaranteed bound, after one round.
                    assert!(r.estimate.is_finite());
                    assert!(r.error_bound.is_finite());
                    assert!(0 < r.coefficients_used && r.coefficients_used < r.total_coefficients);
                    shed += 1;
                }
                other => panic!("admitted query lost: {other:?}"),
            }
        }
        assert!(shed > 0, "a sustained flood at the Shed tier must shed something");
        assert_eq!(svc.qos_stats().shed, shed);
        recovery.dedup();
        assert_eq!(
            recovery,
            [Tier::Shed, Tier::Widened, Tier::Coarse, Tier::Normal],
            "smooth, not a cliff"
        );
        assert_eq!(svc.qos_stats().resumed, 3);
        // Steady state restored: a fresh query runs undegraded.
        let h = svc.submit(QuerySpec::interactive(vec![(2, 29), (3, 28)])).unwrap();
        run_dry(&svc, &mut s, None);
        match h.wait() {
            Outcome::Done(r) => {
                assert_eq!(
                    r.estimate.to_bits(),
                    exact(&reference(), &[(2, 29), (3, 28)]).to_bits()
                );
                assert_eq!(r.error_bound, 0.0);
                assert_eq!(r.tier, Tier::Normal);
            }
            other => panic!("post-drain query must run to Done, got {other:?}"),
        }
    }

    /// A cohort of at most `max_batch` specs is admitted by one drain:
    /// every session takes part in the first round.
    #[test]
    fn a_submitted_cohort_shares_the_first_round() {
        let svc =
            service(ServiceConfig { round_blocks: 1, max_batch: 8, ..ServiceConfig::default() });
        let specs: Vec<QuerySpec> =
            (0..8).map(|k| QuerySpec::interactive(vec![(k, 30), (1, 30 - k)])).collect();
        let engine = reference();
        for (spec, h) in specs.iter().zip(svc.submit_all(specs.clone()).unwrap()) {
            let (trace, outcome) = h.collect();
            assert_eq!(trace.first().map(|r| r.round), Some(1), "{:?}", spec.ranges);
            match outcome {
                Outcome::Done(r) => {
                    assert_eq!(r.estimate.to_bits(), exact(&engine, &spec.ranges).to_bits())
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
    }

    /// A cohort larger than the free capacity is refused whole: nothing is
    /// queued and no session row is left behind.
    #[test]
    fn a_cohort_that_does_not_fit_is_refused_whole() {
        let svc = staged(ServiceConfig { queue_capacity: 4, ..ServiceConfig::default() });
        let cohort = |n| vec![QuerySpec::batch(LONG.to_vec()); n];
        assert!(matches!(svc.submit_all(cohort(5)), Err(ServiceError::QueueFull { capacity: 4 })));
        assert_eq!(svc.queue_depth(), (0, 0));
        assert_eq!(svc.sessions_json_lines(), "");
        let queued = svc.submit(QuerySpec::interactive(LONG.to_vec())).unwrap();
        assert!(matches!(svc.submit_all(cohort(4)), Err(ServiceError::QueueFull { capacity: 4 })));
        assert_eq!(svc.queue_depth(), (1, 0));
        assert_eq!(svc.sessions_json_lines().lines().count(), 1);
        // A malformed spec refuses its whole cohort too.
        let mut bad = cohort(2);
        bad[1].ranges = vec![(0, 32), (0, 31)];
        assert!(matches!(svc.submit_all(bad), Err(ServiceError::InvalidQuery(_))));
        assert_eq!(svc.queue_depth(), (1, 0));
        let admitted = svc.submit_all(cohort(3)).unwrap();
        assert_eq!(svc.queue_depth(), (1, 3));
        let mut s = Rounds::default();
        run_dry(&svc, &mut s, None);
        for h in admitted.into_iter().chain([queued]) {
            assert!(matches!(h.wait(), Outcome::Done(r) if r.error_bound == 0.0));
        }
    }

    /// The service retries a transient read error like every other reader
    /// of a block device: streaks within the default budget cost nothing.
    #[test]
    fn the_default_retry_budget_recovers_short_read_error_streaks() {
        let cube = demo_cube(32, 41);
        let plan = FaultPlan { read_error_rate: 0.3, ..FaultPlan::none(3) };
        let svc = QueryService::on_device(cube, 16, ServiceConfig::default(), |bs, nb| {
            FaultyDevice::with_plan(bs, nb, plan)
        });
        let streaks: Vec<usize> = (0..svc.inner.store.num_blocks())
            .map(|b| svc.device().planned_read_failures(b))
            .collect();
        let worst = streaks.iter().copied().max().unwrap();
        assert!((1..=RetryPolicy::default().retries).contains(&worst), "seed must fit: {worst}");
        for ranges in [LONG.to_vec(), vec![(0, 31), (0, 31)], vec![(3, 25), (7, 19)]] {
            match svc.submit(QuerySpec::interactive(ranges.clone())).unwrap().wait() {
                Outcome::Done(r) => {
                    assert_eq!(r.estimate.to_bits(), exact(&reference(), &ranges).to_bits());
                    assert_eq!(r.error_bound, 0.0, "undegraded");
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
    }

    /// Plan stage, on seeded mixes of overlapping sessions with a scattered
    /// resident set, round after round under both policies: the fetch
    /// reads at most the budget from the device, every selected block is
    /// still wanted by a live session, every resident wanted block is
    /// selected at no cost, and the same inputs select the same set.
    #[test]
    fn round_selection_stays_in_budget_wants_every_block_and_takes_residents_free() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut free, mut shared) = (0usize, 0usize);
        for case in 0..8 {
            let policy = [SchedulerPolicy::Fifo, SchedulerPolicy::Utility][case % 2];
            let budget = 1 + next(4);
            let svc =
                staged(ServiceConfig { round_blocks: budget, policy, ..ServiceConfig::default() });
            for b in (0..svc.inner.store.num_blocks()).filter(|_| next(5) == 0) {
                svc.cache().get_or_read(svc.device(), b).unwrap();
            }
            let handles: Vec<_> = (0..1 + next(6))
                .map(|_| {
                    let (lo, hi) = (next(8), 24 + next(8));
                    let ranges = vec![(lo, hi), (next(4), 28 + next(4))];
                    let spec = if next(3) == 0 {
                        QuerySpec::batch(ranges)
                    } else {
                        QuerySpec::interactive(ranges)
                    };
                    svc.submit(spec).unwrap()
                })
                .collect();
            let mut s = Rounds::default();
            admit(&svc.inner, &mut s, Duration::ZERO);
            while !s.active.is_empty() {
                let ctx = format!("{policy:?} case {case} round {}", s.round + 1);
                let now = Instant::now();
                let wanted: BTreeSet<usize> = s
                    .active
                    .iter()
                    .flat_map(|q| {
                        q.ticket.plan.blocks.iter().copied().filter(|&b| q.wants(b).is_some())
                    })
                    .collect();
                let again = {
                    let lenses = lenses(&s.active, now);
                    qos::select_round(policy, &lenses, budget, |b| svc.cache().contains(b))
                };
                plan(&svc.inner, &mut s, now);
                assert_eq!(s.selected, again, "{ctx}: same inputs, another set");
                assert!(s.selected.iter().all(|b| wanted.contains(b)), "{ctx}: an unwanted block");
                let resident: Vec<usize> =
                    wanted.iter().copied().filter(|&b| svc.cache().contains(b)).collect();
                assert!(resident.iter().all(|b| s.selected.contains(b)), "{ctx}: a resident left");
                let consumed = |s: &Rounds| -> usize {
                    s.active.iter().map(|q| q.eval.ledger().consumed()).sum()
                };
                let (reads, before) = (svc.device().stats().reads, consumed(&s));
                fetch(&svc.inner, &mut s);
                let reads = (svc.device().stats().reads - reads) as usize;
                assert!(reads <= budget, "{ctx}: {reads} device reads on a budget of {budget}");
                free += resident.len();
                shared += consumed(&s) - before - s.selected.len();
                deliver(&svc.inner, &mut s);
            }
            for h in handles {
                assert!(matches!(h.wait(), Outcome::Done(r) if r.error_bound == 0.0));
            }
        }
        assert!(free > 0 && shared > 0, "the mixes must exercise residence and sharing");
    }

    /// One progressive engine, served: a lone session fetching one block a
    /// round walks its plan gain-first, and its per-round estimate and
    /// bound are `CoefficientStore::progressive`'s on the same store, bit
    /// for bit — on a clean device and on one with dead blocks.
    #[test]
    fn a_lone_session_refines_exactly_like_the_progressive_evaluator() {
        let cube = demo_cube(32, 41);
        let config =
            ServiceConfig { round_blocks: 1, retry: RetryPolicy::none(), ..Default::default() };
        let dead = FaultPlan::uniform(19, FaultKind::DeadBlock, 0.2);
        let mut degraded = 0;
        for faulty in [false, true] {
            for ranges in [LONG.to_vec(), vec![(0, 31), (0, 31)], vec![(3, 25), (7, 19)]] {
                // A fresh service each time: the session starts cold.
                let plan = if faulty { dead.clone() } else { FaultPlan::none(19) };
                let svc = unscheduled(&cube, config.clone(), |bs, nb| {
                    FaultyDevice::with_plan(bs, nb, plan)
                });
                let prepared = reference().prepare(&RangeSumQuery::count(ranges.clone()));
                let pool = SharedBlockCache::new(64);
                let run = svc.inner.store.progressive(
                    &prepared.indices,
                    &prepared.weights,
                    &pool,
                    &RetryPolicy::none(),
                );
                let h = svc.submit(QuerySpec::interactive(ranges.clone())).unwrap();
                run_dry(&svc, &mut Rounds::default(), None);
                // The trace ends on the Done refinement.
                let (trace, outcome) = h.collect();
                let Outcome::Done(last) = outcome else { panic!("expected Done, got {outcome:?}") };
                let bits = |e: f64, b: f64| (e.to_bits(), b.to_bits());
                let served: Vec<_> =
                    trace.iter().map(|r| bits(r.estimate, r.error_bound)).collect();
                let library: Vec<_> = run.iter().map(|p| bits(p.estimate, p.bound)).collect();
                assert_eq!(served, library, "faulty={faulty} {ranges:?}");
                assert!(faulty || last.error_bound == 0.0, "{ranges:?}");
                degraded += usize::from(last.error_bound > 0.0);
            }
        }
        assert!(degraded > 0, "the dead blocks must reach some plan");
    }

    /// The seeded device `traced_profile_matches_device_ground_truth`
    /// serves from: transient read errors within the retry budget, and
    /// dead blocks.
    fn faulty() -> (WaveletCube, QueryService<FaultyDevice>) {
        let cube = demo_cube(32, 99);
        let fault_plan = FaultPlan {
            seed: 4242,
            read_error_rate: 0.25,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
            dead_fraction: 0.12,
            latency: Duration::ZERO,
            latency_rate: 0.0,
        };
        let config = ServiceConfig {
            retry: RetryPolicy::with_retries(8),
            round_blocks: 4,
            ..ServiceConfig::default()
        };
        let svc = unscheduled(&cube, config, |bs, nb| FaultyDevice::with_plan(bs, nb, fault_plan));
        (cube, svc)
    }

    /// Fetch stage: two sessions with one plan — each block is read once,
    /// the first consumer pays the read and its retries, the second
    /// shares, and a block the device cannot deliver is lost for both.
    #[test]
    fn fetch_reads_each_block_once_and_attributes_it_exactly() {
        let (cube, svc) = faulty();
        let engine = Propolyne::new(cube);
        let ranges = vec![(2, 29), (0, 31)];
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let plan_blocks = plan_blocks(&svc, &prepared);
        let (dead, live): (Vec<usize>, Vec<usize>) =
            plan_blocks.iter().partition(|&&b| svc.device().is_dead(b));
        let want_retries: u64 =
            live.iter().map(|&b| svc.device().planned_read_failures(b) as u64).sum();
        assert!(!dead.is_empty() && want_retries > 0, "the fault plan must bite");
        let spec = QuerySpec::interactive(ranges).traced();
        let (payer, sharer) = (svc.submit(spec.clone()).unwrap(), svc.submit(spec).unwrap());
        let mut s = Rounds::default();
        run_dry(&svc, &mut s, None);
        assert_eq!(svc.device().stats().reads, live.len() as u64, "each live block read once");
        let (_, payer_outcome, p) = payer.collect_profiled();
        let (_, sharer_outcome, q) = sharer.collect_profiled();
        let (p, q) = (p.unwrap(), q.unwrap());
        let n = plan_blocks.len() as u64;
        assert_eq!(
            (p.blocks_read, p.blocks_shared, p.retries),
            (live.len() as u64, 0, want_retries)
        );
        assert_eq!((q.blocks_read, q.blocks_shared, q.retries), (0, live.len() as u64, 0));
        for profile in [&p, &q] {
            assert_eq!(profile.degraded_blocks, dead.len() as u64);
            assert_eq!((profile.cache_hits, profile.cache_misses), (0, n));
        }
        // Lost for every consumer: both end on the same widened bound.
        match (payer_outcome, sharer_outcome) {
            (Outcome::Done(a), Outcome::Done(b)) => {
                assert!(a.error_bound > 0.0);
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                assert_eq!(a.error_bound.to_bits(), b.error_bound.to_bits());
            }
            other => panic!("expected two Done, got {other:?}"),
        }
    }

    /// Fetch stage, a session cancelled after the plan stage selected its
    /// blocks: a block no live session wants is not read; one a live
    /// session still misses is read and handed to it, and a dead one is
    /// that session's loss at once.
    #[test]
    fn fetch_skips_cancelled_sessions_blocks_and_hands_the_rest_to_the_live() {
        let (_, svc) = faulty();
        let gone = svc.submit(QuerySpec::interactive(vec![(3, 28), (1, 14)])).unwrap();
        let live = svc.submit(QuerySpec::interactive(vec![(5, 28), (3, 17)])).unwrap();
        let mut s = Rounds::default();
        admit(&svc.inner, &mut s, Duration::ZERO);
        plan(&svc.inner, &mut s, Instant::now());
        // The whole of the first session's plan selected — then it goes away.
        s.selected = s.active[0].ticket.plan.blocks.clone();
        gone.cancel();
        let theirs = s.selected.clone();
        let shared: Vec<usize> =
            theirs.iter().copied().filter(|&b| s.active[1].wants(b).is_some()).collect();
        let dead_shared = shared.iter().filter(|&&b| svc.device().is_dead(b)).count();
        assert!(shared.len() < theirs.len() && dead_shared > 0 && dead_shared < shared.len());
        fetch(&svc.inner, &mut s);
        assert_eq!(svc.device().stats().reads as usize, shared.len() - dead_shared);
        for &b in &theirs {
            let resident = shared.contains(&b) && !svc.device().is_dead(b);
            assert_eq!(svc.cache().contains(b), resident, "block {b}");
        }
        let q = &s.active[1];
        let consumed: Vec<usize> =
            q.ticket.plan.blocks.iter().copied().filter(|&b| q.wants(b).is_none()).collect();
        assert_eq!(consumed, shared);
        let lost = q.eval.ledger().lost_blocks().len();
        assert_eq!((lost, q.cost.cache_misses as usize), (dead_shared, shared.len()));
        deliver(&svc.inner, &mut s);
        run_dry(&svc, &mut s, None);
        assert!(matches!(gone.wait(), Outcome::Cancelled));
        match live.wait() {
            Outcome::Done(r) => assert!(r.error_bound > 0.0, "its dead blocks are its own loss"),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Fetch stage: however the rounds cut the plans into block sets,
        /// in whatever order, every session ends on the serial
        /// evaluation's estimate and bound bits and lost blocks — on a
        /// device with dead blocks.
        #[test]
        fn any_partition_of_plan_blocks_into_rounds_folds_to_the_serial_bits(
            specs in prop::collection::vec(((0usize..32, 0usize..32), (0usize..32, 0usize..32)), 1..=6),
            picks in prop::collection::vec(0usize..=3, 1..=24),
            seed in 1u64..1_000,
        ) {
            let cube = demo_cube(32, seed);
            let specs: Vec<Vec<(usize, usize)>> = specs
                .into_iter()
                .map(|((a, b), (c, d))| vec![(a.min(b), a.max(b)), (c.min(d), c.max(d))])
                .collect();
            let plan = FaultPlan::uniform(seed, FaultKind::DeadBlock, 0.1);
            let svc = unscheduled(&cube, ServiceConfig::default(), |bs, nb| {
                FaultyDevice::with_plan(bs, nb, plan)
            });
            let _handles: Vec<_> = specs
                .iter()
                .map(|r| svc.submit(QuerySpec::interactive(r.clone())).unwrap())
                .collect();
            let mut s = Rounds::default();
            admit(&svc.inner, &mut s, Duration::ZERO);
            let mut round = 0usize;
            while s.active.iter().any(|q| !q.complete()) {
                round += 1;
                // A round takes each wanted block with probability about
                // 1/4, by the picks; every fourth round takes the highest
                // one too, so the partition ends.
                let mut wanted: Vec<usize> = s
                    .active
                    .iter()
                    .flat_map(|q| q.ticket.plan.blocks.iter().copied().filter(|&b| q.wants(b).is_some()))
                    .collect();
                wanted.sort_unstable();
                wanted.dedup();
                let last = wanted.last().copied().filter(|_| round.is_multiple_of(4));
                s.selected = wanted
                    .iter()
                    .copied()
                    .filter(|&b| picks[(round * 7 + b) % picks.len()] == 0 || Some(b) == last)
                    .collect();
                fetch(&svc.inner, &mut s);
            }
            for (q, ranges) in s.active.iter().zip(&specs) {
                let ctx = format!("{ranges:?}");
                let (indices, weights) = (&q.ticket.indices, &q.ticket.weights);
                let pool = SharedBlockCache::new(64);
                let serial = svc.inner.store.evaluate(indices, weights, &pool, &RetryPolicy::none());
                let served = q.refinement(0);
                prop_assert_eq!(served.estimate.to_bits(), serial.estimate.to_bits(), "{}", ctx);
                prop_assert_eq!(served.error_bound.to_bits(), serial.error_bound.to_bits(), "{}", ctx);
                let mut lost = q.eval.ledger().lost_blocks().to_vec();
                lost.sort_unstable();
                prop_assert_eq!(&lost, &serial.lost_blocks, "{}", ctx);
                prop_assert_eq!(served.coefficients_used, indices.len());
            }
        }
    }

    #[test]
    fn deliver_thins_progress_to_the_coarse_cadence() {
        let svc = staged(ServiceConfig { round_blocks: 1, ..ServiceConfig::default() });
        let mut s = Rounds::default();
        let h = svc.submit(QuerySpec::batch(LONG.to_vec())).unwrap();
        run_dry(&svc, &mut s, Some(Tier::Coarse));
        let (trace, outcome) = h.collect();
        let Outcome::Done(last) = outcome else { panic!("expected Done, got {outcome:?}") };
        assert_eq!(last.round, s.round, "the terminal is delivered whatever the cadence");
        let progress: Vec<u32> = trace[..trace.len() - 1].iter().map(|r| r.round).collect();
        let due: Vec<u32> = (1..last.round).filter(|r| r % qos::COARSE_CADENCE == 0).collect();
        assert!(due.len() > 2);
        assert_eq!(progress, due);
        assert!(trace.iter().all(|r| r.tier == Tier::Coarse));
        assert_eq!(svc.qos_stats().dropped_progress, 0, "thinned, not dropped");
    }

    #[test]
    fn deliver_completes_a_widened_session_at_its_target() {
        let svc = staged(ServiceConfig { round_blocks: 1, ..ServiceConfig::default() });
        let mut s = Rounds::default();
        let h = svc.submit(QuerySpec::batch(LONG.to_vec()).traced()).unwrap();
        admit(&svc.inner, &mut s, Duration::ZERO);
        let target = qos::WIDEN_REL * s.active[0].initial_bound;
        run_dry(&svc, &mut s, Some(Tier::Widened));
        let (_, outcome, profile) = h.collect_profiled();
        let Outcome::Done(last) = outcome else { panic!("expected Done, got {outcome:?}") };
        assert!(last.coefficients_used < last.total_coefficients, "done early");
        assert!(0.0 < last.error_bound && last.error_bound <= target);
        let (at_target, before) =
            profile.unwrap().trajectory.split_last().map(|(l, b)| (*l, b.to_vec())).unwrap();
        assert_eq!(at_target.error_bound.to_bits(), last.error_bound.to_bits());
        assert!(before.iter().all(|p| p.error_bound > target), "and not a round late");
        assert!((last.estimate - exact(&reference(), &LONG)).abs() <= last.error_bound);
    }

    #[test]
    fn deliver_sheds_after_one_round_with_the_best_so_far() {
        let svc = staged(ServiceConfig { round_blocks: 2, ..ServiceConfig::default() });
        let mut s = Rounds::default();
        let h = svc.submit(QuerySpec::batch(LONG.to_vec())).unwrap();
        round(&svc, &mut s, Instant::now(), Some(Tier::Shed));
        assert!(s.active.is_empty());
        let (trace, outcome) = h.collect();
        assert!(trace.is_empty(), "the Shed terminal is the session's only update");
        let Outcome::Shed(r) = outcome else { panic!("expected Shed, got {outcome:?}") };
        assert_eq!((r.round, r.tier), (1, Tier::Shed));
        assert!(0 < r.coefficients_used && r.coefficients_used < r.total_coefficients);
        assert!((r.estimate - exact(&reference(), &LONG)).abs() <= r.error_bound);
        assert!(r.error_bound.is_finite());
        assert_eq!(svc.qos_stats().shed, 1);
        assert_eq!(svc.sessions_json_lines(), "");
    }

    #[test]
    fn deliver_drops_progress_at_a_full_outbox_but_never_the_answer() {
        let svc = staged(ServiceConfig { round_blocks: 1, ..ServiceConfig::default() });
        let mut s = Rounds::default();
        let h = svc.submit(QuerySpec::interactive(LONG.to_vec()).traced()).unwrap();
        // A consumer that stopped draining with its outbox full.
        h.shared.pending.store(PROGRESS_OUTBOX, Ordering::SeqCst);
        let registry = aims_telemetry::global().counter("service.backpressure.dropped_progress");
        let before = registry.get();
        run_dry(&svc, &mut s, None);
        // Every round but the last wanted to send a refinement; each was
        // dropped, and counted once in each place.
        let dropped = u64::from(s.round) - 1;
        assert!(dropped > 8);
        assert_eq!(svc.qos_stats().dropped_progress, dropped);
        assert_eq!(registry.get() - before, dropped);
        assert_eq!(h.shared.pending.load(Ordering::SeqCst), PROGRESS_OUTBOX);
        // What did get through: the profile, then the terminal.
        match (h.next(), h.next(), h.next()) {
            (Some(Update::Profile(p)), Some(Update::Progress { kind, refinement: r }), None) => {
                assert_eq!(kind, ProgressKind::Done);
                assert_eq!(p.rounds, s.round);
                assert_eq!(r.estimate.to_bits(), exact(&reference(), &LONG).to_bits());
                assert_eq!(r.error_bound, 0.0);
            }
            other => panic!("expected profile, Done, end of stream; got {other:?}"),
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
        assert!(matches!(
            svc.submit_all(vec![QuerySpec::batch(vec![(0, 31), (0, 31)]); 2]),
            Err(ServiceError::ShuttingDown)
        ));
        svc.shutdown(); // idempotent
    }
}
