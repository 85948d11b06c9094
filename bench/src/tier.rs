//! Driving the tiered ingest engine from outside: a durable
//! [`TieredStore`] with its background [`Compactor`], a producer that is
//! either paced (open loop) or flat out (closed loop), a planner thread
//! checking every [`TieredAnswer`] against prefix sums, and the
//! drop → reopen → verify cycle. In process, because `aims-serve` cannot
//! serve a `TieredStore` yet.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_service::{TieredAnswer, TieredPlanner, TieredPlannerConfig};
use aims_storage::{DurabilityMode, FileDevice, FileDeviceOptions};
use aims_telemetry::Snapshot;
use aims_tier::{Compactor, CompactorConfig, TierConfig, TieredStore};

use crate::oracle::{close, tier_query, Rng, Stream, CHUNK};
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{closed_loop_rates, due_ns, lateness_ns, median, tail};

/// Samples per hot segment (the E32 geometry).
pub const SEGMENT: usize = 4096;

/// The stated flush policy of every tier store in this benchmark: WAL
/// fsync every 64 appends, as in E32.
pub fn file_options() -> FileDeviceOptions {
    FileDeviceOptions { mode: DurabilityMode::Periodic(64), ..Default::default() }
}

/// Geometry for a store that must hold `capacity` samples.
pub fn tier_config(capacity: usize) -> TierConfig {
    TierConfig {
        segment_len: SEGMENT,
        block_size: CHUNK,
        max_segments: capacity.div_ceil(SEGMENT) + 2,
        filter: FilterKind::Haar,
    }
}

/// What distinguishes one workload's ingest side from another's. Every
/// producer is an open loop: sensors do not slow down when the store does.
pub struct TierShape {
    /// Feed a seeded faulty glove session through supervised ingest
    /// first, so the acquisition wiring is on the path.
    pub acquisition_head: bool,
    /// Samples loaded (and compacted) before anything is timed.
    pub preload: usize,
    /// The producer's pace, samples/s.
    rate: f64,
    /// Run a closed-loop planner thread beside the producer.
    planner_beside: bool,
}

/// A million samples a second: about half of what the store absorbs flat
/// out on the two-core sandbox, where what it absorbs flat out is set by
/// fsync latency and swings by a quarter from run to run.
pub const BURST: TierShape =
    TierShape { acquisition_head: true, preload: 0, rate: 1.0e6, planner_beside: false };
pub const MIXED: TierShape = TierShape {
    acquisition_head: false,
    preload: 512 * SEGMENT,
    rate: 400_000.0,
    planner_beside: true,
};
/// The reference recording a serve workload's node takes in between its
/// analysts' turns: the burst's pace, without its acquisition head.
pub const RECORDING: TierShape =
    TierShape { acquisition_head: false, preload: 0, rate: 1.0e6, planner_beside: false };

impl TierShape {
    /// Samples a store must hold for the producer to run `window` long:
    /// the preload and the paced stream — an open loop never runs ahead of
    /// its schedule — and a twentieth again for the moments between a
    /// slice's end and its producer noticing. Both devices are written out
    /// in full when they are created, so slack here is set-up time.
    pub fn capacity(&self, window: Duration) -> usize {
        self.preload + (1.05 * self.rate * window.as_secs_f64()) as usize + 8 * SEGMENT
    }
}

/// A live store plus its compactor thread.
pub struct Engine {
    pub store: TieredStore<FileDevice>,
    pub cfg: TierConfig,
    compactor: Option<Compactor>,
}

impl Engine {
    /// Creates the two WAL-backed devices under `dir` and starts the
    /// background compactor.
    pub fn create(dir: &Path, capacity: usize) -> Result<Engine, String> {
        let cfg = tier_config(capacity);
        let store = TieredStore::create_durable(dir, cfg, file_options())
            .map_err(|e| format!("create_durable {}: {e}", dir.display()))?;
        let compactor = Some(Compactor::spawn(store.clone(), CompactorConfig::default()));
        Ok(Engine { store, cfg, compactor })
    }

    /// Samples the store may still take before its slots run out.
    pub fn capacity(&self) -> usize {
        (self.cfg.max_segments - 1) * SEGMENT
    }

    /// Blocks until the compactor has installed every sealed segment and
    /// returns how long that took.
    pub fn drain(&self) -> Result<Duration, String> {
        let t0 = Instant::now();
        while self.store.stats().sealed_raw > 0 {
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("compactor failed to drain the backlog".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(t0.elapsed())
    }

    /// Clean stop: make the tail durable, stop the compactor, fold both
    /// WALs, and release every handle so the directory can be reopened.
    pub fn close(mut self) {
        self.store.sync();
        if let Some(c) = self.compactor.take() {
            c.stop();
        }
        self.store.checkpoint();
    }
}

/// What one producer run acknowledged and how long each call took.
#[derive(Default)]
pub struct Produced {
    /// 256-sample chunks acknowledged.
    pub chunks: u64,
    /// Per chunk, µs from when it was due (paced) or handed over (flat
    /// out) to `push_slice` returning.
    pub ack_us: Vec<f64>,
    /// Per chunk, µs inside `push_slice` alone.
    pub call_us: Vec<f64>,
    /// Per chunk, ms the generator sent after the due time (paced only).
    pub lateness_ms: Vec<f64>,
    /// First send → last ack.
    pub wall: Duration,
}

impl Produced {
    /// Adds a later stretch of the same producer.
    pub fn merge(&mut self, other: Produced) {
        self.chunks += other.chunks;
        self.ack_us.extend(other.ack_us);
        self.call_us.extend(other.call_us);
        self.lateness_ms.extend(other.lateness_ms);
        self.wall += other.wall;
    }
}

/// Acknowledged samples per second of the time the store needed to absorb
/// them: the producer's wall time plus what the compactor still needed to
/// clear its backlog afterwards. Counting the drain makes the figure the
/// same whether the compactor kept up during the window or fell behind
/// and caught up after it.
pub fn sustained_rate(produced: &Produced, drain: Duration) -> f64 {
    (produced.chunks * CHUNK as u64) as f64 / (produced.wall + drain).as_secs_f64()
}

/// Sleeps most of the way to `due`, then yields the rest: `sleep` alone
/// overshoots by the kernel's timer slack, which would show up as
/// generator lateness.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What the threads of one window share: the flag that ends it, and how
/// many samples the store has acknowledged so far (query threads only ask
/// about samples that are safely in).
#[derive(Default)]
pub struct Shared {
    pub stop: AtomicBool,
    pub acked: AtomicUsize,
}

/// Pushes chunks `first_chunk..` of `stream` into the store until
/// `shared.stop` is set or `max_chunks` are in. `rate = Some(r)` is an open loop at `r`
/// samples/s — chunk `k` is due at `k·256/r` whatever happened before it,
/// and its ack is timed from that due moment; `None` is a closed loop
/// that hands over the next chunk as soon as the last call returns.
pub fn produce(
    store: &TieredStore<FileDevice>,
    stream: &Stream,
    first_chunk: u64,
    rate: Option<f64>,
    shared: &Shared,
    max_chunks: u64,
    mut spans: Option<&mut Spans>,
) -> Produced {
    let (stop, acked) = (&shared.stop, &shared.acked);
    let mut out = Produced::default();
    let t0 = Instant::now();
    while !stop.load(Ordering::Acquire) {
        if out.chunks >= max_chunks {
            break;
        }
        let due = rate.map(|r| t0 + Duration::from_nanos(due_ns(out.chunks, CHUNK, r)));
        if let Some(due) = due {
            wait_until(due);
            if stop.load(Ordering::Acquire) {
                break;
            }
        }
        let sent = Instant::now();
        store.push_slice(stream.chunk(first_chunk + out.chunks));
        let done = Instant::now();
        acked.fetch_add(CHUNK, Ordering::Release);
        let call = done - sent;
        out.call_us.push(call.as_secs_f64() * 1e6);
        match due {
            Some(due) => {
                let (sent_ns, due_at) =
                    ((sent - t0).as_nanos() as u64, (due - t0).as_nanos() as u64);
                out.lateness_ms.push(lateness_ns(sent_ns, due_at) as f64 / 1e6);
                out.ack_us.push((done - due).as_secs_f64() * 1e6);
            }
            None => out.ack_us.push(call.as_secs_f64() * 1e6),
        }
        if let Some(s) = spans.as_deref_mut() {
            let (a, b) = (s.at(sent), s.at(done));
            s.push("tier.push_slice", a, b, None, first_chunk + out.chunks);
        }
        out.chunks += 1;
        out.wall = done - t0;
    }
    out
}

/// What a planner thread saw.
#[derive(Default)]
pub struct Queried {
    /// Per query, ms inside `TieredPlanner::range_sum`.
    pub latency_ms: Vec<f64>,
    /// Answers that missed the oracle, lost monotonicity, or did not end
    /// at a zero bound.
    pub wrong: u64,
    /// Σ `TieredAnswer::rounds`.
    pub rounds: u64,
    /// Σ `TieredAnswer::hist_blocks`.
    pub hist_blocks: u64,
    /// Σ `TieredAnswer::hot_rows`.
    pub hot_rows: u64,
    /// Answers per second, one figure per second the thread ran.
    pub rates: Vec<f64>,
}

impl Queried {
    /// Adds a later stretch of the same analyst.
    pub fn merge(&mut self, other: Queried) {
        self.latency_ms.extend(other.latency_ms);
        self.wrong += other.wrong;
        self.rounds += other.rounds;
        self.hist_blocks += other.hist_blocks;
        self.hot_rows += other.hot_rows;
        self.rates.extend(other.rates);
    }
}

/// True when the answer equals the oracle's, its bounds never grow, and
/// the last one is zero.
pub fn answer_ok(ans: &TieredAnswer, truth: f64) -> bool {
    let monotone = ans.steps.windows(2).all(|w| w[1].bound <= w[0].bound);
    let converged = ans.steps.last().is_some_and(|s| s.bound == 0.0);
    close(ans.value, truth) && monotone && converged
}

/// One closed-loop analyst on the planner: the seeded full / middle-half
/// / last-segment mix over whatever prefix `acked` says is visible, each
/// answer checked, until `stop`.
pub fn query_loop(
    planner: &TieredPlanner<FileDevice>,
    stream: &Stream,
    rng: &mut Rng,
    shared: &Shared,
    mut spans: Option<&mut Spans>,
) -> Queried {
    let (stop, acked) = (&shared.stop, &shared.acked);
    let mut out = Queried::default();
    let mut done_s = Vec::new();
    let t0 = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let n = acked.load(Ordering::Acquire);
        if n == 0 {
            std::thread::yield_now();
            continue;
        }
        let (a, b) = tier_query(rng, out.latency_ms.len() as u64, n, SEGMENT);
        let start = Instant::now();
        let ans = planner.range_sum(a, b);
        let end = Instant::now();
        out.latency_ms.push((end - start).as_secs_f64() * 1e3);
        if !answer_ok(&ans, stream.range_sum(a, b)) {
            out.wrong += 1;
        }
        out.rounds += ans.rounds as u64;
        out.hist_blocks += ans.hist_blocks as u64;
        out.hot_rows += ans.hot_rows as u64;
        if let Some(s) = spans.as_deref_mut() {
            let (sa, sb) = (s.at(start), s.at(end));
            s.push("service.tiered_range_sum", sa, sb, None, out.latency_ms.len() as u64);
        }
        done_s.push((end - t0).as_secs_f64());
    }
    out.rates = closed_loop_rates(&done_s);
    out
}

/// Polls the compaction backlog (sealed segments still raw) every 50 ms
/// until the window ends and returns the deepest it got.
pub fn sample_backlog(store: &TieredStore<FileDevice>, shared: &Shared) -> usize {
    let mut deepest = 0;
    while !shared.stop.load(Ordering::Acquire) {
        deepest = deepest.max(store.stats().sealed_raw);
        std::thread::sleep(Duration::from_millis(50));
    }
    deepest
}

/// What the ingest side did in one slice of the window.
pub struct Slice {
    pub produced: Produced,
    /// The planner thread's report, when the shape has one.
    pub queried: Option<Queried>,
    /// Deepest compaction backlog seen (traced slices only).
    pub backlog_max: usize,
}

/// The ingest side of a live node, between slices.
pub struct TierSide<'a> {
    pub shape: &'a TierShape,
    pub engine: &'a Engine,
    pub stream: &'a Stream,
    pub shared: &'a Shared,
    /// Draws the planner thread's ranges.
    pub rng: Rng,
    /// The next chunk of `stream` the producer sends.
    pub next_chunk: u64,
}

impl TierSide<'_> {
    /// One slice: the producer, and when the shape asks for them the
    /// planner thread and (traced) the backlog sampler, until `duration`
    /// is over.
    pub fn slice(
        &mut self,
        duration: Duration,
        spans: Option<&mut Spans>,
    ) -> Result<Slice, String> {
        let (shape, stream, shared, store) =
            (self.shape, self.stream, self.shared, &self.engine.store);
        shared.stop.store(false, Ordering::Release);
        let epoch = spans.as_ref().map(|s| s.epoch());
        let first_chunk = self.next_chunk;
        let rng = &mut self.rng;
        let room = ((self.engine.capacity() - shared.acked.load(Ordering::Acquire)) / CHUNK) as u64;
        let (produced, queried, backlog_max, logs) = std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                let mut log = epoch.map(Spans::new);
                let rate = Some(shape.rate);
                (produce(store, stream, first_chunk, rate, shared, room, log.as_mut()), log)
            });
            let analyst = shape.planner_beside.then(|| {
                scope.spawn(|| {
                    let mut log = epoch.map(Spans::new);
                    (query_loop(&planner(store), stream, rng, shared, log.as_mut()), log)
                })
            });
            let sampler = epoch.map(|_| scope.spawn(move || sample_backlog(store, shared)));
            std::thread::sleep(duration);
            shared.stop.store(true, Ordering::Release);
            let mut logs = Vec::new();
            let (produced, log) =
                producer.join().map_err(|_| "producer thread panicked".to_string())?;
            logs.extend(log);
            let queried = match analyst {
                Some(a) => {
                    let (q, log) = a.join().map_err(|_| "planner thread panicked".to_string())?;
                    logs.extend(log);
                    Some(q)
                }
                None => None,
            };
            let backlog = match sampler {
                Some(s) => s.join().map_err(|_| "sampler thread panicked".to_string())?,
                None => 0,
            };
            Ok::<_, String>((produced, queried, backlog, logs))
        })?;
        self.next_chunk += produced.chunks;
        if let Some(s) = spans {
            logs.into_iter().for_each(|l| s.merge(l));
        }
        Ok(Slice { produced, queried, backlog_max })
    }
}

/// The ingest side's per-layer figures for one traced window: WAL and
/// compaction counter deltas from this process's telemetry registry, the
/// producer's own call times, and how late the generator ran.
pub fn set_ingest_layers(
    m: &mut Metrics,
    before: &Snapshot,
    after: &Snapshot,
    produced: &Produced,
    backlog_max: usize,
) {
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let wall = produced.wall.as_secs_f64();
    m.set("storage.wal_appends", delta("storage.wal.appends"));
    m.set("storage.wal_fsyncs", delta("storage.wal.fsyncs"));
    m.set("storage.wal_checkpoints", delta("storage.wal.checkpoints"));
    m.set("tier.compaction_busy_frac", delta("tier.compaction.ns") / 1e9 / wall);
    m.set("tier.compaction_mb_per_s", delta("tier.compaction.bytes") / 1e6 / wall);
    m.set("tier.compaction_runs", delta("tier.compaction.runs"));
    m.set("tier.compaction_refused", delta("tier.compaction.refused"));
    m.set("tier.backlog_max_segments", backlog_max as f64);
    m.set("tier.push_block_us", median(&produced.call_us));
    if !produced.lateness_ms.is_empty() {
        m.set("bench.gen_lateness_p99_ms", tail(&produced.lateness_ms));
    }
    m.set("traced.ingest_samples_per_s", (produced.chunks * CHUNK as u64) as f64 / wall);
    m.set("traced.ingest_ack_p50_us", median(&produced.call_us));
    m.set("ingest_ack_p99_us", tail(&produced.ack_us));
    m.set("traced.samples.ingest_acks", produced.chunks as f64);
}

/// The planner thread's per-layer figures, on the workload that has one.
/// Its latencies are CPU-bound, and on the sandbox's host that alone keeps
/// them from repeating within a tenth, so they gate nothing.
pub fn set_planner_layers(m: &mut Metrics, queried: &Queried) {
    let n = queried.latency_ms.len() as f64;
    if n == 0.0 {
        return;
    }
    m.set("service.tiered_query_p50_ms", median(&queried.latency_ms));
    m.set("service.tiered_query_p99_ms", tail(&queried.latency_ms));
    m.set("service.tiered_query_qps", median(&queried.rates));
    m.set("service.tiered_rounds_per_query", queried.rounds as f64 / n);
    m.set("service.tiered_hist_blocks_per_query", queried.hist_blocks as f64 / n);
    m.set("service.tiered_hot_rows_per_query", queried.hot_rows as f64 / n);
}

/// A planner with one worker thread, as in E32.
pub fn planner(store: &TieredStore<FileDevice>) -> TieredPlanner<FileDevice> {
    TieredPlanner::new(store.clone(), TieredPlannerConfig { blocks_per_round: 8, threads: 1 })
}

/// One reopen of a closed store directory.
pub struct Reopened {
    /// `open_durable` call → return.
    pub took: Duration,
    /// Checks made (length + three seeded range sums).
    pub checks: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// Reopens the store and checks that every acknowledged sample is back:
/// `len()` equals `acked`, and three seeded range sums match the oracle.
pub fn reopen(
    dir: &Path,
    cfg: TierConfig,
    acked: usize,
    stream: &Stream,
    rng: &mut Rng,
) -> Result<Reopened, String> {
    let t0 = Instant::now();
    let store = TieredStore::open_durable(dir, cfg, file_options())
        .map_err(|e| format!("open_durable {}: {e}", dir.display()))?;
    let took = t0.elapsed();
    let mut failed = u64::from(store.len() != acked);
    let planner = planner(&store);
    for _ in 0..3 {
        let (x, y) = (rng.below(acked), rng.below(acked));
        let (a, b) = (x.min(y), x.max(y));
        if !answer_ok(&planner.range_sum(a, b), stream.range_sum(a, b)) {
            failed += 1;
        }
    }
    Ok(Reopened { took, checks: 4, failed })
}

/// Bytes held by the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
