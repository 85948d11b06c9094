//! The two-tier store: a resident hot tier over a device-resident
//! historical tier.
//!
//! One [`TieredStore`] owns two block devices and hands out cheap clones
//! of itself — the ingest path, the background compactor and any number
//! of query threads all hold the same store.
//!
//! **What is resident.** The hot tier — the open tail and the sealed
//! segments the compactor has not installed yet — lives in memory as raw
//! samples (and durably on the hot device). An installed segment lives
//! *only* on the historical device: the store keeps its logical length,
//! its per-block energy catalog and its full-cover partial (the whole
//! segment's COUNT, which answers any query that covers the segment), and
//! queries read the coefficient blocks under a range's edges on demand
//! through one bounded [`SharedBlockCache`] (checksum-verified, retried).
//! Memory is O(hot tier + cache), not O(data).
//!
//! **Locks.** The hot device and the segment table sit behind the ingest
//! mutex; the historical device sits behind its own lock, so an install's
//! commit (a full checkpoint) never stalls `push_slice`. Where both are
//! needed the order is hot → hist, and [`TieredStore::install`] never
//! holds the historical lock while it takes the ingest lock.
//!
//! **Why the cache needs no invalidation.** A historical block is written
//! before its segment's `installed` flag commits and is never rewritten
//! afterwards (slots are not reused), and no snapshot names a segment
//! historical before that flag has committed — so a block that can be
//! read at all has its final contents.
//!
//! **The ingest ack.** A pushed sample is copied once, into the open
//! segment's buffer. A block it completes is written to the hot device
//! only when the device would do more than buffer the write in userspace:
//! while [`TierMedia::deferrable_writes`] covers the pending run of
//! completed blocks, the run stays in the buffer alone, and the ack whose
//! run holds a write that would sync or checkpoint the WAL hands the whole
//! run over. Every other hot-device write (a seal, [`TieredStore::sync`],
//! an install's retire, [`TieredStore::checkpoint`]) stages the run first.
//! The device therefore sees the same writes in the same order, its WAL
//! reaches the OS on the same acks, and a crash loses the same samples,
//! as if each block were written on the ack that completed it; only the
//! moment of the device's copy moves, onto the ack that pays the sync.
//!
//! Queries never evaluate under a lock: they take a [`TierSnapshot`]
//! (an `Arc` of every hot segment's samples, a descriptor of every
//! historical one, a copy of the open tail), so a compaction swap that
//! completes mid-query cannot move a sample between tiers underneath it —
//! a segment the snapshot saw hot stays hot for that query. The sealed
//! segments' part of that view changes only at a seal or an install, so
//! the store keeps it as one shared slice, rebuilt by the first snapshot
//! after either: every other snapshot costs the ingest lock one `Arc`
//! clone and the open-tail copy, not a walk over every segment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use aims_storage::{
    BlockDevice, DeviceStats, FaultyDevice, FileDevice, FileDeviceOptions, MemDevice, RawMedia,
    ReadError, ReadErrorKind, RetryPolicy, SharedBlockCache,
};
use aims_telemetry::{counter, gauge};

use crate::layout::{Manifest, TierConfig, SLOT_EMPTY, SLOT_OPEN, SLOT_RAW, SLOT_RETIRED};
use crate::query::{block_partial, count_weights};

/// Byte budget of a store's historical block cache. A segment a query
/// covers whole is answered by its pinned full-cover partial, so the
/// cache serves only the blocks under a range's edges: on the benchmark's
/// `mixed_ingest_query` workload (4096-sample segments, 256-item blocks)
/// that is ≈ 6.5 blocks per query. 1 MiB (512 blocks) hits ≈ 58 % of
/// them and 8 MiB ≈ 73 %, but tiered query p50/p99 are no better at
/// 8 MiB (the extra misses are page-cache reads), while the process
/// peaks ≈ 15 MiB higher.
pub const HIST_CACHE_BYTES: usize = 1 << 20;

/// [`HIST_CACHE_BYTES`] in blocks of this geometry.
fn cache_budget_blocks(cfg: &TierConfig) -> usize {
    (HIST_CACHE_BYTES / (cfg.block_size * 8)).max(1)
}

/// Segment slots are a power-of-two number of blocks apart, and every
/// edge a query puts inside a segment reads that segment's first block
/// (the top of each error-tree path): an odd shard count spreads those
/// first blocks, the cache's most reused, evenly over its shards.
const CACHE_SHARDS: usize = 7;

/// A sealed segment's wavelet form as the compactor hands it to
/// [`TieredStore::install`]: the full-depth DWT of the (zero-padded)
/// segment, plus the per-device-block coefficient energies the
/// progressive bound consumes.
#[derive(Clone, Debug)]
pub struct SegCoeffs {
    /// `segment_len` coefficients in flat error-tree order.
    pub coeffs: Vec<f64>,
    /// Logical sample count (< `segment_len` only for a force-sealed tail).
    pub len: usize,
    /// Σ c² per device block, ascending block order.
    pub block_energy: Vec<f64>,
}

impl SegCoeffs {
    /// Builds the per-block energy catalog from a flat coefficient vector.
    pub fn from_coeffs(coeffs: Vec<f64>, len: usize, block_size: usize) -> Self {
        let block_energy = coeffs.chunks(block_size).map(aims_storage::block_energy).collect();
        SegCoeffs { coeffs, len, block_energy }
    }
}

/// A sealed segment's in-memory residency.
enum Seg {
    /// Sealed raw samples, durable on the hot device. `compacting` marks a
    /// segment claimed by the compactor (still served raw until installed).
    Raw { data: Arc<Vec<f64>>, compacting: bool },
    /// Installed on the historical device, raw slot retired: only the
    /// logical length, the energy catalog and the full-cover partial stay
    /// in memory.
    Hist { len: usize, energy: Arc<[f64]>, partial: f64 },
}

struct Inner<D: BlockDevice> {
    hot: D,
    hot_man: Manifest,
    segs: Vec<Seg>,
    /// The open (still-filling) tail segment; its slot is `segs.len()`.
    open_buf: Vec<f64>,
    /// Blocks of the open segment already handed to the hot device; the
    /// completed ones past it are the pending run, held only here until
    /// [`Inner::stage`] writes them.
    open_written: usize,
    /// Samples covered by sealed segments (the manifest's ack frontier,
    /// before adding any synced open tail).
    durable_sealed: usize,
    /// Sealed segments still raw (the compaction backlog).
    sealed_raw: usize,
    /// The snapshot view of `segs`, shared by every snapshot until the
    /// next seal or install drops it; `None` until a snapshot rebuilds it.
    view: Option<Arc<[SnapSeg]>>,
}

impl<D: BlockDevice> Inner<D> {
    fn empty(cfg: &TierConfig, hot: D, hot_man: Manifest) -> Self {
        Inner {
            hot,
            hot_man,
            segs: Vec::new(),
            open_buf: Vec::with_capacity(cfg.segment_len),
            open_written: 0,
            durable_sealed: 0,
            sealed_raw: 0,
            view: None,
        }
    }

    /// Hands the open segment's pending run — its completed blocks not yet
    /// written — to the hot device, in block order (when: see the module
    /// docs).
    fn stage(&mut self, cfg: &TierConfig) {
        let bs = cfg.block_size;
        let first = cfg.hot_block(self.segs.len());
        let complete = self.open_buf.len() / bs;
        for b in self.open_written..complete {
            self.hot.write_block(first + b, &self.open_buf[b * bs..(b + 1) * bs]);
        }
        self.open_written = complete;
    }

    /// Writes the open tail's partial last block, zero-padded, if it has
    /// one. Called after [`Inner::stage`], so the blocks before it are on
    /// the device first.
    fn write_padded_tail(&mut self, cfg: &TierConfig) {
        let (bs, len) = (cfg.block_size, self.open_buf.len());
        debug_assert_eq!(self.open_written, len / bs, "the pending run goes first");
        if !len.is_multiple_of(bs) {
            let b = len / bs;
            let mut tail = self.open_buf[b * bs..].to_vec();
            tail.resize(bs, 0.0);
            self.hot.write_block(cfg.hot_block(self.segs.len()) + b, &tail);
        }
    }

    /// The sealed segments as a snapshot sees them, rebuilt only when a
    /// seal or install has dropped the shared copy.
    fn sealed_view(&mut self) -> Arc<[SnapSeg]> {
        let segs = &self.segs;
        let view = self.view.get_or_insert_with(|| {
            let mut start = 0usize;
            segs.iter()
                .enumerate()
                .map(|(slot, seg)| {
                    let (len, kind) = match seg {
                        Seg::Raw { data, .. } => (data.len(), SnapKind::Hot(Arc::clone(data))),
                        Seg::Hist { len, energy, partial } => (
                            *len,
                            SnapKind::Hist { slot, energy: Arc::clone(energy), partial: *partial },
                        ),
                    };
                    start += len;
                    SnapSeg { start: start - len, len, kind }
                })
                .collect()
        });
        Arc::clone(view)
    }
}

/// The historical device with its manifest, behind their own lock.
struct HistState<D> {
    device: D,
    man: Manifest,
}

/// What a snapshot needs of the historical tier: coefficient blocks by
/// (segment slot, block), verified and retried.
pub(crate) trait BlockSource: Send + Sync {
    fn block(&self, seg: usize, blk: usize) -> Result<Arc<Vec<f64>>, ReadError>;
}

/// The historical tier: the device, the one cache every read of it goes
/// through, and the COUNT entries of a whole segment, which every install
/// folds into the segment's pinned partial.
struct HistTier<D> {
    state: RwLock<HistState<D>>,
    cache: SharedBlockCache,
    cfg: TierConfig,
    retry: RetryPolicy,
    full_cover: Arc<[(usize, f64)]>,
}

impl<D: TierMedia> HistTier<D> {
    fn new(cfg: TierConfig, device: D, man: Manifest, cache_blocks: usize) -> Self {
        let shards = CACHE_SHARDS.min(cache_blocks);
        let full_cover = count_weights(&cfg, 0, cfg.segment_len - 1);
        // At most 8 entries (Db8), all at the top of the error tree, and a
        // block holds at least 8 coefficients.
        assert!(full_cover.iter().all(|&(i, _)| i < cfg.block_size), "full cover leaves block 0");
        HistTier {
            state: RwLock::new(HistState { device, man }),
            cache: SharedBlockCache::with_shards(cache_blocks / shards * shards, shards),
            cfg,
            retry: RetryPolicy::default(),
            full_cover,
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HistState<D>> {
        self.state.read().expect("a thread panicked holding the historical lock")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HistState<D>> {
        self.state.write().expect("a thread panicked holding the historical lock")
    }

    fn cache_bytes(&self) -> usize {
        self.cache.resident() * self.cfg.block_size * 8
    }
}

impl<D: TierMedia> BlockSource for HistTier<D> {
    fn block(&self, seg: usize, blk: usize) -> Result<Arc<Vec<f64>>, ReadError> {
        let id = self.cfg.hist_block(seg) + blk;
        // A hit never touches the device lock, so it never waits behind an
        // install's commit.
        if let Some(data) = self.cache.lookup(id) {
            counter!("tier.hist.cache_hits").inc();
            return Ok(data);
        }
        counter!("tier.hist.cache_misses").inc();
        let fetched = self.cache.read_and_insert(&self.read().device, id, &self.retry);
        // Dead blocks fail fast; any other failure used the whole budget.
        let retries = match &fetched {
            Ok((_, fetch)) => fetch.retries,
            Err(e) if e.kind == ReadErrorKind::Dead => 0,
            Err(_) => self.retry.retries,
        };
        counter!("tier.hist.block_reads").add(1 + retries as u64);
        fetched.map(|(data, _)| data)
    }
}

/// Live counts for telemetry and drills.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Logical samples pushed (including the unsealed open tail).
    pub total_len: usize,
    /// Samples in the open tail segment.
    pub open_len: usize,
    /// Sealed segments still raw (compaction backlog).
    pub sealed_raw: usize,
    /// Segments installed in the historical tier.
    pub historical: usize,
}

/// Per-segment tier residency captured by a snapshot — drills use this to
/// assert every sample lives in exactly one tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentView {
    /// Global offset of the segment's first sample.
    pub start: usize,
    /// Logical samples in the segment.
    pub len: usize,
    /// True when the snapshot serves this segment from the wavelet tier.
    pub historical: bool,
}

pub(crate) enum SnapKind {
    /// Resident raw samples (a sealed backlog segment or the open tail).
    Hot(Arc<Vec<f64>>),
    /// Device-resident coefficients: the segment's slot, its catalog and
    /// its full-cover partial.
    Hist { slot: usize, energy: Arc<[f64]>, partial: f64 },
}

pub(crate) struct SnapSeg {
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) kind: SnapKind,
}

/// An immutable, consistent view of the store at one instant. Queries
/// evaluate against a snapshot, never the live store, so concurrent
/// seals/compactions can't double- or zero-count a sample mid-query.
pub struct TierSnapshot {
    pub(crate) cfg: TierConfig,
    /// Every sealed segment, ascending — shared with the store (and every
    /// other snapshot) until the next seal or install.
    pub(crate) sealed: Arc<[SnapSeg]>,
    /// The open tail, copied; `None` when it is empty.
    pub(crate) tail: Option<SnapSeg>,
    pub(crate) hist: Arc<dyn BlockSource>,
    total_len: usize,
}

impl TierSnapshot {
    /// Logical samples visible to this snapshot.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// True when the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// Segment `i`, sealed ones first, then the open tail.
    fn seg(&self, i: usize) -> Option<&SnapSeg> {
        self.sealed.get(i).or_else(|| self.tail.as_ref().filter(|_| i == self.sealed.len()))
    }

    /// The per-segment tier residency this snapshot captured.
    pub fn segments(&self) -> Vec<SegmentView> {
        self.sealed
            .iter()
            .chain(&self.tail)
            .map(|s| SegmentView {
                start: s.start,
                len: s.len,
                historical: matches!(s.kind, SnapKind::Hist { .. }),
            })
            .collect()
    }

    /// The per-block energy catalog of segment `i`, when the snapshot
    /// serves it from the historical tier.
    pub fn block_energies(&self, i: usize) -> Option<&[f64]> {
        match &self.seg(i)?.kind {
            SnapKind::Hist { energy, .. } => Some(energy),
            SnapKind::Hot(_) => None,
        }
    }

    /// The full-cover partial of segment `i` — what a query covering the
    /// whole segment folds in instead of reading its blocks — when the
    /// snapshot serves it from the historical tier.
    pub fn full_cover_partial(&self, i: usize) -> Option<f64> {
        match self.seg(i)?.kind {
            SnapKind::Hist { partial, .. } => Some(partial),
            SnapKind::Hot(_) => None,
        }
    }

    /// Coefficient block `blk` of historical segment `i`, read the way
    /// queries read it: through the store's cache, verified and retried.
    /// `None` when the snapshot serves the segment hot.
    pub fn hist_block(&self, i: usize, blk: usize) -> Option<Result<Arc<Vec<f64>>, ReadError>> {
        match &self.seg(i)?.kind {
            SnapKind::Hist { slot, .. } => Some(self.hist.block(*slot, blk)),
            SnapKind::Hot(_) => None,
        }
    }
}

/// Marks a query in flight for the compactor's rate limiter; dropped when
/// the query finishes.
pub struct QueryGuard {
    inflight: Arc<AtomicU64>,
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::Release);
    }
}

/// The tiered store handle. `Clone` is cheap (`Arc` bumps); all clones
/// share one store.
pub struct TieredStore<D: TierMedia> {
    inner: Arc<Mutex<Inner<D>>>,
    hist: Arc<HistTier<D>>,
    cfg: TierConfig,
    inflight: Arc<AtomicU64>,
}

impl<D: TierMedia> Clone for TieredStore<D> {
    fn clone(&self) -> Self {
        TieredStore {
            inner: Arc::clone(&self.inner),
            hist: Arc::clone(&self.hist),
            cfg: self.cfg,
            inflight: Arc::clone(&self.inflight),
        }
    }
}

impl TieredStore<MemDevice> {
    /// A fresh in-memory store (tests, drills without durability).
    pub fn new_mem(cfg: TierConfig) -> Self {
        cfg.validate();
        let hot = MemDevice::new(cfg.block_size, cfg.hot_device_blocks());
        let hist = MemDevice::new(cfg.block_size, cfg.hist_device_blocks());
        Self::with_devices(cfg, hot, hist)
    }
}

impl TieredStore<FileDevice> {
    /// Creates a durable store: `dir/hot` and `dir/hist` become two
    /// WAL-backed [`FileDevice`] directories.
    pub fn create_durable(
        dir: &std::path::Path,
        cfg: TierConfig,
        opts: FileDeviceOptions,
    ) -> std::io::Result<Self> {
        Self::create_durable_with(dir, cfg, opts.clone(), opts)
    }

    /// [`Self::create_durable`] with separate options per device — crash
    /// drills arm a [`aims_storage::CrashPlan`] on one tier at a time.
    /// Each fresh manifest is its device's create image
    /// ([`FileDevice::create_from`]), so the store is durable, and reopens
    /// empty, from the moment this returns: no WAL record, no fsync beyond
    /// creation's own.
    pub fn create_durable_with(
        dir: &std::path::Path,
        cfg: TierConfig,
        hot_opts: FileDeviceOptions,
        hist_opts: FileDeviceOptions,
    ) -> std::io::Result<Self> {
        cfg.validate();
        std::fs::create_dir_all(dir)?;
        let (mut hot_man, mut hist_man) = (Manifest::fresh_hot(&cfg), Manifest::fresh_hist(&cfg));
        let create = |name, blocks, man: &mut Manifest, opts| {
            FileDevice::create_from(
                dir.join(name),
                cfg.block_size,
                blocks,
                man.create_image(),
                opts,
            )
        };
        let hot = create("hot", cfg.hot_device_blocks(), &mut hot_man, hot_opts)?;
        let hist = create("hist", cfg.hist_device_blocks(), &mut hist_man, hist_opts)?;
        let cache_blocks = cache_budget_blocks(&cfg);
        Ok(Self::fresh(cfg, (hot, hot_man), (hist, hist_man), cache_blocks))
    }

    /// Reopens a durable store, replaying both WALs and repairing any
    /// half-finished compaction swap (installed-but-not-retired segments
    /// finish retirement; uninstalled ones stay raw — acked ingest wins).
    /// Reads the two manifests, the raw backlog and the open tail; no
    /// historical coefficient block. A directory created under a different
    /// `segment_len`, `block_size` or `max_segments` than `cfg`, or one
    /// whose backlog or open tail fails its checksums, is refused with
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn open_durable(
        dir: &std::path::Path,
        cfg: TierConfig,
        opts: FileDeviceOptions,
    ) -> std::io::Result<Self> {
        Self::open_durable_with(dir, cfg, opts.clone(), opts)
    }

    /// [`Self::open_durable`] with separate options per device.
    pub fn open_durable_with(
        dir: &std::path::Path,
        cfg: TierConfig,
        hot_opts: FileDeviceOptions,
        hist_opts: FileDeviceOptions,
    ) -> std::io::Result<Self> {
        cfg.validate();
        let hot = FileDevice::open(dir.join("hot"), hot_opts)?;
        let hist = FileDevice::open(dir.join("hist"), hist_opts)?;
        Self::recover(cfg, hot, hist)
    }

    /// Whether each device's seeded crash plan has fired: `(hot, hist)`.
    pub fn devices_crashed(&self) -> (bool, bool) {
        let hot = self.lock().hot.is_crashed();
        (hot, self.hist.read().device.is_crashed())
    }
}

impl<D: TierMedia> TieredStore<D> {
    /// A fresh store over two zero-filled devices (what
    /// [`MemDevice::new`] and [`FileDevice::create`] produce): only the
    /// manifest headers are written.
    pub fn with_devices(cfg: TierConfig, hot: D, hist: D) -> Self {
        Self::with_devices_and_cache(cfg, hot, hist, cache_budget_blocks(&cfg))
    }

    /// [`Self::with_devices`] with the cache sized in blocks — tests pin
    /// answers across cache sizes; callers get the one constant.
    pub(crate) fn with_devices_and_cache(
        cfg: TierConfig,
        mut hot: D,
        mut hist: D,
        cache_blocks: usize,
    ) -> Self {
        cfg.validate();
        assert!(hot.num_blocks() >= cfg.hot_device_blocks(), "hot device too small");
        assert!(hist.num_blocks() >= cfg.hist_device_blocks(), "hist device too small");
        let mut hot_man = Manifest::fresh_hot(&cfg);
        let mut hist_man = Manifest::fresh_hist(&cfg);
        hot_man.flush(&mut hot);
        hist_man.flush(&mut hist);
        Self::fresh(cfg, (hot, hot_man), (hist, hist_man), cache_blocks)
    }

    /// An empty store over devices that already hold their fresh manifests.
    fn fresh(
        cfg: TierConfig,
        (hot, hot_man): (D, Manifest),
        (hist, hist_man): (D, Manifest),
        cache_blocks: usize,
    ) -> Self {
        counter!("tier.segments.open").inc();
        let inner = Inner::empty(&cfg, hot, hot_man);
        Self::assemble(cfg, inner, HistTier::new(cfg, hist, hist_man, cache_blocks))
    }

    fn assemble(cfg: TierConfig, inner: Inner<D>, hist: HistTier<D>) -> Self {
        TieredStore {
            inner: Arc::new(Mutex::new(inner)),
            hist: Arc::new(hist),
            cfg,
            inflight: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Rebuilds in-memory state from the two manifests. The historical
    /// manifest is authoritative for any segment it has installed, and
    /// carries that segment's energy catalog — recovery reads hot blocks
    /// only. Fails with [`std::io::ErrorKind::InvalidData`] when either
    /// device was not laid out by `cfg`, when a hot block it needs fails
    /// its checksum, or when the two manifests disagree.
    fn recover(cfg: TierConfig, hot: D, hist: D) -> std::io::Result<Self> {
        let hot_man = Manifest::load_hot(&hot, &cfg)?;
        let hist_man = Manifest::load_hist(&hist, &cfg)?;
        let bs = cfg.block_size;
        let mut inner = Inner::empty(&cfg, hot, hot_man);
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let read_samples = |device: &D, seg: usize, len: usize| -> std::io::Result<Vec<f64>> {
            let first = cfg.hot_block(seg);
            let mut out = Vec::with_capacity(len.div_ceil(bs) * bs);
            for id in first..first + len.div_ceil(bs) {
                let blk = device.read_block(id).map_err(|e| {
                    invalid(format!("hot device: slot {seg} block {id} unreadable: {:?}", e.kind))
                })?;
                out.extend_from_slice(&blk);
            }
            out.truncate(len);
            Ok(out)
        };

        for seg in 0..cfg.max_segments {
            let state = inner.hot_man.slot_state(seg);
            if state == SLOT_EMPTY {
                break;
            }
            let len = inner.hot_man.slot_len(seg);
            if state == SLOT_OPEN {
                inner.open_buf = read_samples(&inner.hot, seg, len)?;
                // A synced partial tail block gets rewritten when it fills.
                inner.open_written = len / bs;
                break;
            }
            if hist_man.installed(seg) {
                let (energy, partial) = (hist_man.energies(seg).into(), hist_man.partial(seg));
                inner.segs.push(Seg::Hist { len, energy, partial });
                // Crashed between hist commit and raw retirement: finish
                // it (a no-op for a slot already retired).
                inner.hot_man.set_slot(seg, SLOT_RETIRED, len);
            } else if state != SLOT_RAW {
                return Err(invalid(format!(
                    "hot device: slot {seg} is in state {state}, not raw, but the hist device \
                     never installed it"
                )));
            } else {
                let data = read_samples(&inner.hot, seg, len)?;
                inner.segs.push(Seg::Raw { data: Arc::new(data), compacting: false });
                inner.sealed_raw += 1;
            }
            inner.durable_sealed += len;
        }
        let Inner { hot, hot_man, .. } = &mut inner;
        hot_man.flush(hot);
        let hist = HistTier::new(cfg, hist, hist_man, cache_budget_blocks(&cfg));
        Ok(Self::assemble(cfg, inner, hist))
    }

    fn lock(&self) -> MutexGuard<'_, Inner<D>> {
        self.inner.lock().expect("a thread panicked holding the ingest lock")
    }

    /// The store's static geometry.
    pub fn config(&self) -> TierConfig {
        self.cfg
    }

    /// Logical samples pushed so far.
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.durable_sealed + inner.open_buf.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live tier counts, from running counters (no segment scan).
    pub fn stats(&self) -> TierStats {
        let inner = self.lock();
        TierStats {
            total_len: inner.durable_sealed + inner.open_buf.len(),
            open_len: inner.open_buf.len(),
            sealed_raw: inner.sealed_raw,
            historical: inner.segs.len() - inner.sealed_raw,
        }
    }

    /// Bytes the store keeps in memory: the hot tier's raw samples (a
    /// segment buffer per backlog segment + the open tail), the energy
    /// catalog and full-cover partial of each installed segment, and
    /// whatever the historical block cache holds right now. Also published
    /// as the `tier.resident_bytes` gauge, which is otherwise refreshed at
    /// every seal and install (not per query: the query path stays off the
    /// ingest lock).
    pub fn resident_bytes(&self) -> usize {
        self.publish_resident(&self.lock())
    }

    fn publish_resident(&self, inner: &Inner<D>) -> usize {
        let hot = 8 * (inner.sealed_raw * self.cfg.segment_len + inner.open_buf.len());
        let catalogs =
            8 * (self.cfg.blocks_per_segment() + 1) * (inner.segs.len() - inner.sealed_raw);
        let bytes = hot + catalogs + self.hist.cache_bytes();
        gauge!("tier.resident_bytes").set(bytes as f64);
        bytes
    }

    /// I/O counters of the two devices: `(hot, hist)`. The hot device has
    /// not yet counted the open segment's held-back blocks.
    pub fn device_stats(&self) -> (DeviceStats, DeviceStats) {
        let hot = self.lock().hot.stats();
        (hot, self.hist.read().device.stats())
    }

    /// Queries currently holding a [`QueryGuard`] — the compactor's
    /// foreground-pressure signal.
    pub fn queries_inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Marks a query in flight until the guard drops.
    pub fn begin_query(&self) -> QueryGuard {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        QueryGuard { inflight: Arc::clone(&self.inflight) }
    }

    /// Commits both devices ([`TierMedia::commit`]: a WAL-backed device
    /// checkpoints, folding its WAL into its main file), the open segment's
    /// pending run first.
    pub fn checkpoint(&self) {
        let mut inner = self.lock();
        inner.stage(&self.cfg);
        inner.hot.commit();
        drop(inner);
        self.hist.write().device.commit();
    }

    /// Appends one sample.
    pub fn push(&self, x: f64) {
        self.push_slice(&[x]);
    }

    /// Appends a run of samples, sealing segments as they fill. A completed
    /// block reaches the hot device on this ack only when the device would
    /// sync or checkpoint its WAL for one of the blocks pending (see the
    /// module docs). Panics when both devices are out of segment slots.
    pub fn push_slice(&self, xs: &[f64]) {
        if xs.is_empty() {
            return;
        }
        let cfg = self.cfg;
        let bs = cfg.block_size;
        let mut inner = self.lock();
        let mut i = 0usize;
        while i < xs.len() {
            let seg = inner.segs.len();
            assert!(
                seg < cfg.max_segments,
                "tier capacity exhausted: {} segment slots full",
                cfg.max_segments
            );
            let room = cfg.segment_len - inner.open_buf.len();
            let take = room.min(xs.len() - i);
            inner.open_buf.extend_from_slice(&xs[i..i + take]);
            i += take;
            // The device is asked only when this push completed a block.
            let pending = inner.open_buf.len() / bs - inner.open_written;
            if pending > 0 && pending > inner.hot.deferrable_writes() {
                inner.stage(&cfg);
            }
            if inner.open_buf.len() == cfg.segment_len {
                self.seal_locked(&mut inner);
            }
        }
    }

    /// Seals the open tail segment even if partial (its blocks are padded
    /// with zeros on device; the logical length is kept in the manifest).
    /// No-op on an empty tail.
    pub fn seal_open(&self) {
        let mut inner = self.lock();
        if !inner.open_buf.is_empty() {
            self.seal_locked(&mut inner);
        }
    }

    fn seal_locked(&self, inner: &mut Inner<D>) {
        let cfg = &self.cfg;
        let seg = inner.segs.len();
        let len = inner.open_buf.len();
        inner.stage(cfg);
        inner.write_padded_tail(cfg);
        inner.durable_sealed += len;
        inner.hot_man.set_slot(seg, SLOT_RAW, len);
        let durable = inner.durable_sealed;
        inner.hot_man.set_total_len(durable);
        let Inner { hot, hot_man, .. } = &mut *inner;
        hot_man.flush(hot);
        let data = std::mem::replace(&mut inner.open_buf, Vec::with_capacity(cfg.segment_len));
        inner.open_written = 0;
        inner.segs.push(Seg::Raw { data: Arc::new(data), compacting: false });
        inner.sealed_raw += 1;
        inner.view = None;
        counter!("tier.segments.sealed").inc();
        counter!("tier.segments.open").inc();
        gauge!("tier.segments.raw_pending").set(inner.sealed_raw as f64);
        self.publish_resident(inner);
    }

    /// Makes every pushed sample durable: writes the partial tail block
    /// (zero-padded), records the open length in the manifest, flushes it,
    /// and syncs the hot device's WAL ([`TierMedia::sync_wal`]) — one
    /// fsync, whatever the durability mode, when anything is unsynced;
    /// no checkpoint. After this, a reopened store recovers every pushed
    /// sample.
    pub fn sync(&self) {
        let mut inner = self.lock();
        let seg = inner.segs.len();
        let len = inner.open_buf.len();
        inner.stage(&self.cfg);
        inner.write_padded_tail(&self.cfg);
        if len > 0 {
            inner.hot_man.set_slot(seg, SLOT_OPEN, len);
        }
        let durable = inner.durable_sealed + len;
        inner.hot_man.set_total_len(durable);
        let Inner { hot, hot_man, .. } = &mut *inner;
        hot_man.flush(hot);
        hot.sync_wal();
    }

    /// A consistent view for query evaluation. The open tail is copied,
    /// hot payloads are shared by `Arc`, historical segments are named by
    /// slot, catalog and full-cover partial — their blocks are read when a
    /// query wants them. The sealed segments' view is the store's shared
    /// one (see the module docs).
    pub fn snapshot(&self) -> TierSnapshot {
        let mut inner = self.lock();
        let sealed = inner.sealed_view();
        let (start, len) = (inner.durable_sealed, inner.open_buf.len());
        let tail = (len > 0).then(|| SnapSeg {
            start,
            len,
            kind: SnapKind::Hot(Arc::new(inner.open_buf.clone())),
        });
        let hist = self.hist.clone();
        TierSnapshot { cfg: self.cfg, sealed, tail, hist, total_len: start + len }
    }

    /// Claims up to `max` sealed raw segments for compaction (oldest
    /// first), marking them so concurrent calls don't double-claim.
    pub fn claim_sealed(&self, max: usize) -> Vec<(usize, Arc<Vec<f64>>)> {
        let mut inner = self.lock();
        let mut claimed = Vec::new();
        if inner.sealed_raw == 0 {
            return claimed;
        }
        for (id, seg) in inner.segs.iter_mut().enumerate() {
            if claimed.len() >= max {
                break;
            }
            if let Seg::Raw { data, compacting } = seg {
                if !*compacting {
                    *compacting = true;
                    claimed.push((id, Arc::clone(data)));
                }
            }
        }
        claimed
    }

    /// Releases a claim without installing (compactor shutdown mid-cycle).
    pub fn release_claim(&self, seg: usize) {
        if let Some(Seg::Raw { compacting, .. }) = self.lock().segs.get_mut(seg) {
            *compacting = false;
        }
    }

    /// The compaction swap: writes `coeffs` to the historical device,
    /// commits it (manifest with the energy catalog and the full-cover
    /// partial folded from `coeffs`, then checkpoint), then retires the raw
    /// slot and drops the segment's samples from memory.
    /// Ordered so a crash at any point leaves exactly one manifest
    /// claiming the segment, with the raw slot winning until the
    /// historical commit completes. The historical work runs under the
    /// historical lock alone; the ingest lock is taken only for the final
    /// retire-and-swap, so `push_slice` never waits for a commit. Returns
    /// `false` — leaving the segment raw and re-claimable — when the
    /// historical device refuses the commit; retiring the raw slot on a
    /// commit that didn't land would orphan the segment on both devices.
    pub fn install(&self, seg: usize, coeffs: SegCoeffs) -> bool {
        let cfg = self.cfg;
        debug_assert_eq!(coeffs.coeffs.len(), cfg.segment_len);
        let partial = block_partial(&coeffs.coeffs, 0, &self.hist.full_cover);
        let committed = {
            let mut guard = self.hist.write();
            let HistState { device, man } = &mut *guard;
            // (1) coefficient blocks through the hist WAL, ascending.
            for (b, blk) in coeffs.coeffs.chunks(cfg.block_size).enumerate() {
                device.write_block(cfg.hist_block(seg) + b, blk);
            }
            // (2) historical manifest claims the segment and records its
            // catalog and partial; (3) commit.
            man.set_installed(seg, &coeffs.block_energy, partial);
            man.flush(device);
            device.commit()
        };
        let mut inner = self.lock();
        let Seg::Raw { data, compacting } = &mut inner.segs[seg] else {
            panic!("segment {seg} installed twice");
        };
        if !committed {
            // Historical device is gone; the raw slot stays authoritative
            // (the WAL's ordering keeps any partial install harmless).
            *compacting = false;
            return false;
        }
        // (4) retire the raw slot and swap the in-memory tier.
        let len = data.len();
        debug_assert_eq!(len, coeffs.len);
        inner.hot_man.set_slot(seg, SLOT_RETIRED, len);
        inner.stage(&cfg);
        let Inner { hot, hot_man, .. } = &mut *inner;
        hot_man.flush(hot);
        inner.segs[seg] = Seg::Hist { len, energy: coeffs.block_energy.into(), partial };
        inner.sealed_raw -= 1;
        // Drops the view's hold on the raw samples too.
        inner.view = None;
        counter!("tier.segments.compacted").inc();
        gauge!("tier.segments.raw_pending").set(inner.sealed_raw as f64);
        self.publish_resident(&inner);
        true
    }
}

/// The devices a tiered store can live on: a [`BlockDevice`] plus the
/// install commit point, the ingest sync point and how many writes the
/// hot tier may hold back. A WAL-backed device
/// checkpoints (fold + fsync) to make the historical claim durable before
/// the raw slot is retired, and fsyncs its WAL to make pushed samples
/// durable; the in-memory device needs nothing beyond the writes. `Send +
/// Sync` because snapshots read the historical device from query threads.
pub trait TierMedia: BlockDevice + Send + Sync + 'static {
    /// Makes everything written so far durable (the historical install's
    /// commit point). Returns `false` when the device cannot honor the
    /// commit (e.g. a seeded crash fired) — the caller must then keep the
    /// raw segment authoritative.
    fn commit(&mut self) -> bool {
        true
    }

    /// Makes everything written so far durable without folding it
    /// ([`TieredStore::sync`]'s last step).
    fn sync_wal(&mut self) {}

    /// How many further writes the device would only buffer in userspace,
    /// none of them reaching the OS, so the hot tier may hold them back and
    /// issue them before the device's next other call. 0 — write through —
    /// by default.
    fn deferrable_writes(&self) -> usize {
        0
    }
}

impl TierMedia for MemDevice {}

impl TierMedia for FileDevice {
    fn commit(&mut self) -> bool {
        self.checkpoint();
        !self.is_crashed()
    }

    fn sync_wal(&mut self) {
        self.sync();
    }

    fn deferrable_writes(&self) -> usize {
        self.appends_before_sync()
    }
}

/// Media faults layer over either tier; the commit and sync points are
/// the wrapped device's. It keeps the write-through default of
/// [`TierMedia::deferrable_writes`].
impl<D: TierMedia + RawMedia> TierMedia for FaultyDevice<D> {
    fn commit(&mut self) -> bool {
        self.inner_mut().commit()
    }

    fn sync_wal(&mut self) {
        self.inner_mut().sync_wal();
    }
}

#[cfg(test)]
mod tests {
    use aims_exec::ThreadPool;

    use aims_dsp::filters::FilterKind;

    use super::*;
    use crate::compact;
    use crate::query::{range_sum, TieredProgressive};

    const SEG: usize = 64;
    const BLOCK: usize = 16;

    /// A fully compacted store whose cache holds `cache_blocks` blocks and
    /// is still empty (installs do not populate it).
    fn compacted(filter: FilterKind, cache_blocks: usize) -> TieredStore<MemDevice> {
        let cfg = TierConfig { segment_len: SEG, block_size: BLOCK, max_segments: 16, filter };
        let device = |blocks| MemDevice::new(BLOCK, blocks);
        let store = TieredStore::with_devices_and_cache(
            cfg,
            device(cfg.hot_device_blocks()),
            device(cfg.hist_device_blocks()),
            cache_blocks,
        );
        let signal: Vec<f64> =
            (0..7 * SEG + 19).map(|i| ((i * 7919) % 211) as f64 / 7.0 - 13.0).collect();
        store.push_slice(&signal);
        store.seal_open();
        compact::drain(&store, &ThreadPool::new(1));
        store
    }

    /// Every answer and every progressive step, as bits.
    fn transcript(store: &TieredStore<MemDevice>) -> Vec<u64> {
        let snap = store.snapshot();
        let last = snap.len() - 1;
        let mut out = Vec::new();
        for (a, b) in [(0, last), (SEG / 2, 5 * SEG + 3), (3 * SEG, 4 * SEG - 1), (last, last)] {
            out.push(range_sum(&snap, a, b).to_bits());
            let mut prog = TieredProgressive::new(&snap, a, b);
            while !prog.done() {
                let step = prog.step(3);
                out.extend([step.estimate.to_bits(), step.bound.to_bits()]);
            }
        }
        out
    }

    #[test]
    fn answers_ignore_cache_state_and_cache_size() {
        for filter in [FilterKind::Haar, FilterKind::Db4] {
            let want = transcript(&compacted(filter, 1024));
            for cache_blocks in [1024, 1] {
                let store = compacted(filter, cache_blocks);
                let case = format!("{filter:?}, {cache_blocks}-block cache");
                assert_eq!(store.hist.cache.resident(), 0, "installs must not fill the cache");
                let cold = transcript(&store);
                let warm = transcript(&store);
                assert_eq!(cold, want, "cold, {case}");
                assert_eq!(warm, want, "warm, {case}");
                let stats = store.hist.cache.stats();
                if cache_blocks == 1 {
                    assert!(stats.evictions > 0, "a one-block cache must have thrashed");
                } else {
                    assert!(stats.hits > 0 && stats.evictions == 0, "the warm pass must hit");
                }
            }
        }
    }

    #[test]
    fn snapshots_share_the_sealed_view_until_a_seal_or_install() {
        let cfg = TierConfig {
            segment_len: SEG,
            block_size: BLOCK,
            max_segments: 8,
            filter: FilterKind::Haar,
        };
        let store = TieredStore::new_mem(cfg);
        let shared = |a: &TierSnapshot, b: &TierSnapshot| Arc::ptr_eq(&a.sealed, &b.sealed);
        store.push_slice(&[1.5; 2 * SEG + 5]);
        let first = store.snapshot();
        // Samples that only grow the open tail keep the view.
        store.push_slice(&[2.5; 7]);
        let second = store.snapshot();
        assert!(shared(&first, &second), "no seal or install between them");
        assert_eq!((first.len(), second.len()), (2 * SEG + 5, 2 * SEG + 12));
        // A seal drops it.
        store.push_slice(&[3.5; SEG]);
        let sealed = store.snapshot();
        assert!(!shared(&second, &sealed), "a seal must rebuild the view");
        assert_eq!(sealed.sealed.len(), 3);
        // So does an install, which also releases the view's raw samples.
        let (seg, data) = store.claim_sealed(1).pop().unwrap();
        let holders = "the store, its view, the earlier snapshots' view and the claim";
        assert_eq!(Arc::strong_count(&data), 4, "{holders}");
        drop(sealed);
        store.install(seg, compact::transform_segment(&data, &cfg));
        let installed = store.snapshot();
        assert!(!shared(&second, &installed), "an install must rebuild the view");
        assert!(installed.segments()[0].historical && !installed.segments()[1].historical);
        assert_eq!(Arc::strong_count(&data), 2, "the claim and the earlier snapshots' view");
        drop((first, second));
        assert_eq!(Arc::strong_count(&data), 1, "nothing else holds the installed samples");
        assert!(shared(&installed, &store.snapshot()));
    }
}
