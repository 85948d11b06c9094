//! Durable file-backed block storage with write-ahead logging and crash
//! recovery.
//!
//! Everything above this module — checksummed reads, fault injection,
//! buffer pools, shared caches, the wavelet stores — is generic over
//! [`BlockDevice`] and used to evaporate on process exit because every
//! block lived in [`MemDevice`](crate::device::MemDevice). [`FileDevice`]
//! is the durable twin: a directory holding a main block file plus a
//! write-ahead log, with the classic redo protocol:
//!
//! - **Main file** (`blocks.aims`): a write-once header (magic, version,
//!   geometry, user meta blob, header checksum) followed by fixed-size
//!   block records, each `block_size` big-endian f64 payloads plus the
//!   [`block_digest`] recorded at write time. The header is never mutated
//!   after creation, so no write can tear it.
//! - **WAL** (`wal.aims`): length-prefixed physical redo records
//!   `[len u32][lsn u64][block u64][payload][crc u64]` with a strictly
//!   monotone LSN. Records are full-block images, so replay is naturally
//!   idempotent — applying a record twice equals applying it once.
//! - **Checkpoint**: fsync the WAL, fold every dirty block into the main
//!   file, fsync the main file, then truncate the WAL. Recovery never
//!   needs a checkpoint LSN: it simply replays whatever WAL survives
//!   (idempotence makes re-applying folded records harmless) and
//!   truncates any torn tail at the first invalid record.
//! - **Durability modes** ([`DurabilityMode`]): fsync-always acknowledges
//!   every write durably, periodic syncs every k appends, none syncs only
//!   at checkpoints — the explicit, measurable trade-off the sensor-
//!   network storage literature motivates (PAPERS.md).
//!
//! # Crash points
//!
//! Crash simulation extends the deterministic fault-injection story of
//! [`crate::faults`] to *process death*: WAL appends buffer in userspace
//! and reach the OS file only at an fsync, so a simulated crash loses the
//! buffered bytes but keeps everything previously written. A
//! [`CrashPlan`] kills the device at the N-th crash-eligible step —
//! WAL append, WAL sync (with a seed-chosen torn prefix), each
//! checkpoint phase — as a pure function of one u64 seed, which is what
//! lets `tests/crash_matrix.rs` prove recovery *exact*: the reopened
//! store is bit-identical to a committed prefix of the write history,
//! and fsync-always never loses an acknowledged write.

use std::collections::hash_map::{Entry, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aims_telemetry::counter;

use crate::device::{block_digest, bytes_digest, record_digest};
use crate::device::{BlockDevice, DeviceStats, RawMedia, ReadError, ReadErrorKind};
use crate::faults::mix;

/// `"AIMSFDEV"` — the main-file magic.
const MAGIC: u64 = 0x4149_4D53_4644_4556;
const VERSION: u16 = 2;
const MAIN_FILE: &str = "blocks.aims";
const WAL_FILE: &str = "wal.aims";
/// Salt separating torn-length draws from the fault-schedule streams.
const SALT_CRASH_TORN: u64 = 0x6006;
/// A reader panicked while holding the state lock.
const POISONED: &str = "file state lock poisoned";

/// When the WAL is forced to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityMode {
    /// fsync after every append — an acknowledged write is never lost.
    Always,
    /// fsync every `k` appends (and at every checkpoint).
    Periodic(usize),
    /// fsync only at checkpoints — fastest, weakest.
    None,
}

impl DurabilityMode {
    /// Parses `always`, `periodic`, `periodic:K`, or `none`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(DurabilityMode::Always),
            "none" => Some(DurabilityMode::None),
            "periodic" => Some(DurabilityMode::Periodic(8)),
            other => other
                .strip_prefix("periodic:")
                .and_then(|k| k.parse().ok())
                .filter(|&k: &usize| k > 0)
                .map(DurabilityMode::Periodic),
        }
    }

    /// Stable label for tables and artifacts.
    pub fn label(&self) -> String {
        match self {
            DurabilityMode::Always => "always".into(),
            DurabilityMode::Periodic(k) => format!("periodic:{k}"),
            DurabilityMode::None => "none".into(),
        }
    }
}

/// A seeded crash point: the device dies at crash-eligible step
/// `crash_step` (see the module docs for the step inventory). Both the
/// step choice and every torn-prefix length derive from `seed` alone, so
/// a crash run is exactly reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seed every torn-prefix length derives from.
    pub seed: u64,
    /// Crash-eligible step at which the device dies; `None` never crashes.
    pub crash_step: Option<u64>,
}

impl CrashPlan {
    /// A plan that never crashes.
    pub fn none() -> Self {
        CrashPlan { seed: 0, crash_step: None }
    }

    /// Crash at step `step` with torn lengths drawn from `seed`.
    pub fn at(seed: u64, step: u64) -> Self {
        CrashPlan { seed, crash_step: Some(step) }
    }
}

/// Open-time knobs for a [`FileDevice`].
#[derive(Clone, Debug)]
pub struct FileDeviceOptions {
    /// WAL fsync cadence.
    pub mode: DurabilityMode,
    /// Auto-checkpoint once the WAL (durable + buffered) reaches this
    /// many bytes.
    pub checkpoint_bytes: u64,
    /// Seeded crash point, if any.
    pub crash: CrashPlan,
    /// Opaque user metadata stored in the main-file header at creation
    /// (ignored by [`FileDevice::open`]; the stored blob wins).
    pub meta: Vec<u8>,
}

impl Default for FileDeviceOptions {
    fn default() -> Self {
        FileDeviceOptions {
            mode: DurabilityMode::Always,
            checkpoint_bytes: 64 * 1024,
            crash: CrashPlan::none(),
            meta: Vec::new(),
        }
    }
}

/// What recovery did when the device was opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed WAL records replayed into the main file.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated from the WAL.
    pub truncated_bytes: u64,
    /// Highest LSN replayed (0 when the WAL was empty).
    pub recovered_lsn: u64,
    /// WAL size found on disk before recovery.
    pub wal_bytes: u64,
}

/// Per-device WAL activity counters (the global `storage.wal.*`
/// telemetry aggregates across devices; these are scoped to one device).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// WAL fsyncs performed.
    pub fsyncs: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

/// Interior-mutable state shared by the `&self` read path.
#[derive(Debug)]
struct FileState {
    /// Checksum recorded by the last `write_block` of each block.
    checksums: Vec<u64>,
    /// Blocks whose latest payload is not yet folded into the main file
    /// (every entry is backed by a WAL record, except raw patches).
    dirty: HashMap<usize, Vec<f64>>,
    /// Payload buffers the last checkpoint folded, kept for the next
    /// dirty blocks — never more than one checkpoint's dirty set.
    spare: Vec<Vec<f64>>,
    stats: DeviceStats,
}

impl FileState {
    fn new(checksums: Vec<u64>) -> Self {
        FileState {
            checksums,
            dirty: HashMap::new(),
            spare: Vec::new(),
            stats: DeviceStats::default(),
        }
    }

    /// Makes `data` the dirty payload of block `id`, copied into the
    /// block's current dirty buffer or one recycled from the last
    /// checkpoint; allocates only when neither exists.
    fn stage(&mut self, id: usize, data: &[f64]) {
        match self.dirty.entry(id) {
            Entry::Occupied(e) => e.into_mut().copy_from_slice(data),
            Entry::Vacant(e) => {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(data);
                e.insert(buf);
            }
        }
    }
}

/// A durable, WAL-protected, checksummed block device on the local
/// filesystem. See the module docs for the on-disk formats and the
/// crash-point model.
#[derive(Debug)]
pub struct FileDevice {
    dir: PathBuf,
    main: File,
    wal: File,
    block_size: usize,
    num_blocks: usize,
    data_start: u64,
    meta: Vec<u8>,
    mode: DurabilityMode,
    crash: CrashPlan,
    checkpoint_bytes: u64,
    state: Mutex<FileState>,
    /// WAL bytes buffered in userspace — lost wholesale by a crash.
    wal_pending: Vec<u8>,
    /// Checkpoint scratch, reused across checkpoints: the dirty block ids
    /// in fold order and the one record being written.
    fold_order: Vec<usize>,
    fold_record: Vec<u8>,
    /// Durable WAL length (bytes already written to the OS file).
    wal_len: u64,
    next_lsn: u64,
    /// Highest LSN appended (buffered or durable).
    appended_lsn: u64,
    /// Highest LSN known durable — the acknowledged-write frontier.
    durable_lsn: u64,
    appends_since_sync: usize,
    /// Crash-eligible steps consumed so far.
    step: u64,
    crashed: bool,
    wal_stats: WalStats,
    recovery: RecoveryReport,
}

/// Byte length of one main-file block record.
fn block_record_len(block_size: usize) -> usize {
    block_size * 8 + 8
}

/// Writes `payload`'s big-endian image over `out` (`payload.len() * 8`
/// bytes) in one pass.
fn encode_payload(out: &mut [u8], payload: &[f64]) {
    assert_eq!(out.len(), payload.len() * 8, "record image size mismatch");
    for (dst, v) in out.as_chunks_mut::<8>().0.iter_mut().zip(payload) {
        *dst = v.to_bits().to_be_bytes();
    }
}

/// Makes `out` the main-file block record of payload + checksum.
fn encode_block_record(out: &mut Vec<u8>, payload: &[f64], checksum: u64) {
    let payload_len = payload.len() * 8;
    out.resize(payload_len + 8, 0);
    encode_payload(&mut out[..payload_len], payload);
    out[payload_len..].copy_from_slice(&checksum.to_be_bytes());
}

/// Appends one WAL record (`[len][lsn][block][payload][crc]`) to `buf`.
fn append_wal_record(buf: &mut Vec<u8>, lsn: u64, block: u64, payload: &[f64]) {
    let body_len = 24 + payload.len() * 8;
    let start = buf.len();
    buf.resize(start + 4 + body_len, 0);
    let (len, body) = buf[start..].split_at_mut(4);
    len.copy_from_slice(&(body_len as u32).to_be_bytes());
    let (covered, crc) = body.split_at_mut(body_len - 8);
    covered[..8].copy_from_slice(&lsn.to_be_bytes());
    covered[8..16].copy_from_slice(&block.to_be_bytes());
    encode_payload(&mut covered[16..], payload);
    crc.copy_from_slice(&record_digest(lsn, block, payload).to_be_bytes());
}

/// One committed WAL record; `payload` is the big-endian image of the
/// block, exactly as a main-file block record stores it.
struct WalRecord<'a> {
    lsn: u64,
    block: usize,
    payload: &'a [u8],
}

/// Result of scanning a WAL image: the committed records and where the
/// valid prefix ends (everything past it is a torn tail).
struct WalScan<'a> {
    records: Vec<WalRecord<'a>>,
    valid_bytes: u64,
}

/// Scans a WAL byte image, stopping at the first invalid record: short
/// length field, wrong body length, truncated body, CRC mismatch,
/// non-monotone LSN, or out-of-range block id.
fn scan_wal(bytes: &[u8], block_size: usize, num_blocks: usize) -> WalScan<'_> {
    let body_len = 24 + block_size * 8;
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut last_lsn = 0u64;
    loop {
        if off + 4 > bytes.len() {
            break;
        }
        let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if len != body_len || off + 4 + len > bytes.len() {
            break;
        }
        let body = &bytes[off + 4..off + 4 + len];
        let crc = u64::from_be_bytes(body[len - 8..].try_into().unwrap());
        if bytes_digest(&body[..len - 8]) != crc {
            break;
        }
        let lsn = u64::from_be_bytes(body[..8].try_into().unwrap());
        let block = u64::from_be_bytes(body[8..16].try_into().unwrap());
        if lsn <= last_lsn || block >= num_blocks as u64 {
            break;
        }
        records.push(WalRecord { lsn, block: block as usize, payload: &body[16..len - 8] });
        last_lsn = lsn;
        off += 4 + len;
    }
    WalScan { records, valid_bytes: off as u64 }
}

/// Encodes the write-once main-file header.
fn encode_header(block_size: usize, num_blocks: usize, meta: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(38 + meta.len());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.extend_from_slice(&(block_size as u64).to_be_bytes());
    out.extend_from_slice(&(num_blocks as u64).to_be_bytes());
    out.extend_from_slice(&(meta.len() as u32).to_be_bytes());
    out.extend_from_slice(meta);
    let crc = bytes_digest(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Decoded header: `(block_size, num_blocks, meta, data_start)`.
fn decode_header(main: &mut File) -> io::Result<(usize, usize, Vec<u8>, u64)> {
    let mut fixed = [0u8; 30];
    main.read_exact(&mut fixed).map_err(|_| bad_data("main file shorter than its header"))?;
    if u64::from_be_bytes(fixed[..8].try_into().unwrap()) != MAGIC {
        return Err(bad_data("bad magic in main block file"));
    }
    if u16::from_be_bytes(fixed[8..10].try_into().unwrap()) != VERSION {
        return Err(bad_data("unsupported main block file version"));
    }
    let block_size = u64::from_be_bytes(fixed[10..18].try_into().unwrap()) as usize;
    let num_blocks = u64::from_be_bytes(fixed[18..26].try_into().unwrap()) as usize;
    let meta_len = u32::from_be_bytes(fixed[26..30].try_into().unwrap()) as usize;
    let mut meta = vec![0u8; meta_len];
    main.read_exact(&mut meta).map_err(|_| bad_data("truncated header meta"))?;
    let mut crc = [0u8; 8];
    main.read_exact(&mut crc).map_err(|_| bad_data("truncated header checksum"))?;
    let mut whole = fixed.to_vec();
    whole.extend_from_slice(&meta);
    if bytes_digest(&whole) != u64::from_be_bytes(crc) {
        return Err(bad_data("main block file header checksum mismatch"));
    }
    if block_size == 0 {
        return Err(bad_data("zero block size in header"));
    }
    Ok((block_size, num_blocks, meta, 38 + meta_len as u64))
}

impl FileDevice {
    /// Creates a fresh device directory: writes the header, `num_blocks`
    /// zeroed checksummed block records, and an empty WAL, all fsynced.
    ///
    /// # Panics
    /// If `block_size == 0`.
    pub fn create<P: AsRef<Path>>(
        dir: P,
        block_size: usize,
        num_blocks: usize,
        opts: FileDeviceOptions,
    ) -> io::Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let header = encode_header(block_size, num_blocks, &opts.meta);
        let main = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(MAIN_FILE))?;
        main.write_all_at(&header, 0)?;
        let zero = vec![0.0; block_size];
        let zero_sum = block_digest(&zero);
        let mut zero_rec = Vec::new();
        encode_block_record(&mut zero_rec, &zero, zero_sum);
        for b in 0..num_blocks {
            main.write_all_at(&zero_rec, header.len() as u64 + (b * zero_rec.len()) as u64)?;
        }
        main.sync_all()?;
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))?;
        wal.sync_all()?;
        let layout = (block_size, num_blocks, opts.meta.clone(), header.len() as u64);
        let checksums = vec![zero_sum; num_blocks];
        Ok(Self::assemble(dir, (main, wal), layout, &opts, checksums, RecoveryReport::default()))
    }

    /// Opens an existing device directory and runs recovery: replays the
    /// committed WAL prefix into the main file (idempotent physical
    /// redo), truncates any torn tail, fsyncs, and empties the WAL. The
    /// [`RecoveryReport`] is available via [`FileDevice::recovery`].
    pub fn open<P: AsRef<Path>>(dir: P, opts: FileDeviceOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let mut main = OpenOptions::new().read(true).write(true).open(dir.join(MAIN_FILE))?;
        let (block_size, num_blocks, meta, data_start) = decode_header(&mut main)?;
        // The surviving WAL is the recovery input — never truncate here.
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))?;
        let wal_size = wal.metadata()?.len();
        let mut wal_bytes = vec![0u8; wal_size as usize];
        wal.read_exact_at(&mut wal_bytes, 0)?;
        let scan = scan_wal(&wal_bytes, block_size, num_blocks);

        // A WAL payload is already the block record's big-endian image,
        // and the digest of that image is the digest of the payload.
        let rec_len = block_record_len(block_size) as u64;
        let mut image = Vec::with_capacity(rec_len as usize);
        for rec in &scan.records {
            image.clear();
            image.extend_from_slice(rec.payload);
            image.extend_from_slice(&bytes_digest(rec.payload).to_be_bytes());
            main.write_all_at(&image, data_start + rec.block as u64 * rec_len)?;
        }
        main.sync_data()?;
        wal.set_len(0)?;
        wal.sync_data()?;

        let mut checksums = Vec::with_capacity(num_blocks);
        let mut sum_buf = [0u8; 8];
        for b in 0..num_blocks {
            main.read_exact_at(&mut sum_buf, data_start + b as u64 * rec_len + rec_len - 8)
                .map_err(|_| bad_data(format!("main file truncated at block {b}")))?;
            checksums.push(u64::from_be_bytes(sum_buf));
        }

        let recovery = RecoveryReport {
            replayed_records: scan.records.len() as u64,
            truncated_bytes: wal_size - scan.valid_bytes,
            recovered_lsn: scan.records.last().map_or(0, |r| r.lsn),
            wal_bytes: wal_size,
        };
        let layout = (block_size, num_blocks, meta, data_start);
        Ok(Self::assemble(dir, (main, wal), layout, &opts, checksums, recovery))
    }

    /// The device over its open files: the tail [`FileDevice::create`] and
    /// [`FileDevice::open`] share. `layout` is `(block_size, num_blocks,
    /// meta, data_start)`, as the header records them.
    fn assemble(
        dir: PathBuf,
        (main, wal): (File, File),
        (block_size, num_blocks, meta, data_start): (usize, usize, Vec<u8>, u64),
        opts: &FileDeviceOptions,
        checksums: Vec<u64>,
        recovery: RecoveryReport,
    ) -> Self {
        counter!("storage.wal.replayed").add(recovery.replayed_records);
        counter!("storage.wal.truncated_bytes").add(recovery.truncated_bytes);
        // Every other counter a device records into exists once a device
        // does, so a snapshot shows it (at zero) before the first event.
        for zero in [
            counter!("storage.device.reads"),
            counter!("storage.device.writes"),
            counter!("storage.wal.appends"),
            counter!("storage.wal.fsyncs"),
            counter!("storage.wal.checkpoints"),
        ] {
            zero.add(0);
        }
        let lsn = recovery.recovered_lsn;
        FileDevice {
            dir,
            main,
            wal,
            block_size,
            num_blocks,
            data_start,
            meta,
            mode: opts.mode,
            crash: opts.crash,
            checkpoint_bytes: opts.checkpoint_bytes.max(1),
            state: Mutex::new(FileState::new(checksums)),
            wal_pending: Vec::new(),
            fold_order: Vec::new(),
            fold_record: Vec::new(),
            wal_len: 0,
            next_lsn: lsn + 1,
            appended_lsn: lsn,
            durable_lsn: lsn,
            appends_since_sync: 0,
            step: 0,
            crashed: false,
            wal_stats: WalStats::default(),
            recovery,
        }
    }

    /// Whether `dir` holds a device (its main block file exists).
    pub fn exists<P: AsRef<Path>>(dir: P) -> bool {
        dir.as_ref().join(MAIN_FILE).is_file()
    }

    /// The device directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The user metadata blob recorded at creation.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// The durability mode in force.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// What recovery did at open time (all-zero for a fresh device).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Per-device WAL activity since open.
    pub fn wal_stats(&self) -> WalStats {
        self.wal_stats
    }

    /// Highest LSN known durable — the acknowledged-write frontier. After
    /// a crash, recovery is guaranteed to restore at least this prefix.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Highest LSN appended (durable or still buffered).
    pub fn appended_lsn(&self) -> u64 {
        self.appended_lsn
    }

    /// Crash-eligible steps consumed so far — run a workload once with
    /// [`CrashPlan::none`] to learn the step count, then pick crash steps
    /// below it.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Whether the simulated crash fired: the device is dead — writes are
    /// dropped and reads fail — until the directory is reopened.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Consumes one crash-eligible step; returns `Some(step)` when the
    /// plan says to die here.
    fn crash_here(&mut self) -> Option<u64> {
        let s = self.step;
        self.step += 1;
        if self.crash.crash_step == Some(s) {
            self.crashed = true;
            Some(s)
        } else {
            None
        }
    }

    /// Seed-chosen torn-prefix length in `[0, len]` for crash step `step`.
    fn torn_len(&self, step: u64, len: usize) -> usize {
        (mix(self.crash.seed, step, 0, SALT_CRASH_TORN) % (len as u64 + 1)) as usize
    }

    /// Flushes buffered WAL bytes to the OS file and fsyncs, advancing
    /// the durable frontier. Crash-eligible: a crash here writes only a
    /// seed-chosen prefix (a torn tail for recovery to truncate).
    pub fn sync(&mut self) {
        if self.crashed || self.wal_pending.is_empty() {
            return;
        }
        if let Some(step) = self.crash_here() {
            let torn = self.torn_len(step, self.wal_pending.len());
            self.wal
                .write_all_at(&self.wal_pending[..torn], self.wal_len)
                .expect("WAL write failed");
            self.wal.sync_data().ok();
            self.wal_len += torn as u64;
            return;
        }
        self.wal.write_all_at(&self.wal_pending, self.wal_len).expect("WAL write failed");
        self.wal.sync_data().expect("WAL fsync failed");
        self.wal_len += self.wal_pending.len() as u64;
        self.wal_pending.clear();
        self.durable_lsn = self.appended_lsn;
        self.appends_since_sync = 0;
        self.wal_stats.fsyncs += 1;
        counter!("storage.wal.fsyncs").inc();
    }

    /// Folds every dirty block into the main file and truncates the WAL:
    /// (1) fsync the WAL, (2) write dirty block records, (3) fsync the
    /// main file, (4) truncate the WAL. Steps (2)–(4) are each
    /// crash-eligible; dying anywhere leaves a WAL that replay repairs.
    pub fn checkpoint(&mut self) {
        if self.crashed {
            return;
        }
        self.sync();
        if self.crashed || self.crash_here().is_some() {
            return;
        }
        self.fold_order.clear();
        self.fold_order.extend(self.state.get_mut().expect(POISONED).dirty.keys());
        self.fold_order.sort_unstable();
        let rec_len = block_record_len(self.block_size) as u64;
        for i in 0..self.fold_order.len() {
            let b = self.fold_order[i];
            let st = self.state.get_mut().expect(POISONED);
            encode_block_record(&mut self.fold_record, &st.dirty[&b], st.checksums[b]);
            let off = self.data_start + b as u64 * rec_len;
            if let Some(step) = self.crash_here() {
                // Torn main-file write: the WAL still holds this record,
                // so replay repairs the block on reopen.
                let torn = self.torn_len(step, self.fold_record.len());
                self.main.write_all_at(&self.fold_record[..torn], off).expect("main write failed");
                self.main.sync_data().ok();
                return;
            }
            self.main.write_all_at(&self.fold_record, off).expect("main write failed");
        }
        if self.crash_here().is_some() {
            // Died before the main fsync — WAL intact, replay repairs.
            return;
        }
        self.main.sync_data().expect("main fsync failed");
        if self.crash_here().is_some() {
            // Died before the WAL truncate — replay is idempotent.
            return;
        }
        self.wal.set_len(0).expect("WAL truncate failed");
        self.wal.sync_data().expect("WAL fsync failed");
        self.wal_len = 0;
        let FileState { dirty, spare, .. } = self.state.get_mut().expect(POISONED);
        spare.extend(dirty.drain().map(|(_, buf)| buf));
        self.wal_stats.checkpoints += 1;
        counter!("storage.wal.checkpoints").inc();
    }

    /// Clean shutdown: checkpoint (which syncs) and drop.
    pub fn close(mut self) {
        self.checkpoint();
    }

    /// Payload buffers held for reuse by the next dirty blocks — at most
    /// as many as one checkpoint found dirty.
    pub fn recycled_buffers(&self) -> usize {
        self.state.lock().unwrap().spare.len()
    }

    /// Reads block `id`'s payload straight from the main file into `buf`,
    /// decoding through a stack buffer one page of items at a time.
    fn read_main_payload(&self, id: usize, buf: &mut [f64]) -> io::Result<()> {
        const PAGE_ITEMS: usize = 512;
        let mut page = [0u8; PAGE_ITEMS * 8];
        let mut off = self.data_start + id as u64 * block_record_len(self.block_size) as u64;
        for items in buf.chunks_mut(PAGE_ITEMS) {
            let bytes = &mut page[..items.len() * 8];
            self.main.read_exact_at(bytes, off)?;
            for (v, word) in items.iter_mut().zip(bytes.as_chunks::<8>().0) {
                *v = f64::from_bits(u64::from_be_bytes(*word));
            }
            off += bytes.len() as u64;
        }
        Ok(())
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    fn read_raw_into(&self, id: usize, buf: &mut [f64]) -> Result<(), ReadError> {
        assert!(id < self.num_blocks, "block {id} out of range");
        assert_eq!(buf.len(), self.block_size, "read buffer size mismatch");
        if self.crashed {
            return Err(ReadError { block: id, kind: ReadErrorKind::Io });
        }
        {
            let mut st = self.state.lock().unwrap();
            st.stats.reads += 1;
            if let Some(p) = st.dirty.get(&id) {
                buf.copy_from_slice(p);
                counter!("storage.device.reads").inc();
                return Ok(());
            }
        }
        counter!("storage.device.reads").inc();
        self.read_main_payload(id, buf)
            .map_err(|_| ReadError { block: id, kind: ReadErrorKind::Io })
    }

    fn stored_checksum(&self, id: usize) -> u64 {
        let st = self.state.lock().unwrap();
        assert!(id < st.checksums.len(), "block {id} out of range");
        st.checksums[id]
    }

    fn write_block(&mut self, id: usize, data: &[f64]) {
        assert!(id < self.num_blocks, "block {id} out of range");
        assert_eq!(data.len(), self.block_size, "block data size mismatch");
        if self.crashed {
            return;
        }
        counter!("storage.device.writes").inc();

        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.appended_lsn = lsn;
        append_wal_record(&mut self.wal_pending, lsn, id as u64, data);
        self.wal_stats.appends += 1;
        counter!("storage.wal.appends").inc();
        let died = self.crash_here().is_some();
        let st = self.state.get_mut().expect(POISONED);
        st.stats.writes += 1;
        if died {
            // Crash at append: the record only ever lived in the
            // userspace buffer, so it is lost wholesale.
            return;
        }
        st.checksums[id] = block_digest(data);
        st.stage(id, data);

        match self.mode {
            DurabilityMode::Always => self.sync(),
            DurabilityMode::Periodic(k) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= k.max(1) {
                    self.sync();
                }
            }
            DurabilityMode::None => {}
        }
        if !self.crashed && self.wal_len + self.wal_pending.len() as u64 >= self.checkpoint_bytes {
            self.checkpoint();
        }
    }

    fn stats(&self) -> DeviceStats {
        self.state.lock().unwrap().stats
    }

    fn reset_stats(&self) {
        self.state.lock().unwrap().stats = DeviceStats::default();
    }
}

impl RawMedia for FileDevice {
    fn patch_raw(&mut self, id: usize, data: &[f64]) {
        assert!(id < self.num_blocks, "block {id} out of range");
        assert_eq!(data.len(), self.block_size, "block data size mismatch");
        if self.crashed {
            return;
        }
        // Media corruption bypasses the WAL: the payload changes, the
        // recorded checksum does not, and no redo record is written.
        self.state.get_mut().expect(POISONED).stage(id, data);
    }

    fn raw_payload(&self, id: usize) -> Vec<f64> {
        assert!(id < self.num_blocks, "block {id} out of range");
        if let Some(p) = self.state.lock().unwrap().dirty.get(&id) {
            return p.clone();
        }
        let mut buf = vec![0.0; self.block_size];
        self.read_main_payload(id, &mut buf).expect("raw read failed");
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp directory per test invocation.
    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("aims-file-{}-{tag}-{n}", std::process::id()))
    }

    fn payload(block_size: usize, salt: u64) -> Vec<f64> {
        (0..block_size).map(|i| (salt as f64) * 10.0 + i as f64 + 0.25).collect()
    }

    #[test]
    fn create_write_read_roundtrip_and_reopen() {
        let dir = test_dir("roundtrip");
        let mut d = FileDevice::create(&dir, 4, 6, FileDeviceOptions::default()).unwrap();
        for b in 0..6 {
            d.write_block(b, &payload(4, b as u64));
        }
        for b in 0..6 {
            assert_eq!(d.read_block(b).unwrap(), payload(4, b as u64));
        }
        assert_eq!(d.durable_lsn(), 6, "fsync-always acks every write");
        drop(d); // no checkpoint, no close — the WAL alone must carry it

        let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        assert_eq!(d.recovery().replayed_records, 6);
        assert_eq!(d.recovery().truncated_bytes, 0);
        assert_eq!(d.recovery().recovered_lsn, 6);
        for b in 0..6 {
            let got = d.read_block(b).unwrap();
            for (a, e) in got.iter().zip(payload(4, b as u64)) {
                assert_eq!(a.to_bits(), e.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_and_truncates_wal() {
        let dir = test_dir("checkpoint");
        let mut d = FileDevice::create(&dir, 4, 4, FileDeviceOptions::default()).unwrap();
        for b in 0..4 {
            d.write_block(b, &payload(4, b as u64));
        }
        d.checkpoint();
        assert_eq!(d.wal_stats().checkpoints, 1);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        drop(d);
        let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        assert_eq!(d.recovery().replayed_records, 0, "WAL already folded");
        for b in 0..4 {
            assert_eq!(d.read_block(b).unwrap(), payload(4, b as u64));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn none_mode_acks_nothing_until_checkpoint() {
        let dir = test_dir("none-mode");
        let opts = FileDeviceOptions { mode: DurabilityMode::None, ..Default::default() };
        let mut d = FileDevice::create(&dir, 2, 4, opts.clone()).unwrap();
        d.write_block(0, &[1.0, 2.0]);
        d.write_block(1, &[3.0, 4.0]);
        assert_eq!(d.durable_lsn(), 0);
        assert_eq!(d.wal_stats().fsyncs, 0);
        d.checkpoint();
        assert_eq!(d.durable_lsn(), 2);
        drop(d);
        let d = FileDevice::open(&dir, opts).unwrap();
        assert_eq!(d.read_block(0).unwrap(), vec![1.0, 2.0]);
        assert_eq!(d.read_block(1).unwrap(), vec![3.0, 4.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_sync_loses_only_unacked_tail() {
        let dir = test_dir("crash-unacked");
        // periodic:2 — writes 1,2 sync; write 3 buffers; crash at its
        // append step loses only write 3.
        let opts = FileDeviceOptions { mode: DurabilityMode::Periodic(2), ..Default::default() };
        let mut d = FileDevice::create(&dir, 2, 4, opts.clone()).unwrap();
        d.write_block(0, &[1.0, 1.5]);
        d.write_block(1, &[2.0, 2.5]);
        assert_eq!(d.durable_lsn(), 2);
        let steps = d.steps_taken();
        drop(d);

        // Re-run with a crash at the append step of write 3.
        let crash_opts = FileDeviceOptions { crash: CrashPlan::at(99, steps), ..opts.clone() };
        let mut d = FileDevice::create(&dir, 2, 4, crash_opts).unwrap();
        d.write_block(0, &[1.0, 1.5]);
        d.write_block(1, &[2.0, 2.5]);
        d.write_block(2, &[3.0, 3.5]);
        assert!(d.is_crashed());
        assert_eq!(d.durable_lsn(), 2);
        assert!(d.read_block(0).is_err(), "crashed device refuses reads");
        drop(d);

        let d = FileDevice::open(&dir, opts).unwrap();
        assert_eq!(d.recovery().recovered_lsn, 2);
        assert_eq!(d.read_block(0).unwrap(), vec![1.0, 1.5]);
        assert_eq!(d.read_block(1).unwrap(), vec![2.0, 2.5]);
        assert_eq!(d.read_block(2).unwrap(), vec![0.0, 0.0], "lost write stays zero");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_exactly() {
        // fsync-always: every write is append (step 2k) + sync (step
        // 2k+1). Crashing at sync step of write 3 leaves a seed-chosen
        // torn prefix; recovery must keep writes 1–2 and drop the tail.
        let dir = test_dir("torn-tail");
        for seed in [1u64, 7, 23, 1003] {
            let opts = FileDeviceOptions { crash: CrashPlan::at(seed, 5), ..Default::default() };
            let mut d = FileDevice::create(&dir, 2, 4, opts).unwrap();
            d.write_block(0, &[1.0, 1.5]);
            d.write_block(1, &[2.0, 2.5]);
            d.write_block(2, &[3.0, 3.5]);
            assert!(d.is_crashed(), "seed {seed}");
            drop(d);
            let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
            let r = d.recovery();
            assert!(r.recovered_lsn >= 2, "seed {seed}: acked writes survived");
            assert!(r.recovered_lsn <= 3, "seed {seed}");
            // Torn bytes (if any) were truncated; WAL is empty again.
            assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
            assert_eq!(d.read_block(0).unwrap(), vec![1.0, 1.5], "seed {seed}");
            assert_eq!(d.read_block(1).unwrap(), vec![2.0, 2.5], "seed {seed}");
            let b2 = d.read_block(2).unwrap();
            if r.recovered_lsn == 3 {
                assert_eq!(b2, vec![3.0, 3.5], "seed {seed}: full record made it");
            } else {
                assert_eq!(b2, vec![0.0, 0.0], "seed {seed}: torn record dropped");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crash_mid_checkpoint_is_repaired_by_replay() {
        let dir = test_dir("crash-checkpoint");
        // Learn the step layout: 4 writes (fsync-always: 8 steps), then
        // checkpoint steps follow. Crash at each checkpoint-internal step.
        let probe_opts = FileDeviceOptions::default();
        let mut d = FileDevice::create(&dir, 2, 4, probe_opts).unwrap();
        for b in 0..4 {
            d.write_block(b, &payload(2, b as u64));
        }
        let before = d.steps_taken();
        d.checkpoint();
        let after = d.steps_taken();
        drop(d);
        assert!(after > before);
        for step in before..after {
            let opts = FileDeviceOptions {
                crash: CrashPlan::at(step.wrapping_mul(977), step),
                ..Default::default()
            };
            let mut d = FileDevice::create(&dir, 2, 4, opts).unwrap();
            for b in 0..4 {
                d.write_block(b, &payload(2, b as u64));
            }
            d.checkpoint();
            assert!(d.is_crashed(), "step {step}");
            drop(d);
            let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
            for b in 0..4 {
                let got = d.read_block(b).unwrap();
                for (a, e) in got.iter().zip(payload(2, b as u64)) {
                    assert_eq!(a.to_bits(), e.to_bits(), "step {step} block {b}");
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn meta_roundtrips_and_mode_parses() {
        let dir = test_dir("meta");
        let opts = FileDeviceOptions { meta: b"hello-cube".to_vec(), ..Default::default() };
        FileDevice::create(&dir, 2, 2, opts).unwrap();
        let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        assert_eq!(d.meta(), b"hello-cube");
        assert!(FileDevice::exists(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!FileDevice::exists(&dir));

        assert_eq!(DurabilityMode::parse("always"), Some(DurabilityMode::Always));
        assert_eq!(DurabilityMode::parse("none"), Some(DurabilityMode::None));
        assert_eq!(DurabilityMode::parse("periodic"), Some(DurabilityMode::Periodic(8)));
        assert_eq!(DurabilityMode::parse("periodic:3"), Some(DurabilityMode::Periodic(3)));
        assert_eq!(DurabilityMode::parse("periodic:0"), None);
        assert_eq!(DurabilityMode::parse("sometimes"), None);
        assert_eq!(DurabilityMode::Periodic(3).label(), "periodic:3");
    }

    #[test]
    fn auto_checkpoint_fires_on_wal_growth() {
        let dir = test_dir("auto-ckpt");
        let opts = FileDeviceOptions { checkpoint_bytes: 200, ..Default::default() };
        let mut d = FileDevice::create(&dir, 2, 4, opts).unwrap();
        for i in 0..12 {
            d.write_block(i % 4, &[i as f64, -(i as f64)]);
        }
        assert!(d.wal_stats().checkpoints > 0, "200-byte threshold must have tripped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_directory_is_refused_with_the_typed_error() {
        let dir = test_dir("v1-header");
        FileDevice::create(&dir, 2, 2, FileDeviceOptions::default()).unwrap();
        let f = OpenOptions::new().write(true).open(dir.join(MAIN_FILE)).unwrap();
        f.write_all_at(&1u16.to_be_bytes(), 8).unwrap();
        let before = std::fs::read(dir.join(MAIN_FILE)).unwrap();
        let err = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported main block file version");
        assert_eq!(std::fs::read(dir.join(MAIN_FILE)).unwrap(), before, "refused, not rewritten");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let dir = test_dir("bad-header");
        FileDevice::create(&dir, 2, 2, FileDeviceOptions::default()).unwrap();
        let f = OpenOptions::new().write(true).open(dir.join(MAIN_FILE)).unwrap();
        f.write_all_at(&[0xFF], 3).unwrap();
        assert!(FileDevice::open(&dir, FileDeviceOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
