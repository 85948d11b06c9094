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
//! - **Main file** (`blocks.aims`, version 3): a write-once header (magic,
//!   version, geometry, user meta blob, header checksum), a table of one
//!   big-endian [`block_digest`] per block, then each block's `block_size`
//!   big-endian f64s — a hole until creation or a checkpoint writes the
//!   block, and never trusted for its zeros, since every digest is explicit
//!   in the table. The header is never mutated after creation, so no write
//!   can tear it.
//! - **Creation** ([`ImageWriter`], which [`FileDevice::create_from`]
//!   drives with a whole image): the initial image arrives in order, a
//!   slice at a time, and is written once, sequentially, into a staging
//!   main file — each block digested, priced (`Σc²`) and encoded in the
//!   pass that writes it, no WAL record, no checkpoint. The digest table
//!   and the header go in last, and a rename plus a directory fsync
//!   publishes the file. A caller computing its image out of core may
//!   stage data in a spill file beside it, never fsynced and unlinked
//!   before the rename. A crash during creation leaves no device or the
//!   whole image, plus at most the staging file and the spill, which are
//!   no device and which the next create truncates.
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
//! buffered records but keeps everything previously written. What is
//! buffered is raw, and staged once: a `write_block` copies its payload
//! into a record arena, and nothing more. The arena keeps every record
//! until the next checkpoint, so it is also the device's dirty image — a
//! block not yet folded reads as its latest record. The next
//! [`FileDevice::sync`] encodes and digests the records not yet encoded
//! just before its one write and fsync (under fsync-always, at once), and a
//! dirty block's checksum-table digest is its latest payload's, taken when
//! needed — by the checkpoint fold that writes that record, a verified
//! read, or a raw patch (which keeps it before changing the payload). The
//! bytes that reach the files are the same either way. A
//! [`CrashPlan`] kills the device at the N-th crash-eligible step —
//! WAL append, WAL sync (with a seed-chosen torn prefix), each
//! checkpoint phase — as a pure function of one u64 seed, which is what
//! lets `tests/crash_matrix.rs` prove recovery *exact*: the reopened
//! store is bit-identical to a committed prefix of the write history,
//! and fsync-always never loses an acknowledged write.

use std::cmp::Reverse;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aims_telemetry::counter;

use crate::device::{block_digest, bytes_digest, record_digest};
use crate::device::{BlockDevice, DeviceStats, RawMedia, ReadError, ReadErrorKind};
use crate::faults::mix;
use crate::store::block_energy;

/// `"AIMSFDEV"` — the main-file magic.
const MAGIC: u64 = 0x4149_4D53_4644_4556;
const VERSION: u16 = 3;
const MAIN_FILE: &str = "blocks.aims";
/// Where creation builds the main file before publishing it by rename.
const STAGING_FILE: &str = "blocks.aims.new";
/// A create's scratch file beside the staging file ([`ImageWriter::spill`]).
const SPILL_FILE: &str = "blocks.aims.spill";
const PAGE_ITEMS: usize = 512;
/// Items creation encodes per `pwrite`: a 256 KiB staging buffer.
const STAGE_ITEMS: usize = 32 * 1024;
const WAL_FILE: &str = "wal.aims";
/// Salt separating torn-length draws from the fault-schedule streams.
const SALT_CRASH_TORN: u64 = 0x6006;
/// A reader panicked while holding the stats lock.
const POISONED: &str = "device stats lock poisoned";

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
    /// Opaque user metadata stored in the main-file header by
    /// [`FileDevice::create_from`] (ignored by [`FileDevice::open`], where
    /// the stored blob wins, and by [`FileDevice::image_writer`], whose
    /// blob is given to [`ImageWriter::finish`]).
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

/// One WAL record in the arena, raw: the record at index `i` has its
/// payload at `record_items[i * block_size..][..block_size]`.
#[derive(Clone, Copy, Debug)]
struct Record {
    lsn: u64,
    block: usize,
    /// Set by [`RawMedia::patch_raw`]: the digest of the payload the write
    /// logged, which the record's patched payload no longer has.
    patched: Option<u64>,
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
    layout: MainLayout,
    meta: Vec<u8>,
    mode: DurabilityMode,
    crash: CrashPlan,
    checkpoint_bytes: u64,
    /// The main file's digest table, as the last fold left it.
    checksums: Vec<u64>,
    stats: Mutex<DeviceStats>,
    /// The record arena, which is the device's dirty image: every WAL
    /// record appended since the last checkpoint, raw, its payload items
    /// back to back in `record_items`. A block's latest record is its
    /// current payload. Records `..encoded` are encoded — in the WAL or in
    /// `wal_pending` — and the rest are buffered in userspace only, so a
    /// crash loses them. Both keep their capacity.
    records: Vec<Record>,
    record_items: Vec<f64>,
    encoded: usize,
    /// Encoded WAL bytes not yet written, built just before `sync`'s write.
    wal_pending: Vec<u8>,
    /// Checkpoint scratch, reused across checkpoints: the arena index of
    /// each dirty block's latest record in fold order, and the one payload
    /// image being written.
    fold_order: Vec<usize>,
    fold_payload: Vec<u8>,
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

/// Main-file offsets: header, then checksum table, then payloads to `file_len`.
#[derive(Clone, Copy, Debug)]
struct MainLayout {
    table_start: u64,
    payload_start: u64,
    payload_len: u64,
    file_len: u64,
}

impl MainLayout {
    /// `None` when the geometry overflows a file offset.
    fn new(header_len: u64, block_size: usize, num_blocks: usize) -> Option<Self> {
        let payload_len = (block_size as u64).checked_mul(8)?;
        let payload_start = header_len.checked_add((num_blocks as u64).checked_mul(8)?)?;
        let file_len = payload_start.checked_add(payload_len.checked_mul(num_blocks as u64)?)?;
        Some(MainLayout { table_start: header_len, payload_start, payload_len, file_len })
    }

    fn table_entry(&self, id: usize) -> u64 {
        self.table_start + id as u64 * 8
    }

    fn payload(&self, id: usize) -> u64 {
        self.payload_start + id as u64 * self.payload_len
    }
}

/// Writes `payload`'s big-endian image over `out` (`payload.len() * 8`
/// bytes) in one pass.
fn encode_payload(out: &mut [u8], payload: &[f64]) {
    assert_eq!(out.len(), payload.len() * 8, "record image size mismatch");
    for (dst, v) in out.as_chunks_mut::<8>().0.iter_mut().zip(payload) {
        *dst = v.to_bits().to_be_bytes();
    }
}

/// Encoded bytes of one WAL record of `items` payload items.
fn wal_record_len(items: usize) -> usize {
    4 + 24 + items * 8
}

/// Appends one WAL record (`[len][lsn][block][payload][crc]`) to `buf`.
fn append_wal_record(buf: &mut Vec<u8>, lsn: u64, block: u64, payload: &[f64]) {
    let body_len = wal_record_len(payload.len()) - 4;
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
/// block, exactly as the main file's payload region stores it.
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
    let body_len = wal_record_len(block_size) - 4;
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

/// Decoded header: `(block_size, num_blocks, meta, header_len)`.
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
    // One buffer: the checksummed bytes, which then become the meta blob.
    let mut meta = vec![0u8; fixed.len() + meta_len];
    meta[..fixed.len()].copy_from_slice(&fixed);
    main.read_exact(&mut meta[fixed.len()..]).map_err(|_| bad_data("truncated header meta"))?;
    let mut crc = [0u8; 8];
    main.read_exact(&mut crc).map_err(|_| bad_data("truncated header checksum"))?;
    if bytes_digest(&meta) != u64::from_be_bytes(crc) {
        return Err(bad_data("main block file header checksum mismatch"));
    }
    meta.drain(..fixed.len());
    if block_size == 0 {
        return Err(bad_data("zero block size in header"));
    }
    Ok((block_size, num_blocks, meta, 38 + meta_len as u64))
}

impl FileDevice {
    /// Creates a fresh, all-zero device directory:
    /// [`FileDevice::create_from`] with an empty image.
    ///
    /// # Panics
    /// If `block_size == 0` or the geometry overflows a file offset.
    pub fn create<P: AsRef<Path>>(
        dir: P,
        block_size: usize,
        num_blocks: usize,
        opts: FileDeviceOptions,
    ) -> io::Result<Self> {
        Self::create_from(dir, block_size, num_blocks, &[], opts)
    }

    /// Creates a device directory whose blocks hold `image` — item `i` in
    /// block `i / block_size`, the last image block zero-padded — and zeros
    /// past it, replacing any device already there: an [`ImageWriter`]
    /// given the whole image in one [`ImageWriter::append`], then
    /// [`ImageWriter::finish`]ed with `opts.meta`. Payloads past the image
    /// stay a hole that reads back as zeros, so they cost 8 bytes a block
    /// until a checkpoint first folds them. Creation writes no WAL record
    /// and has no crash steps.
    ///
    /// # Panics
    /// If `block_size == 0`, the geometry overflows a file offset, or
    /// `image` is longer than the device.
    pub fn create_from<P: AsRef<Path>>(
        dir: P,
        block_size: usize,
        num_blocks: usize,
        image: &[f64],
        mut opts: FileDeviceOptions,
    ) -> io::Result<Self> {
        // The device keeps the caller's meta blob itself, not a copy.
        let meta = std::mem::take(&mut opts.meta);
        let mut writer = Self::image_writer(dir, block_size, num_blocks, meta.len(), opts)?;
        writer.append(image)?;
        writer.finish(|_| meta)
    }

    /// Starts a device directory whose image arrives in order, a slice at a
    /// time, so no caller need hold all of it (see [`ImageWriter`]). The
    /// header's meta blob is given to [`ImageWriter::finish`], once the
    /// image's block energies are known; `meta_len` is its length, which
    /// fixes where the digest table and the payloads start. `opts.meta` is
    /// ignored.
    ///
    /// # Panics
    /// If `block_size == 0` or the geometry overflows a file offset.
    pub fn image_writer<P: AsRef<Path>>(
        dir: P,
        block_size: usize,
        num_blocks: usize,
        meta_len: usize,
        opts: FileDeviceOptions,
    ) -> io::Result<ImageWriter> {
        assert!(block_size > 0, "block size must be positive");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // The header is 38 fixed bytes around the meta blob (`encode_header`).
        let layout = MainLayout::new(38 + meta_len as u64, block_size, num_blocks)
            .expect("device geometry overflows a file offset");
        let main = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(STAGING_FILE))?;
        // Only sized: payloads past the image stay a hole that reads as zeros.
        main.set_len(layout.file_len)?;
        let stage_items = STAGE_ITEMS.min(block_size.saturating_mul(num_blocks));
        Ok(ImageWriter {
            dir,
            main,
            block_size,
            num_blocks,
            layout,
            meta_len,
            opts,
            checksums: Vec::with_capacity(num_blocks),
            energies: Vec::with_capacity(num_blocks),
            carry: Vec::new(),
            stage: vec![0; stage_items * 8],
            staged: 0,
            written: layout.payload_start,
        })
    }

    /// Opens an existing device directory and runs recovery: replays the
    /// committed WAL prefix into the main file (idempotent physical
    /// redo), truncates any torn tail, fsyncs, and empties the WAL. The
    /// [`RecoveryReport`] is available via [`FileDevice::recovery`].
    pub fn open<P: AsRef<Path>>(dir: P, opts: FileDeviceOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let mut main = OpenOptions::new().read(true).write(true).open(dir.join(MAIN_FILE))?;
        let (block_size, num_blocks, meta, header_len) = decode_header(&mut main)?;
        let main_len = main.metadata()?.len();
        let layout = MainLayout::new(header_len, block_size, num_blocks)
            .filter(|layout| layout.file_len <= main_len)
            .ok_or_else(|| bad_data("main file shorter than its checksum table and payloads"))?;
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

        // A WAL payload is already the payload region's big-endian image,
        // and the digest of that image is the digest of the payload.
        for rec in &scan.records {
            main.write_all_at(rec.payload, layout.payload(rec.block))?;
            let digest = bytes_digest(rec.payload).to_be_bytes();
            main.write_all_at(&digest, layout.table_entry(rec.block))?;
        }
        main.sync_data()?;
        wal.set_len(0)?;
        wal.sync_data()?;

        let mut checksums = Vec::with_capacity(num_blocks);
        let mut page = [0u8; PAGE_ITEMS * 8];
        for first in (0..num_blocks).step_by(PAGE_ITEMS) {
            let bytes = &mut page[..(num_blocks - first).min(PAGE_ITEMS) * 8];
            main.read_exact_at(bytes, layout.table_entry(first))?;
            checksums.extend(bytes.as_chunks::<8>().0.iter().map(|w| u64::from_be_bytes(*w)));
        }

        let recovery = RecoveryReport {
            replayed_records: scan.records.len() as u64,
            truncated_bytes: wal_size - scan.valid_bytes,
            recovered_lsn: scan.records.last().map_or(0, |r| r.lsn),
            wal_bytes: wal_size,
        };
        let shape = (block_size, num_blocks, meta, layout);
        Ok(Self::assemble(dir, (main, wal), shape, &opts, checksums, recovery))
    }

    /// The device over its open files: the tail [`FileDevice::create_from`] and
    /// [`FileDevice::open`] share. `shape` is `(block_size, num_blocks,
    /// meta, layout)`, as the header records them.
    fn assemble(
        dir: PathBuf,
        (main, wal): (File, File),
        (block_size, num_blocks, meta, layout): (usize, usize, Vec<u8>, MainLayout),
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
            layout,
            meta,
            mode: opts.mode,
            crash: opts.crash,
            checkpoint_bytes: opts.checkpoint_bytes.max(1),
            checksums,
            stats: Mutex::new(DeviceStats::default()),
            records: Vec::new(),
            record_items: Vec::new(),
            encoded: 0,
            wal_pending: Vec::new(),
            fold_order: Vec::new(),
            fold_payload: vec![0; block_size * 8],
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

    /// Whether `dir` holds a device (its main block file exists; the
    /// staging file of a create that never finished does not count).
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

    /// How many further [`BlockDevice::write_block`] calls would each only
    /// stage their record, none of them running [`FileDevice::sync`] (the
    /// mode's cadence) or the byte-triggered [`FileDevice::checkpoint`]: 0
    /// under [`DurabilityMode::Always`] and once crashed. A caller may hold
    /// back that many writes and issue them later, before any other call
    /// on the device, and the device ends in the same state: none of them
    /// reaches the OS before the write that syncs.
    pub fn appends_before_sync(&self) -> usize {
        if self.crashed {
            return 0;
        }
        let by_count = match self.mode {
            DurabilityMode::Always => return 0,
            DurabilityMode::Periodic(k) => (k.max(1) - 1).saturating_sub(self.appends_since_sync),
            DurabilityMode::None => usize::MAX,
        };
        // Each write adds one record to the bytes `write_block` checks.
        let record = wal_record_len(self.block_size) as u64;
        let by_bytes = (self.checkpoint_bytes - 1).saturating_sub(self.wal_bytes()) / record;
        by_count.min(usize::try_from(by_bytes).unwrap_or(usize::MAX))
    }

    /// The WAL's length were every record appended so far written: the
    /// durable bytes, the encoded ones not yet written, and the unencoded
    /// records at their encoded length. The auto-checkpoint trigger.
    fn wal_bytes(&self) -> u64 {
        let unencoded = (self.records.len() - self.encoded) * wal_record_len(self.block_size);
        self.wal_len + (self.wal_pending.len() + unencoded) as u64
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

    /// Encodes every record not yet encoded — big-endian image and record
    /// digest, the batch in one buffer — writes it to the OS file in one
    /// `pwrite` and fsyncs, advancing the durable frontier. The records
    /// stay in the arena, as the blocks' dirty image, until the next
    /// checkpoint. A no-op when nothing was appended. Crash-eligible: a
    /// crash here writes only a seed-chosen prefix of the encoded batch (a
    /// torn tail for recovery to truncate).
    pub fn sync(&mut self) {
        if self.crashed {
            return;
        }
        self.encode_through(self.records.len());
        if self.wal_pending.is_empty() {
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
    /// (1) sync the WAL, (2) write each dirty block's latest arena record —
    /// its payload and its digest, taken here — in ascending block order,
    /// (3) fsync the main file, (4) truncate the WAL and empty the arena.
    /// Steps (2)–(4) are each crash-eligible, one step per folded block;
    /// dying anywhere leaves a WAL replay repairs.
    pub fn checkpoint(&mut self) {
        if self.crashed {
            return;
        }
        self.sync();
        if self.crashed || self.crash_here().is_some() {
            return;
        }
        let records = &self.records;
        self.fold_order.clear();
        self.fold_order.extend(0..records.len());
        self.fold_order.sort_unstable_by_key(|&i| (records[i].block, Reverse(i)));
        self.fold_order.dedup_by_key(|i| records[*i].block);
        let payload_len = self.fold_payload.len();
        for k in 0..self.fold_order.len() {
            let i = self.fold_order[k];
            let Record { block: b, patched, .. } = self.records[i];
            let items = &self.record_items[i * self.block_size..][..self.block_size];
            encode_payload(&mut self.fold_payload, items);
            self.checksums[b] = patched.unwrap_or_else(|| block_digest(items));
            let digest = self.checksums[b].to_be_bytes();
            // A torn fold writes a prefix of payload ‖ digest; the WAL still
            // holds this record, so replay repairs the block on reopen.
            let crash = self.crash_here();
            let len = crash.map_or(payload_len + 8, |step| self.torn_len(step, payload_len + 8));
            let payload = &self.fold_payload[..len.min(payload_len)];
            self.main.write_all_at(payload, self.layout.payload(b)).expect("main write failed");
            let digest = &digest[..len.saturating_sub(payload_len)];
            self.main.write_all_at(digest, self.layout.table_entry(b)).expect("main write failed");
            if crash.is_some() {
                self.main.sync_data().ok();
                return;
            }
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
        self.records.clear();
        self.record_items.clear();
        self.encoded = 0;
        self.wal_stats.checkpoints += 1;
        counter!("storage.wal.checkpoints").inc();
    }

    /// Clean shutdown: checkpoint (which syncs) and drop.
    pub fn close(mut self) {
        self.checkpoint();
    }

    /// Encodes the arena's records up to (not including) `end` onto
    /// `wal_pending`, if not already encoded.
    fn encode_through(&mut self, end: usize) {
        for i in self.encoded..end {
            let Record { lsn, block, .. } = self.records[i];
            let payload = &self.record_items[i * self.block_size..][..self.block_size];
            append_wal_record(&mut self.wal_pending, lsn, block as u64, payload);
        }
        self.encoded = self.encoded.max(end);
    }

    /// Arena index of block `id`'s latest record, if it has one — a scan
    /// back over at most one checkpoint's records.
    fn latest(&self, id: usize) -> Option<usize> {
        self.records.iter().rposition(|r| r.block == id)
    }

    /// Arena record `i`'s payload.
    fn record_payload(&self, i: usize) -> &[f64] {
        &self.record_items[i * self.block_size..][..self.block_size]
    }

    /// Reads block `id`'s payload straight from the main file into `buf`,
    /// decoding through a stack buffer one page of items at a time.
    fn read_main_payload(&self, id: usize, buf: &mut [f64]) -> io::Result<()> {
        let mut page = [0u8; PAGE_ITEMS * 8];
        let mut off = self.layout.payload(id);
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

/// A [`FileDevice`] image being written in order (from
/// [`FileDevice::image_writer`]): the one create path, which
/// [`FileDevice::create_from`] drives with a whole image.
///
/// Each [`ImageWriter::append`] takes the next items. Per block, in the
/// pass that writes it, the writer takes the block's digest and its energy
/// (`Σc²`, [`block_energy`]) and big-endian-encodes its
/// items into one 256 KiB staging buffer, which goes to the staging main
/// file `blocks.aims.new` in sequential writes as it fills. A block that
/// straddles two appends is carried between them. [`ImageWriter::finish`]
/// writes the digest table and the header last, which is safe because the
/// staging file is private until the rename that publishes it.
///
/// A caller that must stage data of its own while it computes the image
/// (an out-of-core transform) asks for [`ImageWriter::spill`], a scratch
/// file beside the staging file. Neither file is ever a device
/// ([`FileDevice::exists`] ignores both); the next create truncates both,
/// and `finish` unlinks the spill before the rename, so a published store
/// never has one beside it.
#[derive(Debug)]
pub struct ImageWriter {
    dir: PathBuf,
    main: File,
    block_size: usize,
    num_blocks: usize,
    layout: MainLayout,
    meta_len: usize,
    opts: FileDeviceOptions,
    /// Digest and energy of each image block sealed so far.
    checksums: Vec<u64>,
    energies: Vec<f64>,
    /// The items so far of a block that straddles two appends.
    carry: Vec<f64>,
    /// Encoded items not yet written, `staged` of them, which go to file
    /// offset `written`.
    stage: Vec<u8>,
    staged: usize,
    written: u64,
}

impl ImageWriter {
    /// Appends the next `items` of the image.
    ///
    /// # Panics
    /// If the image grows past the device.
    pub fn append(&mut self, mut items: &[f64]) -> io::Result<()> {
        let appended = self.checksums.len() * self.block_size + self.carry.len();
        assert!(
            items.len() <= self.block_size * self.num_blocks - appended,
            "image larger than the device"
        );
        while !items.is_empty() {
            let (part, rest) =
                items.split_at((self.block_size - self.carry.len()).min(items.len()));
            if self.carry.is_empty() && part.len() == self.block_size {
                self.seal(part);
            } else {
                self.carry.extend_from_slice(part);
                if self.carry.len() == self.block_size {
                    let carry = std::mem::take(&mut self.carry);
                    self.seal(&carry);
                    self.carry = carry;
                    self.carry.clear();
                }
            }
            self.encode(part)?;
            items = rest;
        }
        Ok(())
    }

    /// Opens the spill: a scratch file beside the staging file, empty, for
    /// the caller's own use while it computes the image. Never fsynced;
    /// [`ImageWriter::finish`] unlinks it.
    pub fn spill(&self) -> io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.dir.join(SPILL_FILE))
    }

    /// Publishes the image: seals a short last block (zero-padded for its
    /// digest; its energy is that of its items, since the padding would add
    /// only `+0.0` terms), asks `meta` for the header's meta blob given one
    /// energy per image block, writes the digest table (zeros' digest past
    /// the image) and the header, and fsyncs the file. An old device goes
    /// next, then the spill; an empty WAL is fsynced, and only then is the
    /// staging file renamed to `blocks.aims` and the directory fsynced. A
    /// crash at any point leaves no device or the whole image, never a
    /// part of it.
    ///
    /// # Panics
    /// If the blob `meta` returns is not the `meta_len` bytes the writer
    /// was started with.
    pub fn finish(mut self, meta: impl FnOnce(&[f64]) -> Vec<u8>) -> io::Result<FileDevice> {
        if !self.carry.is_empty() {
            let energy = block_energy(&self.carry);
            self.carry.resize(self.block_size, 0.0);
            self.checksums.push(block_digest(&self.carry));
            self.energies.push(energy);
        }
        self.flush()?;
        let meta = meta(&self.energies);
        assert_eq!(meta.len(), self.meta_len, "meta blob is not the length the writer was given");
        let ImageWriter {
            dir,
            main,
            block_size,
            num_blocks,
            layout,
            opts,
            mut checksums,
            mut stage,
            ..
        } = self;
        checksums.resize(num_blocks, block_digest(&vec![0.0; block_size]));
        let page = (stage.len() / 8).max(1);
        stage.resize(page * 8, 0);
        for (first, sums) in (0..).step_by(page).zip(checksums.chunks(page)) {
            let bytes = &mut stage[..sums.len() * 8];
            for (dst, sum) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(sums) {
                *dst = sum.to_be_bytes();
            }
            main.write_all_at(bytes, layout.table_entry(first))?;
        }
        drop(stage);
        main.write_all_at(&encode_header(block_size, num_blocks, &meta), 0)?;
        main.sync_all()?;

        // An old device goes before its WAL does: a crash from here on
        // leaves no device, never the old main file beside an emptied WAL.
        let published = dir.join(MAIN_FILE);
        if published.exists() {
            std::fs::remove_file(&published)?;
            File::open(&dir)?.sync_all()?;
        }
        match std::fs::remove_file(dir.join(SPILL_FILE)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))?;
        wal.sync_all()?;
        std::fs::rename(dir.join(STAGING_FILE), &published)?;
        File::open(&dir)?.sync_all()?;
        let shape = (block_size, num_blocks, meta, layout);
        let recovery = RecoveryReport::default();
        Ok(FileDevice::assemble(dir, (main, wal), shape, &opts, checksums, recovery))
    }

    /// Records a whole block's digest and energy.
    fn seal(&mut self, block: &[f64]) {
        self.checksums.push(block_digest(block));
        self.energies.push(block_energy(block));
    }

    /// Encodes `items` into the staging buffer, writing it out as it fills.
    fn encode(&mut self, mut items: &[f64]) -> io::Result<()> {
        while !items.is_empty() {
            let n = (self.stage.len() / 8 - self.staged).min(items.len());
            let at = self.staged * 8;
            encode_payload(&mut self.stage[at..at + n * 8], &items[..n]);
            self.staged += n;
            items = &items[n..];
            if self.staged * 8 == self.stage.len() {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Writes the staged items at the end of the payloads written so far.
    fn flush(&mut self) -> io::Result<()> {
        let bytes = &self.stage[..self.staged * 8];
        self.main.write_all_at(bytes, self.written)?;
        self.written += bytes.len() as u64;
        self.staged = 0;
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
        self.stats.lock().expect(POISONED).reads += 1;
        counter!("storage.device.reads").inc();
        if let Some(i) = self.latest(id) {
            buf.copy_from_slice(self.record_payload(i));
            return Ok(());
        }
        self.read_main_payload(id, buf)
            .map_err(|_| ReadError { block: id, kind: ReadErrorKind::Io })
    }

    /// A dirty block's digest is that of its latest record's payload (or
    /// the one a raw patch kept), the rest are the main file's table.
    fn stored_checksum(&self, id: usize) -> u64 {
        assert!(id < self.num_blocks, "block {id} out of range");
        match self.latest(id) {
            Some(i) => {
                self.records[i].patched.unwrap_or_else(|| block_digest(self.record_payload(i)))
            }
            None => self.checksums[id],
        }
    }

    /// Appends the write's WAL record to the record arena, raw, and nothing
    /// more: that one staged copy is the block's dirty payload until the
    /// next checkpoint folds it. The record is encoded by the next
    /// [`FileDevice::sync`] (at once under [`DurabilityMode::Always`]), and
    /// the block's digest is taken from the payload when needed — by the
    /// checkpoint that folds it, a verified read or [`RawMedia::patch_raw`].
    /// Only a write that runs the mode's sync or the byte-triggered
    /// checkpoint reaches the OS; [`FileDevice::appends_before_sync`] counts
    /// the writes before the next one that does, which a caller holding the
    /// payloads itself may defer to that write's call.
    fn write_block(&mut self, id: usize, data: &[f64]) {
        assert!(id < self.num_blocks, "block {id} out of range");
        assert_eq!(data.len(), self.block_size, "block data size mismatch");
        if self.crashed {
            return;
        }
        counter!("storage.device.writes").inc();
        self.stats.get_mut().expect(POISONED).writes += 1;

        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.appended_lsn = lsn;
        self.wal_stats.appends += 1;
        counter!("storage.wal.appends").inc();
        if self.crash_here().is_some() {
            // Crash at append: the record would only ever have lived in
            // the userspace arena, so it is lost wholesale.
            return;
        }
        self.records.push(Record { lsn, block: id, patched: None });
        self.record_items.extend_from_slice(data);

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
        if !self.crashed && self.wal_bytes() >= self.checkpoint_bytes {
            self.checkpoint();
        }
    }

    fn stats(&self) -> DeviceStats {
        *self.stats.lock().expect(POISONED)
    }

    fn reset_stats(&self) {
        *self.stats.lock().expect(POISONED) = DeviceStats::default();
    }
}

impl RawMedia for FileDevice {
    /// Media corruption bypasses the WAL: the payload changes, the recorded
    /// digest does not, and no redo record is written. A dirty block's
    /// latest record is encoded first (with the batch before it), so the
    /// WAL logs the clean payload; the record keeps that payload's digest
    /// and its arena payload is overwritten in place. A clean block's
    /// payload is overwritten in the main file.
    fn patch_raw(&mut self, id: usize, data: &[f64]) {
        assert!(id < self.num_blocks, "block {id} out of range");
        assert_eq!(data.len(), self.block_size, "block data size mismatch");
        if self.crashed {
            return;
        }
        let Some(i) = self.latest(id) else {
            encode_payload(&mut self.fold_payload, data);
            let at = self.layout.payload(id);
            self.main.write_all_at(&self.fold_payload, at).expect("main write failed");
            return;
        };
        self.encode_through(i + 1);
        let payload = &mut self.record_items[i * self.block_size..][..self.block_size];
        self.records[i].patched.get_or_insert_with(|| block_digest(payload));
        payload.copy_from_slice(data);
    }

    fn raw_payload(&self, id: usize) -> Vec<f64> {
        assert!(id < self.num_blocks, "block {id} out of range");
        if let Some(i) = self.latest(id) {
            return self.record_payload(i).to_vec();
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
        assert!(after > before);
        // Plus block 0's fold (the step after the checkpoint's begin step)
        // under a seed whose torn prefix ends inside the digest: a payload
        // in full beside a part-written table entry.
        let (fold, rec_len) = (before + 1, 2 * 8 + 8);
        let inside_digest = (0..)
            .find(|&seed| {
                d.crash.seed = seed;
                (2 * 8 + 1..rec_len).contains(&d.torn_len(fold, rec_len))
            })
            .unwrap();
        let table_entry = d.layout.table_entry(0);
        drop(d);
        let plans = (before..after).map(|step| CrashPlan::at(step.wrapping_mul(977), step));
        for plan in plans.chain([CrashPlan::at(inside_digest, fold)]) {
            let step = plan.crash_step.unwrap();
            let opts = FileDeviceOptions { crash: plan, ..Default::default() };
            let mut d = FileDevice::create(&dir, 2, 4, opts).unwrap();
            for b in 0..4 {
                d.write_block(b, &payload(2, b as u64));
            }
            d.checkpoint();
            assert!(d.is_crashed(), "step {step}");
            drop(d);
            if plan.seed == inside_digest && step == fold {
                let mut entry = [0u8; 8];
                let main = File::open(dir.join(MAIN_FILE)).unwrap();
                main.read_exact_at(&mut entry, table_entry).unwrap();
                let (zero, new) = (block_digest(&[0.0; 2]), block_digest(&payload(2, 0)));
                let torn = u64::from_be_bytes(entry);
                assert!(torn != zero && torn != new, "the digest is torn before replay");
            }
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
    fn a_patch_behind_a_pending_digest_is_still_caught() {
        for mode in [DurabilityMode::Always, DurabilityMode::Periodic(3), DurabilityMode::None] {
            let dir = test_dir("pending-patch");
            let opts = FileDeviceOptions { mode, ..Default::default() };
            let mut d = FileDevice::create(&dir, 4, 4, opts.clone()).unwrap();
            d.write_block(2, &payload(4, 1));
            d.write_block(2, &payload(4, 2));
            d.patch_raw(2, &payload(4, 3));
            let corrupt = |d: &FileDevice, when: &str| {
                let err = d.read_block(2).unwrap_err();
                assert_eq!(err.kind, ReadErrorKind::Corrupt, "{mode:?} {when}");
            };
            corrupt(&d, "staged");
            d.sync();
            corrupt(&d, "synced");
            d.checkpoint();
            corrupt(&d, "folded");
            drop(d);
            corrupt(&FileDevice::open(&dir, opts).unwrap(), "reopened");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_written_blocks_stored_checksum_is_its_payloads_digest_at_every_point() {
        let dir = test_dir("pending-digest");
        let opts = FileDeviceOptions { mode: DurabilityMode::None, ..Default::default() };
        let mut d = FileDevice::create(&dir, 4, 4, opts.clone()).unwrap();
        d.write_block(1, &payload(4, 1));
        d.write_block(3, &payload(4, 2));
        d.write_block(1, &payload(4, 3));
        let check = |d: &FileDevice, when: &str| {
            assert_eq!(d.stored_checksum(1), block_digest(&payload(4, 3)), "block 1 {when}");
            assert_eq!(d.stored_checksum(3), block_digest(&payload(4, 2)), "block 3 {when}");
            assert_eq!(d.stored_checksum(0), block_digest(&[0.0; 4]), "block 0 {when}");
        };
        check(&d, "staged");
        d.sync();
        check(&d, "synced");
        d.checkpoint();
        check(&d, "folded");
        drop(d);
        check(&FileDevice::open(&dir, opts).unwrap(), "reopened");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const MODES: [DurabilityMode; 3] =
        [DurabilityMode::Always, DurabilityMode::Periodic(3), DurabilityMode::None];

    #[test]
    fn records_that_outlive_a_sync_serve_and_fold_each_blocks_last_payload() {
        for mode in MODES {
            let dir = test_dir("outlive-sync");
            let opts = FileDeviceOptions { mode, ..Default::default() };
            let mut d = FileDevice::create(&dir, 4, 8, opts.clone()).unwrap();
            let (first, last, other) = (payload(4, 1), payload(4, 2), payload(4, 3));
            let check = |d: &FileDevice, when: &str| {
                for (b, want) in [(2, &last), (5, &other)] {
                    assert_eq!(&d.read_block(b).unwrap(), want, "{mode:?} block {b} {when}");
                    let digest = block_digest(want);
                    assert_eq!(d.stored_checksum(b), digest, "{mode:?} block {b} {when}");
                }
            };
            d.write_block(2, &first);
            d.sync();
            d.write_block(2, &last);
            d.write_block(5, &other);
            if mode != DurabilityMode::Always {
                check(&d, "buffered");
            }
            d.sync();
            check(&d, "synced");

            // One fold step per dirty block: begin, blocks 2 and 5, the main
            // fsync and the WAL truncate.
            let before = d.steps_taken();
            d.checkpoint();
            assert_eq!(d.steps_taken() - before, 5, "{mode:?}");
            let main = File::open(dir.join(MAIN_FILE)).unwrap();
            let (mut image, mut entry) = (vec![0u8; 4 * 8], [0u8; 8]);
            main.read_exact_at(&mut image, d.layout.payload(2)).unwrap();
            main.read_exact_at(&mut entry, d.layout.table_entry(2)).unwrap();
            let mut want = vec![0u8; 4 * 8];
            encode_payload(&mut want, &last);
            assert_eq!(image, want, "{mode:?}: the fold wrote block 2's last payload");
            assert_eq!(u64::from_be_bytes(entry), block_digest(&last), "{mode:?}");
            check(&d, "folded");
            drop(d);
            check(&FileDevice::open(&dir, opts).unwrap(), "reopened");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_patch_of_an_unsynced_record_never_reaches_the_wal() {
        for mode in MODES {
            let dir = test_dir("unsynced-patch");
            let opts = FileDeviceOptions { mode, ..Default::default() };
            let mut d = FileDevice::create(&dir, 4, 4, opts.clone()).unwrap();
            d.write_block(1, &payload(4, 1));
            d.write_block(3, &payload(4, 2));
            d.patch_raw(3, &payload(4, 3));
            assert_eq!(d.raw_payload(3), payload(4, 3), "{mode:?}");
            assert_eq!(d.read_block(3).unwrap_err().kind, ReadErrorKind::Corrupt, "{mode:?}");
            d.sync();
            assert_eq!(d.read_block(3).unwrap_err().kind, ReadErrorKind::Corrupt, "{mode:?}");
            drop(d); // no checkpoint: the reopen replays the WAL
            let d = FileDevice::open(&dir, opts).unwrap();
            assert_eq!(d.recovery().replayed_records, 2, "{mode:?}");
            assert_eq!(d.read_block(1).unwrap(), payload(4, 1), "{mode:?}");
            assert_eq!(d.read_block(3).unwrap(), payload(4, 2), "{mode:?}: the clean payload");
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

    /// Read before each write, `appends_before_sync` is the number of
    /// writes before the next one that bumps `fsyncs` or `checkpoints`,
    /// whatever the mode, the byte threshold (a 4-item record is 60 WAL
    /// bytes) and the explicit syncs called now and then. Its promise ends
    /// at the device's next other call, so when an explicit sync comes
    /// first, the budget must only cover the writes before it.
    #[test]
    fn appends_before_sync_counts_the_writes_before_the_next_sync_exactly() {
        const WRITES: usize = 80;
        let modes = [
            DurabilityMode::Always,
            DurabilityMode::Periodic(1),
            DurabilityMode::Periodic(3),
            DurabilityMode::Periodic(7),
            DurabilityMode::None,
        ];
        for mode in modes {
            for checkpoint_bytes in [1, 59, 60, 61, 200, 1000, 4096] {
                for sync_every in [None, Some(5)] {
                    let case = format!("{mode:?}, {checkpoint_bytes} B, sync every {sync_every:?}");
                    let dir = test_dir("budget");
                    let opts = FileDeviceOptions { mode, checkpoint_bytes, ..Default::default() };
                    let mut d = FileDevice::create(&dir, 4, 8, opts).unwrap();
                    let explicit = |i: usize| sync_every.is_some_and(|k| i % k == k - 1);
                    let (mut budgets, mut syncs) = (Vec::new(), Vec::new());
                    for i in 0..WRITES {
                        if explicit(i) {
                            d.sync();
                        }
                        budgets.push(d.appends_before_sync());
                        let before = d.wal_stats();
                        d.write_block(i % 8, &payload(4, i as u64));
                        let after = d.wal_stats();
                        syncs.push(
                            after.fsyncs > before.fsyncs || after.checkpoints > before.checkpoints,
                        );
                    }
                    for (i, &budget) in budgets.iter().enumerate() {
                        let horizon = (i + 1..WRITES).find(|&j| explicit(j)).unwrap_or(WRITES);
                        match (i..horizon).find(|&j| syncs[j]) {
                            Some(next) => assert_eq!(budget, next - i, "{case}: before write {i}"),
                            None => assert!(budget >= horizon - i, "{case}: before write {i}"),
                        }
                    }
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }
        // A crashed device drops every write, so it promises none.
        let dir = test_dir("budget-crashed");
        let crash = CrashPlan::at(1, 2);
        let opts = FileDeviceOptions { mode: DurabilityMode::None, crash, ..Default::default() };
        let mut d = FileDevice::create(&dir, 4, 8, opts).unwrap();
        for b in 0..3 {
            d.write_block(b, &payload(4, b as u64));
        }
        assert!(d.is_crashed());
        assert_eq!(d.appends_before_sync(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_directory_is_refused_with_the_typed_error() {
        for version in [1u16, 2] {
            let dir = test_dir("old-header");
            FileDevice::create(&dir, 2, 2, FileDeviceOptions::default()).unwrap();
            let f = OpenOptions::new().write(true).open(dir.join(MAIN_FILE)).unwrap();
            f.write_all_at(&version.to_be_bytes(), 8).unwrap();
            let before = std::fs::read(dir.join(MAIN_FILE)).unwrap();
            let err = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "unsupported main block file version");
            let after = std::fs::read(dir.join(MAIN_FILE)).unwrap();
            assert_eq!(after, before, "version {version}: refused, not rewritten");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_fresh_device_stores_its_table_not_its_capacity_and_reads_as_verified_zeros() {
        use std::os::unix::fs::MetadataExt;
        let dir = test_dir("sparse");
        let blocks = 64 * 1024;
        let d = FileDevice::create(&dir, 16, blocks, FileDeviceOptions::default()).unwrap();
        let main = std::fs::metadata(dir.join(MAIN_FILE)).unwrap();
        assert_eq!(main.len(), d.layout.file_len);
        let header_and_table = d.layout.payload_start;
        assert!(main.blocks() * 512 <= header_and_table + 4096, "{} bytes", main.blocks() * 512);
        let all_zero = |d: &FileDevice, when: &str| {
            for b in 0..blocks {
                assert_eq!(d.read_block(b).unwrap(), [0.0; 16], "block {b} {when}");
            }
        };
        all_zero(&d, "fresh");
        drop(d);
        all_zero(&FileDevice::open(&dir, FileDeviceOptions::default()).unwrap(), "reopened");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_from_writes_the_image_once_and_leaves_the_rest_a_hole() {
        use std::os::unix::fs::MetadataExt;
        let dir = test_dir("create-from");
        let (bs, blocks) = (16, 64 * 1024);
        // 100½ blocks: the last image block is zero-padded on the device.
        let mut image: Vec<f64> = (0..100 * bs + bs / 2).map(|i| (i as f64).sin() * 1e3).collect();
        image[3] = -0.0;
        let want = |b: usize| {
            let mut block = vec![0.0; bs];
            let items = image.get(b * bs..).unwrap_or_default();
            let items = &items[..items.len().min(bs)];
            block[..items.len()].copy_from_slice(items);
            block
        };
        let d = FileDevice::create_from(&dir, bs, blocks, &image, FileDeviceOptions::default())
            .unwrap();
        assert_eq!(d.wal_stats(), WalStats::default(), "creation appends and syncs no WAL");
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        assert!(!dir.join(STAGING_FILE).exists(), "published by rename");
        let main = std::fs::metadata(dir.join(MAIN_FILE)).unwrap();
        assert_eq!(main.len(), d.layout.file_len);
        let header_table_and_image = d.layout.payload(image.len().div_ceil(bs));
        assert!(
            main.blocks() * 512 <= header_table_and_image + 4096,
            "{} bytes allocated",
            main.blocks() * 512
        );
        let layout = d.layout;
        let check = |d: &FileDevice, when: &str| {
            let mut table = vec![0u8; blocks * 8];
            File::open(dir.join(MAIN_FILE))
                .unwrap()
                .read_exact_at(&mut table, layout.table_entry(0))
                .unwrap();
            for (b, entry) in table.as_chunks::<8>().0.iter().enumerate() {
                let (got, want) = (d.read_block(b).unwrap(), want(b));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "block {b} {when}");
                assert_eq!(u64::from_be_bytes(*entry), block_digest(&want), "block {b} {when}");
            }
        };
        check(&d, "created");
        drop(d);
        let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        assert_eq!(d.recovery(), RecoveryReport::default());
        check(&d, "reopened");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_image_appended_in_pieces_is_the_whole_image_byte_for_byte() {
        let (whole, pieces) = (test_dir("whole-image"), test_dir("image-pieces"));
        let bs = 48;
        // Past one staging buffer, with a short last block.
        let image: Vec<f64> = (0..STAGE_ITEMS + 5 * bs + 7).map(|i| (i as f64).cos()).collect();
        let blocks = image.len().div_ceil(bs) + 3;
        let meta = |energies: &[f64]| energies.iter().flat_map(|e| e.to_be_bytes()).collect();
        let want: Vec<f64> = image.chunks(bs).map(crate::block_energy).collect();
        let opts = FileDeviceOptions { meta: meta(&want), ..Default::default() };
        drop(FileDevice::create_from(&whole, bs, blocks, &image, opts).unwrap());

        std::fs::create_dir_all(&pieces).unwrap();
        std::fs::write(pieces.join(SPILL_FILE), b"a stale spill").unwrap();
        let opts = FileDeviceOptions::default();
        let writer = FileDevice::image_writer(&pieces, bs, blocks, 8 * want.len(), opts);
        let mut writer = writer.unwrap();
        let mut spill = writer.spill().unwrap();
        assert_eq!(spill.metadata().unwrap().len(), 0, "the spill starts empty");
        std::io::Write::write_all(&mut spill, b"scratch").unwrap();
        let mut rest = image.as_slice();
        for n in (1..).map(|k| (k * 37) % 1000 + 1).chain([STAGE_ITEMS]) {
            let (piece, tail) = rest.split_at(n.min(rest.len()));
            writer.append(piece).unwrap();
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        let mut seen = Vec::new();
        let d = writer
            .finish(|energies| {
                seen = energies.to_vec();
                meta(energies)
            })
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seen), bits(&want), "one energy per image block");
        assert!(!pieces.join(SPILL_FILE).exists(), "the spill is gone once published");
        assert!(!pieces.join(STAGING_FILE).exists());
        drop(d);
        let read = |dir: &Path| std::fs::read(dir.join(MAIN_FILE)).unwrap();
        assert!(read(&whole) == read(&pieces), "the main files differ");
        std::fs::remove_dir_all(&whole).unwrap();
        std::fs::remove_dir_all(&pieces).unwrap();
    }

    #[test]
    fn a_stale_staging_file_is_no_device_and_the_next_create_replaces_it() {
        let dir = test_dir("stale-staging");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STAGING_FILE), vec![0xA5; 64 * 1024]).unwrap();
        assert!(!FileDevice::exists(&dir));
        assert!(FileDevice::open(&dir, FileDeviceOptions::default()).is_err());

        let image = [payload(4, 7), payload(4, 8)].concat();
        let d = FileDevice::create_from(&dir, 4, 8, &image, FileDeviceOptions::default()).unwrap();
        assert!(FileDevice::exists(&dir) && !dir.join(STAGING_FILE).exists());
        drop(d);
        let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        assert_eq!(d.read_block(0).unwrap(), payload(4, 7));
        assert_eq!(d.read_block(1).unwrap(), payload(4, 8));
        for b in 2..8 {
            assert_eq!(d.read_block(b).unwrap(), [0.0; 4], "block {b}");
        }

        // Over a live device with unfolded WAL records, creation replaces
        // the device and its WAL both: nothing of the old one replays.
        let mut old = FileDevice::create(&dir, 4, 8, FileDeviceOptions::default()).unwrap();
        old.write_block(5, &payload(4, 5));
        drop(old);
        assert!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0);
        FileDevice::create_from(&dir, 4, 8, &image, FileDeviceOptions::default()).unwrap();
        let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        assert_eq!(d.recovery().replayed_records, 0);
        assert_eq!(d.read_block(1).unwrap(), payload(4, 8));
        assert_eq!(d.read_block(5).unwrap(), [0.0; 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_written_block_whose_bytes_read_as_zeros_is_corrupt() {
        // A hole's zeros are never trusted for a block the table says was
        // written: not with its payload zeroed, nor with its entry too.
        for zero_entry in [false, true] {
            let dir = test_dir("zeroed");
            let mut d = FileDevice::create(&dir, 4, 4, FileDeviceOptions::default()).unwrap();
            d.write_block(1, &payload(4, 1));
            d.checkpoint();
            let layout = d.layout;
            drop(d);
            let f = OpenOptions::new().write(true).open(dir.join(MAIN_FILE)).unwrap();
            f.write_all_at(&[0; 4 * 8], layout.payload(1)).unwrap();
            if zero_entry {
                f.write_all_at(&[0; 8], layout.table_entry(1)).unwrap();
            }
            let d = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
            let err = d.read_block(1).unwrap_err();
            assert_eq!(err.kind, ReadErrorKind::Corrupt, "zeroed entry too: {zero_entry}");
            assert_eq!(d.read_block(0).unwrap(), [0.0; 4], "an unwritten block still verifies");
            std::fs::remove_dir_all(&dir).unwrap();
        }
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

    #[test]
    fn a_main_file_short_of_its_payload_region_is_refused() {
        let dir = test_dir("short-main");
        let d = FileDevice::create(&dir, 2, 2, FileDeviceOptions::default()).unwrap();
        let f = OpenOptions::new().write(true).open(dir.join(MAIN_FILE)).unwrap();
        f.set_len(d.layout.file_len - 1).unwrap();
        let err = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
