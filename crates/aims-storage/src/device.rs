//! The block-device abstraction: checksummed, fallible block I/O.
//!
//! The paper prototyped against Teradata BLOBs and planned raw-disk blocks
//! (§4). For the reproduction what matters is the *accounting* — how many
//! block reads and writes each query costs under each allocation strategy
//! — and, since this PR, the *failure model*: real sensor-data stores run
//! on flaky media, so every read is integrity-checked against a per-block
//! FNV-1a checksum over the f64 bit patterns and may fail with a
//! [`ReadError`] instead of silently returning garbage.
//!
//! Two layers live here:
//!
//! - the [`BlockDevice`] trait: fixed-size blocks of `f64` items with raw
//!   (unchecked) reads, checksum-verified reads, and I/O counters;
//! - [`MemDevice`]: the in-memory reference implementation, infallible on
//!   its own but exposing raw-patch hooks so the fault-injection wrapper
//!   ([`crate::faults::FaultyDevice`]) can simulate corrupt media.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use aims_telemetry::{global, Counter};

/// Cached handles to the global `storage.device.{reads,writes}` counters,
/// so the per-access cost is one atomic add rather than a registry probe.
pub(crate) fn io_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static C: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    C.get_or_init(|| {
        (global().counter("storage.device.reads"), global().counter("storage.device.writes"))
    })
}

/// FNV-1a over the little-endian bit patterns of the items. Bit-exact:
/// `0.0` and `-0.0` hash differently, NaN payloads are significant, and a
/// single flipped bit always changes the digest (every FNV step is an
/// injective map of the running state).
pub fn fnv1a_f64(data: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over raw bytes — same constants as [`fnv1a_f64`], used for the
/// WAL record and file-header checksums where the payload is already a
/// byte stream.
pub fn fnv1a_bytes(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a block read failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// Transient I/O error — a retry may succeed.
    Io,
    /// Checksum mismatch: the payload does not match the checksum recorded
    /// at write time (bit rot, torn write, in-flight flip).
    Corrupt,
    /// The block is permanently unavailable (dead media region).
    Dead,
}

/// A failed block read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadError {
    /// Block that failed.
    pub block: usize,
    /// Failure class.
    pub kind: ReadErrorKind,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ReadErrorKind::Io => write!(f, "transient I/O error reading block {}", self.block),
            ReadErrorKind::Corrupt => write!(f, "checksum mismatch on block {}", self.block),
            ReadErrorKind::Dead => write!(f, "block {} is permanently unavailable", self.block),
        }
    }
}

impl std::error::Error for ReadError {}

/// Bounded retry-with-backoff policy for the read path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failed read (0 = fail fast).
    pub retries: usize,
    /// Base backoff slept after the first failure; doubles per retry.
    pub backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl RetryPolicy {
    /// No retries, no backoff — the pre-fault-tolerance behavior.
    pub fn none() -> Self {
        RetryPolicy { retries: 0, backoff: Duration::ZERO, backoff_cap: Duration::ZERO }
    }

    /// `retries` attempts with a 10 µs exponential backoff capped at 1 ms.
    pub fn with_retries(retries: usize) -> Self {
        RetryPolicy {
            retries,
            backoff: Duration::from_micros(10),
            backoff_cap: Duration::from_millis(1),
        }
    }

    /// Backoff to sleep after failed attempt number `attempt` (0-based).
    pub fn backoff_for(&self, attempt: usize) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.min(16) as u32;
        self.backoff.saturating_mul(factor).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    /// Three retries with exponential backoff.
    fn default() -> Self {
        RetryPolicy::with_retries(3)
    }
}

/// The one verified-read loop: reads block `id`, retrying transient
/// failures under `policy` with exponential backoff. Each retry increments
/// `storage.retries`; each checksum mismatch increments `storage.corrupt`.
/// Dead blocks fail immediately (no retry can help them). Returns the
/// verified payload and how many failed attempts were retried.
pub fn read_with_retry<D: BlockDevice + ?Sized>(
    device: &D,
    id: usize,
    policy: &RetryPolicy,
) -> Result<(Vec<f64>, usize), ReadError> {
    static C: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    let (retries, corrupt) = C
        .get_or_init(|| (global().counter("storage.retries"), global().counter("storage.corrupt")));
    let mut attempt = 0usize;
    loop {
        match device.read_block(id) {
            Ok(data) => return Ok((data, attempt)),
            Err(e) => {
                if e.kind == ReadErrorKind::Corrupt {
                    corrupt.inc();
                }
                if e.kind == ReadErrorKind::Dead || attempt >= policy.retries {
                    return Err(e);
                }
                retries.inc();
                let pause = policy.backoff_for(attempt);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
            }
        }
    }
}

/// Running I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Block reads served (including reads that later failed verification).
    pub reads: u64,
    /// Block writes performed.
    pub writes: u64,
}

/// Fixed-block-size storage of `f64` items with per-block checksums.
///
/// `read_into` / `read_block` are the *verified* read path: the payload is
/// copied out and its FNV-1a digest compared against the checksum recorded
/// by the last `write_block`. `read_raw_into` skips verification — it is
/// the substrate fault wrappers and recovery tools build on.
pub trait BlockDevice {
    /// Items per block.
    fn block_size(&self) -> usize;

    /// Number of blocks.
    fn num_blocks(&self) -> usize;

    /// Copies the stored payload of `id` into `buf` without verifying it.
    ///
    /// # Panics
    /// If the id is out of range or `buf` is not `block_size` long.
    fn read_raw_into(&self, id: usize, buf: &mut [f64]) -> Result<(), ReadError>;

    /// Checksum recorded when block `id` was last written.
    fn stored_checksum(&self, id: usize) -> u64;

    /// Overwrites a whole block and records its checksum.
    ///
    /// # Panics
    /// If the id is out of range or the data length differs from the block
    /// size.
    fn write_block(&mut self, id: usize, data: &[f64]);

    /// Snapshot of the I/O counters.
    fn stats(&self) -> DeviceStats;

    /// Resets the I/O counters (e.g. after the load phase, before
    /// measuring a query workload).
    fn reset_stats(&self);

    /// Verified read: raw read plus checksum check. Corruption is always
    /// surfaced as [`ReadErrorKind::Corrupt`], never silently returned.
    fn read_into(&self, id: usize, buf: &mut [f64]) -> Result<(), ReadError> {
        self.read_raw_into(id, buf)?;
        if fnv1a_f64(buf) != self.stored_checksum(id) {
            return Err(ReadError { block: id, kind: ReadErrorKind::Corrupt });
        }
        Ok(())
    }

    /// Verified read into a fresh buffer.
    fn read_block(&self, id: usize) -> Result<Vec<f64>, ReadError> {
        let mut buf = vec![0.0; self.block_size()];
        self.read_into(id, &mut buf)?;
        Ok(buf)
    }

    /// Total capacity in items.
    fn capacity_items(&self) -> usize {
        self.block_size() * self.num_blocks()
    }
}

/// Raw-media access below the checksum layer: the hooks fault injection
/// needs to simulate corrupt hardware on any backing device.
///
/// [`MemDevice`] and the file-backed `FileDevice` both implement this, so
/// [`crate::faults::FaultyDevice`] can layer deterministic faults over
/// volatile and durable media alike.
pub trait RawMedia: BlockDevice {
    /// Overwrites the stored payload WITHOUT updating the checksum or the
    /// write counter — the media-corruption hook used by fault injection
    /// and the checksum tests.
    fn patch_raw(&mut self, id: usize, data: &[f64]);

    /// Uncounted copy of the currently stored payload (introspection and
    /// torn-write simulation; ignores checksums).
    fn raw_payload(&self, id: usize) -> Vec<f64>;
}

/// The instrumented in-memory device: infallible media, checksummed reads.
#[derive(Debug)]
pub struct MemDevice {
    block_size: usize,
    blocks: Vec<Vec<f64>>,
    checksums: Vec<u64>,
    stats: Mutex<DeviceStats>,
}

impl MemDevice {
    /// Creates a device with `num_blocks` zeroed blocks of `block_size`
    /// items each.
    ///
    /// # Panics
    /// If `block_size == 0`.
    pub fn new(block_size: usize, num_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let zero_sum = fnv1a_f64(&vec![0.0; block_size]);
        MemDevice {
            block_size,
            blocks: vec![vec![0.0; block_size]; num_blocks],
            checksums: vec![zero_sum; num_blocks],
            stats: Mutex::new(DeviceStats::default()),
        }
    }

    /// Appends a new zeroed block, returning its id.
    pub fn grow(&mut self) -> usize {
        self.blocks.push(vec![0.0; self.block_size]);
        self.checksums.push(fnv1a_f64(&vec![0.0; self.block_size]));
        self.blocks.len() - 1
    }

    /// Uncounted view of the stored payload (introspection / fault hooks).
    pub fn raw_block(&self, id: usize) -> &[f64] {
        assert!(id < self.blocks.len(), "block {id} out of range");
        &self.blocks[id]
    }

    /// Overwrites the stored payload WITHOUT updating the checksum or the
    /// write counter — the media-corruption hook used by
    /// [`crate::faults::FaultyDevice`] and the checksum tests.
    pub fn patch_raw(&mut self, id: usize, data: &[f64]) {
        assert!(id < self.blocks.len(), "block {id} out of range");
        assert_eq!(data.len(), self.block_size, "block data size mismatch");
        self.blocks[id].copy_from_slice(data);
    }

    /// Flips one bit of one stored item without updating the checksum.
    ///
    /// # Panics
    /// If the block or item is out of range or `bit >= 64`.
    pub fn flip_bit(&mut self, id: usize, item: usize, bit: u32) {
        assert!(id < self.blocks.len(), "block {id} out of range");
        assert!(item < self.block_size, "item {item} out of range");
        assert!(bit < 64, "bit {bit} out of range");
        let v = &mut self.blocks[id][item];
        *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
    }
}

impl RawMedia for MemDevice {
    fn patch_raw(&mut self, id: usize, data: &[f64]) {
        MemDevice::patch_raw(self, id, data);
    }

    fn raw_payload(&self, id: usize) -> Vec<f64> {
        self.raw_block(id).to_vec()
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn read_raw_into(&self, id: usize, buf: &mut [f64]) -> Result<(), ReadError> {
        assert!(id < self.blocks.len(), "block {id} out of range");
        assert_eq!(buf.len(), self.block_size, "read buffer size mismatch");
        self.stats.lock().unwrap().reads += 1;
        io_counters().0.inc();
        buf.copy_from_slice(&self.blocks[id]);
        Ok(())
    }

    fn stored_checksum(&self, id: usize) -> u64 {
        assert!(id < self.checksums.len(), "block {id} out of range");
        self.checksums[id]
    }

    fn write_block(&mut self, id: usize, data: &[f64]) {
        assert!(id < self.blocks.len(), "block {id} out of range");
        assert_eq!(data.len(), self.block_size, "block data size mismatch");
        self.stats.lock().unwrap().writes += 1;
        io_counters().1.inc();
        self.blocks[id].copy_from_slice(data);
        self.checksums[id] = fnv1a_f64(data);
    }

    fn stats(&self) -> DeviceStats {
        *self.stats.lock().unwrap()
    }

    fn reset_stats(&self) {
        *self.stats.lock().unwrap() = DeviceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultyDevice};

    #[test]
    fn read_write_roundtrip_and_counting() {
        let mut d = MemDevice::new(4, 3);
        assert_eq!(d.block_size(), 4);
        assert_eq!(d.num_blocks(), 3);
        assert_eq!(d.capacity_items(), 12);

        d.write_block(1, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.read_block(1).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.read_block(0).unwrap(), vec![0.0; 4]);
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
    }

    #[test]
    fn reset_and_grow() {
        let mut d = MemDevice::new(2, 1);
        d.write_block(0, &[1.0, 2.0]);
        d.reset_stats();
        assert_eq!(d.stats(), DeviceStats::default());
        let id = d.grow();
        assert_eq!(id, 1);
        assert_eq!(d.num_blocks(), 2);
        assert_eq!(d.read_block(1).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn corruption_is_detected_not_returned() {
        let mut d = MemDevice::new(4, 2);
        d.write_block(0, &[1.0, -2.0, 3.5, 0.25]);
        d.flip_bit(0, 2, 51);
        let err = d.read_block(0).unwrap_err();
        assert_eq!(err, ReadError { block: 0, kind: ReadErrorKind::Corrupt });
        // Raw reads still serve the (corrupt) payload for forensics.
        let mut buf = [0.0; 4];
        d.read_raw_into(0, &mut buf).unwrap();
        assert_ne!(buf[2].to_bits(), 3.5f64.to_bits());
    }

    #[test]
    fn patch_raw_breaks_checksum_until_rewrite() {
        let mut d = MemDevice::new(2, 1);
        d.write_block(0, &[1.0, 2.0]);
        d.patch_raw(0, &[1.0, 2.5]);
        assert_eq!(d.read_block(0).unwrap_err().kind, ReadErrorKind::Corrupt);
        d.write_block(0, &[1.0, 2.5]);
        assert_eq!(d.read_block(0).unwrap(), vec![1.0, 2.5]);
    }

    #[test]
    fn checksum_is_bit_exact() {
        // -0.0 vs 0.0 and NaN payload bits are all significant.
        assert_ne!(fnv1a_f64(&[0.0]), fnv1a_f64(&[-0.0]));
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        assert_ne!(fnv1a_f64(&[nan_a]), fnv1a_f64(&[nan_b]));
        assert_eq!(fnv1a_f64(&[nan_a]), fnv1a_f64(&[nan_a]));
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::with_retries(8);
        assert_eq!(p.backoff_for(0), Duration::from_micros(10));
        assert_eq!(p.backoff_for(1), Duration::from_micros(20));
        assert!(p.backoff_for(12) <= Duration::from_millis(1));
        assert_eq!(RetryPolicy::none().backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_the_error() {
        let mut faulty =
            FaultyDevice::with_plan(2, 2, FaultPlan::uniform(5, FaultKind::BitFlip, 1.0));
        faulty.write_block(0, &[1.0, 2.0]);
        let err = read_with_retry(&faulty, 0, &RetryPolicy::with_retries(2)).unwrap_err();
        assert_eq!(err, ReadError { block: 0, kind: ReadErrorKind::Corrupt });
    }

    #[test]
    fn dead_blocks_fail_fast_without_retries() {
        let faulty =
            FaultyDevice::with_plan(2, 4, FaultPlan::uniform(5, FaultKind::DeadBlock, 1.0));
        // A retry would sleep its backoff first; failing fast never does.
        let slow = Duration::from_secs(2);
        let policy = RetryPolicy { retries: 3, backoff: slow, backoff_cap: slow };
        let started = std::time::Instant::now();
        let err = read_with_retry(&faulty, 1, &policy).unwrap_err();
        assert_eq!(err.kind, ReadErrorKind::Dead);
        assert!(started.elapsed() < slow, "dead blocks must not burn the retry budget");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_block_read_panics() {
        let _ = MemDevice::new(4, 2).read_block(2);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bad_write_size_panics() {
        MemDevice::new(4, 2).write_block(0, &[1.0]);
    }
}
