//! The block-device abstraction: checksummed, fallible block I/O.
//!
//! The paper prototyped against Teradata BLOBs and planned raw-disk blocks
//! (§4). For the reproduction what matters is the *accounting* — how many
//! block reads and writes each query costs under each allocation strategy
//! — and, since this PR, the *failure model*: real sensor-data stores run
//! on flaky media, so every read is integrity-checked against a per-block
//! four-lane digest over the f64 bit patterns and may fail with a
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

/// Lane seeds and the two lane multipliers (odd, so multiplying by either
/// is a bijection of `u64`) of the block digest.
const LANE_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];
const WORD_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;
const LANE_MUL: u64 = 0x9e37_79b1_85eb_ca87;

/// One lane step: add the multiplied word, rotate, multiply. For a fixed
/// `word` it is a bijection of `state`, and for a fixed `state` a bijection
/// of `word`. The word's own multiply keeps a flipped high bit from meeting
/// the state as a single bit that one flip in a later word could cancel.
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    state.wrapping_add(word.wrapping_mul(WORD_MUL)).rotate_left(31).wrapping_mul(LANE_MUL)
}

/// Folds the byte length and the four lanes into one digest. With the
/// length and three lanes fixed it is a bijection of the fourth: the lane
/// enters by one `lane_step` and everything after it is a bijection of the
/// running state.
fn merge_lanes(lanes: [u64; 4], byte_len: u64) -> u64 {
    let mut h = lanes.into_iter().fold(byte_len.wrapping_mul(LANE_MUL), lane_step);
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The digest kernel, defined over a sequence of `n` 64-bit words and the
/// byte length they stand for: word `i` steps lane `i % 4`, four words —
/// four independent multiply chains — per iteration, then the lanes and
/// the length merge. Changing any single word changes its lane's state at
/// that step, every later step and the merge are bijections of that
/// lane, so the digest always changes.
#[inline(always)]
fn digest_words(n: usize, byte_len: u64, word: impl Fn(usize) -> u64) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut i = 0;
    while i + 4 <= n {
        lanes[0] = lane_step(lanes[0], word(i));
        lanes[1] = lane_step(lanes[1], word(i + 1));
        lanes[2] = lane_step(lanes[2], word(i + 2));
        lanes[3] = lane_step(lanes[3], word(i + 3));
        i += 4;
    }
    for (lane, j) in lanes.iter_mut().zip(i..n) {
        *lane = lane_step(*lane, word(j));
    }
    merge_lanes(lanes, byte_len)
}

/// Digest of a block payload: the words are the items' bit patterns.
/// Bit-exact — `0.0` and `-0.0` differ, NaN payloads are significant — and
/// a single flipped bit always changes it (see [`digest_words`]).
pub fn block_digest(data: &[f64]) -> u64 {
    digest_words(data.len(), data.len() as u64 * 8, |i| data[i].to_bits())
}

/// Digest of a WAL record body `[lsn][block][payload]`, equal to
/// [`bytes_digest`] of the body's image but taken from the words
/// themselves: the write path then swaps no bytes for it, which on a
/// little-endian host is half the cost of digesting the image.
pub(crate) fn record_digest(lsn: u64, block: u64, payload: &[f64]) -> u64 {
    digest_words(payload.len() + 2, payload.len() as u64 * 8 + 16, |i| match i {
        0 => lsn,
        1 => block,
        _ => payload[i - 2].to_bits(),
    })
}

/// Digest of a byte image — WAL record bodies and the file header: the
/// words are the big-endian `u64`s of the bytes, a short tail zero-padded
/// (the byte length tells padded tails apart). Host-endianness-independent,
/// and `bytes_digest` of a payload's big-endian on-disk image equals
/// [`block_digest`] of the payload.
pub(crate) fn bytes_digest(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    digest_words(bytes.len().div_ceil(8), bytes.len() as u64, |i| match words.get(i) {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(word)
        }
    })
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
/// copied out and its [`block_digest`] compared against the checksum recorded
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
        if block_digest(buf) != self.stored_checksum(id) {
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
        let zero_sum = block_digest(&vec![0.0; block_size]);
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
        self.checksums.push(block_digest(&vec![0.0; self.block_size]));
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
        self.checksums[id] = block_digest(data);
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
        assert_ne!(block_digest(&[0.0]), block_digest(&[-0.0]));
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        assert_ne!(block_digest(&[nan_a]), block_digest(&[nan_b]));
        assert_eq!(block_digest(&[nan_a]), block_digest(&[nan_a]));
    }

    /// Deterministic, well-spread test words (SplitMix64 of the index).
    fn test_words(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| crate::faults::mix(0xd16e57, i, 0, 0)).collect()
    }

    /// The definition, one word at a time: word `i` steps lane `i % 4`.
    fn reference_digest(words: &[u64], byte_len: u64) -> u64 {
        let mut lanes = LANE_SEEDS;
        for (i, &w) in words.iter().enumerate() {
            lanes[i % 4] = lane_step(lanes[i % 4], w);
        }
        merge_lanes(lanes, byte_len)
    }

    #[test]
    fn unrolled_kernel_equals_the_word_at_a_time_reference() {
        // Every remainder-lane count and every byte-tail length.
        for n in 0..=67usize {
            let words = test_words(n);
            let items: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
            assert_eq!(block_digest(&items), reference_digest(&words, n as u64 * 8), "{n} words");

            let bytes: Vec<u8> = test_words(n).iter().map(|&w| (w >> 56) as u8).collect();
            let padded: Vec<u64> = bytes
                .chunks(8)
                .map(|c| {
                    let mut word = [0u8; 8];
                    word[..c.len()].copy_from_slice(c);
                    u64::from_be_bytes(word)
                })
                .collect();
            assert_eq!(bytes_digest(&bytes), reference_digest(&padded, n as u64), "{n} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_256_item_block_changes_the_digest() {
        let mut block: Vec<f64> = test_words(256).into_iter().map(f64::from_bits).collect();
        let clean = block_digest(&block);
        for item in 0..256 {
            for bit in 0..64 {
                let original = block[item];
                block[item] = f64::from_bits(original.to_bits() ^ (1u64 << bit));
                assert_ne!(block_digest(&block), clean, "item {item} bit {bit} went undetected");
                block[item] = original;
            }
        }
        assert_eq!(block_digest(&block), clean);
    }

    #[test]
    fn length_is_part_of_the_digest() {
        for n in [0usize, 1, 3, 4, 7, 256] {
            let mut items: Vec<f64> = test_words(n).into_iter().map(f64::from_bits).collect();
            let short = block_digest(&items);
            items.push(0.0);
            assert_ne!(block_digest(&items), short, "trailing zero word after {n} items");
        }
        // A zero byte past the end lands in the same padded word: only the
        // length tells the two images apart.
        assert_ne!(bytes_digest(b"ab"), bytes_digest(b"ab\0"));
        assert_ne!(bytes_digest(b""), bytes_digest(&[0u8; 8]));
    }

    #[test]
    fn payload_and_record_digests_equal_the_digest_of_their_big_endian_image() {
        for n in [0usize, 1, 5, 64, 256] {
            let items: Vec<f64> = test_words(n).into_iter().map(f64::from_bits).collect();
            let image: Vec<u8> = items.iter().flat_map(|v| v.to_bits().to_be_bytes()).collect();
            assert_eq!(block_digest(&items), bytes_digest(&image), "{n} items");

            let (lsn, block) = (0x0102_0304_0506_0708u64, 0xf1f2_f3f4_f5f6_f7f8u64);
            let mut body = [lsn.to_be_bytes(), block.to_be_bytes()].concat();
            body.extend_from_slice(&image);
            assert_eq!(record_digest(lsn, block, &items), bytes_digest(&body), "{n} items");
        }
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
