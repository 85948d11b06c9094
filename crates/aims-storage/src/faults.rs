//! Deterministic fault injection for the block device.
//!
//! The storage claims of the paper (§3.2) are about behavior under *real*
//! media: flaky reads, bit rot, torn writes, dead regions. [`FaultyDevice`]
//! wraps a [`MemDevice`] and injects those faults from a schedule that is a
//! pure function of a single `u64` seed plus the (block, attempt) pair —
//! every run with the same seed sees byte-identical faults, which is what
//! makes the fault-matrix harness reproducible.
//!
//! Fault classes (all rates in `[0, 1]`, independently configurable):
//!
//! - **read errors** (`read_error_rate`): the read fails with
//!   [`ReadErrorKind::Io`] before touching the media; transient — the next
//!   attempt re-rolls the schedule.
//! - **bit flips** (`bit_flip_rate`): one bit of the returned payload is
//!   flipped *after* the media read; the checksum layer detects it and the
//!   verified read fails with [`ReadErrorKind::Corrupt`]. Transient.
//! - **torn writes** (`torn_write_rate`): only a prefix of the written
//!   payload becomes durable while the checksum records the full intent;
//!   every later verified read of the block fails `Corrupt` until it is
//!   rewritten. Permanent.
//! - **dead blocks** (`dead_fraction`): a seed-chosen subset of blocks
//!   always fails with [`ReadErrorKind::Dead`], whatever the retry budget.
//! - **latency** (`latency` / `latency_rate`): injected stalls on the read
//!   path, recorded in the `storage.fault.latency.ns` histogram.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

use aims_telemetry::global;

use crate::device::{BlockDevice, DeviceStats, MemDevice, RawMedia, ReadError, ReadErrorKind};

/// Fault classes the schedule can produce (used for labeling matrices and
/// CLI flags; the plan itself is rate-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient read error.
    ReadError,
    /// Transient in-flight bit flip (caught by the checksum).
    BitFlip,
    /// Torn write at load time (permanent corruption until rewritten).
    TornWrite,
    /// Permanently unreadable block.
    DeadBlock,
}

impl FaultKind {
    /// All kinds, for matrix drivers.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::ReadError, FaultKind::BitFlip, FaultKind::TornWrite, FaultKind::DeadBlock];
}

/// A deterministic, seeded fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability a read attempt fails with a transient I/O error.
    pub read_error_rate: f64,
    /// Probability a read attempt returns a payload with one flipped bit.
    pub bit_flip_rate: f64,
    /// Probability a write is torn (prefix durable, checksum of the full
    /// intent).
    pub torn_write_rate: f64,
    /// Fraction of blocks that are permanently unreadable.
    pub dead_fraction: f64,
    /// Stall injected when the latency schedule fires.
    pub latency: Duration,
    /// Probability a read attempt is stalled by `latency`.
    pub latency_rate: f64,
}

impl FaultPlan {
    /// A plan with every fault disabled — the wrapper becomes a
    /// transparent pass-through (used by the zero-fault equivalence
    /// tests).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_error_rate: 0.0,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
            dead_fraction: 0.0,
            latency: Duration::ZERO,
            latency_rate: 0.0,
        }
    }

    /// A plan exercising exactly one fault kind at `rate`.
    pub fn uniform(seed: u64, kind: FaultKind, rate: f64) -> Self {
        let mut plan = FaultPlan::none(seed);
        match kind {
            FaultKind::ReadError => plan.read_error_rate = rate,
            FaultKind::BitFlip => plan.bit_flip_rate = rate,
            FaultKind::TornWrite => plan.torn_write_rate = rate,
            FaultKind::DeadBlock => plan.dead_fraction = rate,
        }
        plan
    }
}

/// Salts separating the per-purpose random streams.
const SALT_IO: u64 = 0x1001;
const SALT_FLIP: u64 = 0x2002;
const SALT_FLIP_POS: u64 = 0x2003;
const SALT_TORN: u64 = 0x3003;
const SALT_TORN_LEN: u64 = 0x3004;
const SALT_DEAD: u64 = 0x4004;
const SALT_LATENCY: u64 = 0x5005;

/// SplitMix64 over the combined (seed, block, attempt, salt) tuple.
/// Shared with the crash-point schedule in [`crate::file`].
pub(crate) fn mix(seed: u64, block: u64, attempt: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(block.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(attempt.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
pub(crate) fn chance(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug, Default)]
struct FaultState {
    /// Monotone per-block read-attempt counters (never reset, so the
    /// schedule is a pure function of history length).
    read_attempts: Vec<u64>,
    /// Per-block write counters.
    write_ops: Vec<u64>,
    /// Blocks whose durable payload differs from the recorded checksum.
    torn: BTreeSet<usize>,
}

/// Any [`RawMedia`] device behind a deterministic fault schedule — the
/// in-memory [`MemDevice`] by default, or the durable
/// [`crate::file::FileDevice`] so media faults can be layered over a
/// recovered on-disk store.
#[derive(Debug)]
pub struct FaultyDevice<D: RawMedia = MemDevice> {
    inner: D,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyDevice<MemDevice> {
    /// Convenience factory matching `MemDevice::new`.
    pub fn with_plan(block_size: usize, num_blocks: usize, plan: FaultPlan) -> Self {
        FaultyDevice::new(MemDevice::new(block_size, num_blocks), plan)
    }
}

impl<D: RawMedia> FaultyDevice<D> {
    /// Wraps an existing device.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        let blocks = inner.num_blocks();
        FaultyDevice {
            inner,
            plan,
            state: Mutex::new(FaultState {
                read_attempts: vec![0; blocks],
                write_ops: vec![0; blocks],
                torn: BTreeSet::new(),
            }),
        }
    }

    /// The schedule in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped device, mutably — for operations the fault schedule
    /// does not cover (e.g. a durable device's checkpoint).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Whether the schedule marks `block` permanently unreadable.
    pub fn is_dead(&self, block: usize) -> bool {
        self.plan.dead_fraction > 0.0
            && chance(mix(self.plan.seed, block as u64, 0, SALT_DEAD)) < self.plan.dead_fraction
    }

    /// Blocks whose durable payload was torn by a write so far.
    pub fn torn_blocks(&self) -> Vec<usize> {
        self.state.lock().unwrap().torn.iter().copied().collect()
    }

    /// Number of consecutive *initial* read attempts of `block` the
    /// schedule will fail (transient faults only), or `usize::MAX` for
    /// blocks that can never be read back verified (dead or torn).
    ///
    /// With a fresh device this predicts the exact retry cost of the first
    /// fetch: a read path with retry budget `>= planned` recovers, one
    /// with a smaller budget must degrade.
    pub fn planned_read_failures(&self, block: usize) -> usize {
        if self.is_dead(block) || self.state.lock().unwrap().torn.contains(&block) {
            return usize::MAX;
        }
        let mut streak = 0usize;
        while streak < 4096 {
            let a = streak as u64;
            let io =
                chance(mix(self.plan.seed, block as u64, a, SALT_IO)) < self.plan.read_error_rate;
            let flip =
                chance(mix(self.plan.seed, block as u64, a, SALT_FLIP)) < self.plan.bit_flip_rate;
            if !io && !flip {
                return streak;
            }
            streak += 1;
        }
        usize::MAX
    }
}

impl<D: RawMedia> BlockDevice for FaultyDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn read_raw_into(&self, id: usize, buf: &mut [f64]) -> Result<(), ReadError> {
        assert!(id < self.num_blocks(), "block {id} out of range");
        let attempt = {
            let mut st = self.state.lock().unwrap();
            let a = st.read_attempts[id];
            st.read_attempts[id] += 1;
            a
        };
        if self.plan.latency_rate > 0.0
            && chance(mix(self.plan.seed, id as u64, attempt, SALT_LATENCY))
                < self.plan.latency_rate
            && !self.plan.latency.is_zero()
        {
            std::thread::sleep(self.plan.latency);
            global()
                .histogram("storage.fault.latency.ns")
                .record(self.plan.latency.as_nanos() as u64);
        }
        if self.is_dead(id) {
            global().counter("storage.fault.dead_reads").inc();
            return Err(ReadError { block: id, kind: ReadErrorKind::Dead });
        }
        if chance(mix(self.plan.seed, id as u64, attempt, SALT_IO)) < self.plan.read_error_rate {
            global().counter("storage.fault.read_errors").inc();
            return Err(ReadError { block: id, kind: ReadErrorKind::Io });
        }
        self.inner.read_raw_into(id, buf)?;
        if chance(mix(self.plan.seed, id as u64, attempt, SALT_FLIP)) < self.plan.bit_flip_rate {
            let h = mix(self.plan.seed, id as u64, attempt, SALT_FLIP_POS);
            let item = (h % buf.len() as u64) as usize;
            let bit = (h >> 32) % 64;
            buf[item] = f64::from_bits(buf[item].to_bits() ^ (1u64 << bit));
            global().counter("storage.fault.bit_flips").inc();
        }
        Ok(())
    }

    fn stored_checksum(&self, id: usize) -> u64 {
        self.inner.stored_checksum(id)
    }

    fn write_block(&mut self, id: usize, data: &[f64]) {
        let op = {
            let st = self.state.get_mut().unwrap();
            let w = st.write_ops[id];
            st.write_ops[id] += 1;
            w
        };
        if chance(mix(self.plan.seed, id as u64, op, SALT_TORN)) < self.plan.torn_write_rate {
            // Only a prefix becomes durable; the checksum records the full
            // intended payload, so verified reads fail until a rewrite.
            let len =
                (mix(self.plan.seed, id as u64, op, SALT_TORN_LEN) % data.len() as u64) as usize;
            let mut durable = self.inner.raw_payload(id);
            durable[..len].copy_from_slice(&data[..len]);
            self.inner.write_block(id, data);
            if durable != data {
                self.inner.patch_raw(id, &durable);
                self.state.get_mut().unwrap().torn.insert(id);
                global().counter("storage.fault.torn_writes").inc();
            }
        } else {
            // A rewrite heals any earlier tear.
            self.inner.write_block(id, data);
            self.state.get_mut().unwrap().torn.remove(&id);
        }
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(plan: FaultPlan) -> FaultyDevice {
        let mut d = FaultyDevice::with_plan(4, 8, plan);
        for b in 0..8 {
            let base = b as f64 * 10.0;
            d.write_block(b, &[base + 1.0, base + 2.0, base + 3.0, base + 4.0]);
        }
        d
    }

    #[test]
    fn zero_plan_is_transparent() {
        let d = loaded(FaultPlan::none(7));
        for b in 0..8 {
            let got = d.read_block(b).unwrap();
            assert_eq!(got[0], b as f64 * 10.0 + 1.0);
        }
        assert!(d.torn_blocks().is_empty());
        assert_eq!(d.planned_read_failures(3), 0);
    }

    #[test]
    fn read_errors_are_transient_and_scheduled() {
        let d = loaded(FaultPlan::uniform(42, FaultKind::ReadError, 0.6));
        for b in 0..8 {
            let planned = d.planned_read_failures(b);
            assert!(planned < 4096);
            // Exactly `planned` failures, then success.
            let mut buf = [0.0; 4];
            for _ in 0..planned {
                assert_eq!(d.read_into(b, &mut buf).unwrap_err().kind, ReadErrorKind::Io);
            }
            d.read_into(b, &mut buf).unwrap();
        }
    }

    #[test]
    fn bit_flips_are_always_detected() {
        let d = loaded(FaultPlan::uniform(9, FaultKind::BitFlip, 1.0));
        for b in 0..8 {
            let err = d.read_block(b).unwrap_err();
            assert_eq!(err.kind, ReadErrorKind::Corrupt, "block {b}");
        }
    }

    #[test]
    fn dead_blocks_never_recover() {
        let d = loaded(FaultPlan::uniform(5, FaultKind::DeadBlock, 0.5));
        let dead: Vec<usize> = (0..8).filter(|&b| d.is_dead(b)).collect();
        assert!(!dead.is_empty(), "seed 5 should kill some of 8 blocks at 50%");
        for &b in &dead {
            for _ in 0..20 {
                assert_eq!(d.read_block(b).unwrap_err().kind, ReadErrorKind::Dead);
            }
            assert_eq!(d.planned_read_failures(b), usize::MAX);
        }
        for b in (0..8).filter(|b| !dead.contains(b)) {
            d.read_block(b).unwrap();
        }
    }

    #[test]
    fn torn_writes_corrupt_until_rewrite() {
        let mut d =
            FaultyDevice::with_plan(4, 16, FaultPlan::uniform(3, FaultKind::TornWrite, 0.7));
        for b in 0..16 {
            d.write_block(b, &[b as f64 + 0.5, -1.0, 2.0, 3.0]);
        }
        let torn = d.torn_blocks();
        assert!(!torn.is_empty(), "seed 3 should tear some of 16 writes at 70%");
        for &b in &torn {
            assert_eq!(d.read_block(b).unwrap_err().kind, ReadErrorKind::Corrupt);
            assert_eq!(d.planned_read_failures(b), usize::MAX);
        }
        // Healing: a clean rewrite restores the block.
        let healthy = FaultPlan::none(3);
        let victim = torn[0];
        let mut healed = FaultyDevice::new(
            {
                let mut m = MemDevice::new(4, 16);
                m.write_block(victim, &[9.0, 9.0, 9.0, 9.0]);
                m
            },
            healthy,
        );
        healed.write_block(victim, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(healed.read_block(victim).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn schedule_is_reproducible_per_seed() {
        let a = loaded(FaultPlan::uniform(77, FaultKind::ReadError, 0.5));
        let b = loaded(FaultPlan::uniform(77, FaultKind::ReadError, 0.5));
        for blk in 0..8 {
            assert_eq!(a.planned_read_failures(blk), b.planned_read_failures(blk));
        }
        let c = loaded(FaultPlan::uniform(78, FaultKind::ReadError, 0.5));
        assert!(
            (0..8).any(|blk| a.planned_read_failures(blk) != c.planned_read_failures(blk)),
            "different seeds should differ somewhere"
        );
    }
}
