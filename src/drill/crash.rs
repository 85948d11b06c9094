//! The crash-recovery drill: a write log applied to a durable
//! [`FileDevice`] that dies at a seeded crash point, then reopened.
//!
//! The contract: whatever recovery rebuilds is bit-identical — payloads
//! and checksums — to *some* prefix of the write log applied to fresh
//! media, and that prefix reaches at least the acknowledged (durably
//! synced) frontier. Under `fsync-always` every completed write is
//! acknowledged, so none may be lost.

use std::path::PathBuf;
use std::time::Instant;

use aims_storage::device::{BlockDevice, MemDevice, RawMedia};
use aims_storage::file::{
    CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions, RecoveryReport, WalStats,
};

use super::Rng;

/// An ordered write history: `(block, payload)`, LSN = index + 1.
pub type WriteLog = Vec<(usize, Vec<f64>)>;

/// Applies `log` to fresh in-memory media — the reference a recovered
/// device is compared against.
pub fn replica(log: &[(usize, Vec<f64>)], block_size: usize, blocks: usize) -> MemDevice {
    let mut mem = MemDevice::new(block_size, blocks);
    for (b, p) in log {
        mem.write_block(*b, p);
    }
    mem
}

/// Whether two devices hold bit-identical payloads and checksums.
pub fn identical(a: &impl RawMedia, b: &impl RawMedia) -> bool {
    a.num_blocks() == b.num_blocks()
        && (0..a.num_blocks()).all(|blk| {
            image_of(a, blk) == image_of(b, blk) && a.stored_checksum(blk) == b.stored_checksum(blk)
        })
}

fn image_of(dev: &impl RawMedia, block: usize) -> Vec<u64> {
    dev.raw_payload(block).iter().map(|v| v.to_bits()).collect()
}

/// The shortest prefix length `k` in `floor..=ceil` whose [`replica`] is
/// [`identical`] to `dev`, if any.
pub fn committed_prefix(
    dev: &impl RawMedia,
    log: &[(usize, Vec<f64>)],
    floor: usize,
    ceil: usize,
) -> Option<usize> {
    let (bs, nb) = (dev.block_size(), dev.num_blocks());
    (floor..=ceil.min(log.len())).find(|&k| identical(dev, &replica(&log[..k], bs, nb)))
}

/// One crash drill: the device geometry, the workload and where it dies.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the torn-prefix lengths at the crash point.
    pub seed: u64,
    /// WAL fsync cadence.
    pub mode: DurabilityMode,
    /// Items per block.
    pub block_size: usize,
    /// Blocks on the device.
    pub blocks: usize,
    /// Auto-checkpoint threshold in WAL bytes (small values put
    /// checkpoints, and their crash points, mid-workload).
    pub checkpoint_bytes: u64,
    /// The write history to apply.
    pub log: WriteLog,
    /// Crash-eligible step at which the device dies; `None` runs the
    /// whole log (a probe for [`Report::steps_taken`]).
    pub crash_step: Option<u64>,
    /// Where the store lives: `Some` is used and kept, `None` is a temp
    /// dir removed after the run.
    pub dir: Option<PathBuf>,
}

impl Config {
    /// The `aims-cli durability` workload, all drawn from one stream: a
    /// load pass over every block, pseudo-random updates up to `writes`,
    /// and a crash step somewhere past the load pass.
    pub fn seeded(
        seed: u64,
        mode: DurabilityMode,
        blocks: usize,
        block_size: usize,
        writes: usize,
    ) -> Config {
        let mut rng = Rng(seed | 1);
        let log = (0..writes)
            .map(|k| {
                let b = if k < blocks { k } else { rng.next() as usize % blocks };
                let payload = (0..block_size)
                    .map(|i| (rng.next() % 2001) as f64 / 10.0 - 100.0 + i as f64)
                    .collect();
                (b, payload)
            })
            .collect();
        let crash_step = Some(blocks as u64 + rng.next() % (writes as u64));
        let checkpoint_bytes = FileDeviceOptions::default().checkpoint_bytes;
        Config { seed, mode, block_size, blocks, checkpoint_bytes, log, crash_step, dir: None }
    }

    fn options(&self, crash: CrashPlan) -> FileDeviceOptions {
        FileDeviceOptions {
            mode: self.mode,
            checkpoint_bytes: self.checkpoint_bytes,
            crash,
            ..Default::default()
        }
    }
}

/// What one crash drill observed.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Whether the crash point fired before the log ran out.
    pub crashed: bool,
    /// Writes that returned before the crash.
    pub completed: usize,
    /// The acknowledged frontier (durable LSN) when the device died.
    pub durable_lsn: u64,
    /// Crash-eligible steps the run took.
    pub steps_taken: u64,
    /// WAL activity up to the crash.
    pub wal: WalStats,
    /// What reopening replayed and truncated.
    pub recovery: RecoveryReport,
    /// Wall time of the reopen, milliseconds (the one unseeded field).
    pub recovery_ms: f64,
    /// Length of the committed prefix the recovered image equals.
    pub matched_prefix: Option<usize>,
    /// The recovered payload bits, block by block.
    pub image: Vec<Vec<u64>>,
    violations: Vec<String>,
}

impl Report {
    /// Contracts that did not hold (empty = the drill passed).
    pub fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// Runs the drill: write until the crash, reopen, match a committed prefix.
///
/// # Panics
/// If the store directory cannot be created or reopened.
pub fn run(cfg: &Config) -> Report {
    let (dir, keep) = super::scratch_dir("crash", &cfg.dir);
    let crash = cfg.crash_step.map_or(CrashPlan::none(), |step| CrashPlan::at(cfg.seed, step));
    let mut device = FileDevice::create(&dir, cfg.block_size, cfg.blocks, cfg.options(crash))
        .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let mut completed = 0usize;
    for (b, p) in &cfg.log {
        device.write_block(*b, p);
        if device.is_crashed() {
            break;
        }
        completed += 1;
    }
    let (crashed, durable_lsn) = (device.is_crashed(), device.durable_lsn());
    let (steps_taken, wal) = (device.steps_taken(), device.wal_stats());
    drop(device);

    let t = Instant::now();
    let device = FileDevice::open(&dir, cfg.options(CrashPlan::none()))
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let recovery = device.recovery();

    let mut violations = Vec::new();
    let mode = cfg.mode.label();
    // A post-checkpoint crash leaves an empty WAL (recovered LSN 0): the
    // prefix is then found by search from the acked frontier.
    if recovery.recovered_lsn > 0 && recovery.recovered_lsn < durable_lsn {
        violations.push(format!(
            "{mode}: recovered lsn {} below acked frontier {durable_lsn}",
            recovery.recovered_lsn
        ));
    }
    // Every completed write was individually synced; a crash inside the
    // post-sync auto-checkpoint can leave one more durable but uncounted.
    if cfg.mode == DurabilityMode::Always
        && !(completed as u64..=completed as u64 + 1).contains(&durable_lsn)
    {
        violations.push(format!("always: acked {durable_lsn} of {completed} completed writes"));
    }
    let floor = durable_lsn.max(recovery.recovered_lsn) as usize;
    let matched_prefix = committed_prefix(&device, &cfg.log, floor, completed + 1);
    if matched_prefix.is_none() {
        violations.push(format!("{mode}: recovered state matches no committed prefix >= {floor}"));
    }
    let image = (0..cfg.blocks).map(|b| image_of(&device, b)).collect();
    drop(device);
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }
    Report {
        crashed,
        completed,
        durable_lsn,
        steps_taken,
        wal,
        recovery,
        recovery_ms,
        matched_prefix,
        image,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_report_and_a_different_seed_differs() {
        let run_seed = |seed| {
            let cfg = Config {
                checkpoint_bytes: 400,
                ..Config::seeded(seed, DurabilityMode::Periodic(3), 12, 8, 36)
            };
            Report { recovery_ms: 0.0, ..run(&cfg) }
        };
        let (a, b) = (run_seed(17), run_seed(17));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.crashed && a.matched_prefix.is_some());
        assert_eq!(a, b, "same seed, same crash, same recovery");
        assert_ne!(a.image, run_seed(2029).image);
    }

    #[test]
    fn a_foreign_image_matches_no_prefix() {
        let log: WriteLog = (0..6).map(|k| (k % 3, vec![k as f64; 4])).collect();
        let dev = replica(&log[..4], 4, 3);
        assert_eq!(committed_prefix(&dev, &log, 0, 6), Some(4));
        assert_eq!(committed_prefix(&dev, &log, 5, 6), None, "floor past the true prefix");
        let mut other = replica(&log[..4], 4, 3);
        other.write_block(2, &[9.0; 4]);
        assert_eq!(committed_prefix(&other, &log, 0, 6), None);
    }
}
