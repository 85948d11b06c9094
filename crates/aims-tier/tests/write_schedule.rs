//! The hot tier holds a completed block back from its device while the
//! device would only buffer the write, and hands the pending run over on
//! the ack whose run holds a write that syncs or checkpoints the WAL (or
//! before any other hot-device write). This pins that the device still
//! sees the write-through schedule.
//!
//! One seeded op sequence (`AIMS_CRASH_SEED`, default `0x7153`; ci.sh also
//! runs 17 and 2029) drives two stores: one over plain [`FileDevice`]s,
//! which defer, and one over the same devices behind a [`FaultyDevice`]
//! with no faults, which keeps the write-through default and so writes
//! every block on the ack that completes it. After every call both
//! devices' WAL and main files are byte-identical between the two, under
//! every durability mode and three checkpoint thresholds.

use std::path::{Path, PathBuf};

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_storage::{DurabilityMode, FaultPlan, FaultyDevice, FileDevice, FileDeviceOptions};
use aims_tier::{compact, TierConfig, TierMedia, TieredStore};

const SEG: usize = 64;
const BLOCK: usize = 16;
const OPS: usize = 160;

/// The sequence's seed: `AIMS_CRASH_SEED` when set, else `0x7153`.
fn seed() -> u64 {
    std::env::var("AIMS_CRASH_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0x7153)
}

fn cfg() -> TierConfig {
    TierConfig { segment_len: SEG, block_size: BLOCK, max_segments: 96, filter: FilterKind::Haar }
}

/// xorshift64, never zero.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Push(usize),
    Seal,
    Sync,
    Compact,
    Checkpoint,
}

/// Pushes of one block, 17 samples and five blocks, with a seal, a sync,
/// a compaction run or a checkpoint now and then — checkpoints rarely
/// enough that the WAL also reaches the 4 KiB thresholds on its own.
fn ops(rng: &mut Rng) -> Vec<Op> {
    (0..OPS)
        .map(|_| match rng.next() % 32 {
            0..=11 => Op::Push(BLOCK),
            12..=19 => Op::Push(17),
            20..=24 => Op::Push(5 * BLOCK),
            25..=26 => Op::Seal,
            27..=28 => Op::Sync,
            29..=30 => Op::Compact,
            _ => Op::Checkpoint,
        })
        .collect()
}

fn apply<D: TierMedia>(store: &TieredStore<D>, op: Op, samples: &[f64], pool: &ThreadPool) {
    match op {
        Op::Push(_) => store.push_slice(samples),
        Op::Seal => store.seal_open(),
        Op::Sync => store.sync(),
        Op::Compact => {
            compact::run_once(store, pool, 1);
        }
        Op::Checkpoint => store.checkpoint(),
    }
}

fn device(dir: &Path, blocks: usize, opts: &FileDeviceOptions) -> FileDevice {
    FileDevice::create(dir, BLOCK, blocks, opts.clone()).unwrap()
}

/// `(wal.aims, blocks.aims)` of each device directory under `root`.
fn files(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for tier in ["hot", "hist"] {
        for file in ["wal.aims", "blocks.aims"] {
            let bytes = std::fs::read(root.join(tier).join(file)).unwrap();
            out.push((format!("{tier}/{file}"), bytes));
        }
    }
    out
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("aims-write-schedule-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn deferred_hot_writes_leave_the_write_through_files_after_every_call() {
    let pool = ThreadPool::new(1);
    let cfg = cfg();
    let modes = [
        DurabilityMode::Always,
        DurabilityMode::Periodic(1),
        DurabilityMode::Periodic(3),
        DurabilityMode::Periodic(64),
        DurabilityMode::None,
    ];
    for mode in modes {
        // A 16-item block's WAL record is 156 bytes: the third threshold
        // lands a write exactly on it.
        for checkpoint_bytes in [4 << 10, 64 << 10, 26 * 156] {
            let case = format!("{mode:?}, {checkpoint_bytes} B checkpoints, seed {}", seed());
            let opts = FileDeviceOptions { mode, checkpoint_bytes, ..Default::default() };
            let (a, b) = (fresh_dir("deferring"), fresh_dir("through"));
            let deferring = TieredStore::with_devices(
                cfg,
                device(&a.join("hot"), cfg.hot_device_blocks(), &opts),
                device(&a.join("hist"), cfg.hist_device_blocks(), &opts),
            );
            let faultless = |dir: &Path, blocks| {
                FaultyDevice::new(device(dir, blocks, &opts), FaultPlan::none(seed()))
            };
            let through = TieredStore::with_devices(
                cfg,
                faultless(&b.join("hot"), cfg.hot_device_blocks()),
                faultless(&b.join("hist"), cfg.hist_device_blocks()),
            );
            assert_eq!(files(&a), files(&b), "{case}: fresh stores");

            let mut rng = Rng(seed() | 1);
            let mut deferred_acks = 0;
            for (k, op) in ops(&mut rng).into_iter().enumerate() {
                let stats = deferring.stats();
                if let Op::Push(n) = op {
                    // Stop short of the store's segment slots.
                    if stats.historical + stats.sealed_raw + 1 + n.div_ceil(SEG) >= cfg.max_segments
                    {
                        break;
                    }
                }
                let samples: Vec<f64> = match op {
                    Op::Push(n) => {
                        (0..n).map(|_| (rng.next() % 4093) as f64 / 8.0 - 255.0).collect()
                    }
                    _ => Vec::new(),
                };
                apply(&deferring, op, &samples, &pool);
                apply(&through, op, &samples, &pool);
                let (want, got) = (files(&b), files(&a));
                for ((name, want), (_, got)) in want.iter().zip(&got) {
                    assert!(want == got, "{case}: op {k} ({op:?}): {name} differs");
                }
                let (held, written) = (deferring.device_stats().0, through.device_stats().0);
                if held.writes < written.writes {
                    deferred_acks += 1;
                } else {
                    assert_eq!(held.writes, written.writes, "{case}: op {k} ({op:?})");
                }
            }
            // Only a device that buffers a write can have one held back.
            match mode {
                DurabilityMode::Always | DurabilityMode::Periodic(1) => {
                    assert_eq!(deferred_acks, 0, "{case}: every write goes through on its ack")
                }
                _ => assert!(deferred_acks > 0, "{case}: no write was ever held back"),
            }
            drop((deferring, through));
            std::fs::remove_dir_all(&a).ok();
            std::fs::remove_dir_all(&b).ok();
        }
    }
}
