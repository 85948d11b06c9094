//! Property-based tests of the durable [`FileDevice`]'s WAL invariants:
//! replay is idempotent, torn tails never swallow a synced record, and a
//! crash-free file device is bit-identical to a [`MemDevice`].

use proptest::prelude::*;

use aims_storage::{
    BlockDevice, CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions, MemDevice, RawMedia,
};

const BLOCK: usize = 4;
const NUM_BLOCKS: usize = 8;

fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aims-walprop-{}-{tag}-{n}", std::process::id()))
}

fn opts(mode: DurabilityMode, crash: CrashPlan) -> FileDeviceOptions {
    FileDeviceOptions { mode, crash, checkpoint_bytes: 1 << 20, ..Default::default() }
}

/// A write log: (block id, payload) pairs derived from proptest input.
fn build_log(blocks: &[usize], fills: &[f64]) -> Vec<(usize, Vec<f64>)> {
    blocks
        .iter()
        .zip(fills)
        .map(|(&b, &v)| {
            let payload: Vec<f64> = (0..BLOCK).map(|i| v + i as f64 * 0.25).collect();
            (b % NUM_BLOCKS, payload)
        })
        .collect()
}

fn bits(device: &impl RawMedia) -> Vec<Vec<u64>> {
    (0..device.num_blocks())
        .map(|b| device.raw_payload(b).iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying the same WAL twice lands in the same state: reopening a
    /// device whose WAL survived intact (crash at the pre-truncate
    /// checkpoint step leaves every record on disk) equals the pre-crash
    /// state, and a second reopen equals the first.
    #[test]
    fn replay_is_idempotent(
        blocks in prop::collection::vec(0usize..NUM_BLOCKS, 1..20),
        fills in prop::collection::vec(-100.0_f64..100.0, 20),
        seed in 0u64..1000,
    ) {
        let log = build_log(&blocks, &fills);
        let dir = test_dir("idem");

        // Run the full log with fsync-always, then crash the explicit
        // checkpoint right before the WAL truncate: every record is
        // durable and the whole WAL survives for replay.
        let mut device = FileDevice::create(&dir, BLOCK, NUM_BLOCKS,
            opts(DurabilityMode::Always, CrashPlan::none())).unwrap();
        for (b, payload) in &log {
            device.write_block(*b, payload);
        }
        let expect = bits(&device);
        // Checkpoint steps: begin, one per distinct dirty block, the
        // pre-main-fsync, then the pre-truncate we want to die on.
        let distinct: std::collections::HashSet<usize> = log.iter().map(|(b, _)| *b).collect();
        let pre_truncate = device.steps_taken() + distinct.len() as u64 + 2;
        drop(device);

        // Re-run in a fresh dir with the crash plan armed so the WAL is
        // left fully populated on disk.
        let dir2 = test_dir("idem2");
        let mut device = FileDevice::create(&dir2, BLOCK, NUM_BLOCKS,
            opts(DurabilityMode::Always, CrashPlan::at(seed, pre_truncate))).unwrap();
        for (b, payload) in &log {
            device.write_block(*b, payload);
        }
        device.checkpoint();
        prop_assert!(device.is_crashed(), "crash plan must fire before truncate");
        drop(device);

        let reopened = FileDevice::open(&dir2, opts(DurabilityMode::Always, CrashPlan::none())).unwrap();
        prop_assert_eq!(reopened.recovery().replayed_records, log.len() as u64);
        prop_assert_eq!(bits(&reopened), expect.clone());
        drop(reopened);

        // Second reopen: the WAL was truncated by the first recovery, so
        // replay runs over an empty log — state must not drift.
        let again = FileDevice::open(&dir2, opts(DurabilityMode::Always, CrashPlan::none())).unwrap();
        prop_assert_eq!(again.recovery().replayed_records, 0);
        prop_assert_eq!(bits(&again), expect);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    /// Torn-tail truncation never loses a synced record: crash the sync
    /// after the last write so the tail of the final flush is torn at a
    /// seed-chosen byte; every record synced *before* that flush must
    /// survive recovery bit-exactly.
    #[test]
    fn torn_tail_never_loses_a_synced_record(
        blocks in prop::collection::vec(0usize..NUM_BLOCKS, 2..16),
        fills in prop::collection::vec(-50.0_f64..50.0, 16),
        seed in 0u64..1000,
        split in 1usize..15,
    ) {
        let log = build_log(&blocks, &fills);
        let split = split.min(log.len() - 1);
        let dir = test_dir("torn");

        // Periodic(usize::MAX): nothing syncs unless we say so. Sync after
        // the first `split` writes, then crash the final explicit sync —
        // its buffered bytes are written as a torn prefix.
        let mut device = FileDevice::create(&dir, BLOCK, NUM_BLOCKS,
            opts(DurabilityMode::Periodic(usize::MAX), CrashPlan::none())).unwrap();
        for (b, payload) in &log[..split] {
            device.write_block(*b, payload);
        }
        device.sync();
        let durable = device.durable_lsn();
        prop_assert_eq!(durable, split as u64);
        // The remaining writes consume one append step each; the final
        // sync consumes the step right after them.
        let crash_step = device.steps_taken() + (log.len() - split) as u64;
        drop(device);

        let dir2 = test_dir("torn2");
        let mut device = FileDevice::create(&dir2, BLOCK, NUM_BLOCKS,
            opts(DurabilityMode::Periodic(usize::MAX), CrashPlan::at(seed, crash_step))).unwrap();
        for (b, payload) in &log[..split] {
            device.write_block(*b, payload);
        }
        device.sync();
        for (b, payload) in &log[split..] {
            device.write_block(*b, payload);
        }
        device.sync();
        prop_assert!(device.is_crashed(), "crash plan must fire on the last sync");
        drop(device);

        // Recovery must keep at least the synced prefix.
        let reopened = FileDevice::open(&dir2,
            opts(DurabilityMode::Always, CrashPlan::none())).unwrap();
        let recovered = reopened.recovery().recovered_lsn;
        prop_assert!(recovered >= durable,
            "recovered lsn {} below synced frontier {}", recovered, durable);

        // And the recovered state equals the log's first `recovered`
        // writes applied in order.
        let mut replica = MemDevice::new(BLOCK, NUM_BLOCKS);
        for (b, payload) in &log[..recovered as usize] {
            replica.patch_raw(*b, payload);
        }
        prop_assert_eq!(bits(&reopened), bits(&replica));

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    /// With no crash, a FileDevice in any durability mode is bit-identical
    /// to a MemDevice fed the same write sequence — before and after a
    /// close/reopen cycle.
    #[test]
    fn crash_free_file_device_matches_mem_device(
        blocks in prop::collection::vec(0usize..NUM_BLOCKS, 1..24),
        fills in prop::collection::vec(-100.0_f64..100.0, 24),
        mode_pick in 0usize..3,
    ) {
        let mode = [
            DurabilityMode::Always,
            DurabilityMode::Periodic(3),
            DurabilityMode::None,
        ][mode_pick];
        let log = build_log(&blocks, &fills);
        let dir = test_dir("mem");

        let mut device = FileDevice::create(&dir, BLOCK, NUM_BLOCKS,
            opts(mode, CrashPlan::none())).unwrap();
        let mut replica = MemDevice::new(BLOCK, NUM_BLOCKS);
        for (b, payload) in &log {
            device.write_block(*b, payload);
            replica.write_block(*b, payload);
        }
        prop_assert_eq!(bits(&device), bits(&replica));
        for b in 0..NUM_BLOCKS {
            prop_assert_eq!(device.read_block(b).unwrap(), replica.read_block(b).unwrap());
        }
        device.close();

        let reopened = FileDevice::open(&dir, opts(mode, CrashPlan::none())).unwrap();
        prop_assert_eq!(bits(&reopened), bits(&replica));

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What one seeded run leaves behind: one digest over the WAL and main
/// file bytes after every operation, the crash-step count and the WAL
/// counters.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    files: u64,
    steps: u64,
    appends: u64,
    fsyncs: u64,
    checkpoints: u64,
}

/// A seeded sequence of writes, explicit syncs and checkpoints, with an
/// auto-checkpoint every ≈ 9 records. A third of the writes go to block 0
/// twice in a row — a block rewritten inside one batch, as the tiered
/// store rewrites its manifest at every seal.
fn pinned_run(mode: DurabilityMode) -> Trace {
    const BS: usize = 16;
    let dir = test_dir("pinned");
    // One record is `4 + 24 + 8·BS` bytes.
    let opts = FileDeviceOptions { mode, checkpoint_bytes: 1500, ..Default::default() };
    let mut device = FileDevice::create(&dir, BS, 6, opts).unwrap();
    let mut files = 0xcbf2_9ce4_8422_2325u64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for op in 0..240u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let payload: Vec<f64> =
            (0..BS as u64).map(|i| f64::from_bits(state.rotate_left(i as u32) ^ op)).collect();
        match state % 20 {
            0..=1 => device.sync(),
            2 => device.checkpoint(),
            3..=7 => {
                device.write_block(0, &payload);
                let again: Vec<f64> = payload.iter().map(|v| -v).collect();
                device.write_block(0, &again);
            }
            _ => device.write_block(1 + (state >> 32) as usize % 5, &payload),
        }
        for name in ["wal.aims", "blocks.aims"] {
            files = fnv(files, &std::fs::read(dir.join(name)).unwrap());
        }
    }
    let wal = device.wal_stats();
    let trace = Trace {
        files,
        steps: device.steps_taken(),
        appends: wal.appends,
        fsyncs: wal.fsyncs,
        checkpoints: wal.checkpoints,
    };
    drop(device);
    std::fs::remove_dir_all(&dir).ok();
    trace
}

/// The bytes the WAL and the main file hold after every operation, the
/// crash-step inventory and the WAL counters are fixed by the format, the
/// fsync cadence and the write history alone: a change to when a record
/// is encoded or a digest taken must leave every one of them.
#[test]
fn file_bytes_steps_and_counters_are_pinned_per_mode() {
    let trace =
        |files, steps, fsyncs| Trace { files, steps, appends: 250, fsyncs, checkpoints: 31 };
    let pins = [
        (DurabilityMode::Always, trace(5_396_189_694_460_195_116, 712, 250)),
        (DurabilityMode::Periodic(3), trace(15_774_742_878_125_689_319, 566, 104)),
        (DurabilityMode::None, trace(7_206_082_995_846_423_907, 511, 49)),
    ];
    for (mode, want) in pins {
        assert_eq!(pinned_run(mode), want, "{mode:?}");
    }
}
