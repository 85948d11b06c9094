//! Experiment E30: durability-mode cost and crash recovery — a
//! YCSB-style load + update/read mix against the file-backed store under
//! each durability mode, plus a seeded crash drill proving recovery is
//! exact. Gates: every mode performs exactly the fsyncs it promises (one
//! per write / one per 8 appends / checkpoint-only), fsync-always never
//! loses an acknowledged write, and the recovered state is bit-identical
//! to the committed write prefix.

use std::time::Instant;

use aims::drill::crash::{self, identical, replica, WriteLog};
use aims::drill::sub_seed;
use aims_storage::{BlockDevice, CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions};

const BLOCK: usize = 32;
const NUM_BLOCKS: usize = 48;
const MIXED_OPS: usize = 512;
const SEED: u64 = 0xE30u64;
const CHECKPOINT_BYTES: u64 = 16 * 1024;

/// One measured durability mode.
struct Row {
    mode: DurabilityMode,
    wall_ms: f64,
    writes_per_sec: f64,
    fsyncs: u64,
    checkpoints: u64,
    drill: crash::Report,
}

fn payload(tag: u64) -> Vec<f64> {
    (0..BLOCK).map(|i| (tag.wrapping_mul(31).wrapping_add(i as u64) % 997) as f64 - 498.0).collect()
}

/// The YCSB-style op sequence: a full load pass, then a 50/50 update/read
/// mix over seeded keys. Returns the ordered write log (block, payload).
fn op_log() -> WriteLog {
    let mut log: WriteLog = (0..NUM_BLOCKS).map(|b| (b, payload(b as u64))).collect();
    for k in 0..MIXED_OPS {
        let r = sub_seed(SEED, k as u64 + 1);
        if r & 1 == 0 {
            log.push(((r as usize >> 1) % NUM_BLOCKS, payload(0x1000 + k as u64)));
        }
    }
    log
}

/// Runs the crash drill on `log` with the crash armed in the thick of the
/// mixed phase — past the load pass, before the tail — and gates it: the
/// crash fired, nothing acknowledged was lost (under fsync-always that is
/// every completed write), and the reopened store is bit-identical to a
/// committed prefix at least as long as the acked frontier.
fn crash_drill(mode: DurabilityMode, log: &WriteLog) -> crash::Report {
    let report = crash::run(&crash::Config {
        seed: SEED,
        mode,
        block_size: BLOCK,
        blocks: NUM_BLOCKS,
        checkpoint_bytes: CHECKPOINT_BYTES,
        log: log.clone(),
        crash_step: Some(NUM_BLOCKS as u64 * 2 + (SEED % 64)),
        dir: None,
    });
    assert!(report.crashed, "drill crash step never fired ({mode:?})");
    let violations = report.violations();
    assert!(violations.is_empty(), "{mode:?} crash drill: {violations:?}");
    report
}

/// E30 — durable storage: the fsyncs each durability mode pays for its
/// loss window, asserted write by write from the WAL counters, and seeded
/// crash drills with exact recovery. Throughput per mode is printed.
pub fn e30_durability() {
    crate::header("E30", "durability modes: write cost vs crash-loss window, with exact recovery");

    let log = op_log();
    let modes = [DurabilityMode::Always, DurabilityMode::Periodic(8), DurabilityMode::None];
    println!(
        "workload: {} blocks x {} items load + {MIXED_OPS} mixed ops \
         ({} writes total), seed {SEED:#x}\n",
        NUM_BLOCKS,
        BLOCK,
        log.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    let ((), wall) = crate::timed("bench.e30.durability", || {
        for mode in modes {
            let dir = std::env::temp_dir().join(format!("aims-e30-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let opts = FileDeviceOptions {
                mode,
                crash: CrashPlan::none(),
                checkpoint_bytes: CHECKPOINT_BYTES,
                ..Default::default()
            };
            let t = Instant::now();
            let mut device = FileDevice::create(&dir, BLOCK, NUM_BLOCKS, opts).unwrap();
            // The mode's promise, counted beside the device: an fsync is
            // due on every write (always), on every 8th append since the
            // last one (periodic:8), or never (none) — and a checkpoint,
            // which the WAL's byte size triggers in every mode alike,
            // syncs whatever is still pending.
            let (mut promised, mut unsynced) = (0u64, 0usize);
            for (b, p) in &log {
                let checkpoints = device.wal_stats().checkpoints;
                device.write_block(*b, p);
                unsynced += 1;
                let due = match mode {
                    DurabilityMode::Always => true,
                    DurabilityMode::Periodic(k) => unsynced == k,
                    DurabilityMode::None => false,
                };
                if due || device.wal_stats().checkpoints > checkpoints {
                    promised += 1;
                    unsynced = 0;
                }
            }
            device.sync();
            promised += u64::from(unsynced > 0);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let stats = device.wal_stats();
            assert_eq!(stats.appends, log.len() as u64, "{mode:?}: one WAL record per write");
            assert_eq!(stats.fsyncs, promised, "{mode:?}: fsyncs performed vs promised");

            // Sanity: the surviving state equals the full log on every mode.
            assert!(identical(&device, &replica(&log, BLOCK, NUM_BLOCKS)), "{mode:?} state drift");
            device.close();
            std::fs::remove_dir_all(&dir).ok();

            rows.push(Row {
                mode,
                wall_ms,
                writes_per_sec: log.len() as f64 / (wall_ms / 1e3),
                fsyncs: stats.fsyncs,
                checkpoints: stats.checkpoints,
                drill: crash_drill(mode, &log),
            });
        }
    });

    println!(
        "{:>12} {:>10} {:>12} {:>8} {:>6} {:>12} {:>10} {:>10}",
        "mode", "wall ms", "writes/s", "fsyncs", "ckpts", "recovery ms", "replayed", "torn B"
    );
    for r in &rows {
        println!(
            "{:>12} {:>10} {:>12} {:>8} {:>6} {:>12} {:>10} {:>10}",
            r.mode.label(),
            format!("{:.2}", r.wall_ms),
            format!("{:.0}", r.writes_per_sec),
            r.fsyncs,
            r.checkpoints,
            format!("{:.3}", r.drill.recovery_ms),
            r.drill.recovery.replayed_records,
            r.drill.recovery.truncated_bytes,
        );
    }
    // What the per-write promises add up to where there is a closed form.
    // The checkpoint trigger is the WAL's byte size, which no mode changes.
    let [always, periodic, none] = &rows[..] else { unreachable!("three modes") };
    let writes = log.len() as u64;
    assert!(always.checkpoints > 0, "the workload must cross the checkpoint threshold");
    for r in &rows {
        assert_eq!(r.checkpoints, always.checkpoints, "{:?}: checkpoints", r.mode);
    }
    assert_eq!(always.fsyncs, writes, "always: one fsync per write");
    assert_eq!(none.fsyncs, none.checkpoints + 1, "none: each checkpoint and the final sync");
    println!("\nshape check: fsyncs equal the mode's promise write by write (asserted above:");
    println!(
        "{} / {} / {} for {writes} writes and {} checkpoints); every crash drill recovered a",
        always.fsyncs, periodic.fsyncs, none.fsyncs, always.checkpoints
    );
    println!("bit-identical committed prefix with no acked write lost. ({wall:.1?})");
}
