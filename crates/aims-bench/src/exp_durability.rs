//! Experiment E30: durability-mode cost and crash recovery — a
//! YCSB-style load + update/read mix against the file-backed store under
//! each durability mode, plus a seeded crash drill proving recovery is
//! exact. Gates: fsync-always never loses an acknowledged write, and the
//! recovered state is bit-identical to the committed write prefix.

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
    writes: usize,
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

/// E30 — durable storage: acknowledged-write throughput per durability
/// mode and seeded crash drills with exact recovery. Results land in
/// `target/bench_durability.json` for CI trend tracking.
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
            for (b, p) in &log {
                device.write_block(*b, p);
            }
            device.sync();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let stats = device.wal_stats();

            // Sanity: the surviving state equals the full log on every mode.
            assert!(identical(&device, &replica(&log, BLOCK, NUM_BLOCKS)), "{mode:?} state drift");
            device.close();
            std::fs::remove_dir_all(&dir).ok();

            rows.push(Row {
                mode,
                writes: log.len(),
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
    let speedup = |num: &Row, den: &Row| num.writes_per_sec / den.writes_per_sec;
    let none_over_always = speedup(&rows[2], &rows[0]);
    let periodic_over_always = speedup(&rows[1], &rows[0]);
    println!("\nshape check: fsyncs track the mode (every write / every 8th / checkpoint-only),");
    println!(
        "none mode writes {none_over_always:.1}x faster than fsync-always \
         (periodic {periodic_over_always:.1}x); every crash drill recovered a"
    );
    println!("bit-identical committed prefix with no acked write lost. ({wall:.1?})");

    // Machine-readable record for the driver / CI trend tracking.
    let json = format!(
        "{{\"experiment\":\"e30_durability\",\"seed\":{SEED},\
         \"none_over_always\":{none_over_always:.4},\
         \"periodic_over_always\":{periodic_over_always:.4},\"rows\":[{}]}}\n",
        rows.iter()
            .map(|r| format!(
                "{{\"mode\":\"{}\",\"writes\":{},\"wall_ms\":{:.3},\"writes_per_sec\":{:.1},\
                 \"fsyncs\":{},\"checkpoints\":{},\"recovery_ms\":{:.3},\"replayed\":{},\
                 \"truncated_bytes\":{}}}",
                r.mode.label(),
                r.writes,
                r.wall_ms,
                r.writes_per_sec,
                r.fsyncs,
                r.checkpoints,
                r.drill.recovery_ms,
                r.drill.recovery.replayed_records,
                r.drill.recovery.truncated_bytes
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    // Each side is a wall-clock run doing real fsyncs, so the ratios move
    // with the host's storage stack: wide band.
    let gate = |name: &str, ratio| crate::Metric::higher(name, ratio, 0.75, 0.0);
    crate::record(
        "bench_durability.json",
        &json,
        &[
            gate("e30.none_over_always.speedup", none_over_always),
            gate("e30.periodic_over_always.speedup", periodic_over_always),
        ],
    );
}
