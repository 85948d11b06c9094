//! Experiment E32: the tiered ingest engine under concurrent load — a
//! file-backed [`TieredStore`] absorbs a multi-million-sample stream on
//! one thread while the background compactor swaps sealed segments into
//! wavelet form and a foreground planner runs progressive range sums the
//! whole time. Gates: sustained ingest ≥ 1M samples/sec, every
//! progressive trajectory monotone, and — once compaction drains — the
//! store answers bit-identically to a serial single-store oracle while
//! keeping no more in memory than its cache budget and energy catalogs.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aims::tier::{
    compact, range_sum_on, Compactor, CompactorConfig, TierConfig, TieredStore, HIST_CACHE_BYTES,
};
use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_service::{TieredPlanner, TieredPlannerConfig};
use aims_storage::{CrashPlan, DurabilityMode, FileDeviceOptions};

const SEG: usize = 4096;
const BLOCK: usize = 256;
const MAX_SEGMENTS: usize = 520;
const TOTAL: usize = 505 * SEG + 1234;
const SEED: u64 = 0xE32;

fn cfg() -> TierConfig {
    TierConfig {
        segment_len: SEG,
        block_size: BLOCK,
        max_segments: MAX_SEGMENTS,
        filter: FilterKind::Haar,
    }
}

fn signal() -> Vec<f64> {
    let mut state = SEED;
    (0..TOTAL)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 4099) as f64 / 11.0 - 180.0
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// E32 — tiered ingest: hot-tier absorption rate, compaction lag, and
/// query latency under concurrency, with a final oracle bit-identity
/// gate. Results land in `target/bench_tier.json` for CI trend tracking.
pub fn e32_tier() {
    crate::header(
        "E32",
        "tiered ingest: >=1M samples/s absorbed while progressive queries stay exact",
    );

    let data = Arc::new(signal());
    let telemetry_before = aims_telemetry::global().snapshot();
    let dir = std::env::temp_dir().join(format!("aims-e32-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = FileDeviceOptions {
        mode: DurabilityMode::Periodic(64),
        crash: CrashPlan::none(),
        ..Default::default()
    };
    let store = TieredStore::create_durable(&dir, cfg(), opts).unwrap();
    let compactor = Compactor::spawn(store.clone(), CompactorConfig::default());
    let ingesting = Arc::new(AtomicBool::new(true));

    println!(
        "workload: {TOTAL} samples, {SEG}-sample segments, {BLOCK}-item blocks, \
         file-backed (fsync every 64 appends), seed {SEED:#x}\n"
    );

    let (ingest_wall, latencies_ms, queries_hot_rows) = std::thread::scope(|scope| {
        // Ingest thread: the hot path under measurement.
        let ingest = {
            let store = store.clone();
            let ingesting = Arc::clone(&ingesting);
            let data = Arc::clone(&data);
            scope.spawn(move || {
                let t = Instant::now();
                for chunk in data.chunks(SEG) {
                    store.push_slice(chunk);
                }
                store.seal_open();
                let wall = t.elapsed();
                ingesting.store(false, Ordering::Release);
                wall
            })
        };
        // Foreground planner: progressive range sums against live
        // snapshots for as long as ingest runs.
        let queries = {
            let store = store.clone();
            let ingesting = Arc::clone(&ingesting);
            scope.spawn(move || {
                let planner = TieredPlanner::new(
                    store,
                    TieredPlannerConfig { blocks_per_round: 8, threads: 1 },
                );
                let mut lat = Vec::new();
                let mut hot_rows = 0usize;
                let mut k = 0usize;
                while ingesting.load(Ordering::Acquire) {
                    let n = planner.store().len();
                    if n == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let (a, b) = match k % 3 {
                        0 => (0, n - 1),
                        1 => (n / 4, 3 * n / 4),
                        _ => (n.saturating_sub(SEG), n - 1),
                    };
                    let t = Instant::now();
                    let ans = planner.range_sum(a, b);
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                    // Monotone-bound gate on the live trajectory.
                    let mut prev = f64::INFINITY;
                    for s in &ans.steps {
                        assert!(s.bound <= prev, "bound grew mid-ingest: {prev} -> {}", s.bound);
                        prev = s.bound;
                    }
                    hot_rows += ans.hot_rows;
                    k += 1;
                }
                (lat, hot_rows)
            })
        };
        let wall = ingest.join().expect("ingest thread");
        let (lat, hot) = queries.join().expect("query thread");
        (wall, lat, hot)
    });

    // Compaction lag: how long the sealed-raw backlog takes to drain once
    // ingest stops (the compactor keeps running; queries have ceased, so
    // it runs at full rate).
    let t = Instant::now();
    let deadline = t + Duration::from_secs(120);
    while store.stats().sealed_raw > 0 {
        assert!(Instant::now() < deadline, "compactor failed to drain backlog");
        std::thread::sleep(Duration::from_millis(1));
    }
    let lag_ms = t.elapsed().as_secs_f64() * 1e3;
    let compacted = compactor.stop();

    let ingest_rate = TOTAL as f64 / ingest_wall.as_secs_f64();
    let mut sorted = latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);

    // Oracle gate: a single-store serial build answers bit-identically.
    let serial = ThreadPool::new(1);
    let oracle = TieredStore::new_mem(cfg());
    oracle.push_slice(&data);
    oracle.seal_open();
    compact::drain(&oracle, &serial);
    assert_eq!(store.len(), TOTAL, "samples lost in flight");
    let (snap, osnap) = (store.snapshot(), oracle.snapshot());
    assert!(snap.segments().iter().all(|s| s.historical), "backlog not fully compacted");
    for (a, b) in [(0, TOTAL - 1), (0, 0), (TOTAL / 3, 2 * TOTAL / 3), (SEG - 1, 5 * SEG)] {
        let got = range_sum_on(&snap, a, b, &serial);
        let want = range_sum_on(&osnap, a, b, &serial);
        assert_eq!(got.to_bits(), want.to_bits(), "oracle drift on [{a}, {b}]");
    }
    // Memory gate: every segment is historical now, so what is resident
    // is the block cache (bounded) and 128 B of catalog per segment — not
    // the 16 MiB that were ingested.
    let resident_bytes = store.resident_bytes();
    let catalogs = 8 * (SEG / BLOCK) * snap.segments().len();
    assert!(
        resident_bytes <= HIST_CACHE_BYTES + catalogs,
        "resident {resident_bytes} B exceeds cache budget + catalogs"
    );
    let hist = aims_telemetry::global().snapshot().delta_since(&telemetry_before);
    let (hits, misses) =
        (hist.counter("tier.hist.cache_hits"), hist.counter("tier.hist.cache_misses"));
    store.checkpoint();
    drop((snap, store));
    std::fs::remove_dir_all(&dir).ok();

    println!("{:>26} {:>14}", "metric", "value");
    println!("{:>26} {:>14}", "ingest samples/s", format!("{ingest_rate:.0}"));
    println!("{:>26} {:>14}", "ingest wall ms", format!("{:.1}", ingest_wall.as_secs_f64() * 1e3));
    println!("{:>26} {:>14}", "segments compacted", compacted);
    println!("{:>26} {:>14}", "compaction lag ms", format!("{lag_ms:.1}"));
    println!("{:>26} {:>14}", "queries during ingest", latencies_ms.len());
    println!("{:>26} {:>14}", "query p50 ms", format!("{p50:.3}"));
    println!("{:>26} {:>14}", "query p99 ms", format!("{p99:.3}"));
    println!("{:>26} {:>14}", "hot rows served", queries_hot_rows);
    println!("{:>26} {:>14}", "resident KiB (drained)", resident_bytes / 1024);
    println!("{:>26} {:>14}", "hist block reads", hist.counter("tier.hist.block_reads"));
    println!("{:>26} {:>14}", "hist cache hits / misses", format!("{hits} / {misses}"));

    // The headline acceptance gate.
    assert!(ingest_rate >= 1.0e6, "ingest rate {ingest_rate:.0} samples/s below the 1M/s floor");
    println!("\ngates: ingest >= 1M samples/s, monotone bounds on every live trajectory, the");
    println!("fully-compacted store answered bit-identically to the serial single-store oracle,");
    println!("and its resident bytes fit the cache budget plus the energy catalogs.");

    let json = format!(
        "{{\"experiment\":\"e32_tier\",\"seed\":{SEED},\"samples\":{TOTAL},\
         \"ingest_samples_per_sec\":{ingest_rate:.1},\
         \"ingest_wall_ms\":{:.3},\"compaction_lag_ms\":{lag_ms:.3},\
         \"segments_compacted\":{compacted},\"queries\":{},\
         \"query_p50_ms\":{p50:.4},\"query_p99_ms\":{p99:.4},\"hot_rows_served\":{},\
         \"resident_bytes\":{resident_bytes}}}\n",
        ingest_wall.as_secs_f64() * 1e3,
        latencies_ms.len(),
        queries_hot_rows
    );
    let path = std::path::Path::new("target").join("bench_tier.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nrecorded {}", path.display()),
        Err(e) => println!("\n(could not write {}: {e})", path.display()),
    }
}
