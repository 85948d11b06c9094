//! Experiment E32: the tiered ingest engine under concurrent load — a
//! file-backed `TieredStore` absorbs a multi-million-sample stream on
//! one thread while the background compactor swaps sealed segments into
//! wavelet form and a foreground planner runs progressive range sums the
//! whole time. Gates: sustained ingest ≥ 1M samples/sec, every
//! progressive trajectory monotone, and — once compaction drains — the
//! store answers bit-identically to a serial single-store oracle while
//! keeping no more in memory than its cache budget and energy catalogs.

use aims::drill::tiers::{run, Config};
use aims_service::TieredPlannerConfig;

const SEG: usize = 4096;
const BLOCK: usize = 256;
const TOTAL: usize = 505 * SEG + 1234;
const SEED: u64 = 0xE32;

/// E32 — tiered ingest: hot-tier absorption rate, compaction lag, and
/// query latency under concurrency, with a final oracle bit-identity
/// gate.
pub fn e32_tier() {
    crate::header(
        "E32",
        "tiered ingest: >=1M samples/s absorbed while progressive queries stay exact",
    );

    println!(
        "workload: {TOTAL} samples, {SEG}-sample segments, {BLOCK}-item blocks, \
         file-backed (fsync every 64 appends), seed {SEED:#x}\n"
    );
    let telemetry = crate::TelemetryReport::start();
    let r = run(&Config {
        seed: SEED,
        samples: TOTAL,
        segment: SEG,
        block: BLOCK,
        planner: TieredPlannerConfig { blocks_per_round: 8, threads: 1 },
        dir: None,
    });
    let hist = telemetry.delta();
    let (hits, misses) =
        (hist.counter("tier.hist.cache_hits"), hist.counter("tier.hist.cache_misses"));
    let (ingest_rate, ingest_wall_ms) =
        (r.ingest_samples_per_sec, r.ingest_wall.as_secs_f64() * 1e3);

    println!("{:>26} {:>14}", "metric", "value");
    println!("{:>26} {:>14}", "ingest samples/s", format!("{ingest_rate:.0}"));
    println!("{:>26} {:>14}", "ingest wall ms", format!("{ingest_wall_ms:.1}"));
    println!("{:>26} {:>14}", "segments compacted", r.segments_compacted);
    println!("{:>26} {:>14}", "compaction lag ms", format!("{:.1}", r.compaction_lag_ms));
    println!("{:>26} {:>14}", "queries during ingest", r.queries);
    println!("{:>26} {:>14}", "query p50 ms", format!("{:.3}", r.query_p50_ms));
    println!("{:>26} {:>14}", "query p99 ms", format!("{:.3}", r.query_p99_ms));
    println!("{:>26} {:>14}", "hot rows served", r.hot_rows_served);
    println!("{:>26} {:>14}", "resident KiB (drained)", r.resident_bytes / 1024);
    println!("{:>26} {:>14}", "hist block reads", hist.counter("tier.hist.block_reads"));
    println!("{:>26} {:>14}", "hist cache hits / misses", format!("{hits} / {misses}"));

    // The drill's invariants, then the headline acceptance gate.
    let violations = r.violations();
    assert!(violations.is_empty(), "tier drill violated {violations:?}");
    assert!(ingest_rate >= 1.0e6, "ingest rate {ingest_rate:.0} samples/s below the 1M/s floor");
    println!("\ngates: ingest >= 1M samples/s, monotone bounds on every live trajectory, the");
    println!("fully-compacted store answered bit-identically to the serial single-store oracle,");
    println!("and its resident bytes fit the cache budget plus the energy catalogs.");
}
