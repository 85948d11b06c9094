//! The tiered-ingest drill: a durable [`TieredStore`] absorbs a seeded
//! signal on one thread while the background [`Compactor`] swaps sealed
//! segments into wavelet form and a [`TieredPlanner`] runs progressive
//! range sums against live snapshots the whole time.
//!
//! Invariants: every live trajectory's bound is monotone non-increasing;
//! the compaction backlog drains once ingest stops; no sample is lost;
//! the drained store answers bit-identically to a serial single-pass
//! in-memory oracle; and what it keeps resident fits the block-cache
//! budget plus its per-segment catalogs (one energy per block and the
//! full-cover partial) — bounded by the budget, not by what was ingested.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_service::{TieredPlanner, TieredPlannerConfig};
use aims_storage::file::{CrashPlan, DurabilityMode, FileDeviceOptions};
use aims_tier::{
    compact, range_sum, Compactor, CompactorConfig, TierConfig, TieredStore, HIST_CACHE_BYTES,
};

use super::{percentile, Rng};

/// How long the compactor gets to drain the backlog after ingest stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// One tier drill: the signal, the store geometry and the query fan-out.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the ingested signal.
    pub seed: u64,
    /// Samples to ingest.
    pub samples: usize,
    /// Samples per segment (power of two).
    pub segment: usize,
    /// Coefficients per historical block (power of two, ≤ `segment`).
    pub block: usize,
    /// Tuning of the live-query planner.
    pub planner: TieredPlannerConfig,
    /// Where the store lives: `Some` is used and kept, `None` is a temp
    /// dir removed after the run.
    pub dir: Option<PathBuf>,
}

/// What one tier drill observed.
#[derive(Clone, Debug)]
pub struct Report {
    /// Wall time of the ingest thread, push of the first sample to seal.
    pub ingest_wall: Duration,
    /// Sustained hot-tier absorption rate.
    pub ingest_samples_per_sec: f64,
    /// How long the sealed-raw backlog took to drain once ingest stopped.
    pub compaction_lag_ms: f64,
    /// Segments the background compactor installed.
    pub segments_compacted: u64,
    /// Progressive queries answered while ingest ran.
    pub queries: usize,
    /// Median live-query latency, milliseconds.
    pub query_p50_ms: f64,
    /// 99th-percentile live-query latency, milliseconds.
    pub query_p99_ms: f64,
    /// Raw hot-tier samples the live queries summed.
    pub hot_rows_served: usize,
    /// Bytes the drained store keeps in memory.
    pub resident_bytes: usize,
    /// Whether the backlog drained within the timeout.
    pub drained: bool,
    /// Whether every oracle-checked range sum was bit-identical.
    pub oracle_identical: bool,
    /// The drained store's answers to the oracle-checked ranges, as bits.
    pub answers: Vec<u64>,
    violations: Vec<String>,
}

impl Report {
    /// Invariants that did not hold (empty = the drill passed).
    pub fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// Runs the drill.
///
/// # Panics
/// If the store directory cannot be created, or `cfg` is not
/// `samples > 0` with power-of-two `block <= segment`.
pub fn run(cfg: &Config) -> Report {
    let (samples, segment) = (cfg.samples, cfg.segment);
    let tier = TierConfig {
        segment_len: segment,
        block_size: cfg.block,
        max_segments: samples.div_ceil(segment) + 4,
        filter: FilterKind::Haar,
    };
    let mut rng = Rng(cfg.seed | 1);
    let data: Vec<f64> = (0..samples).map(|_| (rng.next() % 3203) as f64 / 9.0 - 170.0).collect();

    let (dir, keep) = super::scratch_dir("tiers", &cfg.dir);
    let opts = FileDeviceOptions {
        mode: DurabilityMode::Periodic(64),
        crash: CrashPlan::none(),
        ..Default::default()
    };
    let store = TieredStore::create_durable(&dir, tier, opts)
        .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let compactor = Compactor::spawn(store.clone(), CompactorConfig::default());
    let ingesting = AtomicBool::new(true);
    let mut violations = Vec::new();

    let (ingest_wall, mut latencies_ms, hot_rows_served, grown) = std::thread::scope(|scope| {
        // Ingest thread: the hot path under measurement.
        let ingest = scope.spawn(|| {
            let t = Instant::now();
            for chunk in data.chunks(segment) {
                store.push_slice(chunk);
            }
            store.seal_open();
            let wall = t.elapsed();
            ingesting.store(false, Ordering::Release);
            wall
        });
        // Foreground planner: progressive range sums against live
        // snapshots for as long as ingest runs.
        let queries = scope.spawn(|| {
            let planner = TieredPlanner::new(store.clone(), cfg.planner);
            let (mut lat, mut hot_rows, mut grown, mut k) = (Vec::new(), 0usize, Vec::new(), 0);
            while ingesting.load(Ordering::Acquire) {
                let n = store.len();
                if n == 0 {
                    std::thread::yield_now();
                    continue;
                }
                let (a, b) = match k % 3 {
                    0 => (0, n - 1),
                    1 => (n / 4, 3 * n / 4),
                    _ => (n.saturating_sub(segment), n - 1),
                };
                let t = Instant::now();
                let ans = planner.range_sum(a, b);
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                let mut prev = f64::INFINITY;
                for s in &ans.steps {
                    if s.bound > prev {
                        grown.push(format!("bound grew mid-ingest: {prev} -> {}", s.bound));
                    }
                    prev = s.bound;
                }
                hot_rows += ans.hot_rows;
                k += 1;
            }
            (lat, hot_rows, grown)
        });
        let wall = ingest.join().expect("ingest thread");
        let (lat, hot_rows, grown) = queries.join().expect("query thread");
        (wall, lat, hot_rows, grown)
    });
    violations.extend(grown);

    // Compaction lag: queries have ceased, so the compactor runs at full
    // rate until the sealed-raw backlog is gone.
    let t = Instant::now();
    while store.stats().sealed_raw > 0 && t.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let compaction_lag_ms = t.elapsed().as_secs_f64() * 1e3;
    let segments_compacted = compactor.stop();
    let drained = store.stats().sealed_raw == 0;
    if !drained {
        violations.push(format!("compactor left a backlog after {DRAIN_TIMEOUT:?}"));
    }

    // Oracle: one serial pass into memory, drained on the calling thread.
    let serial = ThreadPool::new(1);
    let oracle = TieredStore::new_mem(tier);
    oracle.push_slice(&data);
    oracle.seal_open();
    compact::drain(&oracle, &serial);
    let (snap, osnap) = (store.snapshot(), oracle.snapshot());
    if snap.len() != samples {
        violations.push(format!("samples lost in flight: {} of {samples} stored", snap.len()));
    }
    if drained && !snap.segments().iter().all(|s| s.historical) {
        violations.push("drained store still serves a segment from the hot tier".to_string());
    }
    let last = samples - 1;
    let mut answers = Vec::new();
    let mut oracle_identical = true;
    for (a, b) in [(0, last), (0, 0), (last / 2, last), (last / 3, 2 * last / 3)] {
        let got = range_sum(&snap, a, b).to_bits();
        if got != range_sum(&osnap, a, b).to_bits() {
            oracle_identical = false;
            violations.push(format!("oracle drift on [{a}, {b}]"));
        }
        answers.push(got);
    }
    // Every segment is historical now, so what is resident is the block
    // cache (bounded), one energy per block and the full-cover partial.
    let resident_bytes = store.resident_bytes();
    let catalogs = 8 * (segment / cfg.block + 1) * snap.segments().len();
    if resident_bytes > HIST_CACHE_BYTES + catalogs {
        violations.push(format!("resident {resident_bytes} B exceeds cache budget + catalogs"));
    }
    store.checkpoint();
    drop((snap, store));
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }

    Report {
        ingest_wall,
        ingest_samples_per_sec: samples as f64 / ingest_wall.as_secs_f64(),
        compaction_lag_ms,
        segments_compacted,
        queries: latencies_ms.len(),
        query_p50_ms: percentile(&mut latencies_ms, 0.50),
        query_p99_ms: percentile(&mut latencies_ms, 0.99),
        hot_rows_served,
        resident_bytes,
        drained,
        oracle_identical,
        answers,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_answers_and_a_different_seed_differs() {
        let run_seed = |seed| {
            let planner = TieredPlannerConfig::default();
            run(&Config { seed, samples: 20_000, segment: 1024, block: 64, planner, dir: None })
        };
        let (a, b) = (run_seed(7153), run_seed(7153));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.drained && a.oracle_identical);
        assert_eq!(a.answers, b.answers, "the seeded half of the report");
        assert_eq!(a.segments_compacted, b.segments_compacted);
        assert_ne!(a.answers, run_seed(7154).answers);
    }
}
