//! The background compactor: sealed raw segments → blocked wavelet form.
//!
//! A dedicated thread repeatedly claims sealed segments (oldest first),
//! wavelet-transforms them on an [`aims_exec::ThreadPool`] — the PR 7
//! lifting kernels, one segment per pool task — and installs the results
//! through the store's crash-ordered swap protocol. The loop is
//! rate-limited two ways: at most `IDLE_CYCLE_SEGMENTS` segments per
//! cycle, and when foreground queries are in flight
//! ([`TieredStore::queries_inflight`]) the cycle degrades to
//! `BUSY_CYCLE_SEGMENTS`, so compaction I/O never starves
//! interactive reads — the same degradation-over-starvation stance as the
//! QoS tier ladder.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aims_dsp::dwt::dwt_full_inplace;
use aims_dsp::kernel::DwtScratch;
use aims_exec::ThreadPool;
use aims_telemetry::global;

use crate::layout::TierConfig;
use crate::store::{SegCoeffs, TierMedia, TieredStore};

/// Segments compacted per cycle when no query is in flight.
const IDLE_CYCLE_SEGMENTS: usize = 4;
/// Segments compacted per cycle while queries are in flight.
const BUSY_CYCLE_SEGMENTS: usize = 1;
/// Sleep between cycles that found nothing to do.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// The argument of [`Compactor::spawn`]. It carries nothing: no caller
/// ever needed a cycle size, idle sleep or pool width other than the
/// constants above and [`aims_exec::configured_threads`]. The type stays
/// because the frozen benchmark harness (`bench/src/tier.rs`) passes
/// `CompactorConfig::default()`; it goes when ROADMAP item 1c re-bases the
/// harness, like `aims_storage::BufferPool`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactorConfig {}

/// Wavelet-transforms one sealed segment: zero-pad to `segment_len`,
/// full-depth DWT in place, per-block energy catalog.
pub fn transform_segment(data: &[f64], cfg: &TierConfig) -> SegCoeffs {
    let filter = cfg.filter.filter();
    let mut buf = data.to_vec();
    buf.resize(cfg.segment_len, 0.0);
    let mut scratch = DwtScratch::new();
    dwt_full_inplace(&mut buf, &filter, &mut scratch);
    SegCoeffs::from_coeffs(buf, data.len(), cfg.block_size)
}

/// One compaction cycle: claim → transform (on `pool`) → install,
/// ascending segment order. Returns how many segments were actually
/// installed — a refused install (historical device down) leaves its
/// segment raw and re-claimable, and stops the cycle so [`drain`]
/// terminates instead of spinning against a dead device.
pub fn run_once<D: TierMedia>(store: &TieredStore<D>, pool: &ThreadPool, max: usize) -> usize {
    let claimed = store.claim_sealed(max);
    if claimed.is_empty() {
        return 0;
    }
    let t = global();
    let start = Instant::now();
    let cfg = store.config();
    let transformed: Vec<SegCoeffs> =
        pool.par_map(&claimed, |(_, data)| transform_segment(data, &cfg));
    let mut bytes = 0u64;
    let mut installed = 0usize;
    let mut it = claimed.iter().zip(transformed);
    for ((seg, data), coeffs) in it.by_ref() {
        if !store.install(*seg, coeffs) {
            t.counter("tier.compaction.refused").inc();
            break;
        }
        bytes += (data.len() * 8) as u64;
        installed += 1;
    }
    // Release any claims left behind by an aborted cycle.
    for ((seg, _), _) in it {
        store.release_claim(*seg);
    }
    t.counter("tier.compaction.runs").inc();
    t.counter("tier.compaction.ns").add(start.elapsed().as_nanos() as u64);
    t.counter("tier.compaction.bytes").add(bytes);
    installed
}

/// Drains the whole raw backlog (tests, shutdown). Returns segments
/// compacted.
pub fn drain<D: TierMedia>(store: &TieredStore<D>, pool: &ThreadPool) -> usize {
    let mut n = 0;
    loop {
        let c = run_once(store, pool, usize::MAX / 2);
        if c == 0 {
            return n;
        }
        n += c;
    }
}

/// The background compaction thread. Dropping without [`Compactor::stop`]
/// also shuts the thread down (stop-flag + join).
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl Compactor {
    /// Spawns the compaction loop over a clone of `store`.
    pub fn spawn<D: TierMedia + Send + 'static>(
        store: TieredStore<D>,
        _cfg: CompactorConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("aims-tier-compactor".into())
            .spawn(move || {
                let pool = ThreadPool::new(aims_exec::configured_threads());
                let mut compacted = 0u64;
                while !flag.load(Ordering::Acquire) {
                    let max = if store.queries_inflight() > 0 {
                        BUSY_CYCLE_SEGMENTS
                    } else {
                        IDLE_CYCLE_SEGMENTS
                    };
                    let n = run_once(&store, &pool, max);
                    compacted += n as u64;
                    if n == 0 {
                        std::thread::sleep(IDLE_SLEEP);
                    }
                }
                compacted
            })
            .expect("spawn compactor thread");
        Compactor { stop, handle: Some(handle) }
    }

    /// Stops the loop and returns how many segments it compacted.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle.take().map(|h| h.join().expect("compactor panicked")).unwrap_or(0)
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}
