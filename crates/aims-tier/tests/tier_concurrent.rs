//! The concurrent ingest + compact + query drill.
//!
//! One thread ingests a seeded signal in ragged chunks, the background
//! [`Compactor`] swaps sealed segments into the wavelet tier the whole
//! time, and two query threads hammer progressive range sums against
//! live snapshots. The invariants:
//!
//! - every snapshot partitions the store: segment offsets are contiguous
//!   and each sample lives in exactly one tier (no double count, no loss
//!   across a swap);
//! - every progressive step's bound is monotone non-increasing and
//!   covers the true error *of that snapshot*;
//! - once ingest stops and compaction drains, the store answers
//!   bit-identically to a single-pass serial oracle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_storage::{BlockDevice, DeviceStats, MemDevice, ReadError};
use aims_tier::{
    compact, range_sum_on, transform_segment, Compactor, CompactorConfig, TierConfig, TierMedia,
    TieredProgressive, TieredStore,
};

const SEG: usize = 128;
const TOTAL: usize = 40 * SEG + 37;

fn cfg() -> TierConfig {
    TierConfig { segment_len: SEG, block_size: 32, max_segments: 64, filter: FilterKind::Haar }
}

fn signal() -> Vec<f64> {
    let mut state = 0xC0FFEEu64;
    (0..TOTAL)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1999) as f64 / 7.0 - 140.0
        })
        .collect()
}

#[test]
fn concurrent_ingest_compact_query_drill() {
    let data = signal();
    let store = TieredStore::new_mem(cfg());
    let compactor = Compactor::spawn(store.clone(), CompactorConfig::default());
    let ingesting = Arc::new(AtomicBool::new(true));

    std::thread::scope(|scope| {
        // Ingest in ragged chunks.
        {
            let store = store.clone();
            let ingesting = Arc::clone(&ingesting);
            let data = &data;
            scope.spawn(move || {
                let mut fed = 0usize;
                let mut chunk = 13usize;
                while fed < data.len() {
                    let take = chunk.min(data.len() - fed);
                    store.push_slice(&data[fed..fed + take]);
                    fed += take;
                    chunk = chunk % 97 + 7;
                    std::thread::yield_now();
                }
                store.seal_open();
                ingesting.store(false, Ordering::Release);
            });
        }
        // Two query threads against live snapshots.
        for q in 0..2usize {
            let store = store.clone();
            let ingesting = Arc::clone(&ingesting);
            scope.spawn(move || {
                let pool = ThreadPool::new(1);
                let mut rounds = 0usize;
                while ingesting.load(Ordering::Acquire) || rounds < 5 {
                    let _guard = store.begin_query();
                    let snap = store.snapshot();
                    // Snapshot partition invariant.
                    let mut expect_start = 0usize;
                    for s in snap.segments() {
                        assert_eq!(s.start, expect_start, "segment offsets must be contiguous");
                        expect_start += s.len;
                    }
                    assert_eq!(expect_start, snap.len(), "tiers must cover every sample once");
                    if snap.is_empty() {
                        std::thread::yield_now();
                        continue;
                    }
                    let n = snap.len();
                    let (a, b) = if q == 0 { (0, n - 1) } else { (n / 3, 2 * n / 3 + 1) };
                    let exact = range_sum_on(&snap, a, b, &pool);
                    let mut prog = TieredProgressive::new(&snap, a, b, &pool);
                    let mut prev = f64::INFINITY;
                    loop {
                        let step = prog.current();
                        assert!(step.bound <= prev, "bound grew: {prev} -> {}", step.bound);
                        let scale = 1.0f64.max(exact.abs());
                        assert!(
                            (step.estimate - exact).abs() <= step.bound + 1e-9 * scale,
                            "estimate outside bound"
                        );
                        prev = step.bound;
                        if prog.done() {
                            break;
                        }
                        prog.step(4);
                    }
                    assert_eq!(prog.drain().estimate.to_bits(), exact.to_bits());
                    rounds += 1;
                }
            });
        }
    });

    // Drain the backlog and stop the compactor.
    let deadline = Instant::now() + Duration::from_secs(20);
    while store.stats().sealed_raw > 0 {
        assert!(Instant::now() < deadline, "compactor failed to drain backlog");
        std::thread::sleep(Duration::from_millis(1));
    }
    compactor.stop();
    assert_eq!(store.len(), TOTAL, "no sample lost");

    // Fully drained: bit-identical to the single-pass serial oracle.
    let serial = ThreadPool::new(1);
    let oracle = TieredStore::new_mem(cfg());
    oracle.push_slice(&data);
    oracle.seal_open();
    compact::drain(&oracle, &serial);
    let (snap, osnap) = (store.snapshot(), oracle.snapshot());
    assert!(snap.segments().iter().all(|s| s.historical));
    for (a, b) in [(0, TOTAL - 1), (0, 0), (TOTAL / 2, TOTAL - 1), (SEG - 1, 3 * SEG)] {
        let got = range_sum_on(&snap, a, b, &serial);
        let want = range_sum_on(&osnap, a, b, &serial);
        assert_eq!(got.to_bits(), want.to_bits(), "range [{a}, {b}]");
    }
}

/// A memory device whose `commit()` — the install's checkpoint — parks at
/// a gate: it meets the test at `entered`, then waits at `release`.
struct GatedDevice {
    inner: MemDevice,
    gate: Option<(Arc<Barrier>, Arc<Barrier>)>,
}

impl BlockDevice for GatedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
    fn read_raw_into(&self, id: usize, buf: &mut [f64]) -> Result<(), ReadError> {
        self.inner.read_raw_into(id, buf)
    }
    fn stored_checksum(&self, id: usize) -> u64 {
        self.inner.stored_checksum(id)
    }
    fn write_block(&mut self, id: usize, data: &[f64]) {
        self.inner.write_block(id, data);
    }
    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

impl TierMedia for GatedDevice {
    fn commit(&mut self) -> bool {
        if let Some((entered, release)) = &self.gate {
            entered.wait();
            release.wait();
        }
        true
    }
}

/// An install's commit is a full checkpoint on a durable device. It runs
/// under the historical lock alone, so ingest — and snapshots — go on
/// while it is in flight.
#[test]
fn ingest_does_not_wait_for_an_install_commit() {
    let cfg = cfg();
    let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let device = |blocks, gate| GatedDevice { inner: MemDevice::new(cfg.block_size, blocks), gate };
    let store = TieredStore::with_devices(
        cfg,
        device(cfg.hot_device_blocks(), None),
        device(cfg.hist_device_blocks(), Some((Arc::clone(&entered), Arc::clone(&release)))),
    );
    let data = signal();
    store.push_slice(&data[..SEG]);

    std::thread::scope(|scope| {
        let installer = {
            let store = store.clone();
            scope.spawn(move || {
                let (seg, raw) = store.claim_sealed(1).pop().expect("one sealed segment");
                store.install(seg, transform_segment(&raw, &cfg))
            })
        };
        entered.wait(); // the install is now parked inside its commit
        let (done, pushed) = mpsc::channel();
        {
            let store = store.clone();
            let data = &data;
            scope.spawn(move || {
                store.push_slice(&data[SEG..3 * SEG]);
                done.send(store.snapshot().len()).ok();
            });
        }
        let seen = pushed.recv_timeout(Duration::from_secs(10));
        release.wait();
        assert!(installer.join().expect("installer"), "commit was not refused");
        assert_eq!(seen, Ok(3 * SEG), "push_slice waited for the install's commit");
    });
    let stats = store.stats();
    assert_eq!((stats.historical, stats.sealed_raw), (1, 2));
}
