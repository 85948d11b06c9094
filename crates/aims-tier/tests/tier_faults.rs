//! Media faults under the tiered read path.
//!
//! Historical blocks are read through the same substrate as the rest of
//! the system — `SharedBlockCache::get_or_read_outcome` over a
//! checksummed [`BlockDevice`] — so a seeded [`FaultyDevice`] under the
//! historical tier must behave the way it does under a `WaveletStore`:
//!
//! - transient read errors within the retry budget are invisible: every
//!   answer is bit-identical to a clean store's;
//! - a dead block is never an answer-shaped lie: the evaluation reports
//!   it lost, keeps its Cauchy–Schwarz gain in the bound, and the truth
//!   stays inside that bound; nothing panics.

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_storage::{FaultKind, FaultPlan, FaultyDevice, MemDevice, RetryPolicy};
use aims_telemetry::global;
use aims_tier::{compact, range_sum_on, TierConfig, TieredProgressive, TieredStore};

const SEG: usize = 128;
const BLOCK: usize = 16;
const TOTAL: usize = 9 * SEG + 40;

fn cfg() -> TierConfig {
    TierConfig { segment_len: SEG, block_size: BLOCK, max_segments: 12, filter: FilterKind::Haar }
}

fn signal() -> Vec<f64> {
    let mut state = 0xFA17u64;
    (0..TOTAL)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2003) as f64 / 13.0 - 70.0
        })
        .collect()
}

fn ranges() -> [(usize, usize); 4] {
    [(0, TOTAL - 1), (SEG / 2 + 3, TOTAL - SEG / 2), (3 * SEG + 1, 5 * SEG - 2), (17, SEG + 5)]
}

/// A fully compacted store whose historical device runs `plan`.
fn compacted(plan: FaultPlan) -> TieredStore<FaultyDevice> {
    let cfg = cfg();
    let hot = FaultyDevice::with_plan(BLOCK, cfg.hot_device_blocks(), FaultPlan::none(0));
    let hist = FaultyDevice::with_plan(BLOCK, cfg.hist_device_blocks(), plan);
    let store = TieredStore::with_devices(cfg, hot, hist);
    store.push_slice(&signal());
    store.seal_open();
    compact::drain(&store, &ThreadPool::new(1));
    store
}

/// The schedule is a pure function of (seed, block, attempt): a twin
/// device tells the test what the store's device will do.
fn twin(plan: &FaultPlan) -> FaultyDevice {
    FaultyDevice::new(MemDevice::new(BLOCK, cfg().hist_device_blocks()), plan.clone())
}

fn data_blocks() -> std::ops::Range<usize> {
    cfg().hist_block(0)..cfg().hist_block(TOTAL.div_ceil(SEG))
}

#[test]
fn transient_read_errors_are_retried_to_bit_identical_answers() {
    let plan = FaultPlan::uniform(0x5EEE, FaultKind::ReadError, 0.25);
    let worst = data_blocks().map(|b| twin(&plan).planned_read_failures(b)).max().unwrap();
    assert!((1..=RetryPolicy::default().retries).contains(&worst), "seed must fit the budget");

    let (clean, faulty) = (compacted(FaultPlan::none(0)), compacted(plan));
    let (csnap, fsnap) = (clean.snapshot(), faulty.snapshot());
    let retries = global().counter("storage.retries");
    let before = retries.get();
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        for (a, b) in ranges() {
            let want = range_sum_on(&csnap, a, b, &pool);
            let mut prog = TieredProgressive::new(&fsnap, a, b, &pool);
            let last = prog.drain();
            assert_eq!(last.estimate.to_bits(), want.to_bits(), "range [{a}, {b}]");
            assert_eq!((last.blocks_lost, last.bound.to_bits()), (0, 0.0f64.to_bits()));
        }
    }
    assert!(retries.get() > before, "the faulty device was never retried");
}

#[test]
fn dead_blocks_are_reported_and_bounded() {
    let plan = FaultPlan::uniform(0xDEAD, FaultKind::DeadBlock, 0.2);
    let dead = data_blocks().filter(|&b| twin(&plan).is_dead(b)).count();
    assert!(dead > 0, "seed must kill some historical blocks");

    let (clean, faulty) = (compacted(FaultPlan::none(0)), compacted(plan));
    let (csnap, fsnap) = (clean.snapshot(), faulty.snapshot());
    let pool = ThreadPool::new(2);
    let mut lost_somewhere = false;
    for (a, b) in ranges() {
        let truth = range_sum_on(&csnap, a, b, &pool);
        let mut prog = TieredProgressive::new(&fsnap, a, b, &pool);
        let mut prev = prog.current();
        loop {
            let scale = 1.0f64.max(truth.abs());
            assert!(
                (prev.estimate - truth).abs() <= prev.bound + 1e-9 * scale,
                "range [{a}, {b}]: truth {truth} outside {} ± {}",
                prev.estimate,
                prev.bound
            );
            if prog.done() {
                break;
            }
            let step = prog.step(2);
            assert!(step.bound <= prev.bound, "bound grew: {} -> {}", prev.bound, step.bound);
            assert!(step.blocks_lost >= prev.blocks_lost && step.blocks_lost <= dead);
            prev = step;
        }
        assert_eq!(prev.blocks_consumed, prog.total_blocks());
        // Lost blocks are exactly what keeps the final bound off zero, and
        // a degraded answer is the same degraded answer every time.
        assert_eq!(prev.blocks_lost > 0, prev.bound > 0.0, "range [{a}, {b}]");
        assert_eq!(range_sum_on(&fsnap, a, b, &pool).to_bits(), prev.estimate.to_bits());
        lost_somewhere |= prev.blocks_lost > 0;
    }
    assert!(lost_somewhere, "no query touched a dead block");
}
