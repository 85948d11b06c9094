//! Media faults under the tiered read path.
//!
//! Historical blocks are read through the same substrate as the rest of
//! the system — `SharedBlockCache::get_or_read_outcome` over a
//! checksummed [`BlockDevice`] — so a seeded [`FaultyDevice`] under the
//! historical tier must behave the way it does under a `CoefficientStore`:
//!
//! - transient read errors within the retry budget are invisible: every
//!   answer is bit-identical to a clean store's;
//! - a dead block is never an answer-shaped lie: the evaluation reports
//!   it lost, keeps its Cauchy–Schwarz gain in the bound, and the truth
//!   stays inside that bound; nothing panics;
//! - a segment a query covers whole is answered by the full-cover partial
//!   its install pinned in the historical manifest — the segment as
//!   installed — so a dead or corrupt block under it costs that query
//!   nothing; only a query whose edge falls inside the segment reads (and
//!   loses) the block.

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use std::os::unix::fs::FileExt;

use aims_storage::{DurabilityMode, FaultKind, FaultPlan, FaultyDevice, FileDeviceOptions};
use aims_storage::{MemDevice, RetryPolicy};
use aims_telemetry::global;
use aims_tier::{compact, range_sum_on, TierConfig, TierSnapshot, TieredProgressive, TieredStore};

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

/// Segment `s` of `fsnap` has an unreadable block 0. Covering the segment
/// whole reads nothing and answers exactly what the clean store answers;
/// an edge inside it needs that block, reports it lost, and keeps the
/// truth inside the bound.
fn assert_covered_exact_and_edge_bounded(csnap: &TierSnapshot, fsnap: &TierSnapshot, s: usize) {
    let pool = ThreadPool::new(2);
    let (a, b) = (s * SEG, (s + 1) * SEG - 1);
    let mut prog = TieredProgressive::new(fsnap, a, b, &pool);
    assert_eq!(prog.total_blocks(), 0, "segment {s}: a covered segment plans no block");
    let last = prog.drain();
    assert_eq!((last.blocks_lost, last.bound.to_bits()), (0, 0.0f64.to_bits()), "segment {s}");
    let want = range_sum_on(csnap, a, b, &pool);
    assert_eq!(last.estimate.to_bits(), want.to_bits(), "segment {s}: covered");
    // A wider range that covers the segment and ends in its neighbours'
    // middles reads only the neighbours' blocks.
    let (a, b) = (a.saturating_sub(SEG / 2 - 3), b + SEG / 2);
    let want = range_sum_on(csnap, a, b, &pool);
    let last = TieredProgressive::new(fsnap, a, b, &pool).drain();
    assert_eq!(last.blocks_lost, 0, "segment {s}: [{a}, {b}]");
    assert_eq!(last.estimate.to_bits(), want.to_bits(), "segment {s}: [{a}, {b}]");

    let (a, b) = (s * SEG + 5, (s + 1) * SEG - 1);
    let truth = range_sum_on(csnap, a, b, &pool);
    let last = TieredProgressive::new(fsnap, a, b, &pool).drain();
    assert!(last.blocks_lost >= 1, "segment {s}: an edge inside it must read block 0");
    let scale = 1.0f64.max(truth.abs());
    assert!(
        (last.estimate - truth).abs() <= last.bound + 1e-9 * scale,
        "segment {s}: truth {truth} outside {} ± {}",
        last.estimate,
        last.bound
    );
}

#[test]
fn a_dead_first_block_under_a_covered_segment_costs_nothing() {
    let plan = FaultPlan::uniform(0xDEC1, FaultKind::DeadBlock, 0.05);
    let dead = twin(&plan);
    // Interior segments whose first block is dead and whose neighbours'
    // blocks all read (the wider range reads their edges).
    let slot = |s: usize| cfg().hist_block(s)..cfg().hist_block(s + 1);
    let cases: Vec<usize> = (1..TOTAL / SEG - 1)
        .filter(|&s| dead.is_dead(cfg().hist_block(s)))
        .filter(|&s| !slot(s - 1).chain(slot(s + 1)).any(|blk| dead.is_dead(blk)))
        .collect();
    assert!(!cases.is_empty(), "seed must kill an interior segment's first block");
    let (clean, faulty) = (compacted(FaultPlan::none(0)), compacted(plan));
    let (csnap, fsnap) = (clean.snapshot(), faulty.snapshot());
    for s in cases {
        assert_covered_exact_and_edge_bounded(&csnap, &fsnap, s);
    }
}

#[test]
fn a_corrupt_first_block_under_a_covered_segment_costs_nothing() {
    let dir = std::env::temp_dir().join(format!("aims-tier-faults-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = FileDeviceOptions { mode: DurabilityMode::Always, ..Default::default() };
    {
        let store = TieredStore::create_durable(&dir, cfg(), opts.clone()).unwrap();
        store.push_slice(&signal());
        store.seal_open();
        compact::drain(&store, &ThreadPool::new(1));
        store.checkpoint();
    }
    // Flip one payload byte of segment 3's block 0. The main file ends
    // with the payload region: one `BLOCK × 8`-byte image per block.
    let main = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("hist").join("blocks.aims"))
        .unwrap();
    let payloads = main.metadata().unwrap().len() - (cfg().hist_device_blocks() * BLOCK * 8) as u64;
    let at = payloads + (cfg().hist_block(3) * BLOCK * 8) as u64 + 5;
    let mut byte = [0u8];
    main.read_exact_at(&mut byte, at).unwrap();
    main.write_all_at(&[byte[0] ^ 0x20], at).unwrap();
    drop(main);

    let store = TieredStore::open_durable(&dir, cfg(), opts).unwrap();
    let clean = compacted(FaultPlan::none(0));
    assert!(store.snapshot().hist_block(3, 0).unwrap().is_err(), "the flip must be caught");
    assert_covered_exact_and_edge_bounded(&clean.snapshot(), &store.snapshot(), 3);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
