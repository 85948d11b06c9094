//! Fault-tolerant storage demo: checksummed blocks, retry-with-backoff
//! reads, and graceful degradation when blocks are lost for good.
//!
//! The store is loaded onto a `FaultyDevice` — a wrapper that injects a
//! deterministic, seeded fault schedule (transient read errors, bit
//! flips caught by the per-block four-lane digest, dead blocks). The same
//! seed always produces the same schedule, so every run of this example
//! prints the same numbers.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use aims::sensors::glove::CyberGloveRig;
use aims::sensors::noise::NoiseSource;
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::{BlockDevice, RetryPolicy};
use aims::storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims::storage::store::{AllocKind, WaveletStore};
use aims::telemetry::global;

fn main() {
    // A real glove-channel signal, padded to a power of two.
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(8);
    let session = rig.record_session(41.0, 0.6, &mut noise);
    let mut signal = session.channel(4);
    signal.resize(2048, *signal.last().unwrap());
    let block = 16;

    // A clean in-memory store is the ground truth.
    let truth = WaveletStore::from_signal(&signal, block, AllocKind::TreeTiling);

    // 1. Transient faults: a 40% read-error rate is an annoyance, not a
    //    failure — the default retry budget rides through it and every
    //    answer stays bit-identical to the clean store.
    let seed = 2718;
    let store = WaveletStore::from_signal_on(&signal, block, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(seed, FaultKind::ReadError, 0.4))
    });
    // At a 40% error rate a block occasionally needs more than the
    // default 3 attempts; a budget of 16 rides out every streak in this
    // seeded schedule.
    let policy = RetryPolicy::with_retries(16);
    let mut exact = 0;
    for k in 0..32 {
        let (a, b) = (k * 37 % 1024, 1024 + k * 29 % 1024);
        let p1 = SharedBlockCache::new(4);
        let p2 = SharedBlockCache::new(4);
        let got = store.range_sum_outcome(a, b, &p1, &policy);
        let want = truth.range_sum(a, b, &p2);
        assert_eq!(got.estimate.to_bits(), want.to_bits(), "transient faults changed an answer");
        assert!(!got.degraded());
        exact += 1;
    }
    let snap = global().snapshot();
    println!(
        "transient (40% read errors): {exact}/32 range sums bit-identical, {} retries spent",
        snap.counter("storage.retries")
    );

    // 2. Corruption: every injected bit flip is caught by the checksum —
    //    a corrupt payload is never silently returned.
    let store = WaveletStore::from_signal_on(&signal, block, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(seed, FaultKind::BitFlip, 0.3))
    });
    let p = SharedBlockCache::new(4);
    for t in (0..2048).step_by(128) {
        let got = store.point_value_outcome(t, &p, &policy);
        let want = truth.point_value(t, &SharedBlockCache::new(4));
        assert_eq!(got.estimate.to_bits(), want.to_bits());
    }
    let snap = global().snapshot();
    println!(
        "corruption (30% bit flips): 16/16 point queries exact, {} corrupt reads caught",
        snap.counter("storage.corrupt")
    );

    // 3. Dead blocks: no retry budget recovers these. Queries degrade to
    //    partial answers with a guaranteed Cauchy–Schwarz error bound
    //    instead of failing.
    let store = WaveletStore::from_signal_on(&signal, block, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(seed, FaultKind::DeadBlock, 0.2))
    });
    let dead: Vec<usize> =
        (0..store.device().num_blocks()).filter(|&b| store.device().is_dead(b)).collect();
    println!("\ndead blocks ({}/{}): {dead:?}", dead.len(), store.device().num_blocks());
    println!("{:>18} {:>14} {:>12} {:>10} {:>6}", "range", "estimate", "true", "bound", "lost");
    for k in 0..6 {
        let (a, b) = (k * 300, 1024 + k * 150);
        let p1 = SharedBlockCache::new(4);
        let p2 = SharedBlockCache::new(4);
        let got = store.range_sum_outcome(a, b, &p1, &policy);
        let want = truth.range_sum(a, b, &p2);
        assert!((got.estimate - want).abs() <= got.error_bound + 1e-9, "bound violated");
        println!(
            "{:>18} {:>14.4} {:>12.4} {:>10.3} {:>6}",
            format!("[{a}, {b}]"),
            got.estimate,
            want,
            got.error_bound,
            got.lost_blocks.len()
        );
    }
    let snap = global().snapshot();
    println!(
        "\ntelemetry: retries={} corrupt={} degraded={}",
        snap.counter("storage.retries"),
        snap.counter("storage.corrupt"),
        snap.counter("storage.degraded"),
    );
}
