//! The tiered store's core correctness claims, property-tested.
//!
//! - A store that ingested incrementally (arbitrary chunk sizes,
//!   compaction interleaved at arbitrary points, transform pools of
//!   1/2/8 threads) answers **bit-identically** to a store built from
//!   the same signal in one pass and compacted serially. Compaction
//!   changes where data lives, never what a query returns.
//! - A hot-only (uncompacted) store answers bit-identically to naive
//!   raw summation — the recent tier is exact, not approximate.
//! - Progressive evaluation delivers monotone non-increasing bounds,
//!   every intermediate estimate lands within its bound of the exact
//!   answer, and the drained estimate *is* the exact answer.
//! - The store's running counters (`len`, `stats`) equal a recount of
//!   the segments a snapshot lists, at every point of a build.
//! - A snapshot taken before an install answers the same bits after it:
//!   the raw samples it holds keep that segment hot for that query.
//!
//! The compaction and progressive properties run under both filters a
//! `TierConfig` can name — the Haar butterfly and the Db4 lifting kernel
//! — and additionally hold every answer to the direct raw sum.

use proptest::prelude::*;

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_storage::MemDevice;
use aims_tier::{compact, range_sum, TierConfig, TieredProgressive, TieredStore};

const SEG: usize = 64;
const BLOCK: usize = 16;

const FILTERS: [FilterKind; 2] = [FilterKind::Haar, FilterKind::Db4];

fn cfg(filter: FilterKind) -> TierConfig {
    TierConfig { segment_len: SEG, block_size: BLOCK, max_segments: 32, filter }
}

/// The oracle: the whole signal in one pass, sealed, compacted serially.
fn oracle(signal: &[f64], filter: FilterKind) -> TieredStore<MemDevice> {
    let store = TieredStore::new_mem(cfg(filter));
    store.push_slice(signal);
    store.seal_open();
    compact::drain(&store, &ThreadPool::new(1));
    store
}

/// Whether a wavelet-domain answer is the direct raw sum up to rounding.
fn close_to_raw(answer: f64, raw: f64) -> bool {
    (answer - raw).abs() <= 1e-9 * (1.0 + raw.abs())
}

/// `len()` and `stats()` come from running counters; a snapshot lists the
/// segments themselves. They must agree.
fn assert_counters_match_recount(store: &TieredStore<MemDevice>) {
    let (stats, segs) = (store.stats(), store.snapshot().segments());
    let historical = segs.iter().filter(|s| s.historical).count();
    assert_eq!(stats.total_len, segs.iter().map(|s| s.len).sum::<usize>());
    assert_eq!(stats.total_len, store.len());
    assert_eq!(stats.historical, historical);
    assert_eq!(stats.sealed_raw + usize::from(stats.open_len > 0), segs.len() - historical);
}

fn signal_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..=(SEG * 6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental ingest + interleaved compaction on pools 1/2/8 ==
    /// single-pass build, bit for bit.
    #[test]
    fn compacted_store_bit_identical_to_single_pass_oracle(
        signal in signal_strategy(),
        chunks in prop::collection::vec(1usize..=96, 1..=24),
        compact_every in 1usize..=4,
    ) {
        for filter in FILTERS {
            let oracle = oracle(&signal, filter);
            let oracle_snap = oracle.snapshot();
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                let store = TieredStore::new_mem(cfg(filter));
                let mut fed = 0usize;
                for (i, chunk) in chunks.iter().cycle().enumerate() {
                    if fed >= signal.len() {
                        break;
                    }
                    let take = (*chunk).min(signal.len() - fed);
                    store.push_slice(&signal[fed..fed + take]);
                    fed += take;
                    if i % compact_every == 0 {
                        compact::run_once(&store, &pool, 2);
                    }
                    assert_counters_match_recount(&store);
                }
                store.seal_open();
                assert_counters_match_recount(&store);
                compact::drain(&store, &pool);
                assert_counters_match_recount(&store);
                let snap = store.snapshot();
                prop_assert_eq!(snap.len(), signal.len());
                // Every segment ended historical, and both stores agree on
                // every queried range to the last bit — which is the raw
                // sum up to rounding.
                prop_assert!(snap.segments().iter().all(|s| s.historical));
                for (a, b) in ranges(signal.len()) {
                    let got = range_sum(&snap, a, b);
                    let want = range_sum(&oracle_snap, a, b);
                    prop_assert_eq!(
                        got.to_bits(), want.to_bits(),
                        "{:?} range [{}, {}]: {} vs {}", filter, a, b, got, want
                    );
                    let raw = grouped_sum(&signal, a, b);
                    prop_assert!(
                        close_to_raw(got, raw),
                        "{:?} range [{}, {}]: {} vs raw sum {}", filter, a, b, got, raw
                    );
                }
            }
        }
    }

    /// The hot tier is exact: an uncompacted store matches raw summation
    /// bit for bit. (The reference groups by segment, matching the
    /// store's documented one-partial-per-segment fold order.)
    #[test]
    fn hot_tier_is_exact(signal in signal_strategy()) {
        let store = TieredStore::new_mem(cfg(FilterKind::Haar));
        store.push_slice(&signal);
        let snap = store.snapshot();
        for (a, b) in ranges(signal.len()) {
            let naive = grouped_sum(&signal, a, b);
            let got = range_sum(&snap, a, b);
            prop_assert_eq!(got.to_bits(), naive.to_bits());
        }
    }

    /// Progressive merge: bounds shrink monotonically, cover the true
    /// error at every step, and converge to the exact answer.
    #[test]
    fn progressive_bounds_monotone_and_sound(
        signal in signal_strategy(),
        compacted in 0usize..=6,
    ) {
        let serial = ThreadPool::new(1);
        for filter in FILTERS {
            let store = TieredStore::new_mem(cfg(filter));
            store.push_slice(&signal);
            store.seal_open();
            compact::run_once(&store, &serial, compacted);
            let snap = store.snapshot();
            for (a, b) in ranges(signal.len()) {
                let exact = range_sum(&snap, a, b);
                let raw = grouped_sum(&signal, a, b);
                prop_assert!(close_to_raw(exact, raw), "{:?}: {} vs raw sum {}", filter, exact, raw);
                let mut prog = TieredProgressive::new(&snap, a, b);
                let mut prev = f64::INFINITY;
                let mut step = prog.current();
                loop {
                    prop_assert!(step.bound <= prev, "bound grew: {} -> {}", prev, step.bound);
                    let scale = 1.0f64.max(exact.abs());
                    prop_assert!(
                        (step.estimate - exact).abs() <= step.bound + 1e-9 * scale,
                        "{:?}: estimate {} vs exact {} outside bound {}",
                        filter, step.estimate, exact, step.bound
                    );
                    prop_assert!(
                        (step.estimate - raw).abs() <= step.bound + 1e-9 * (1.0 + raw.abs()),
                        "{:?}: estimate {} vs raw sum {} outside bound {}",
                        filter, step.estimate, raw, step.bound
                    );
                    prev = step.bound;
                    if prog.done() {
                        break;
                    }
                    step = prog.step(3);
                }
                let last = prog.drain();
                prop_assert_eq!(last.estimate.to_bits(), exact.to_bits());
                prop_assert_eq!(last.bound.to_bits(), 0.0f64.to_bits());
            }
        }
    }
}

/// A snapshot outlives the installs that land after it: the segments it
/// saw raw stay raw for it, and its answers do not move by a bit.
#[test]
fn snapshot_taken_before_install_answers_identically_after() {
    let signal: Vec<f64> = (0..SEG * 5 + 9).map(|i| ((i * 37) % 101) as f64 / 3.0 - 15.0).collect();
    let store = TieredStore::new_mem(cfg(FilterKind::Haar));
    store.push_slice(&signal);
    let serial = ThreadPool::new(1);
    compact::run_once(&store, &serial, 2);
    let before = store.snapshot();
    let want: Vec<u64> =
        ranges(signal.len()).iter().map(|&(a, b)| range_sum(&before, a, b).to_bits()).collect();
    compact::drain(&store, &serial);
    assert!(store.snapshot().segments().iter().filter(|s| s.historical).count() > 2);
    assert_eq!(before.segments().iter().filter(|s| s.historical).count(), 2);
    for (&(a, b), want) in ranges(signal.len()).iter().zip(want) {
        assert_eq!(range_sum(&before, a, b).to_bits(), want, "range [{a}, {b}]");
    }
}

/// Raw-sum reference with the store's fold order: one partial per
/// segment window, partials folded in ascending segment order.
fn grouped_sum(signal: &[f64], a: usize, b: usize) -> f64 {
    let mut acc = 0.0;
    let mut start = 0usize;
    while start < signal.len() {
        let end = (start + SEG).min(signal.len());
        if a < end && b >= start {
            let la = a.max(start);
            let lb = b.min(end - 1);
            let mut partial = 0.0;
            for &v in &signal[la..=lb] {
                partial += v;
            }
            acc += partial;
        }
        start = end;
    }
    acc
}

/// A deterministic fan of query ranges covering segment interiors,
/// boundaries, and the full span.
fn ranges(n: usize) -> Vec<(usize, usize)> {
    let last = n - 1;
    let mut out = vec![(0, last), (0, 0), (last, last), (last / 2, last), (0, last / 2)];
    if n > SEG {
        out.push((SEG - 1, SEG.min(last)));
        out.push((SEG / 2, (2 * SEG).min(last)));
    }
    out
}
