//! The deterministic fault-matrix harness.
//!
//! Drives the fault-tolerant storage path through a grid of
//! {fault kind × error rate × retry budget} and asserts the two contracts
//! of the design:
//!
//! 1. **Exact recovery below the retry budget** — when every block the
//!    query touches has a planned transient-failure streak within the
//!    budget, the answer is bit-identical to the fault-free path.
//! 2. **Bounded-error degradation above it** — when a block stays
//!    unreadable, the query still answers, and the guaranteed error
//!    bound dominates the true error.
//!
//! Every fault decision derives from a single u64 seed (pinned here via
//! `AIMS_FAULT_SEED`, default 41378; ci.sh also runs seeds 13 and 1013),
//! so the whole matrix is reproducible bit-for-bit.

use aims::drill::faults::{run, stores, Config, Row};
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::{BlockDevice, RetryPolicy};
use aims::storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims::storage::store::CoefficientStore;
use aims::{range_entries, range_sum};

const N: usize = 256;

fn seed() -> u64 {
    aims::drill::env_seed("AIMS_FAULT_SEED", 41378)
}

/// One matrix cell's drill: the test signal in 8-coefficient blocks under
/// `plan`, with `queries` answered in order on freshly loaded stores.
fn config(plan: FaultPlan, retry: RetryPolicy, queries: Vec<(usize, usize)>) -> Config {
    let signal = (0..N).map(|i| ((i * 11 + 3) % 17) as f64 - 8.0 + (i as f64 * 0.01)).collect();
    Config { plan, retry, signal, block: 8, queries }
}

/// The query workload: a mix of short, long and single-point ranges.
fn ranges() -> Vec<(usize, usize)> {
    vec![(0, 255), (3, 77), (100, 199), (42, 42), (128, 255), (17, 230)]
}

/// The blocks the range sum over `[a, b]` plans to read.
fn planned_blocks(store: &CoefficientStore<FaultyDevice>, a: usize, b: usize) -> Vec<usize> {
    let (indices, weights) = range_entries(store, a, b);
    store.plan(&indices, &weights).blocks
}

/// Runs the library drill, which checks both contracts on every query —
/// recovered ⇒ bit-identical to the fault-free store, degraded ⇒ within
/// its guaranteed bound — and returns the per-query rows.
fn checked_rows(cfg: &Config, label: &str) -> Vec<Row> {
    let report = run(cfg);
    assert!(report.violations().is_empty(), "{label}: {:?}", report.violations());
    report.rows
}

#[test]
fn zero_rate_is_bit_identical_for_every_fault_kind() {
    for kind in FaultKind::ALL {
        let cfg = config(FaultPlan::uniform(seed(), kind, 0.0), RetryPolicy::none(), ranges());
        for row in checked_rows(&cfg, &format!("{kind:?} zero-rate")) {
            assert!(!row.got.degraded(), "{kind:?} zero-rate {:?} degraded", row.range);
        }
        let (plain, faulty) = stores(&cfg);
        for t in [0usize, 31, 130, 255] {
            let p1 = SharedBlockCache::new(64);
            let p2 = SharedBlockCache::new(64);
            let expect = range_sum(&plain, t, t, &p1, &RetryPolicy::none()).estimate;
            let got = range_sum(&faulty, t, t, &p2, &RetryPolicy::none());
            assert_eq!(expect.to_bits(), got.estimate.to_bits(), "{kind:?} zero-rate t={t}");
        }
    }
}

/// The matrix proper: transient fault kinds × rates × retry budgets.
///
/// A fresh store per (cell, query) keeps the per-block attempt counters at
/// zero, so `planned_read_failures` predicts exactly whether the retry
/// budget suffices — recovery and degradation are asserted, not sampled.
#[test]
fn transient_fault_matrix_recovers_or_degrades_predictably() {
    for kind in [FaultKind::ReadError, FaultKind::BitFlip] {
        for rate in [0.2, 0.5, 0.85] {
            for budget in [0usize, 2, 6] {
                for (a, b) in ranges() {
                    let label = format!("{kind:?} rate={rate} budget={budget} [{a},{b}]");
                    let retry = RetryPolicy::with_retries(budget);
                    let cfg = config(FaultPlan::uniform(seed(), kind, rate), retry, vec![(a, b)]);
                    let (_, faulty) = stores(&cfg);
                    let worst = planned_blocks(&faulty, a, b)
                        .iter()
                        .map(|&blk| faulty.device().planned_read_failures(blk))
                        .max()
                        .unwrap();
                    let row = &checked_rows(&cfg, &label)[0];
                    assert_eq!(row.got.degraded(), worst > budget, "{label}: worst streak {worst}");
                }
            }
        }
    }
}

/// Permanent faults: a query degrades exactly when it touches a block the
/// schedule killed (or tore at load time), whatever the retry budget.
fn assert_degrades_iff_touching(kind: FaultKind, rate: f64, bad: fn(&FaultyDevice) -> Vec<usize>) {
    let plan = FaultPlan::uniform(seed(), kind, rate);
    // One fresh drill per query: the pool is cold, every block is read.
    for (a, b) in ranges() {
        let cfg = config(plan.clone(), RetryPolicy::with_retries(100), vec![(a, b)]);
        let (_, faulty) = stores(&cfg);
        let bad = bad(faulty.device());
        assert!(!bad.is_empty(), "seed {}: no {kind:?} blocks at rate {rate}", seed());
        let touches = planned_blocks(&faulty, a, b).iter().any(|b| bad.contains(b));
        let row = &checked_rows(&cfg, &format!("{kind:?} [{a},{b}]"))[0];
        assert_eq!(row.got.degraded(), touches, "{kind:?} [{a},{b}] vs bad blocks {bad:?}");
    }
}

#[test]
fn dead_blocks_degrade_regardless_of_retry_budget() {
    assert_degrades_iff_touching(FaultKind::DeadBlock, 0.25, |device| {
        (0..device.num_blocks()).filter(|&blk| device.is_dead(blk)).collect()
    });
}

#[test]
fn torn_writes_corrupt_permanently_until_rewrite() {
    assert_degrades_iff_touching(FaultKind::TornWrite, 0.35, FaultyDevice::torn_blocks);
}
