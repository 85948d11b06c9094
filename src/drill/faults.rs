//! The storage-fault drill: a signal's Haar coefficients in a
//! [`CoefficientStore`] on a seeded [`FaultyDevice`], range sums
//! ([`crate::range_sum`]) queried under a bounded retry budget, against
//! the same store on plain memory.
//!
//! The two contracts of the fault-tolerant read path are checked on every
//! query: a query whose blocks all came back within the budget
//! (*recovered*) answers bit-identically to the fault-free store, and one
//! that lost blocks (*degraded*) still answers, within its guaranteed
//! error bound.

use aims_dsp::dwt::dwt_full;
use aims_dsp::filters::WaveletFilter;
use aims_storage::cache::SharedBlockCache;
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims_storage::store::{AllocKind, CoefficientStore, DegradedAnswer};

use crate::range_sum;

/// One fault drill: the fault schedule, the retry budget and the workload.
#[derive(Clone, Debug)]
pub struct Config {
    /// The device's fault schedule (carries the seed).
    pub plan: FaultPlan,
    /// Retry budget of the read path.
    pub retry: RetryPolicy,
    /// The stored signal (power-of-two length).
    pub signal: Vec<f64>,
    /// Coefficients per block.
    pub block: usize,
    /// Inclusive range-sum queries, run in order through one buffer pool
    /// that holds every block (so each block is fetched once per drill).
    pub queries: Vec<(usize, usize)>,
}

impl Config {
    /// The `aims-cli faults` workload: 32 long range sums over a
    /// 1024-sample sawtooth in 16-coefficient blocks, one fault `kind` at
    /// `rate`, `budget` retries with backoff.
    pub fn cli(seed: u64, kind: FaultKind, rate: f64, budget: usize) -> Config {
        Config {
            plan: FaultPlan::uniform(seed, kind, rate),
            retry: RetryPolicy::with_retries(budget),
            signal: (0..1024).map(|i| ((i * 7 + 3) % 23) as f64 - 11.0).collect(),
            block: 16,
            queries: (0..32).map(|k| ((k * 97) % 512, 512 + (k * 31) % 512)).collect(),
        }
    }
}

/// One query's answer from the faulty store beside the truth.
#[derive(Clone, Debug)]
pub struct Row {
    /// The inclusive range summed.
    pub range: (usize, usize),
    /// The fault-free store's answer.
    pub truth: f64,
    /// The faulty store's answer, bound and lost blocks.
    pub got: DegradedAnswer,
}

impl Row {
    /// `|answer − truth|`.
    pub fn abs_error(&self) -> f64 {
        (self.got.estimate - self.truth).abs()
    }

    /// The contract this query broke, if any.
    fn violation(&self) -> Option<String> {
        let (a, b) = self.range;
        if self.got.degraded() {
            (self.abs_error() > self.got.error_bound + 1e-9).then(|| {
                format!(
                    "[{a},{b}]: degraded error {} exceeds its bound {}",
                    self.abs_error(),
                    self.got.error_bound
                )
            })
        } else {
            (self.got.estimate.to_bits() != self.truth.to_bits() || self.got.error_bound != 0.0)
                .then(|| format!("[{a},{b}]: recovered answer is not bit-identical"))
        }
    }
}

/// What one fault drill produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-query outcomes, in workload order.
    pub rows: Vec<Row>,
    /// Blocks the schedule made permanently unreadable.
    pub dead_blocks: usize,
    /// Blocks torn at load time.
    pub torn_blocks: usize,
}

impl Report {
    /// The queries that lost at least one block.
    pub fn degraded(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.got.degraded())
    }

    /// The largest guaranteed bound any degraded query reported.
    pub fn worst_bound(&self) -> f64 {
        self.degraded().map(|r| r.got.error_bound).fold(0.0, f64::max)
    }

    /// The largest `|error| / max(|truth|, 1)` over the degraded queries.
    pub fn worst_rel_error(&self) -> f64 {
        self.degraded().map(|r| r.abs_error() / r.truth.abs().max(1.0)).fold(0.0, f64::max)
    }

    /// Contracts that did not hold (empty = the drill passed).
    pub fn violations(&self) -> Vec<String> {
        self.rows.iter().filter_map(Row::violation).collect()
    }
}

/// The fault-free and the faulty store of a drill, freshly loaded (every
/// per-block attempt counter at zero, so the device's planned failure
/// streaks predict the outcome exactly).
pub fn stores(cfg: &Config) -> (CoefficientStore, CoefficientStore<FaultyDevice>) {
    let coeffs = dwt_full(&cfg.signal, &WaveletFilter::haar());
    let plain = CoefficientStore::load(&coeffs, cfg.block, AllocKind::TreeTiling, MemDevice::new);
    let plan = cfg.plan.clone();
    let faulty = CoefficientStore::load(&coeffs, cfg.block, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, plan)
    });
    (plain, faulty)
}

/// Runs the drill: loads both stores and answers every query on both.
pub fn run(cfg: &Config) -> Report {
    let (plain, faulty) = stores(cfg);
    let device = faulty.device();
    let blocks = device.num_blocks();
    let (pool, plain_pool) = (SharedBlockCache::new(blocks), SharedBlockCache::new(blocks));
    let rows = cfg
        .queries
        .iter()
        .map(|&(a, b)| Row {
            range: (a, b),
            truth: range_sum(&plain, a, b, &plain_pool, &RetryPolicy::none()).estimate,
            got: range_sum(&faulty, a, b, &pool, &cfg.retry),
        })
        .collect();
    Report {
        rows,
        dead_blocks: (0..blocks).filter(|&b| device.is_dead(b)).count(),
        torn_blocks: device.torn_blocks().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(r: &Report) -> Vec<(u64, u64, usize)> {
        r.rows
            .iter()
            .map(|r| {
                (r.got.estimate.to_bits(), r.got.error_bound.to_bits(), r.got.lost_blocks.len())
            })
            .collect()
    }

    #[test]
    fn same_seed_same_report_and_a_different_seed_differs() {
        for kind in [FaultKind::ReadError, FaultKind::BitFlip, FaultKind::DeadBlock] {
            let (a, b) = (run(&Config::cli(13, kind, 0.5, 2)), run(&Config::cli(13, kind, 0.5, 2)));
            assert!(a.violations().is_empty(), "{:?}", a.violations());
            assert_eq!(digest(&a), digest(&b), "{kind:?}");
            assert_eq!((a.dead_blocks, a.torn_blocks), (b.dead_blocks, b.torn_blocks));
            assert_eq!(a.worst_rel_error(), b.worst_rel_error());
            assert_ne!(digest(&a), digest(&run(&Config::cli(14, kind, 0.5, 2))), "{kind:?}");
        }
    }

    #[test]
    fn an_unmet_bound_is_reported() {
        let got = DegradedAnswer {
            estimate: 5.0,
            error_bound: 1.0,
            lost_blocks: vec![3],
            missing_coefficients: 1,
        };
        let row = Row { range: (0, 7), truth: 2.0, got };
        assert!(row.violation().unwrap().contains("exceeds its bound"));
        let got = DegradedAnswer {
            estimate: 2.5,
            error_bound: 0.0,
            lost_blocks: vec![],
            missing_coefficients: 0,
        };
        assert!(Row { range: (0, 7), truth: 2.0, got }.violation().is_some());
    }
}
