//! The unified two-tier query planner.
//!
//! [`TieredPlanner`] is the serving-layer face of the tiered ingest
//! engine: a range-sum (or point) query fans out across the hot and
//! historical tiers of one [`TieredStore`] and comes back as a round-based
//! progressive session — the same delivery shape as [`crate::service`]'s
//! sessions over a pre-built store, with one merged monotone
//! Cauchy–Schwarz bound.
//!
//! Consistency across compaction: the planner snapshots the store at
//! admission, so a segment→blocked swap that lands mid-query changes
//! nothing the query sees — every sample is counted in exactly the tier
//! the snapshot froze it in. Historical blocks are not in memory: each
//! round fetches the blocks it consumes through the store's block cache,
//! most important first. While the query runs it holds the store's
//! in-flight guard, which the background compactor reads to throttle
//! itself (degradation over starvation, as in the QoS tier ladder).

use aims_exec::ThreadPool;
use aims_tier::{TierMedia, TierStep, TieredProgressive, TieredStore};

/// Planner tuning.
#[derive(Clone, Copy, Debug)]
pub struct TieredPlannerConfig {
    /// Historical blocks consumed per progressive round.
    pub blocks_per_round: usize,
    /// Worker threads for the fan-out (0 = `aims_exec::configured_threads()`).
    pub threads: usize,
}

impl Default for TieredPlannerConfig {
    fn default() -> Self {
        TieredPlannerConfig { blocks_per_round: 8, threads: 0 }
    }
}

/// A finished tiered query: the exact answer plus the progressive
/// trajectory that led there.
#[derive(Clone, Debug)]
pub struct TieredAnswer {
    /// The converged range sum — exact unless the last step reports lost
    /// blocks, in which case its bound says by how much it may be off.
    pub value: f64,
    /// Rounds the progressive evaluation took.
    pub rounds: usize,
    /// Every delivered refinement, in order; bounds are monotone
    /// non-increasing and end at zero on a fault-free store.
    pub steps: Vec<TierStep>,
    /// Raw hot-tier samples summed exactly.
    pub hot_rows: usize,
    /// Historical blocks consumed.
    pub hist_blocks: usize,
}

/// Plans and evaluates queries over one tiered store.
pub struct TieredPlanner<D: TierMedia> {
    store: TieredStore<D>,
    cfg: TieredPlannerConfig,
    pool: ThreadPool,
}

impl<D: TierMedia> TieredPlanner<D> {
    /// Wraps a store handle. Clones of the store elsewhere (ingest,
    /// compactor) keep feeding it while the planner serves queries.
    pub fn new(store: TieredStore<D>, cfg: TieredPlannerConfig) -> Self {
        let threads = if cfg.threads == 0 { aims_exec::configured_threads() } else { cfg.threads };
        TieredPlanner { store, cfg, pool: ThreadPool::new(threads) }
    }

    /// The underlying store handle.
    pub fn store(&self) -> &TieredStore<D> {
        &self.store
    }

    /// Evaluates `Σ f(t), t ∈ [a, b]` progressively: the hot tier answers
    /// exactly in round one, then each round fetches and consumes the next
    /// `blocks_per_round` most-important historical blocks until none is
    /// left — at which point the bound is zero unless the device lost a
    /// block (see [`TierStep::blocks_lost`]). Returns the full trajectory.
    pub fn range_sum(&self, a: usize, b: usize) -> TieredAnswer {
        let _guard = self.store.begin_query();
        let snap = self.store.snapshot();
        let mut prog = TieredProgressive::new(&snap, a, b, &self.pool);
        let hist_blocks = prog.total_blocks();
        let mut steps = vec![prog.current()];
        while !prog.done() {
            steps.push(prog.step(self.cfg.blocks_per_round.max(1)));
        }
        let last = prog.drain();
        TieredAnswer {
            value: last.estimate,
            rounds: steps.len(),
            steps,
            hot_rows: prog.hot_rows,
            hist_blocks,
        }
    }

    /// A point query: the range sum of the single slot `t`.
    pub fn point(&self, t: usize) -> TieredAnswer {
        self.range_sum(t, t)
    }
}
