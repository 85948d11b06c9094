//! Importance-ordered progressive block retrieval.
//!
//! §3.2.1: "we can define a query dependent importance function on disk
//! blocks (e.g., minimizing worst-case or average error), which would allow
//! us to perform the most valuable I/O's first and deliver approximate
//! results progressively during query evaluation."
//!
//! A linear query `Σᵢ wᵢ·cᵢ` over stored coefficients decomposes into
//! per-block partial sums; retrieving blocks in descending order of their
//! absolute contribution makes the running estimate converge fastest.
//!
//! [`BlockPlan`] and [`BoundLedger`] are that idea as the served paths
//! use it, on fallible media: a plan prices each needed block from the
//! query's weights and the load-time energy catalog (no device I/O), and a
//! ledger carries the guaranteed bound while blocks arrive — or stay
//! unreadable, in which case the answer is computed from what was
//! retrieved and the lost blocks' share stays in the bound instead of the
//! query failing. The cube store, the query service and the tiered store
//! all bound their answers through these two types; each keeps only its
//! own estimate fold.

use std::sync::Arc;

use crate::alloc::Allocation;

/// Block retrieval orders to compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetrievalOrder {
    /// Most-valuable-first: descending per-block |contribution|.
    Importance,
    /// Ascending block id (a plain scan).
    Sequential,
    /// Seeded pseudo-random order.
    Random(u64),
}

/// One point on a progressive evaluation curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressPoint {
    /// Blocks read so far.
    pub blocks_read: usize,
    /// Running estimate of the query result.
    pub estimate: f64,
    /// Absolute error against the exact result.
    pub abs_error: f64,
}

/// Plans the block order for a weighted-coefficient query.
///
/// `query` lists `(coefficient index, weight)` pairs; `coeffs` is the full
/// stored coefficient vector. Only blocks containing at least one queried
/// coefficient appear in the plan.
pub fn plan_blocks<A: Allocation>(
    query: &[(usize, f64)],
    coeffs: &[f64],
    alloc: &A,
    order: RetrievalOrder,
) -> Vec<usize> {
    let mut contribution: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for &(i, w) in query {
        assert!(i < coeffs.len(), "query coefficient {i} out of range");
        *contribution.entry(alloc.block_of(i)).or_insert(0.0) += (w * coeffs[i]).abs();
    }
    let mut blocks: Vec<(usize, f64)> = contribution.into_iter().collect();
    match order {
        RetrievalOrder::Importance => {
            blocks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        }
        RetrievalOrder::Sequential => blocks.sort_by_key(|&(b, _)| b),
        RetrievalOrder::Random(seed) => {
            blocks.sort_by_key(|&(b, _)| b);
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            for i in (1..blocks.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let j = (state % (i as u64 + 1)) as usize;
                blocks.swap(i, j);
            }
        }
    }
    blocks.into_iter().map(|(b, _)| b).collect()
}

/// Runs the query progressively in the given block order and returns the
/// error curve (one point after each block).
pub fn progressive_curve<A: Allocation>(
    query: &[(usize, f64)],
    coeffs: &[f64],
    alloc: &A,
    order: RetrievalOrder,
) -> Vec<ProgressPoint> {
    let exact: f64 = query.iter().map(|&(i, w)| w * coeffs[i]).sum();
    let plan = plan_blocks(query, coeffs, alloc, order);

    // Group query terms per block.
    let mut per_block: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for &(i, w) in query {
        *per_block.entry(alloc.block_of(i)).or_insert(0.0) += w * coeffs[i];
    }

    let mut estimate = 0.0;
    let mut curve = Vec::with_capacity(plan.len());
    for (k, b) in plan.iter().enumerate() {
        estimate += per_block[b];
        curve.push(ProgressPoint {
            blocks_read: k + 1,
            estimate,
            abs_error: (estimate - exact).abs(),
        });
    }
    curve
}

/// Area under the |error| curve — a scalar summary for comparing orders
/// (lower = error fell faster).
pub fn error_auc(curve: &[ProgressPoint]) -> f64 {
    curve.iter().map(|p| p.abs_error).sum()
}

/// The blocks one linear query needs, each priced by how much of the
/// error bound reading it removes.
///
/// Entries are in the caller's canonical *fold order* — the order its
/// estimate accumulates block contributions in (ascending block for the
/// cube store, segment-then-block for the tiered store). A block holding
/// query weights `w` over stored coefficients `c` can move the answer by
/// at most `sqrt(Σw² · Σc²)` (Cauchy–Schwarz); that is its gain, and the
/// sum of the gains not yet delivered bounds the error of the running
/// estimate (triangle inequality).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockPlan {
    /// Device block ids, in fold order.
    pub blocks: Vec<usize>,
    /// `gains[k]` = `sqrt(Σw² in blocks[k] · Σc² of blocks[k])`.
    pub gains: Vec<f64>,
}

impl BlockPlan {
    /// Appends blocks from `(block, Σw²)` pairs, pricing each against its
    /// catalog energy `energy(block)` = `Σc²`.
    pub fn extend(
        &mut self,
        pairs: impl IntoIterator<Item = (usize, f64)>,
        energy: impl Fn(usize) -> f64,
    ) {
        for (block, wsq) in pairs {
            self.blocks.push(block);
            self.gains.push((wsq * energy(block)).sqrt());
        }
    }

    /// Plan positions most-important-first: gain-descending, ties in fold
    /// order (stable), so the sequence is deterministic.
    pub fn by_gain(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by(|&x, &y| {
            self.gains[y].partial_cmp(&self.gains[x]).unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// The bound before any block is read: the gains summed last-to-first
    /// (the value a fold-order [`BoundLedger`] starts at, bit for bit).
    pub fn initial_bound(&self) -> f64 {
        self.gains.iter().rev().fold(0.0, |acc, g| acc + g)
    }
}

/// The progressive error bound of one evaluation of a [`BlockPlan`].
///
/// The ledger fixes a *consumption order* over the plan and tracks how far
/// the evaluation got: `bound = Σ gains not yet consumed + Σ gains lost`.
/// The first term is a precomputed suffix sum, so delivering a block can
/// only lower the bound and nothing drifts; a block the device cannot
/// deliver moves its gain from the suffix into the lost term, leaving the
/// bound where it was (to within the rounding of that one addition).
/// Drained, the bound is exactly the lost term — `0.0` when nothing was
/// lost. Cloning shares the tables.
#[derive(Clone, Debug)]
pub struct BoundLedger {
    plan: Arc<BlockPlan>,
    /// `(plan position, Σ gains from here on)` per consumption step.
    steps: Arc<[(usize, f64)]>,
    consumed: usize,
    lost: f64,
    lost_blocks: Vec<usize>,
}

impl BoundLedger {
    /// Consumes the plan in its own fold order.
    pub fn in_fold_order(plan: Arc<BlockPlan>) -> Self {
        let order = 0..plan.blocks.len();
        BoundLedger::new(plan, order)
    }

    /// Consumes the plan most-important-first ([`BlockPlan::by_gain`]).
    pub fn by_gain(plan: Arc<BlockPlan>) -> Self {
        let order = plan.by_gain();
        BoundLedger::new(plan, order)
    }

    fn new(plan: Arc<BlockPlan>, order: impl IntoIterator<Item = usize>) -> Self {
        let mut steps: Vec<(usize, f64)> = order.into_iter().map(|k| (k, 0.0)).collect();
        let mut suffix = 0.0;
        for step in steps.iter_mut().rev() {
            suffix += plan.gains[step.0];
            step.1 = suffix;
        }
        BoundLedger { plan, steps: steps.into(), consumed: 0, lost: 0.0, lost_blocks: Vec::new() }
    }

    /// The plan being consumed.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Plan position of the next block to consume; `None` once drained.
    pub fn peek(&self) -> Option<usize> {
        self.steps.get(self.consumed).map(|&(k, _)| k)
    }

    /// The next block arrived and was folded into the estimate.
    pub fn deliver(&mut self) {
        assert!(self.consumed < self.steps.len(), "ledger already drained");
        self.consumed += 1;
    }

    /// The next block stayed unreadable: its gain stays in the bound.
    pub fn lose(&mut self) {
        let k = self.peek().expect("ledger already drained");
        self.lost += self.plan.gains[k];
        self.lost_blocks.push(self.plan.blocks[k]);
        self.consumed += 1;
    }

    /// Guaranteed bound on `|estimate − exact|` right now.
    pub fn bound(&self) -> f64 {
        self.steps.get(self.consumed).map_or(0.0, |&(_, suffix)| suffix) + self.lost
    }

    /// Blocks consumed so far, delivered or lost.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Whether every planned block has been consumed.
    pub fn done(&self) -> bool {
        self.consumed == self.steps.len()
    }

    /// Blocks that stayed unreadable, in the order they were lost.
    pub fn lost_blocks(&self) -> &[usize] {
        &self.lost_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::SequentialAlloc;

    fn setup() -> (Vec<(usize, f64)>, Vec<f64>, SequentialAlloc) {
        // 16 coefficients, blocks of 4. One block dominates the query.
        let coeffs: Vec<f64> = (0..16).map(|i| if i == 9 { 100.0 } else { 1.0 }).collect();
        let query: Vec<(usize, f64)> = (0..16).map(|i| (i, 1.0)).collect();
        (query, coeffs, SequentialAlloc::new(16, 4))
    }

    #[test]
    fn importance_order_reads_dominant_block_first() {
        let (query, coeffs, alloc) = setup();
        let plan = plan_blocks(&query, &coeffs, &alloc, RetrievalOrder::Importance);
        assert_eq!(plan[0], 2); // block containing coefficient 9
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn curve_ends_exact_for_all_orders() {
        let (query, coeffs, alloc) = setup();
        let exact: f64 = coeffs.iter().sum();
        for order in
            [RetrievalOrder::Importance, RetrievalOrder::Sequential, RetrievalOrder::Random(3)]
        {
            let curve = progressive_curve(&query, &coeffs, &alloc, order);
            let last = curve.last().unwrap();
            assert_eq!(last.blocks_read, 4);
            assert!((last.estimate - exact).abs() < 1e-12, "{order:?}");
            assert!(last.abs_error < 1e-12);
        }
    }

    #[test]
    fn importance_converges_fastest() {
        let (query, coeffs, alloc) = setup();
        let imp = progressive_curve(&query, &coeffs, &alloc, RetrievalOrder::Importance);
        let seq = progressive_curve(&query, &coeffs, &alloc, RetrievalOrder::Sequential);
        assert!(error_auc(&imp) < error_auc(&seq), "{} !< {}", error_auc(&imp), error_auc(&seq));
        // After one block, importance order has already captured the spike.
        assert!(imp[0].abs_error < seq[0].abs_error);
    }

    #[test]
    fn untouched_blocks_are_not_planned() {
        let coeffs = vec![1.0; 16];
        let query = vec![(0usize, 1.0), (1usize, 2.0)]; // only block 0
        let alloc = SequentialAlloc::new(16, 4);
        let plan = plan_blocks(&query, &coeffs, &alloc, RetrievalOrder::Sequential);
        assert_eq!(plan, vec![0]);
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let (query, coeffs, alloc) = setup();
        let a = plan_blocks(&query, &coeffs, &alloc, RetrievalOrder::Random(5));
        let b = plan_blocks(&query, &coeffs, &alloc, RetrievalOrder::Random(5));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_weight_query_has_zero_curve() {
        let coeffs = vec![2.0; 8];
        let query: Vec<(usize, f64)> = (0..8).map(|i| (i, 0.0)).collect();
        let alloc = SequentialAlloc::new(8, 4);
        let curve = progressive_curve(&query, &coeffs, &alloc, RetrievalOrder::Importance);
        for p in curve {
            assert_eq!(p.estimate, 0.0);
            assert_eq!(p.abs_error, 0.0);
        }
    }
}
