//! Importance-ordered progressive block retrieval.
//!
//! §3.2.1: "we can define a query dependent importance function on disk
//! blocks (e.g., minimizing worst-case or average error), which would allow
//! us to perform the most valuable I/O's first and deliver approximate
//! results progressively during query evaluation."
//!
//! [`BlockPlan`] and [`BoundLedger`] are that idea as every path uses it,
//! on fallible media: a plan prices each needed block from the query's
//! weights and the load-time energy catalog (no device I/O), and a ledger
//! carries the guaranteed bound while blocks arrive — or stay unreadable,
//! in which case the answer is computed from what was retrieved and the
//! lost blocks' share stays in the bound instead of the query failing. The
//! cube store, the query service and the tiered store all bound their
//! answers through these two types; each keeps only its own estimate fold.
//! [`crate::CoefficientStore::progressive`] consumes a plan gain-first and
//! reports one [`ProgressPoint`] per block.

use std::sync::Arc;

/// One step of a gain-ordered evaluation
/// ([`crate::CoefficientStore::progressive`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressPoint {
    /// Plan blocks consumed so far, delivered or lost.
    pub blocks_consumed: usize,
    /// Running estimate: the delivered blocks' partial sums.
    pub estimate: f64,
    /// The ledger's guaranteed bound on `|estimate − exact|`.
    pub bound: f64,
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
