//! Importance-ordered progressive block retrieval.
//!
//! §3.2.1: "we can define a query dependent importance function on disk
//! blocks (e.g., minimizing worst-case or average error), which would allow
//! us to perform the most valuable I/O's first and deliver approximate
//! results progressively during query evaluation."
//!
//! [`BlockPlan`], [`BoundLedger`] and [`Evaluation`] are that idea as every
//! path uses it, on fallible media: [`BlockPlan::group`] groups a query's
//! block-major entries by block and prices each block from the query's
//! weights and the load-time energy catalog (no device I/O), a ledger
//! carries the guaranteed bound while blocks arrive — in any order, or
//! never, in which case the answer is computed from what was retrieved and
//! the lost blocks' share stays in the bound instead of the query failing —
//! and an evaluation folds the delivered entries. It is the one fold of
//! stored coefficients: the cube store, the query service and the tiered
//! store's historical blocks all go through [`Evaluation`].
//! [`crate::CoefficientStore::progressive`] consumes a plan gain-first and
//! reports one [`ProgressPoint`] per block.

use std::ops::Range;
use std::sync::Arc;

/// One step of a gain-ordered evaluation
/// ([`crate::CoefficientStore::progressive`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressPoint {
    /// Plan blocks consumed so far, delivered or lost.
    pub blocks_consumed: usize,
    /// Running estimate: [`Evaluation::estimate`] after this block.
    pub estimate: f64,
    /// The ledger's guaranteed bound on `|estimate − exact|`.
    pub bound: f64,
}

/// The blocks one linear query needs, each priced by how much of the
/// error bound reading it removes.
///
/// Blocks are in the caller's *fold order* — ascending device block id,
/// for the cube store and the tiered store alike — and each block's
/// entries are one contiguous span of the caller's entry list. A
/// block holding query weights `w` over stored coefficients `c` can move
/// the answer by at most `sqrt(Σw² · Σc²)` (Cauchy–Schwarz); that is its
/// gain, and the sum of the gains not yet delivered bounds the error of
/// the running estimate (triangle inequality).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockPlan {
    /// Device block ids, in fold order.
    pub blocks: Vec<usize>,
    /// `gains[k]` = `sqrt(Σw² in blocks[k] · Σc² of blocks[k])`.
    pub gains: Vec<f64>,
    /// `spans[k]`: the entries `blocks[k]` holds, as a range of the
    /// caller's entry list.
    pub spans: Vec<Range<usize>>,
}

impl BlockPlan {
    /// Groups a query's entries into the blocks they need. `entries`
    /// yields each entry's `(block, w)` in fold order, block-major: a
    /// block's entries are consecutive and blocks ascend. Each run of one
    /// block id becomes a plan block whose span is the run's entry
    /// positions and whose gain is `sqrt(Σw² · energy(block))`, with
    /// `energy(block)` its catalog `Σc²`. Every entry is grouped, zero
    /// weights included.
    ///
    /// # Panics
    /// If the entries are not block-major.
    pub fn group(
        entries: impl IntoIterator<Item = (usize, f64)>,
        energy: impl Fn(usize) -> f64,
    ) -> BlockPlan {
        let mut plan = BlockPlan::default();
        // `gains` holds each block's Σw² until the blocks are priced.
        for (k, (block, w)) in entries.into_iter().enumerate() {
            match plan.blocks.last() {
                Some(&last) if last == block => {
                    *plan.gains.last_mut().expect("one gain per block") += w * w;
                    plan.spans.last_mut().expect("one span per block").end = k + 1;
                }
                last => {
                    assert!(last.is_none_or(|&l| l < block), "entries are not block-major");
                    plan.blocks.push(block);
                    plan.gains.push(w * w);
                    plan.spans.push(k..k + 1);
                }
            }
        }
        for (gain, &block) in plan.gains.iter_mut().zip(&plan.blocks) {
            *gain = (*gain * energy(block)).sqrt();
        }
        plan
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

    /// The bound before any block is read: the gains summed in fold order
    /// (a fresh [`BoundLedger`]'s bound, bit for bit).
    pub fn initial_bound(&self) -> f64 {
        self.gains.iter().fold(0.0, |acc, g| acc + g)
    }
}

/// What became of one plan block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Pending,
    Delivered,
    Lost,
}

/// The progressive error bound of one evaluation of a [`BlockPlan`].
///
/// Blocks are delivered or lost in any order, each once. The bound is the
/// gains of the blocks not delivered — pending or lost — summed in fold
/// order. Rounding is monotone in each non-negative term, so a delivery can
/// only lower the bound and a loss leaves it bit for bit where it was.
/// Drained, the bound is the lost gains summed in fold order — `0.0` when
/// nothing was lost.
#[derive(Clone, Debug)]
pub struct BoundLedger {
    plan: Arc<BlockPlan>,
    slots: Vec<Slot>,
    consumed: usize,
    lost_blocks: Vec<usize>,
}

impl BoundLedger {
    /// A ledger over `plan` with nothing consumed.
    pub fn new(plan: Arc<BlockPlan>) -> Self {
        let slots = vec![Slot::Pending; plan.blocks.len()];
        BoundLedger { plan, slots, consumed: 0, lost_blocks: Vec::new() }
    }

    /// The plan being consumed.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Whether plan position `k` is neither delivered nor lost yet.
    pub fn pending(&self, k: usize) -> bool {
        self.slots[k] == Slot::Pending
    }

    fn consume(&mut self, k: usize, slot: Slot) {
        assert!(self.pending(k), "plan position {k} already consumed");
        self.slots[k] = slot;
        self.consumed += 1;
    }

    /// Plan position `k` arrived and was folded into the estimate.
    pub fn deliver(&mut self, k: usize) {
        self.consume(k, Slot::Delivered);
    }

    /// Plan position `k` stayed unreadable: its gain stays in the bound.
    pub fn lose(&mut self, k: usize) {
        self.consume(k, Slot::Lost);
        self.lost_blocks.push(self.plan.blocks[k]);
    }

    /// Guaranteed bound on `|estimate − exact|` right now.
    pub fn bound(&self) -> f64 {
        let undelivered = self.plan.gains.iter().zip(&self.slots);
        undelivered.filter(|(_, s)| **s != Slot::Delivered).fold(0.0, |acc, (g, _)| acc + g)
    }

    /// Blocks consumed so far, delivered or lost.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Whether every planned block has been consumed.
    pub fn done(&self) -> bool {
        self.consumed == self.slots.len()
    }

    /// Blocks that stayed unreadable, in the order they were lost.
    pub fn lost_blocks(&self) -> &[usize] {
        &self.lost_blocks
    }
}

/// One evaluation of a linear query `Σ w·c` over its [`BlockPlan`], fed
/// the plan's blocks in any order.
///
/// It keeps one product `w·c` per entry and the [`BoundLedger`]. A
/// delivered block writes its entries' products; a pending or lost block's
/// stay `0.0`. The estimate is the products folded in entry order from
/// `0.0`, which is the flat fold over the delivered entries alone: the
/// accumulator is never `-0.0`, so adding `0.0` leaves it unchanged. It
/// therefore ends on the same bits whatever order the blocks arrived in.
#[derive(Clone, Debug)]
pub struct Evaluation {
    products: Vec<f64>,
    ledger: BoundLedger,
    /// Entries of consumed blocks, delivered or lost.
    used: usize,
}

impl Evaluation {
    /// An evaluation of `plan` with nothing delivered.
    pub fn new(plan: Arc<BlockPlan>) -> Self {
        let entries = plan.spans.last().map_or(0, |s| s.end);
        Evaluation { products: vec![0.0; entries], ledger: BoundLedger::new(plan), used: 0 }
    }

    /// The bound ledger.
    pub fn ledger(&self) -> &BoundLedger {
        &self.ledger
    }

    /// The plan being evaluated.
    pub fn plan(&self) -> &BlockPlan {
        self.ledger.plan()
    }

    /// Plan position `k` arrived: `products` are `w·c` for its span's
    /// entries, in entry order.
    pub fn deliver(&mut self, k: usize, products: impl IntoIterator<Item = f64>) {
        self.ledger.deliver(k);
        let span = self.ledger.plan().spans[k].clone();
        self.used += span.len();
        for (slot, p) in self.products[span].iter_mut().zip(products) {
            *slot = p;
        }
    }

    /// Plan position `k` stayed unreadable: its entries contribute nothing.
    pub fn lose(&mut self, k: usize) {
        self.ledger.lose(k);
        self.used += self.ledger.plan().spans[k].len();
    }

    /// Entries of the blocks consumed so far, delivered or lost.
    pub fn entries_used(&self) -> usize {
        self.used
    }

    /// The running estimate: delivered products folded in entry order.
    pub fn estimate(&self) -> f64 {
        self.products.iter().fold(0.0, |acc, p| acc + p)
    }
}
