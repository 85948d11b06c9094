//! Unified query evaluation over a [`TierSnapshot`].
//!
//! A range sum `Σ f(t), t ∈ [a, b]` fans out across the snapshot's
//! segments. Hot segments answer **exactly** by summing raw samples.
//! Historical segments answer in the wavelet domain: orthonormal DWTs
//! preserve inner products, so the segment's contribution is
//! `⟨coeffs, W·1_[la,lb]⟩` where the weight vector is the DWT of the
//! local range indicator — computed in O(S) by the same lifting kernels
//! that built the coefficients.
//!
//! The coefficients live on the historical device, so evaluation plans
//! from the *weights* alone: a block is fetched only if its weights are
//! not all zero (a fully covered Haar segment needs exactly its first
//! block), the needed blocks are priced into one [`BlockPlan`] from the
//! snapshot's energy catalog, and a [`BoundLedger`] consumes that plan
//! most-important-first, carrying the bound. Every fully covered segment
//! shares one weight vector, computed once per query.
//!
//! Determinism contract (the oracle bit-identity tests lean on this):
//! every block contributes one partial — `w·c` products accumulated in
//! ascending index order — and the answer is one fixed fold of them: a
//! historical segment's block partials in ascending block order into a
//! segment partial, a hot segment's samples in ascending order into a
//! segment partial, and the segment partials in ascending segment order
//! into a single accumulator. The fold does not depend on the order the
//! blocks were fetched in, on what the cache held, or on the pool's
//! width, so two stores whose payloads are bit-identical return
//! bit-identical sums.

use std::ops::Range;
use std::sync::Arc;

use aims_dsp::dwt::dwt_full_inplace;
use aims_dsp::kernel::DwtScratch;
use aims_exec::ThreadPool;
use aims_storage::{BlockPlan, BoundLedger};
use aims_telemetry::global;

use crate::store::{SnapKind, SnapSeg, TierSnapshot};

/// The DWT of the indicator vector of local range `[la, lb]` within a
/// segment and, per device block whose weights are not all zero,
/// `(block, Σw²)` — the blocks a query must fetch.
type Weights = (Vec<f64>, Vec<(usize, f64)>);

fn weights_for(cfg: &crate::layout::TierConfig, la: usize, lb: usize) -> Weights {
    let mut w = vec![0.0; cfg.segment_len];
    w[la..=lb].fill(1.0);
    dwt_full_inplace(&mut w, &cfg.filter.filter(), &mut DwtScratch::new());
    let needed = w
        .chunks(cfg.block_size)
        .enumerate()
        .filter_map(|(blk, wblk)| {
            let wsq: f64 = wblk.iter().map(|x| x * x).sum();
            (wsq != 0.0).then_some((blk, wsq))
        })
        .collect();
    (w, needed)
}

/// What one overlapping segment contributes to the plan.
enum SegPlan {
    /// Resident samples: summed exactly, up front.
    Hot { sum: f64, rows: usize },
    /// Device-resident coefficients under the segment's own weights, or
    /// under the query's shared full-cover weights (`None`).
    Hist { slot: usize, energy: Arc<[f64]>, own: Option<Weights> },
}

/// The exact answer's fold unit: one partial per overlapping segment.
enum Part {
    Hot(f64),
    /// The segment's blocks, as a range of `items` in ascending block order.
    Hist(Range<usize>),
}

/// One historical block's stake in an evaluation (its price is the plan
/// entry at the same position).
struct BlockTerm {
    /// Segment slot on the historical device, and block within it.
    slot: usize,
    blk: usize,
    /// Which of the query's weight vectors applies.
    weights: usize,
    /// The block's exact contribution `Σ w·c` (ascending index order)
    /// once fetched; stays `None` for a block the device could not
    /// deliver.
    partial: Option<f64>,
}

/// Exact range sum over `[a, b]` (inclusive, clamped to the snapshot),
/// fanning segment sums and weight transforms out on `pool`. Bit-identical
/// for every pool width, including serial. A block the historical device
/// cannot deliver contributes nothing; [`TieredProgressive`] reports such
/// blocks and bounds what they hide.
pub fn range_sum_on(snap: &TierSnapshot, a: usize, b: usize, pool: &ThreadPool) -> f64 {
    TieredProgressive::new(snap, a, b, pool).drain().estimate
}

/// [`range_sum_on`] with a throwaway serial pool.
pub fn range_sum(snap: &TierSnapshot, a: usize, b: usize) -> f64 {
    range_sum_on(snap, a, b, &ThreadPool::new(1))
}

/// Progressive two-tier evaluation: the hot tier answers exactly up
/// front; historical blocks are fetched and consumed most-important-
/// first, each step tightening one Cauchy–Schwarz bound over everything
/// not yet consumed. Once every block is consumed the running
/// estimate is replaced by the canonical fold of the same partials (see
/// the module docs), so a drained progressive query *is* the exact
/// evaluation, bit for bit.
pub struct TieredProgressive<'a> {
    snap: &'a TierSnapshot,
    /// Exact hot-tier contribution (zero-error from step 0).
    hot_part: f64,
    /// Raw samples the hot tier summed.
    pub hot_rows: usize,
    /// Overlapping segments, ascending.
    parts: Vec<Part>,
    /// Needed historical blocks, segment- then block-ascending: the fold
    /// order, and the order of the ledger's plan.
    items: Vec<BlockTerm>,
    /// The bound, and how far the gain-first consumption got.
    ledger: BoundLedger,
    weights: Vec<Vec<f64>>,
    hist_estimate: f64,
}

/// One delivered refinement step.
#[derive(Clone, Copy, Debug)]
pub struct TierStep {
    /// Estimate after this step (hot exact + consumed historical blocks).
    pub estimate: f64,
    /// Cauchy–Schwarz bound on `|estimate − exact|`; never increases.
    pub bound: f64,
    /// Historical blocks consumed so far (delivered or lost).
    pub blocks_consumed: usize,
    /// Of those, blocks the device could not deliver even with retries;
    /// each keeps its gain in `bound`.
    pub blocks_lost: usize,
}

impl<'a> TieredProgressive<'a> {
    /// Plans a progressive evaluation of `Σ f(t), t ∈ [a, b]` against the
    /// snapshot: sums the hot segments and transforms the edge segments'
    /// indicators on `pool`, and lists — without reading any — the
    /// historical blocks the range needs.
    pub fn new(snap: &'a TierSnapshot, a: usize, b: usize, pool: &ThreadPool) -> Self {
        let mut prog = TieredProgressive {
            snap,
            hot_part: 0.0,
            hot_rows: 0,
            parts: Vec::new(),
            items: Vec::new(),
            ledger: BoundLedger::by_gain(Arc::default()),
            weights: Vec::new(),
            hist_estimate: 0.0,
        };
        if snap.is_empty() || a > b || a >= snap.len() {
            return prog;
        }
        let b = b.min(snap.len() - 1);
        let cfg = snap.cfg;
        let first = snap.segs.partition_point(|s| s.start + s.len <= a);
        let last = snap.segs.partition_point(|s| s.start <= b);
        let segs = &snap.segs[first..last];
        let local = |s: &SnapSeg| (a.max(s.start) - s.start, b.min(s.start + s.len - 1) - s.start);
        let whole = (0, cfg.segment_len - 1);

        let plans = pool.par_map(segs, |seg| match &seg.kind {
            SnapKind::Hot(data) => {
                let (la, lb) = local(seg);
                let mut sum = 0.0;
                for &v in &data[la..=lb] {
                    sum += v;
                }
                SegPlan::Hot { sum, rows: lb - la + 1 }
            }
            SnapKind::Hist { slot, energy } => {
                let (la, lb) = local(seg);
                let own = ((la, lb) != whole).then(|| weights_for(&cfg, la, lb));
                SegPlan::Hist { slot: *slot, energy: Arc::clone(energy), own }
            }
        });

        let mut full_needed = Vec::new();
        if plans.iter().any(|p| matches!(p, SegPlan::Hist { own: None, .. })) {
            let (w, needed) = weights_for(&cfg, whole.0, whole.1);
            prog.weights.push(w);
            full_needed = needed;
        }
        let (mut hot_segs, mut hist_segs) = (0usize, 0usize);
        let mut block_plan = BlockPlan::default();
        for plan in plans {
            match plan {
                SegPlan::Hot { sum, rows } => {
                    prog.parts.push(Part::Hot(sum));
                    prog.hot_part += sum;
                    prog.hot_rows += rows;
                    hot_segs += 1;
                }
                SegPlan::Hist { slot, energy, own } => {
                    let (weights, needed) = match &own {
                        Some((_, needed)) => (prog.weights.len(), needed),
                        None => (0, &full_needed),
                    };
                    let start = prog.items.len();
                    prog.items.extend(needed.iter().map(|&(blk, _)| BlockTerm {
                        slot,
                        blk,
                        weights,
                        partial: None,
                    }));
                    let base = cfg.hist_block(slot);
                    block_plan.extend(needed.iter().map(|&(blk, wsq)| (base + blk, wsq)), |id| {
                        energy[id - base]
                    });
                    prog.parts.push(Part::Hist(start..prog.items.len()));
                    prog.weights.extend(own.map(|(w, _)| w));
                    hist_segs += 1;
                }
            }
        }
        prog.ledger = BoundLedger::by_gain(Arc::new(block_plan));

        let t = global();
        t.counter("tier.query.hot_rows").add(prog.hot_rows as u64);
        if hot_segs > 0 && hist_segs > 0 {
            t.counter("tier.query.merged").inc();
        }
        prog
    }

    /// Historical blocks this evaluation will consume in total.
    pub fn total_blocks(&self) -> usize {
        self.items.len()
    }

    /// True when every historical block has been consumed.
    pub fn done(&self) -> bool {
        self.ledger.done()
    }

    /// The canonical fold of everything delivered so far.
    fn folded(&self) -> f64 {
        let mut acc = 0.0;
        for part in &self.parts {
            acc += match part {
                Part::Hot(sum) => *sum,
                Part::Hist(blocks) => {
                    let mut seg = 0.0;
                    for partial in self.items[blocks.clone()].iter().filter_map(|i| i.partial) {
                        seg += partial;
                    }
                    seg
                }
            };
        }
        acc
    }

    /// The current refinement.
    pub fn current(&self) -> TierStep {
        let estimate = if self.done() { self.folded() } else { self.hot_part + self.hist_estimate };
        TierStep {
            estimate,
            bound: self.ledger.bound(),
            blocks_consumed: self.ledger.consumed(),
            blocks_lost: self.ledger.lost_blocks().len(),
        }
    }

    /// Reads one block through the store's cache and reduces it against
    /// its weights; `None` when the device cannot deliver it.
    fn fetch(&self, item: &BlockTerm) -> Option<f64> {
        let coeffs = self.snap.hist.block(item.slot, item.blk).ok()?;
        let bs = self.snap.cfg.block_size;
        let w = &self.weights[item.weights][item.blk * bs..(item.blk + 1) * bs];
        let mut partial = 0.0;
        for (wi, ci) in w.iter().zip(coeffs.iter()) {
            if *wi != 0.0 {
                partial += wi * ci;
            }
        }
        Some(partial)
    }

    /// Fetches and consumes up to `k` more historical blocks,
    /// most-important-first, and returns the refined step. A lost block
    /// leaves its gain in the bound.
    pub fn step(&mut self, k: usize) -> TierStep {
        for _ in 0..k.max(1) {
            let Some(i) = self.ledger.peek() else { break };
            let partial = self.fetch(&self.items[i]);
            self.items[i].partial = partial;
            match partial {
                Some(p) => {
                    self.hist_estimate += p;
                    self.ledger.deliver();
                }
                None => self.ledger.lose(),
            }
        }
        self.current()
    }

    /// Runs the evaluation to completion and returns the exact answer.
    pub fn drain(&mut self) -> TierStep {
        while !self.done() {
            self.step(usize::MAX / 2);
        }
        self.current()
    }
}
