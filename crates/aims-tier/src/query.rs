//! Unified query evaluation over a [`TierSnapshot`].
//!
//! A range sum `Σ f(t), t ∈ [a, b]` fans out across the snapshot's
//! segments. Hot segments answer **exactly** by summing raw samples.
//! Historical segments answer in the wavelet domain: orthonormal DWTs
//! preserve inner products, so the segment's contribution is
//! `⟨coeffs, W·1_[la,lb]⟩`, and `W·1_[la,lb]` is the [`lazy_transform`] of
//! the local range's COUNT query: the O(filter · log S) entries ProPolyne's
//! `prepare` yields for a 1-D COUNT.
//!
//! The coefficients live on the historical device, so evaluation plans
//! from the entries alone: grouped by device block, they name the blocks
//! to fetch, each priced into one [`BlockPlan`] from the snapshot's energy
//! catalog, and a [`BoundLedger`] consumes that plan most-important-first,
//! carrying the bound. A segment the range covers whole plans no block:
//! its entries depend only on the store's geometry and all sit in block 0,
//! so the install folded that block's partial once and pinned it beside
//! the energy catalog. Such a segment joins the answer as an exact part,
//! like a hot one.
//!
//! Determinism contract (the oracle bit-identity tests lean on this):
//! every block contributes one partial — `w·c` over the block's entries,
//! accumulated in ascending index order — and the answer is one fixed fold
//! of them: a historical segment's block partials in ascending block order
//! into a segment partial, a hot segment's samples in ascending order into
//! a segment partial, and the segment partials in ascending segment order
//! into a single accumulator. A pinned full-cover partial is that same
//! segment partial (a one-block fold from `0.0`, which a partial never
//! changes: `Σ w·c` from `0.0` is never `-0.0`), computed at install from
//! the coefficients block 0 holds. The fold does not depend on the order
//! the blocks were fetched in, on what the cache held, or on the pool's
//! width, so two stores whose payloads are bit-identical return
//! bit-identical sums.

use std::ops::Range;
use std::sync::Arc;

use aims_dsp::lazy::lazy_transform;
use aims_dsp::poly::Polynomial;
use aims_exec::ThreadPool;
use aims_storage::{BlockPlan, BoundLedger};
use aims_telemetry::counter;

use crate::layout::TierConfig;
use crate::store::{SnapKind, SnapSeg, TierSnapshot};

/// The nonzero `(coefficient index, w)` entries, ascending, of the COUNT
/// query over local range `[la, lb]` of a segment of `cfg`.
pub(crate) fn count_weights(cfg: &TierConfig, la: usize, lb: usize) -> Arc<[(usize, f64)]> {
    let count = Polynomial::constant(1.0);
    lazy_transform(cfg.segment_len, la, lb, &count, &cfg.filter.filter()).nonzeros(0.0).into()
}

/// One block's partial: `Σ w·c` over its entries, in ascending index
/// order. `coeffs` starts at the block, whose first coefficient has index
/// `base`. [`crate::TieredStore::install`] pins a whole segment's block-0
/// partial with it.
pub(crate) fn block_partial(coeffs: &[f64], base: usize, entries: &[(usize, f64)]) -> f64 {
    let mut partial = 0.0;
    for &(i, w) in entries {
        partial += w * coeffs[i - base];
    }
    partial
}

/// What one overlapping segment contributes to the plan.
enum SegPlan {
    /// Resident samples: summed exactly, up front.
    Hot { sum: f64, rows: usize },
    /// A historical segment the range covers whole: its pinned partial.
    Covered(f64),
    /// Device-resident coefficients under the segment's entries.
    Hist { slot: usize, energy: Arc<[f64]>, weights: Arc<[(usize, f64)]> },
}

/// The exact answer's fold unit: one partial per overlapping segment.
enum Part {
    /// Known up front: a hot segment's sum or a covered segment's pinned
    /// partial.
    Exact(f64),
    /// The segment's blocks, as a range of `items` in ascending block order.
    Hist(Range<usize>),
}

/// One historical block's stake in an evaluation (its price is the plan
/// entry at the same position).
struct BlockTerm {
    /// Segment slot on the historical device, and block within it.
    slot: usize,
    blk: usize,
    /// Which of the query's weight sets applies, and the block's entries
    /// in it.
    weights: usize,
    entries: Range<usize>,
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
    /// Exact contribution of the hot and the covered segments
    /// (zero-error from step 0).
    exact_part: f64,
    /// Raw samples the hot tier summed.
    pub hot_rows: usize,
    /// Overlapping segments, ascending.
    parts: Vec<Part>,
    /// Needed historical blocks, segment- then block-ascending: the fold
    /// order, and the order of the ledger's plan.
    items: Vec<BlockTerm>,
    /// The bound, and how far the gain-first consumption got.
    ledger: BoundLedger,
    /// One entry set per historical segment, ascending.
    weights: Vec<Arc<[(usize, f64)]>>,
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
    /// ranges on `pool`, takes each covered historical segment's pinned
    /// partial, and lists — without reading any — the historical blocks
    /// under the range's edges.
    pub fn new(snap: &'a TierSnapshot, a: usize, b: usize, pool: &ThreadPool) -> Self {
        let mut prog = TieredProgressive {
            snap,
            exact_part: 0.0,
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
        let first = snap.sealed.partition_point(|s| s.start + s.len <= a);
        let last = snap.sealed.partition_point(|s| s.start <= b);
        let tail = snap.tail.iter().filter(|s| s.start <= b);
        let segs: Vec<&SnapSeg> = snap.sealed[first..last].iter().chain(tail).collect();
        let local = |s: &SnapSeg| (a.max(s.start) - s.start, b.min(s.start + s.len - 1) - s.start);

        let plans = pool.par_map(&segs, |seg| match &seg.kind {
            SnapKind::Hot(data) => {
                let (la, lb) = local(seg);
                let mut sum = 0.0;
                for &v in &data[la..=lb] {
                    sum += v;
                }
                SegPlan::Hot { sum, rows: lb - la + 1 }
            }
            SnapKind::Hist { slot, energy, partial } => match local(seg) {
                // A force-sealed short segment never ends at `segment_len - 1`.
                (0, lb) if lb == cfg.segment_len - 1 => SegPlan::Covered(*partial),
                (la, lb) => SegPlan::Hist {
                    slot: *slot,
                    energy: Arc::clone(energy),
                    weights: count_weights(&cfg, la, lb),
                },
            },
        });

        let (mut hot_segs, mut hist_segs) = (0usize, 0usize);
        let mut block_plan = BlockPlan::default();
        for plan in plans {
            match plan {
                SegPlan::Hot { sum, rows } => {
                    prog.parts.push(Part::Exact(sum));
                    prog.exact_part += sum;
                    prog.hot_rows += rows;
                    hot_segs += 1;
                }
                SegPlan::Covered(partial) => {
                    prog.parts.push(Part::Exact(partial));
                    prog.exact_part += partial;
                    hist_segs += 1;
                }
                SegPlan::Hist { slot, energy, weights } => {
                    // Group the entries by device block: `(block, Σw², entries)`.
                    let mut blocks: Vec<(usize, f64, Range<usize>)> = Vec::new();
                    for (k, &(i, w)) in weights.iter().enumerate() {
                        match blocks.last_mut() {
                            Some((blk, wsq, entries)) if *blk == i / cfg.block_size => {
                                *wsq += w * w;
                                entries.end = k + 1;
                            }
                            _ => blocks.push((i / cfg.block_size, w * w, k..k + 1)),
                        }
                    }
                    let base = cfg.hist_block(slot);
                    let priced = blocks.iter().map(|&(blk, wsq, _)| (base + blk, wsq));
                    block_plan.extend(priced, |id| energy[id - base]);
                    let (start, set) = (prog.items.len(), prog.weights.len());
                    prog.items.extend(blocks.into_iter().map(|(blk, _, entries)| BlockTerm {
                        slot,
                        blk,
                        weights: set,
                        entries,
                        partial: None,
                    }));
                    prog.parts.push(Part::Hist(start..prog.items.len()));
                    prog.weights.push(weights);
                    hist_segs += 1;
                }
            }
        }
        prog.ledger = BoundLedger::by_gain(Arc::new(block_plan));

        counter!("tier.query.hot_rows").add(prog.hot_rows as u64);
        if hot_segs > 0 && hist_segs > 0 {
            counter!("tier.query.merged").inc();
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
                Part::Exact(sum) => *sum,
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
        let estimate =
            if self.done() { self.folded() } else { self.exact_part + self.hist_estimate };
        TierStep {
            estimate,
            bound: self.ledger.bound(),
            blocks_consumed: self.ledger.consumed(),
            blocks_lost: self.ledger.lost_blocks().len(),
        }
    }

    /// Reads one block through the store's cache and reduces it against
    /// its entries; `None` when the device cannot deliver it.
    fn fetch(&self, item: &BlockTerm) -> Option<f64> {
        let coeffs = self.snap.hist.block(item.slot, item.blk).ok()?;
        let base = item.blk * self.snap.cfg.block_size;
        Some(block_partial(&coeffs, base, &self.weights[item.weights][item.entries.clone()]))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compact, transform_segment, TieredStore};
    use aims_dsp::dwt::dwt_full;
    use aims_dsp::filters::FilterKind;

    /// The planner the lazy transform replaced: the dense DWT of the range
    /// indicator with every weight at or below 1e-10 × the largest
    /// magnitude cut to zero. Returns the blocks holding a weight, and the
    /// one-segment fold of their partials `Σ w·c` (nonzero weights,
    /// ascending index).
    fn dense_reference(
        cfg: &TierConfig,
        coeffs: &[f64],
        la: usize,
        lb: usize,
    ) -> (Vec<usize>, f64) {
        let mut indicator = vec![0.0; cfg.segment_len];
        indicator[la..=lb].fill(1.0);
        let w = dwt_full(&indicator, &cfg.filter.filter());
        let tol = 1e-10 * w.iter().fold(0.0, |m: f64, x| m.max(x.abs()));
        let (mut blocks, mut seg) = (Vec::new(), 0.0);
        let chunks = w.chunks(cfg.block_size).zip(coeffs.chunks(cfg.block_size));
        for (blk, (wb, cb)) in chunks.enumerate() {
            if wb.iter().all(|x| x.abs() <= tol) {
                continue;
            }
            let mut partial = 0.0;
            for (wi, ci) in wb.iter().zip(cb).filter(|(wi, _)| wi.abs() > tol) {
                partial += wi * ci;
            }
            blocks.push(blk);
            seg += partial;
        }
        let mut acc = 0.0;
        acc += seg;
        (blocks, acc)
    }

    /// Plans `[a, b]` on a one-segment snapshot, checks it against the
    /// dense reference and returns the planned block count. Block sets
    /// match exactly — Db4's ≈ 1e-14 detail-band rounding noise plans
    /// nothing on either side — except that a full cover plans none (its
    /// partial is pinned); Haar answers match bit for bit, Db4 answers to
    /// 1e-12 of the range's Σ|f| (at least 1).
    fn check(snap: &TierSnapshot, coeffs: &[f64], signal: &[f64], a: usize, b: usize) -> usize {
        let cfg = snap.cfg;
        let case =
            format!("{:?} S={} B={} [{a}, {b}]", cfg.filter, cfg.segment_len, cfg.block_size);
        let mut prog = TieredProgressive::new(snap, a, b, &ThreadPool::new(1));
        let planned: Vec<usize> = prog.items.iter().map(|t| t.blk).collect();
        let (mut want_blocks, want) = dense_reference(&cfg, coeffs, a, b);
        if (a, b) == (0, cfg.segment_len - 1) {
            want_blocks.clear();
        }
        assert_eq!(planned, want_blocks, "{case}: planned blocks");
        let got = prog.drain().estimate;
        if cfg.filter == FilterKind::Haar {
            assert_eq!(got.to_bits(), want.to_bits(), "{case}: {got} vs {want}");
        } else {
            let scale = signal[a..=b].iter().map(|x| x.abs()).sum::<f64>().max(1.0);
            assert!((got - want).abs() <= 1e-12 * scale, "{case}: {got} vs {want}");
        }
        let raw: f64 = signal[a..=b].iter().sum();
        assert!((got - raw).abs() <= 1e-9 * raw.abs().max(1.0), "{case}: {got} vs raw {raw}");
        planned.len()
    }

    #[test]
    fn lazy_weights_plan_and_answer_like_the_dense_indicator_dwt() {
        let pool = ThreadPool::new(1);
        for (segment_len, block_size) in [(64, 16), (4096, 256)] {
            for filter in [FilterKind::Db4, FilterKind::Haar] {
                let cfg = TierConfig { segment_len, block_size, max_segments: 1, filter };
                let store = TieredStore::new_mem(cfg);
                let signal: Vec<f64> = (0..segment_len).map(|i| ((i * 31) % 17) as f64).collect();
                store.push_slice(&signal);
                compact::drain(&store, &pool);
                let (snap, coeffs) = (store.snapshot(), transform_segment(&signal, &cfg).coeffs);
                if segment_len == 4096 {
                    // The full cover plans no block (its partial is
                    // pinned); the pinned partial range plans Db4 8
                    // blocks, Haar 6.
                    let partial = if filter == FilterKind::Db4 { 8 } else { 6 };
                    assert_eq!(check(&snap, &coeffs, &signal, 0, segment_len - 1), 0);
                    assert_eq!(check(&snap, &coeffs, &signal, 100, 3000), partial);
                }
                let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ segment_len as u64;
                let mut next = |n: usize| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as usize % n
                };
                for _ in 0..300 {
                    let a = next(segment_len);
                    let b = a + next(segment_len - a);
                    check(&snap, &coeffs, &signal, a, b);
                }
            }
        }
    }

    #[test]
    fn pinned_partial_is_the_block_partial_the_read_path_folds() {
        let pool = ThreadPool::new(1);
        for (segment_len, block_size) in [(64, 16), (4096, 256), (16, 8)] {
            for filter in FilterKind::ALL {
                let cfg = TierConfig { segment_len, block_size, max_segments: 3, filter };
                let case = format!("{filter:?} S={segment_len} B={block_size}");
                let full_cover = count_weights(&cfg, 0, segment_len - 1);
                // Every filter's full cover sits in block 0; at 16/8 the
                // longest filters' entries fill it exactly.
                assert!(full_cover.iter().all(|&(i, _)| i < block_size), "{case}");
                if block_size == 8 && matches!(filter, FilterKind::Db6 | FilterKind::Db8) {
                    assert_eq!(full_cover.len(), 8, "{case}");
                }
                let store = TieredStore::new_mem(cfg);
                let signal: Vec<f64> =
                    (0..3 * segment_len).map(|i| ((i * 7919) % 211) as f64 / 7.0 - 13.0).collect();
                store.push_slice(&signal);
                compact::drain(&store, &pool);
                let snap = store.snapshot();
                for i in 0..3 {
                    // The block read path: block 0 off the device, reduced
                    // against its entries, folded into a segment partial.
                    let block = snap.hist_block(i, 0).unwrap().unwrap();
                    let mut partial = 0.0;
                    for &(k, w) in full_cover.iter() {
                        partial += w * block[k];
                    }
                    let mut seg = 0.0;
                    seg += partial;
                    let pinned = snap.full_cover_partial(i).unwrap();
                    assert_eq!(pinned.to_bits(), seg.to_bits(), "{case} segment {i}");
                    let (a, b) = (i * segment_len, (i + 1) * segment_len - 1);
                    let raw: f64 = signal[a..=b].iter().sum();
                    assert!((pinned - raw).abs() <= 1e-9 * raw.abs().max(1.0), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_force_sealed_short_segment_never_takes_the_pinned_path() {
        let pool = ThreadPool::new(1);
        let cfg = TierConfig {
            segment_len: 64,
            block_size: 16,
            max_segments: 3,
            filter: FilterKind::Db4,
        };
        let store = TieredStore::new_mem(cfg);
        let signal: Vec<f64> = (0..64 + 40).map(|i| ((i * 31) % 17) as f64 - 3.0).collect();
        store.push_slice(&signal);
        store.seal_open();
        compact::drain(&store, &pool);
        let snap = store.snapshot();
        assert!(snap.segments().iter().all(|s| s.historical));
        assert_eq!(snap.segments()[1].len, 40);
        for (a, b, planned) in [(0, 63, false), (64, 103, true), (0, 103, true), (10, 103, true)] {
            let mut prog = TieredProgressive::new(&snap, a, b, &pool);
            // Only the short segment (and an edge inside segment 0) plans
            // blocks: covering all 40 of its samples is not a full cover.
            assert_eq!(prog.total_blocks() > 0, planned, "[{a}, {b}]");
            let short_blocks = prog.items.iter().filter(|t| t.slot == 1).count();
            assert_eq!(short_blocks > 0, b == 103, "[{a}, {b}]");
            let (got, raw) = (prog.drain().estimate, signal[a..=b].iter().sum::<f64>());
            assert!((got - raw).abs() <= 1e-9 * raw.abs().max(1.0), "[{a}, {b}]: {got} vs {raw}");
        }
    }
}
