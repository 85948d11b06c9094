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
//! A segment the range covers whole reads no block: its entries depend
//! only on the store's geometry and all sit in block 0, so the install
//! folded them against that block once and pinned the partial beside the
//! energy catalog. Such a segment joins the answer as an exact part, like
//! a hot one. The coefficients under the range's edges live on the
//! historical device: their entries, segment by segment, are one entry
//! list, grouped by device block into one [`BlockPlan`] priced from the
//! snapshot's energy catalog, and folded by one [`Evaluation`] — the fold
//! every stored-coefficient query uses — consumed most-important-first
//! ([`BlockPlan::by_gain`]).
//!
//! Determinism contract (the oracle bit-identity tests lean on this): the
//! answer is the exact parts — hot sums (samples in ascending order) and
//! pinned partials — folded from `0.0` in ascending segment order, plus
//! the [`Evaluation`]'s estimate: the products `w·c` of the delivered edge
//! entries folded from `0.0` in entry order (ascending segment, then
//! ascending coefficient index, which is ascending device block). A pinned
//! partial is that same flat fold over the full cover's entries, taken at
//! install. Every step reports this fold over the blocks delivered so far
//! (a block not delivered adds nothing), so the answer does not depend on
//! the order the blocks were fetched in, on what the cache held, or on the
//! pool's width, and two stores whose payloads are bit-identical return
//! bit-identical sums.

use std::sync::Arc;

use aims_dsp::lazy::lazy_transform;
use aims_dsp::poly::Polynomial;
use aims_exec::ThreadPool;
use aims_storage::{BlockPlan, Evaluation};
use aims_telemetry::counter;

use crate::layout::TierConfig;
use crate::store::{SnapKind, SnapSeg, TierSnapshot};

/// The nonzero `(coefficient index, w)` entries, ascending, of the COUNT
/// query over local range `[la, lb]` of a segment of `cfg`.
pub(crate) fn count_weights(cfg: &TierConfig, la: usize, lb: usize) -> Arc<[(usize, f64)]> {
    let count = Polynomial::constant(1.0);
    lazy_transform(cfg.segment_len, la, lb, &count, &cfg.filter.filter()).nonzeros(0.0).into()
}

/// `Σ w·c` over `entries`, folded from `0.0` in entry order — the flat
/// fold an [`Evaluation`] makes of the same entries. `coeffs` starts at
/// coefficient index `base`. [`crate::TieredStore::install`] pins a whole
/// segment's full-cover partial with it.
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
/// not yet delivered. Every step's estimate is the canonical fold of what
/// was delivered so far (see the module docs), so a drained progressive
/// query *is* the exact evaluation, bit for bit.
pub struct TieredProgressive<'a> {
    snap: &'a TierSnapshot,
    /// Raw samples the hot tier summed.
    pub hot_rows: usize,
    /// Hot sums and pinned partials, folded in ascending segment order.
    exact: f64,
    /// The edge entries `(coefficient index in its segment, w)`, segment
    /// by segment: the entry list of `eval`'s plan.
    entries: Vec<(usize, f64)>,
    /// The historical blocks' plan, bound and delivered products.
    eval: Evaluation,
    /// Plan positions most-important-first; the next to consume is
    /// `order[consumed]`.
    order: Vec<usize>,
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
    /// partial, and plans — without reading any — the historical blocks
    /// under the range's edges.
    pub fn new(snap: &'a TierSnapshot, a: usize, b: usize, pool: &ThreadPool) -> Self {
        let mut prog = TieredProgressive {
            snap,
            hot_rows: 0,
            exact: 0.0,
            entries: Vec::new(),
            eval: Evaluation::new(Arc::default()),
            order: Vec::new(),
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
        // Each edge segment's first device block and energy catalog, and
        // each edge entry's device block. Slots ascend with the segments,
        // so the blocks ascend across the whole entry list.
        let mut edges: Vec<(usize, Arc<[f64]>)> = Vec::new();
        let mut blocks: Vec<usize> = Vec::new();
        for plan in plans {
            match plan {
                SegPlan::Hot { sum, rows } => {
                    prog.exact += sum;
                    prog.hot_rows += rows;
                    hot_segs += 1;
                }
                SegPlan::Covered(partial) => {
                    prog.exact += partial;
                    hist_segs += 1;
                }
                SegPlan::Hist { slot, energy, weights } => {
                    let base = cfg.hist_block(slot);
                    blocks.extend(weights.iter().map(|&(i, _)| base + i / cfg.block_size));
                    prog.entries.extend_from_slice(&weights);
                    edges.push((base, energy));
                    hist_segs += 1;
                }
            }
        }
        let entries = blocks.into_iter().zip(prog.entries.iter().map(|&(_, w)| w));
        let plan = BlockPlan::group(entries, |id| {
            let (base, energy) = &edges[edges.partition_point(|(base, _)| *base <= id) - 1];
            energy[id - base]
        });
        prog.order = plan.by_gain();
        prog.eval = Evaluation::new(Arc::new(plan));

        counter!("tier.query.hot_rows").add(prog.hot_rows as u64);
        if hot_segs > 0 && hist_segs > 0 {
            counter!("tier.query.merged").inc();
        }
        prog
    }

    /// Historical blocks this evaluation will consume in total.
    pub fn total_blocks(&self) -> usize {
        self.eval.plan().blocks.len()
    }

    /// True when every historical block has been consumed.
    pub fn done(&self) -> bool {
        self.eval.ledger().done()
    }

    /// The current refinement.
    pub fn current(&self) -> TierStep {
        let ledger = self.eval.ledger();
        TierStep {
            estimate: self.exact + self.eval.estimate(),
            bound: ledger.bound(),
            blocks_consumed: ledger.consumed(),
            blocks_lost: ledger.lost_blocks().len(),
        }
    }

    /// The segment slot of plan position `k`'s block, and the block's
    /// index within the slot.
    fn slot_block(&self, k: usize) -> (usize, usize) {
        let cfg = &self.snap.cfg;
        let offset = self.eval.plan().blocks[k] - cfg.hist_block(0);
        (offset / cfg.blocks_per_segment(), offset % cfg.blocks_per_segment())
    }

    /// Reads plan position `k`'s block through the store's cache and folds
    /// its products into the evaluation, or records its loss when the
    /// device cannot deliver it.
    fn fetch_fold(&mut self, k: usize) {
        let (slot, blk) = self.slot_block(k);
        let Ok(coeffs) = self.snap.hist.block(slot, blk) else { return self.eval.lose(k) };
        let base = blk * self.snap.cfg.block_size;
        let span = self.eval.plan().spans[k].clone();
        let products = self.entries[span].iter().map(|&(i, w)| w * coeffs[i - base]);
        self.eval.deliver(k, products);
    }

    /// Fetches and consumes up to `k` more historical blocks,
    /// most-important-first, and returns the refined step. A lost block
    /// leaves its gain in the bound.
    pub fn step(&mut self, k: usize) -> TierStep {
        for _ in 0..k.max(1) {
            let Some(&next) = self.order.get(self.eval.ledger().consumed()) else { break };
            self.fetch_fold(next);
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
    /// flat fold of `Σ w·c` over the nonzero weights, ascending index.
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
        let (mut blocks, mut acc) = (Vec::new(), 0.0);
        let chunks = w.chunks(cfg.block_size).zip(coeffs.chunks(cfg.block_size));
        for (blk, (wb, cb)) in chunks.enumerate() {
            if wb.iter().all(|x| x.abs() <= tol) {
                continue;
            }
            for (wi, ci) in wb.iter().zip(cb).filter(|(wi, _)| wi.abs() > tol) {
                acc += wi * ci;
            }
            blocks.push(blk);
        }
        (blocks, acc)
    }

    /// The `(slot, block within the slot)` of each planned block.
    fn planned_blocks(prog: &TieredProgressive) -> Vec<(usize, usize)> {
        (0..prog.total_blocks()).map(|k| prog.slot_block(k)).collect()
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
        let planned: Vec<usize> = planned_blocks(&prog).into_iter().map(|(_, blk)| blk).collect();
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
            let short_blocks = planned_blocks(&prog).iter().filter(|&&(slot, _)| slot == 1).count();
            assert_eq!(short_blocks > 0, b == 103, "[{a}, {b}]");
            let (got, raw) = (prog.drain().estimate, signal[a..=b].iter().sum::<f64>());
            assert!((got - raw).abs() <= 1e-9 * raw.abs().max(1.0), "[{a}, {b}]: {got} vs {raw}");
        }
    }
}
