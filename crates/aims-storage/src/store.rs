//! The blocked coefficient store.
//!
//! §3.2 in one module: a coefficient vector is placed on a block device
//! under a chosen allocation, and a linear query `Σ wᵢ·cᵢ` over it is
//! answered by fetching only the blocks its entries touch through a block
//! cache — with every block I/O accounted. [`CoefficientStore`] is the one
//! implementation of that: the allocation's [`Layout`] (its coefficient →
//! (block, offset) rule), the per-block `Σ c²` energy catalog, load,
//! reopen, and the evaluation `plan → fetch → fold → bound`, in plan
//! order (`evaluate`) or most-valuable-block-first (`progressive`), both
//! through one [`Evaluation`]. A query arrives as its entries `(index,
//! weight)`, put into the store's fold order by
//! [`CoefficientStore::block_major`]; [`BlockPlan::group`] prices the
//! blocks they need. Cube range sums, and
//! a 1-D signal's range and point queries (the 1-D COUNT over the range,
//! the signal being a one-dimensional cube under Haar), are all planned
//! by `aims_propolyne::engine::prepare`.
//!
//! The store is generic over the [`BlockDevice`] implementation, so the
//! same query code runs over the infallible [`MemDevice`], the
//! fault-injected `FaultyDevice` and the durable `FileDevice`. Transient
//! read failures are retried under a [`RetryPolicy`]; a block that stays
//! unreadable degrades the answer instead of failing it: its coefficients
//! count as zero and the [`BoundLedger`](crate::BoundLedger) keeps the
//! block's gain `sqrt(Σw² · Σc²)` (Cauchy–Schwarz against the load-time
//! catalog) in the answer's guaranteed error bound.
//!
//! # Fold order
//!
//! An estimate is one flat fold of the products `w·c` over the delivered
//! entries in *block-major* order: ascending block id, ascending
//! coefficient index inside a block. The order blocks arrive in does not
//! enter it, so `evaluate` and a drained `progressive` give the same bits.
//! Under [`AllocKind::Sequential`] block-major is plain ascending index
//! order, so an evaluation is bit-identical to a dense in-memory dot
//! product over the same ascending entries. Under any other allocation it
//! is deterministic (independent of cache state and fetch history) and
//! exact to rounding.

use std::io;
use std::sync::Arc;

use aims_telemetry::{counter, histogram_f64};

pub use crate::alloc::AllocKind;
use crate::alloc::Layout;
use crate::cache::SharedBlockCache;
use crate::device::{BlockDevice, DeviceStats, MemDevice, RetryPolicy};
use crate::progressive::{BlockPlan, Evaluation, ProgressPoint};

/// A query answer served from (possibly faulty) blocked storage.
#[derive(Clone, Debug)]
pub struct DegradedAnswer {
    /// The (possibly partial) inner product.
    pub estimate: f64,
    /// Guaranteed bound on `|estimate − exact|`: the summed gains of the
    /// lost blocks; `0.0` when nothing was lost.
    pub error_bound: f64,
    /// Blocks that stayed unreadable after retries, ascending.
    pub lost_blocks: Vec<usize>,
    /// Query entries whose coefficient could not be retrieved.
    pub missing_coefficients: usize,
}

impl DegradedAnswer {
    /// Whether any block was lost.
    pub fn degraded(&self) -> bool {
        !self.lost_blocks.is_empty()
    }
}

/// The one energy-catalog rule (every store's, the tiered store's too):
/// `Σ c²` of a coefficient block, ascending index order.
pub fn block_energy(block: &[f64]) -> f64 {
    block.iter().map(|c| c * c).sum()
}

/// A coefficient vector on a block device under one allocation, with a
/// load-time per-block energy catalog for degraded error bounds.
#[derive(Debug)]
pub struct CoefficientStore<D: BlockDevice = MemDevice> {
    device: D,
    layout: Layout,
    /// Per-block `Σ c²` over the coefficients stored in the block,
    /// captured at load time or persisted then and handed to `reopen`
    /// (catalog metadata, available even when the block itself is
    /// unreadable).
    block_energy: Vec<f64>,
}

impl<D: BlockDevice> CoefficientStore<D> {
    /// Writes `coeffs` under allocation `kind` to a device built by
    /// `make(block_size, num_blocks)` — the hook for fault-injected and
    /// durable devices — one `write_block` per block, the last one
    /// zero-padded.
    ///
    /// # Panics
    /// If `coeffs` is empty, `block_size` is invalid for `kind` (see
    /// [`Layout::new`]), or the device `make` returns has the wrong
    /// geometry.
    pub fn load(
        coeffs: &[f64],
        block_size: usize,
        kind: AllocKind,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        assert!(!coeffs.is_empty(), "cannot store an empty coefficient vector");
        let layout = Layout::new(coeffs.len(), block_size, kind);
        let num_blocks = layout.num_blocks();
        let mut device = make(block_size, num_blocks);
        assert!(device.block_size() == block_size, "device block size mismatch");
        assert!(device.num_blocks() >= num_blocks, "device too small for allocation");
        let image = layout.image(coeffs);
        let mut block_energy = Vec::with_capacity(num_blocks);
        let mut staged = vec![0.0; block_size];
        for (b, data) in image.chunks(block_size).enumerate() {
            staged[..data.len()].copy_from_slice(data);
            staged[data.len()..].fill(0.0);
            block_energy.push(self::block_energy(&staged));
            device.write_block(b, &staged);
        }
        device.reset_stats();
        CoefficientStore { device, layout, block_energy }
    }

    /// Rebuilds a store over an already-populated device — the reopen
    /// path for a recovered [`crate::file::FileDevice`]. The [`Layout`] is
    /// a pure function of `(n, block_size, kind)`, so it reconstructs
    /// exactly, and (but for `Random`'s permutation) holds nothing per
    /// coefficient; `catalog` is the per-block energy catalog the caller
    /// persisted when it wrote the blocks ([`CoefficientStore::block_energies`]).
    /// No block is read: a damaged block is found when a query reads it,
    /// and is priced in that answer's bound from this catalog, which holds
    /// the energies of the image as written.
    ///
    /// Refuses (`InvalidData`) a catalog that is not one finite,
    /// non-negative `Σ c²` per block of the allocation.
    ///
    /// # Panics
    /// If `n` is zero, the device's block size is invalid for `kind` (for
    /// `TreeTiling`: `n` and the block size must be powers of two, the
    /// block size at least 2; see [`Layout::new`]), or the device is too
    /// small for the allocation.
    pub fn reopen(device: D, kind: AllocKind, n: usize, catalog: Vec<f64>) -> io::Result<Self> {
        assert!(n > 0, "cannot reopen an empty coefficient vector");
        let layout = Layout::new(n, device.block_size(), kind);
        let num_blocks = layout.num_blocks();
        assert!(device.num_blocks() >= num_blocks, "device too small for allocation");
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if catalog.len() != num_blocks {
            let len = catalog.len();
            return Err(bad(format!("energy catalog has {len} entries for {num_blocks} blocks")));
        }
        if let Some((b, e)) =
            catalog.iter().enumerate().find(|(_, e)| !(e.is_finite() && **e >= 0.0))
        {
            return Err(bad(format!("energy catalog entry {b} is {e}, not a finite Σc² ≥ 0")));
        }
        Ok(CoefficientStore { device, layout, block_energy: catalog })
    }

    /// The per-block `Σ c²` catalog, block by block: what a caller persists
    /// beside the device to [`reopen`](CoefficientStore::reopen) it.
    pub fn block_energies(&self) -> &[f64] {
        &self.block_energy
    }

    /// Coefficient count (unpadded).
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Stores are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Coefficients per block.
    pub fn block_size(&self) -> usize {
        self.device.block_size()
    }

    /// Number of blocks the coefficients occupy.
    pub fn num_blocks(&self) -> usize {
        self.block_energy.len()
    }

    /// The backing device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable access to the backing device (checkpoint / close hooks on
    /// durable devices).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Device I/O counters.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }

    /// Resets device I/O counters.
    pub fn reset_stats(&self) {
        self.device.reset_stats();
    }

    /// Orders a query's entries `(indices[k], weights[k])`, distinct and
    /// ascending by index, into this store's fold order: block-major.
    /// Under [`AllocKind::Sequential`] that is the order they came in, and
    /// they are returned as they are — no sort, no allocation.
    ///
    /// # Panics
    /// If there is not one weight per index.
    pub fn block_major(&self, indices: Vec<usize>, weights: Vec<f64>) -> (Vec<usize>, Vec<f64>) {
        assert_eq!(indices.len(), weights.len(), "one weight per index");
        if self.layout.is_sequential() {
            debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "entries must ascend");
            return (indices, weights);
        }
        let mut entries: Vec<(usize, f64)> = indices.into_iter().zip(weights).collect();
        entries.sort_unstable_by_key(|&(i, _)| (self.layout.block_of(i), i));
        entries.into_iter().unzip()
    }

    /// The blocks a query with block-major entries `(indices[k],
    /// weights[k])` needs, ascending — the fold order of every evaluation
    /// over this store, and exactly the device reads a cold-cache
    /// evaluation costs — each priced at `sqrt(Σw² · Σc²)` from the
    /// entries it holds and the energy catalog, with the span of those
    /// entries. Every entry is planned,
    /// zero weights included. No device I/O.
    ///
    /// # Panics
    /// If an index is out of range or the entries are not block-major.
    pub fn plan(&self, indices: &[usize], weights: &[f64]) -> BlockPlan {
        let entries = indices.iter().zip(weights).map(|(&i, &w)| {
            assert!(i < self.len(), "coefficient {i} out of range");
            (self.layout.block_of(i), w)
        });
        let plan = BlockPlan::group(entries, |b| self.block_energy[b]);
        if !plan.blocks.is_empty() {
            // The paper's success metric (§3.2.1): needed items per
            // retrieved block, which tiling pushes toward 1 + lg B.
            histogram_f64!("storage.alloc.needed_items_per_block")
                .record_f64(indices.len() as f64 / plan.blocks.len() as f64);
        }
        plan
    }

    /// Folds plan position `k` of `eval` — a plan of these block-major
    /// entries — given the block's payload: the products `w·c` of its span,
    /// or, when `data` is `None` (the device could not deliver it), a loss
    /// that leaves its gain in the bound.
    pub fn fold(
        &self,
        eval: &mut Evaluation,
        indices: &[usize],
        weights: &[f64],
        k: usize,
        data: Option<&[f64]>,
    ) {
        let Some(data) = data else { return eval.lose(k) };
        let (block, span) = (eval.plan().blocks[k], eval.plan().spans[k].clone());
        let products = indices[span.clone()].iter().zip(&weights[span]).map(|(&i, w)| {
            w * data[self.layout.offset_in(i, block).expect("a plan span lies in its block")]
        });
        eval.deliver(k, products);
    }

    /// Fetches plan position `k` of `eval` once through `pool`, retrying
    /// transient faults under `policy`, and [`fold`](CoefficientStore::fold)s
    /// it; a block that stays unreadable increments `storage.degraded`.
    /// Returns whether the block was delivered.
    fn fetch_fold(
        &self,
        eval: &mut Evaluation,
        indices: &[usize],
        weights: &[f64],
        k: usize,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> bool {
        let read = pool.get_or_read_outcome(&self.device, eval.plan().blocks[k], policy);
        let data = read.map(|(data, _)| data).ok();
        if data.is_none() {
            counter!("storage.degraded").inc();
        }
        self.fold(eval, indices, weights, k, data.as_ref().map(|d| d.as_slice()));
        data.is_some()
    }

    /// Evaluates `Σ weights[k] · c[indices[k]]` over block-major entries
    /// against the device: [`plan`], then fetch and fold each plan block
    /// once, in plan order, into one [`Evaluation`]. Each block that stays
    /// unreadable increments `storage.degraded` and leaves its gain in the
    /// answer's bound.
    ///
    /// [`plan`]: CoefficientStore::plan
    pub fn evaluate(
        &self,
        indices: &[usize],
        weights: &[f64],
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> DegradedAnswer {
        counter!("storage.store.coefficients_fetched").add(indices.len() as u64);
        let mut eval = Evaluation::new(Arc::new(self.plan(indices, weights)));
        let mut missing = 0usize;
        for k in 0..eval.plan().blocks.len() {
            if !self.fetch_fold(&mut eval, indices, weights, k, pool, policy) {
                missing += eval.plan().spans[k].len();
            }
        }
        DegradedAnswer {
            estimate: eval.estimate(),
            error_bound: eval.ledger().bound(),
            lost_blocks: eval.ledger().lost_blocks().to_vec(),
            missing_coefficients: missing,
        }
    }

    /// [`evaluate`] most-valuable-block-first: the same plan and the same
    /// [`Evaluation`], its blocks fetched in [`BlockPlan::by_gain`] order.
    /// One [`ProgressPoint`] per consumed block; a block that stays
    /// unreadable adds nothing and keeps its gain in the bound. The last
    /// point's estimate and bound are `evaluate`'s, bit for bit.
    ///
    /// [`evaluate`]: CoefficientStore::evaluate
    pub fn progressive(
        &self,
        indices: &[usize],
        weights: &[f64],
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> Vec<ProgressPoint> {
        let plan = Arc::new(self.plan(indices, weights));
        let mut eval = Evaluation::new(Arc::clone(&plan));
        let step = |k| {
            self.fetch_fold(&mut eval, indices, weights, k, pool, policy);
            let (estimate, bound) = (eval.estimate(), eval.ledger().bound());
            ProgressPoint { blocks_consumed: eval.ledger().consumed(), estimate, bound }
        };
        plan.by_gain().into_iter().map(step).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultyDevice};

    const LAYOUTS: [AllocKind; 3] =
        [AllocKind::Sequential, AllocKind::Random(1), AllocKind::TreeTiling];

    fn coeffs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect()
    }

    /// About `count` seeded entries over `n` coefficients, distinct and
    /// ascending, with weights in `[-10, 10)`, in `store`'s fold order.
    fn entries<D: BlockDevice>(
        store: &CoefficientStore<D>,
        count: usize,
        seed: u64,
    ) -> (Vec<usize>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut indices: Vec<usize> = (0..count).map(|_| next() as usize % store.len()).collect();
        indices.sort_unstable();
        indices.dedup();
        let weights = indices.iter().map(|_| (next() % 2000) as f64 / 100.0 - 10.0).collect();
        store.block_major(indices, weights)
    }

    /// The flat fold an evaluation of these entries must reproduce.
    fn dense(coeffs: &[f64], indices: &[usize], weights: &[f64]) -> f64 {
        indices.iter().zip(weights).fold(0.0, |acc, (&i, w)| acc + w * coeffs[i])
    }

    fn load(x: &[f64], kind: AllocKind) -> CoefficientStore {
        CoefficientStore::load(x, 16, kind, MemDevice::new)
    }

    fn faulty(x: &[f64], kind: AllocKind, plan: FaultPlan) -> CoefficientStore<FaultyDevice> {
        CoefficientStore::load(x, 16, kind, |bs, nb| FaultyDevice::with_plan(bs, nb, plan))
    }

    #[test]
    fn evaluation_is_the_block_major_fold_under_every_layout() {
        let x = coeffs(256);
        for kind in LAYOUTS {
            let store = load(&x, kind);
            let pool = SharedBlockCache::new(4);
            for seed in 0..20 {
                let (indices, weights) = entries(&store, 1 + seed as usize * 3, seed);
                let plan = store.plan(&indices, &weights);
                assert!(plan.blocks.windows(2).all(|w| w[0] < w[1]), "{kind:?}");
                let got = store.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
                let expect = dense(&x, &indices, &weights);
                assert_eq!(got.estimate.to_bits(), expect.to_bits(), "{kind:?} seed {seed}");
                assert!(!got.degraded() && got.error_bound == 0.0);
            }
        }
    }

    #[test]
    fn block_major_moves_nothing_under_sequential_and_only_reorders_otherwise() {
        let x = coeffs(256);
        let sequential = load(&x, AllocKind::Sequential);
        let (indices, weights) = entries(&sequential, 40, 5);
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        // Sequential: the very same buffers come back.
        let pointers = (indices.as_ptr(), weights.as_ptr());
        let (same, same_weights) = sequential.block_major(indices.clone(), weights.clone());
        assert_eq!((&same, &same_weights), (&indices, &weights));
        let (kept, kept_weights) = sequential.block_major(indices, weights);
        assert_eq!((kept.as_ptr(), kept_weights.as_ptr()), pointers);

        // Tiled: the same entries, reordered block-major.
        let tiled = load(&x, AllocKind::TreeTiling);
        let (moved, moved_weights) = tiled.block_major(kept.clone(), kept_weights.clone());
        assert_ne!(moved, kept, "the tiling reorders these entries");
        let mut pairs: Vec<(usize, u64)> =
            moved.iter().zip(&moved_weights).map(|(&i, w)| (i, w.to_bits())).collect();
        pairs.sort_unstable();
        let original: Vec<(usize, u64)> =
            kept.iter().zip(&kept_weights).map(|(&i, w)| (i, w.to_bits())).collect();
        assert_eq!(pairs, original, "the same entries, reordered");
    }

    #[test]
    fn progressive_reads_the_most_valuable_block_first() {
        // Blocks of 4 over 16 coefficients; coefficient 9 dominates.
        let coeffs: Vec<f64> = (0..16).map(|i| if i == 9 { 100.0 } else { 1.0 }).collect();
        let store = CoefficientStore::load(&coeffs, 4, AllocKind::Sequential, MemDevice::new);
        let (indices, weights): (Vec<usize>, Vec<f64>) = (0..16).map(|i| (i, 1.0)).unzip();
        let pool = SharedBlockCache::new(4);
        let run = store.progressive(&indices, &weights, &pool, &RetryPolicy::none());
        let estimates: Vec<f64> = run.iter().map(|p| p.estimate).collect();
        assert_eq!(estimates, [103.0, 107.0, 111.0, 115.0]);
        assert_eq!(run.iter().map(|p| p.blocks_consumed).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert_eq!(run[3].bound, 0.0);
        assert_eq!(store.device_stats().reads, 4);
    }

    #[test]
    fn load_phase_not_counted() {
        let store = load(&coeffs(64), AllocKind::TreeTiling);
        assert_eq!(store.device_stats(), DeviceStats::default());
    }

    #[test]
    fn cache_saves_repeat_reads() {
        let store = load(&coeffs(256), AllocKind::TreeTiling);
        let pool = SharedBlockCache::with_shards(32, 1);
        let (indices, weights) = entries(&store, 12, 7);
        store.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
        let after_first = store.device_stats().reads;
        assert_eq!(after_first as usize, store.plan(&indices, &weights).blocks.len());
        store.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
        assert_eq!(store.device_stats().reads, after_first, "a repeat re-read its blocks");
    }

    #[test]
    fn a_zero_fault_device_is_bit_identical() {
        let x = coeffs(128);
        for kind in LAYOUTS {
            let (plain, wrapped) = (load(&x, kind), faulty(&x, kind, FaultPlan::none(99)));
            for seed in 0..8 {
                let (indices, weights) = entries(&plain, 10, seed);
                let policy = RetryPolicy::default();
                let a = plain.evaluate(&indices, &weights, &SharedBlockCache::new(8), &policy);
                let b = wrapped.evaluate(&indices, &weights, &SharedBlockCache::new(8), &policy);
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{kind:?} seed {seed}");
                assert!(!b.degraded() && b.error_bound == 0.0);
            }
        }
    }

    #[test]
    fn degraded_answers_honor_their_error_bound() {
        let x = coeffs(256);
        let exact = load(&x, AllocKind::TreeTiling);
        let dead = FaultPlan::uniform(11, FaultKind::DeadBlock, 0.3);
        let faulty = faulty(&x, AllocKind::TreeTiling, dead);
        let mut degraded_seen = 0usize;
        for seed in 0..8 {
            let (indices, weights) = entries(&exact, 24, seed);
            let truth = dense(&x, &indices, &weights);
            let pool = SharedBlockCache::new(32);
            let got = faulty.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
            assert!(
                (got.estimate - truth).abs() <= got.error_bound + 1e-9,
                "seed {seed}: |{} − {truth}| > {}",
                got.estimate,
                got.error_bound
            );
            if got.degraded() {
                degraded_seen += 1;
                assert!(got.error_bound.is_finite() && got.error_bound > 0.0);
            }
        }
        assert!(degraded_seen > 0, "seed 11 at 30% dead should degrade something");
    }

    #[test]
    fn reopen_never_prices_an_unreadable_block_at_zero() {
        let x = coeffs(256);
        let plain = load(&x, AllocKind::TreeTiling);
        let blocks = plain.num_blocks();
        let mut device =
            FaultyDevice::with_plan(16, blocks, FaultPlan::uniform(11, FaultKind::DeadBlock, 0.3));
        for b in 0..blocks {
            device.write_block(b, &plain.device().read_block(b).unwrap());
        }
        assert!((0..blocks).any(|b| device.is_dead(b)));
        // The catalog comes from the image as written, so dead blocks
        // cannot stop the reopen, and every one of them keeps its energy
        // in the bound of a query that needs it.
        let catalog = plain.block_energies().to_vec();
        let reopened =
            CoefficientStore::reopen(device, AllocKind::TreeTiling, 256, catalog).unwrap();
        let mut priced = 0;
        for seed in 0..8 {
            let (indices, weights) = entries(&plain, 24, seed);
            let truth = dense(&x, &indices, &weights);
            let pool = SharedBlockCache::new(32);
            let got = reopened.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
            assert!((got.estimate - truth).abs() <= got.error_bound + 1e-9, "seed {seed}");
            priced += usize::from(got.degraded() && got.error_bound > 0.0);
        }
        assert!(priced > 0, "seed 11 at 30% dead should bound some loss");
    }

    #[test]
    fn reopen_reads_no_block_and_refuses_a_bad_catalog() {
        let plain = load(&coeffs(256), AllocKind::TreeTiling);
        let device = || {
            let mut d = MemDevice::new(16, plain.num_blocks());
            for b in 0..plain.num_blocks() {
                d.write_block(b, &plain.device().read_block(b).unwrap());
            }
            d.reset_stats();
            d
        };
        let catalog = plain.block_energies().to_vec();
        let store = CoefficientStore::reopen(device(), AllocKind::TreeTiling, 256, catalog.clone())
            .unwrap();
        assert_eq!(store.device_stats().reads, 0);
        assert_eq!(store.block_energies(), plain.block_energies());

        let short = catalog[1..].to_vec();
        let (mut nan, mut negative) = (catalog.clone(), catalog);
        nan[3] = f64::NAN;
        negative[5] = -1.0;
        for bad in [short, nan, negative] {
            let e =
                CoefficientStore::reopen(device(), AllocKind::TreeTiling, 256, bad).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        }
    }
}
