//! The blocked coefficient store.
//!
//! §3.2 in one module: a coefficient vector is placed on a block device
//! under a chosen allocation, and a linear query `Σ wᵢ·cᵢ` over it is
//! answered by fetching only the blocks its entries touch through a block
//! cache — with every block I/O accounted. [`CoefficientStore`] is the one
//! implementation of that: the coefficient → (block, offset) rule, the
//! per-block `Σ c²` energy catalog, load, reopen, and the evaluation
//! `plan → fetch → accumulate → bound`. [`WaveletStore`] is its 1-D Haar
//! front (signal in, point values and range sums out);
//! `aims_propolyne::BlockedCoefficients` is its ProPolyne front.
//!
//! The store is generic over the [`BlockDevice`] implementation, so the
//! same query code runs over the infallible [`MemDevice`], the
//! fault-injected `FaultyDevice` and the durable `FileDevice`. Transient
//! read failures are retried under a [`RetryPolicy`]; a block that stays
//! unreadable degrades the answer instead of failing it: its coefficients
//! count as zero and the [`BoundLedger`] keeps the block's gain
//! `sqrt(Σw² · Σc²)` (Cauchy–Schwarz against the load-time catalog) in the
//! answer's guaranteed error bound.
//!
//! # Fold order
//!
//! Entries are evaluated with one flat accumulator in *block-major* order:
//! ascending block id, ascending coefficient index inside a block. Under
//! [`AllocKind::Sequential`] that is plain ascending index order, so an
//! evaluation is bit-identical to a dense in-memory dot product over the
//! same ascending entries. Under any other allocation it is deterministic
//! (independent of cache state and fetch history) and exact to rounding.

use std::borrow::Cow;
use std::sync::Arc;

use aims_dsp::dwt::dwt_full;
use aims_dsp::filters::WaveletFilter;
use aims_telemetry::{counter, histogram_f64, span};

use crate::alloc::{Allocation, RandomAlloc, TreeTilingAlloc};
use crate::cache::SharedBlockCache;
use crate::device::{read_with_retry, BlockDevice, DeviceStats, MemDevice, ReadError, RetryPolicy};
use crate::error_tree::{point_query_set, range_query_set};
use crate::progressive::{BlockPlan, BoundLedger};

/// Which allocation strategy a store uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocKind {
    /// Flat-layout order.
    Sequential,
    /// Seeded random placement.
    Random(u64),
    /// Error-tree tiling (the paper's allocation).
    TreeTiling,
}

/// The coefficient → (block, offset) rule of one store.
#[derive(Debug)]
enum Layout {
    /// `i → (i / B, i % B)`: arithmetic, nothing resident.
    Sequential { block_size: usize },
    /// Any other allocation, materialised per coefficient.
    Table(Vec<(usize, usize)>),
}

impl Layout {
    /// The layout of `n` coefficients and the number of blocks it fills —
    /// pure functions of `(n, block_size, kind)`. Slots are assigned in
    /// ascending coefficient index within each block.
    fn new(n: usize, block_size: usize, kind: AllocKind) -> (Layout, usize) {
        let alloc: Box<dyn Allocation> = match kind {
            AllocKind::Sequential => {
                return (Layout::Sequential { block_size }, n.div_ceil(block_size))
            }
            AllocKind::Random(seed) => Box::new(RandomAlloc::new(n, block_size, seed)),
            AllocKind::TreeTiling => Box::new(TreeTilingAlloc::new(n, block_size)),
        };
        let mut fill = vec![0usize; alloc.num_blocks()];
        let table = (0..n)
            .map(|i| {
                let b = alloc.block_of(i);
                fill[b] += 1;
                (b, fill[b] - 1)
            })
            .collect();
        (Layout::Table(table), alloc.num_blocks())
    }

    /// Where coefficient `i` lives.
    fn locate(&self, i: usize) -> (usize, usize) {
        match self {
            Layout::Sequential { block_size } => (i / block_size, i % block_size),
            Layout::Table(table) => table[i],
        }
    }

    /// Offset of coefficient `i` inside `block`; `None` when it lives in
    /// another block. Division-free: this is the fold's inner loop.
    #[inline]
    fn offset_in(&self, i: usize, block: usize) -> Option<usize> {
        match self {
            Layout::Sequential { block_size } => {
                i.checked_sub(block * block_size).filter(|off| off < block_size)
            }
            Layout::Table(table) => {
                let (b, off) = table[i];
                (b == block).then_some(off)
            }
        }
    }

    /// The coefficients in device order: block `b` is
    /// `image[b·B .. (b+1)·B]`, the last block possibly short.
    fn image<'a>(&self, coeffs: &'a [f64], block_size: usize, blocks: usize) -> Cow<'a, [f64]> {
        match self {
            Layout::Sequential { .. } => Cow::Borrowed(coeffs),
            Layout::Table(table) => {
                let mut image = vec![0.0; blocks * block_size];
                for (&c, &(b, off)) in coeffs.iter().zip(table) {
                    image[b * block_size + off] = c;
                }
                Cow::Owned(image)
            }
        }
    }
}

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

/// A coefficient vector on a block device under one allocation, with a
/// load-time per-block energy catalog for degraded error bounds.
#[derive(Debug)]
pub struct CoefficientStore<D: BlockDevice = MemDevice> {
    device: D,
    layout: Layout,
    /// Per-block `Σ c²` over the coefficients stored in the block,
    /// captured at load time (catalog metadata, available even when the
    /// block itself is unreadable).
    block_energy: Vec<f64>,
    n: usize,
}

impl<D: BlockDevice> CoefficientStore<D> {
    /// Writes `coeffs` under allocation `kind` to a device built by
    /// `make(block_size, num_blocks)` — the hook for fault-injected and
    /// durable devices — one `write_block` per block, the last one
    /// zero-padded.
    ///
    /// # Panics
    /// If `coeffs` is empty, `block_size` is zero or invalid for `kind`,
    /// or the device `make` returns has the wrong geometry.
    pub fn load(
        coeffs: &[f64],
        block_size: usize,
        kind: AllocKind,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(!coeffs.is_empty(), "cannot store an empty coefficient vector");
        let (layout, num_blocks) = Layout::new(coeffs.len(), block_size, kind);
        let mut device = make(block_size, num_blocks);
        assert!(device.block_size() == block_size, "device block size mismatch");
        assert!(device.num_blocks() >= num_blocks, "device too small for allocation");
        let image = layout.image(coeffs, block_size, num_blocks);
        let mut block_energy = Vec::with_capacity(num_blocks);
        let mut staged = vec![0.0; block_size];
        for (b, data) in image.chunks(block_size).enumerate() {
            staged[..data.len()].copy_from_slice(data);
            staged[data.len()..].fill(0.0);
            block_energy.push(staged.iter().map(|c| c * c).sum());
            device.write_block(b, &staged);
        }
        device.reset_stats();
        CoefficientStore { device, layout, block_energy, n: coeffs.len() }
    }

    /// Rebuilds a store over an already-populated device — the reopen
    /// path for a recovered [`crate::file::FileDevice`]. The layout is a
    /// pure function of `(n, block_size, kind)`, so it reconstructs
    /// exactly; the per-block energy catalog is re-read from the device in
    /// one pass of verified reads, retried under `RetryPolicy::default()`.
    /// A block that stays unreadable fails the reopen: its energy is
    /// unknown, and pricing it at zero would let later queries report a
    /// zero bound over missing coefficients.
    ///
    /// # Panics
    /// If `n` is zero or the device is too small for the allocation.
    pub fn reopen(device: D, kind: AllocKind, n: usize) -> Result<Self, ReadError> {
        assert!(n > 0, "cannot reopen an empty coefficient vector");
        let (layout, num_blocks) = Layout::new(n, device.block_size(), kind);
        assert!(device.num_blocks() >= num_blocks, "device too small for allocation");
        let block_energy = (0..num_blocks)
            .map(|b| {
                let (data, _) = read_with_retry(&device, b, &RetryPolicy::default())?;
                Ok(data.iter().map(|c| c * c).sum())
            })
            .collect::<Result<_, ReadError>>()?;
        device.reset_stats();
        Ok(CoefficientStore { device, layout, block_energy, n })
    }

    /// Coefficient count (unpadded).
    pub fn len(&self) -> usize {
        self.n
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

    /// Sorts coefficient indices into this store's fold order:
    /// block-major (plain ascending under [`AllocKind::Sequential`]).
    pub fn sort_block_major(&self, indices: &mut [usize]) {
        indices.sort_unstable_by_key(|&i| (self.layout.locate(i).0, i));
    }

    /// The blocks a query with block-major entries `(indices[k],
    /// weights[k])` needs, ascending — the fold order of every evaluation
    /// over this store, and exactly the device reads a cold-cache
    /// evaluation costs — each priced at `sqrt(Σw² · Σc²)` from the
    /// entries it holds and the energy catalog. Every entry is planned,
    /// zero weights included. No device I/O.
    ///
    /// # Panics
    /// If an index is out of range or the entries are not block-major.
    pub fn plan(&self, indices: &[usize], weights: &[f64]) -> BlockPlan {
        let mut pairs: Vec<(usize, f64)> = Vec::new();
        for (&i, &w) in indices.iter().zip(weights) {
            assert!(i < self.n, "coefficient {i} out of range");
            match pairs.last_mut() {
                Some((b, wsq)) if self.layout.offset_in(i, *b).is_some() => *wsq += w * w,
                _ => {
                    let (b, _) = self.layout.locate(i);
                    assert!(pairs.last().is_none_or(|l| l.0 < b), "entries are not block-major");
                    pairs.push((b, w * w));
                }
            }
        }
        if !pairs.is_empty() {
            // The paper's success metric (§3.2.1): needed items per
            // retrieved block, which tiling pushes toward 1 + lg B.
            histogram_f64!("storage.alloc.needed_items_per_block")
                .record_f64(indices.len() as f64 / pairs.len() as f64);
        }
        let mut plan = BlockPlan::default();
        plan.extend(pairs, |b| self.block_energy[b]);
        plan
    }

    /// Folds plan block `block` into a running evaluation: every entry
    /// from `*cursor` on that lives in the block is consumed — added to
    /// `*sum` as `w · data[offset]`, or skipped (contributing zero) when
    /// the block was lost and `data` is `None`. Returns the number of
    /// entries consumed. Called once per plan block in plan order, this is
    /// one flat accumulator over the entries in the order given.
    pub fn accumulate(
        &self,
        indices: &[usize],
        weights: &[f64],
        block: usize,
        data: Option<&[f64]>,
        cursor: &mut usize,
        sum: &mut f64,
    ) -> usize {
        let start = *cursor;
        while let Some(&i) = indices.get(*cursor) {
            let Some(off) = self.layout.offset_in(i, block) else { break };
            if let Some(data) = data {
                *sum += weights[*cursor] * data[off];
            }
            *cursor += 1;
        }
        *cursor - start
    }

    /// Evaluates `Σ weights[k] · c[indices[k]]` over block-major entries
    /// against the device: [`plan`], fetch each plan block once through
    /// `pool` (retrying transient faults under `policy`), [`accumulate`]
    /// it or charge it to the [`BoundLedger`]. Each block that stays
    /// unreadable increments `storage.degraded` and leaves its gain in
    /// the answer's bound.
    ///
    /// [`plan`]: CoefficientStore::plan
    /// [`accumulate`]: CoefficientStore::accumulate
    pub fn evaluate(
        &self,
        indices: &[usize],
        weights: &[f64],
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> DegradedAnswer {
        counter!("storage.store.coefficients_fetched").add(indices.len() as u64);
        let mut ledger = BoundLedger::in_fold_order(Arc::new(self.plan(indices, weights)));
        let (mut cursor, mut estimate, mut missing) = (0usize, 0.0, 0usize);
        while let Some(k) = ledger.peek() {
            let b = ledger.plan().blocks[k];
            match pool.get_or_read_outcome(&self.device, b, policy) {
                Ok((data, _)) => {
                    self.accumulate(indices, weights, b, Some(&data), &mut cursor, &mut estimate);
                    ledger.deliver();
                }
                Err(_) => {
                    counter!("storage.degraded").inc();
                    missing +=
                        self.accumulate(indices, weights, b, None, &mut cursor, &mut estimate);
                    ledger.lose();
                }
            }
        }
        DegradedAnswer {
            estimate,
            error_bound: ledger.bound(),
            lost_blocks: ledger.lost_blocks().to_vec(),
            missing_coefficients: missing,
        }
    }
}

/// A Haar-wavelet signal store: the 1-D front of [`CoefficientStore`]
/// (which it dereferences to). A query is an ancestor-closed error-tree
/// access set weighted by the Haar basis.
#[derive(Debug)]
pub struct WaveletStore<D: BlockDevice = MemDevice> {
    store: CoefficientStore<D>,
}

impl<D: BlockDevice> std::ops::Deref for WaveletStore<D> {
    type Target = CoefficientStore<D>;
    fn deref(&self) -> &CoefficientStore<D> {
        &self.store
    }
}

impl<D: BlockDevice> std::ops::DerefMut for WaveletStore<D> {
    fn deref_mut(&mut self) -> &mut CoefficientStore<D> {
        &mut self.store
    }
}

impl WaveletStore<MemDevice> {
    /// Transforms `signal` (power-of-two length) with the Haar filter and
    /// writes the coefficients to a fresh in-memory device under the
    /// chosen allocation and block size.
    ///
    /// # Panics
    /// If the signal length or block size is not a power of two, or the
    /// block size exceeds the signal length.
    pub fn from_signal(signal: &[f64], block_size: usize, kind: AllocKind) -> Self {
        WaveletStore::from_signal_on(signal, block_size, kind, MemDevice::new)
    }
}

impl<D: BlockDevice> WaveletStore<D> {
    /// Like [`WaveletStore::from_signal`], but the backing device is built
    /// by `make(block_size, num_blocks)` — the hook the fault-injection
    /// tests use to load a store onto a `FaultyDevice`.
    pub fn from_signal_on(
        signal: &[f64],
        block_size: usize,
        kind: AllocKind,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        let n = signal.len();
        assert!(n.is_power_of_two() && n >= 2, "signal length must be a power of two ≥ 2");
        let coeffs = dwt_full(signal, &WaveletFilter::haar());
        WaveletStore { store: CoefficientStore::load(&coeffs, block_size, kind, make) }
    }

    /// Rebuilds a store of `n` samples over an already-populated device
    /// ([`CoefficientStore::reopen`]).
    ///
    /// # Panics
    /// If `n` is not a power of two ≥ 2 or the device is too small for
    /// the allocation.
    pub fn reopen(device: D, kind: AllocKind, n: usize) -> Result<Self, ReadError> {
        assert!(n.is_power_of_two() && n >= 2, "signal length must be a power of two ≥ 2");
        Ok(WaveletStore { store: CoefficientStore::reopen(device, kind, n)? })
    }

    /// A query's access set as block-major `(indices, weights)` entries.
    fn entries(
        &self,
        mut set: Vec<usize>,
        weight: impl Fn(usize) -> f64,
    ) -> (Vec<usize>, Vec<f64>) {
        self.store.sort_block_major(&mut set);
        let weights = set.iter().map(|&i| weight(i)).collect();
        (set, weights)
    }

    /// The entries of the point query at `t`: its error-tree path, each
    /// node weighted by its Haar basis value at `t`.
    pub fn point_entries(&self, t: usize) -> (Vec<usize>, Vec<f64>) {
        let n = self.len();
        self.entries(point_query_set(t, n), |i| haar_basis_value(i, t, n))
    }

    /// The entries of the range sum over `[a, b]`: the two boundary
    /// paths, each node weighted by its Haar basis summed over the range.
    pub fn range_entries(&self, a: usize, b: usize) -> (Vec<usize>, Vec<f64>) {
        let n = self.len();
        self.entries(range_query_set(a, b, n), |i| haar_basis_range_sum(i, a, b, n))
    }

    /// Reconstructs the data value at position `t`, reading only its
    /// error-tree path.
    ///
    /// # Panics
    /// If a block read fails — use [`WaveletStore::point_value_outcome`]
    /// on devices that can fault.
    pub fn point_value(&self, t: usize, pool: &SharedBlockCache) -> f64 {
        let outcome = self.point_value_outcome(t, pool, &RetryPolicy::none());
        assert!(!outcome.degraded(), "block read failed (use point_value_outcome)");
        outcome.estimate
    }

    /// Range sum `Σ_{t=a}^{b} x[t]`, reading only the two boundary paths.
    ///
    /// # Panics
    /// If a block read fails — use [`WaveletStore::range_sum_outcome`] on
    /// devices that can fault.
    pub fn range_sum(&self, a: usize, b: usize, pool: &SharedBlockCache) -> f64 {
        let outcome = self.range_sum_outcome(a, b, pool, &RetryPolicy::none());
        assert!(!outcome.degraded(), "block read failed (use range_sum_outcome)");
        outcome.estimate
    }

    /// Fault-tolerant point query: retries under `policy`, degrades to a
    /// partial answer with a guaranteed error bound when blocks are lost.
    pub fn point_value_outcome(
        &self,
        t: usize,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> DegradedAnswer {
        let _span = span!("storage.store.point_value");
        counter!("storage.store.point_queries").inc();
        let (indices, weights) = self.point_entries(t);
        self.store.evaluate(&indices, &weights, pool, policy)
    }

    /// Fault-tolerant range sum: retries under `policy`, degrades to a
    /// partial answer with a guaranteed error bound when blocks are lost.
    pub fn range_sum_outcome(
        &self,
        a: usize,
        b: usize,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> DegradedAnswer {
        let _span = span!("storage.store.range_sum");
        counter!("storage.store.range_queries").inc();
        let (indices, weights) = self.range_entries(a, b);
        self.store.evaluate(&indices, &weights, pool, policy)
    }

    /// Full reconstruction: every point value in turn.
    pub fn reconstruct_all(&self, pool: &SharedBlockCache) -> Vec<f64> {
        (0..self.len()).map(|t| self.point_value(t, pool)).collect()
    }
}

/// Value of the `i`-th Haar basis function (flat layout) at position `t`.
pub(crate) fn haar_basis_value(i: usize, t: usize, n: usize) -> f64 {
    if i == 0 {
        return 1.0 / (n as f64).sqrt();
    }
    let level = (usize::BITS - 1 - i.leading_zeros()) as usize + 1;
    let width = n >> (level - 1);
    let k = i - (1 << (level - 1));
    let start = k * width;
    if t < start || t >= start + width {
        return 0.0;
    }
    let sign = if t < start + width / 2 { 1.0 } else { -1.0 };
    sign / (width as f64).sqrt()
}

/// `Σ_{t=a}^{b}` of the `i`-th Haar basis function.
pub(crate) fn haar_basis_range_sum(i: usize, a: usize, b: usize, n: usize) -> f64 {
    if i == 0 {
        return (b - a + 1) as f64 / (n as f64).sqrt();
    }
    let level = (usize::BITS - 1 - i.leading_zeros()) as usize + 1;
    let width = n >> (level - 1);
    let k = i - (1 << (level - 1));
    let start = k * width;
    let mid = start + width / 2;
    let end = start + width;
    let overlap = |lo: usize, hi: usize| -> f64 {
        // |[a,b] ∩ [lo,hi)|
        let l = a.max(lo);
        let r = (b + 1).min(hi);
        if r > l {
            (r - l) as f64
        } else {
            0.0
        }
    };
    (overlap(start, mid) - overlap(mid, end)) / (width as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ReadErrorKind;
    use crate::faults::{FaultKind, FaultPlan, FaultyDevice};

    fn signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect()
    }

    #[test]
    fn point_values_match_signal() {
        let x = signal(64);
        for kind in [AllocKind::Sequential, AllocKind::Random(1), AllocKind::TreeTiling] {
            let store = WaveletStore::from_signal(&x, 8, kind);
            let pool = SharedBlockCache::new(4);
            for t in [0usize, 13, 31, 63] {
                let v = store.point_value(t, &pool);
                assert!((v - x[t]).abs() < 1e-9, "{kind:?} t={t}: {v} vs {}", x[t]);
            }
        }
    }

    #[test]
    fn range_sums_match_scan() {
        let x = signal(128);
        let store = WaveletStore::from_signal(&x, 16, AllocKind::TreeTiling);
        let pool = SharedBlockCache::new(8);
        for (a, b) in [(0usize, 127usize), (5, 9), (30, 100), (64, 64)] {
            let got = store.range_sum(a, b, &pool);
            let expect: f64 = x[a..=b].iter().sum();
            assert!((got - expect).abs() < 1e-8, "[{a},{b}]: {got} vs {expect}");
        }
    }

    #[test]
    fn tiling_reads_fewer_blocks_for_point_queries() {
        let x = signal(1 << 12);
        let seq = WaveletStore::from_signal(&x, 16, AllocKind::Sequential);
        let til = WaveletStore::from_signal(&x, 16, AllocKind::TreeTiling);
        // Cold cache per query: pool of 1 block and cleared stats.
        let count_reads = |store: &WaveletStore| -> u64 {
            store.reset_stats();
            for t in (0..4096).step_by(97) {
                let pool = SharedBlockCache::new(1);
                store.point_value(t, &pool);
            }
            store.device_stats().reads
        };
        let r_seq = count_reads(&seq);
        let r_til = count_reads(&til);
        assert!(r_til < r_seq, "tiling {r_til} !< sequential {r_seq}");
    }

    #[test]
    fn reconstruct_all_roundtrips() {
        let x = signal(256);
        let store = WaveletStore::from_signal(&x, 32, AllocKind::Random(7));
        let pool = SharedBlockCache::new(16);
        let y = store.reconstruct_all(&pool);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn load_phase_not_counted() {
        let store = WaveletStore::from_signal(&signal(64), 8, AllocKind::TreeTiling);
        assert_eq!(store.device_stats(), DeviceStats::default());
    }

    #[test]
    fn cache_saves_repeat_reads() {
        let store = WaveletStore::from_signal(&signal(256), 16, AllocKind::TreeTiling);
        let pool = SharedBlockCache::with_shards(32, 1);
        store.point_value(100, &pool);
        let after_first = store.device_stats().reads;
        store.point_value(101, &pool); // same neighborhood — mostly cached
        let after_second = store.device_stats().reads;
        assert!(after_second - after_first <= 1, "second query re-read too much");
    }

    #[test]
    fn haar_basis_value_orthonormality_spotcheck() {
        let n = 16;
        // Reconstructing from basis values must match idwt: x[t] = Σ c_i φ_i(t).
        let x = signal(n);
        let coeffs = dwt_full(&x, &WaveletFilter::haar());
        for (t, &xt) in x.iter().enumerate() {
            let v: f64 = (0..n).map(|i| coeffs[i] * haar_basis_value(i, t, n)).sum();
            assert!((v - xt).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn haar_range_sum_consistent_with_values() {
        let n = 32;
        for i in [0usize, 1, 3, 9, 17] {
            for (a, b) in [(0usize, 31usize), (4, 20), (7, 7)] {
                let direct: f64 = (a..=b).map(|t| haar_basis_value(i, t, n)).sum();
                let fast = haar_basis_range_sum(i, a, b, n);
                assert!((direct - fast).abs() < 1e-10, "i={i} [{a},{b}]");
            }
        }
    }

    #[test]
    fn outcome_paths_match_plain_paths_bit_for_bit_when_clean() {
        let x = signal(128);
        let plain = WaveletStore::from_signal(&x, 16, AllocKind::TreeTiling);
        let faulty = WaveletStore::from_signal_on(&x, 16, AllocKind::TreeTiling, |bs, nb| {
            FaultyDevice::with_plan(bs, nb, FaultPlan::none(99))
        });
        let policy = RetryPolicy::default();
        for t in [0usize, 17, 77, 127] {
            let p1 = SharedBlockCache::new(8);
            let p2 = SharedBlockCache::new(8);
            let a = plain.point_value(t, &p1);
            let b = faulty.point_value_outcome(t, &p2, &policy);
            assert_eq!(a.to_bits(), b.estimate.to_bits(), "t={t}");
            assert_eq!(b.error_bound, 0.0);
            assert!(!b.degraded());
        }
        for (a0, b0) in [(0usize, 127usize), (5, 9), (30, 100)] {
            let p1 = SharedBlockCache::new(8);
            let p2 = SharedBlockCache::new(8);
            let a = plain.range_sum(a0, b0, &p1);
            let b = faulty.range_sum_outcome(a0, b0, &p2, &policy);
            assert_eq!(a.to_bits(), b.estimate.to_bits(), "[{a0},{b0}]");
        }
    }

    #[test]
    fn degraded_answers_honor_their_error_bound() {
        let x = signal(256);
        let exact = WaveletStore::from_signal(&x, 16, AllocKind::TreeTiling);
        let faulty = WaveletStore::from_signal_on(&x, 16, AllocKind::TreeTiling, |bs, nb| {
            FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(11, FaultKind::DeadBlock, 0.3))
        });
        let mut degraded_seen = 0usize;
        for (a, b) in [(0usize, 255usize), (10, 200), (32, 95), (100, 101)] {
            let p1 = SharedBlockCache::new(32);
            let p2 = SharedBlockCache::new(32);
            let truth = exact.range_sum(a, b, &p1);
            let got = faulty.range_sum_outcome(a, b, &p2, &RetryPolicy::none());
            assert!(
                (got.estimate - truth).abs() <= got.error_bound + 1e-9,
                "[{a},{b}]: |{} − {truth}| > {}",
                got.estimate,
                got.error_bound
            );
            if got.degraded() {
                degraded_seen += 1;
                // The bound can legitimately be 0.0 when every missing
                // coefficient has zero basis weight over this range.
                assert!(got.error_bound.is_finite() && got.error_bound >= 0.0);
            }
        }
        assert!(degraded_seen > 0, "seed 11 at 30% dead should degrade something");
    }

    #[test]
    fn reopen_never_prices_an_unreadable_block_at_zero() {
        let x = signal(256);
        let plain = WaveletStore::from_signal(&x, 16, AllocKind::TreeTiling);
        let blocks = plain.num_blocks();
        let mut device =
            FaultyDevice::with_plan(16, blocks, FaultPlan::uniform(11, FaultKind::DeadBlock, 0.3));
        for b in 0..blocks {
            device.write_block(b, &plain.device().read_block(b).unwrap());
        }
        assert!((0..blocks).any(|b| device.is_dead(b)));
        // Refusing to open is the contract; a store that does open must
        // still bound what its dead blocks hide.
        match WaveletStore::reopen(device, AllocKind::TreeTiling, 256) {
            Err(e) => assert_eq!(e.kind, ReadErrorKind::Dead),
            Ok(reopened) => {
                let truth = plain.range_sum(0, 255, &SharedBlockCache::new(32));
                let pool = SharedBlockCache::new(32);
                let got = reopened.range_sum_outcome(0, 255, &pool, &RetryPolicy::none());
                assert!((got.estimate - truth).abs() <= got.error_bound + 1e-9);
            }
        }
    }
}
