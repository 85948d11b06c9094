//! The integrated wavelet block store.
//!
//! Ties the pieces of §3.2 together: a signal is transformed (Haar full
//! DWT), its coefficients are placed on a block device under a chosen
//! allocation, and point/range queries are answered by fetching only the
//! ancestor-closed access sets through a block cache — with every block
//! I/O accounted.
//!
//! The store is generic over the [`BlockDevice`] implementation, so the
//! same query code runs over the infallible [`MemDevice`] and the
//! fault-injected `FaultyDevice`. On a faulty device, the `*_outcome`
//! query paths retry transient failures under a [`RetryPolicy`] and
//! degrade gracefully when blocks are permanently lost: missing
//! coefficients are treated as zero, and the answer carries a widened
//! error bound derived from the per-block coefficient energy
//! (Cauchy–Schwarz: `|Σ_{i lost} c_i φ_i| ≤ sqrt(Σ φ_i²)·sqrt(Σ c_i²)`).

use aims_dsp::dwt::{dwt_full, idwt_full};
use aims_dsp::filters::WaveletFilter;
use aims_telemetry::{global, span};

use crate::alloc::{Allocation, RandomAlloc, SequentialAlloc, TreeTilingAlloc};
use crate::cache::SharedBlockCache;
use crate::device::{read_with_retry, BlockDevice, DeviceStats, MemDevice, ReadError, RetryPolicy};
use crate::error_tree::{point_query_set, range_query_set};

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

#[derive(Debug)]
enum AnyAlloc {
    Sequential(SequentialAlloc),
    Random(RandomAlloc),
    Tiling(TreeTilingAlloc),
}

impl AnyAlloc {
    /// The allocation of `n` coefficients and its coefficient → (block,
    /// offset) map — pure functions of `(n, block_size, kind)`. Stable
    /// slot assignment: ascending coefficient index within each block.
    fn layout(n: usize, block_size: usize, kind: AllocKind) -> (AnyAlloc, Vec<(usize, usize)>) {
        assert!(n.is_power_of_two() && n >= 2, "signal length must be a power of two ≥ 2");
        let alloc = match kind {
            AllocKind::Sequential => AnyAlloc::Sequential(SequentialAlloc::new(n, block_size)),
            AllocKind::Random(seed) => AnyAlloc::Random(RandomAlloc::new(n, block_size, seed)),
            AllocKind::TreeTiling => AnyAlloc::Tiling(TreeTilingAlloc::new(n, block_size)),
        };
        let mut fill = vec![0usize; alloc.as_dyn().num_blocks()];
        let locations = (0..n)
            .map(|i| {
                let b = alloc.as_dyn().block_of(i);
                fill[b] += 1;
                (b, fill[b] - 1)
            })
            .collect();
        (alloc, locations)
    }

    fn as_dyn(&self) -> &dyn Allocation {
        match self {
            AnyAlloc::Sequential(a) => a,
            AnyAlloc::Random(a) => a,
            AnyAlloc::Tiling(a) => a,
        }
    }
}

/// Result of a degraded-capable coefficient fetch.
#[derive(Clone, Debug)]
pub struct FetchOutcome {
    /// Values aligned with the requested set; lost coefficients are `0.0`.
    pub values: Vec<f64>,
    /// Positions (indices into the requested set) whose block was lost.
    pub missing: Vec<usize>,
    /// Distinct block ids that stayed unreadable after retries.
    pub lost_blocks: Vec<usize>,
}

impl FetchOutcome {
    /// Whether every requested coefficient was retrieved.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// A query answer that survived storage faults, possibly degraded.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The (possibly partial) answer.
    pub value: f64,
    /// Guaranteed bound on `|value − exact|` from the lost blocks'
    /// coefficient energy; `0.0` when nothing was lost.
    pub error_bound: f64,
    /// Blocks that stayed unreadable after retries.
    pub lost_blocks: Vec<usize>,
}

impl QueryOutcome {
    /// Whether any block was lost.
    pub fn degraded(&self) -> bool {
        !self.lost_blocks.is_empty()
    }
}

/// A Haar-wavelet signal store over a block device.
#[derive(Debug)]
pub struct WaveletStore<D: BlockDevice = MemDevice> {
    device: D,
    alloc: AnyAlloc,
    /// coefficient → (block, offset) location.
    locations: Vec<(usize, usize)>,
    /// Per-block `Σ c²` over the coefficients stored in the block,
    /// captured at load time (catalog metadata, available even when the
    /// block itself is unreadable).
    block_energy: Vec<f64>,
    n: usize,
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
        let (alloc, locations) = AnyAlloc::layout(n, block_size, kind);
        let coeffs = dwt_full(signal, &WaveletFilter::haar());
        let adyn = alloc.as_dyn();

        let mut device = make(block_size, adyn.num_blocks());
        assert!(device.block_size() == block_size, "device block size mismatch");
        assert!(device.num_blocks() >= adyn.num_blocks(), "device too small for allocation");
        let mut staged = vec![vec![0.0; block_size]; adyn.num_blocks()];
        for (i, &c) in coeffs.iter().enumerate() {
            let (b, off) = locations[i];
            staged[b][off] = c;
        }
        let block_energy: Vec<f64> =
            staged.iter().map(|data| data.iter().map(|c| c * c).sum()).collect();
        for (b, data) in staged.iter().enumerate() {
            device.write_block(b, data);
        }
        device.reset_stats();

        WaveletStore { device, alloc, locations, block_energy, n }
    }

    /// Rebuilds a store over an already-populated device — the reopen
    /// path for a recovered [`crate::file::FileDevice`]. The allocation
    /// and coefficient→slot map are pure functions of
    /// `(n, block_size, kind)`, so they reconstruct exactly; the
    /// per-block energy catalog is re-read from the device with verified,
    /// retried reads. A block that stays unreadable fails the reopen: its
    /// energy is unknown, and pricing it at zero would let later queries
    /// report a zero bound over missing coefficients.
    ///
    /// # Panics
    /// If `n` is not a power of two ≥ 2 or the device is too small for
    /// the allocation.
    pub fn reopen(device: D, kind: AllocKind, n: usize) -> Result<Self, ReadError> {
        let (alloc, locations) = AnyAlloc::layout(n, device.block_size(), kind);
        let num_blocks = alloc.as_dyn().num_blocks();
        assert!(device.num_blocks() >= num_blocks, "device too small for allocation");
        let block_energy = block_energies(&device, num_blocks)?;
        device.reset_stats();
        Ok(WaveletStore { device, alloc, locations, block_energy, n })
    }

    /// Signal length / coefficient count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Stores are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Block size of the underlying device.
    pub fn block_size(&self) -> usize {
        self.device.block_size()
    }

    /// The allocation in use.
    pub fn allocation(&self) -> &dyn Allocation {
        self.alloc.as_dyn()
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

    /// `Σ c²` of the coefficients stored in `block` (load-time catalog
    /// metadata; available even when the block is unreadable).
    pub fn block_energy(&self, block: usize) -> f64 {
        self.block_energy[block]
    }

    /// The whole block-energy catalog, indexed by block id — the
    /// per-block `Σ c²` table the adaptive QoS scheduler ranks round
    /// budgets with (no device I/O: catalog metadata only).
    pub fn block_energies(&self) -> &[f64] {
        &self.block_energy
    }

    /// Device I/O counters.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }

    /// Resets device I/O counters.
    pub fn reset_stats(&self) {
        self.device.reset_stats();
    }

    /// Distinct blocks (sorted) holding the listed coefficients.
    pub fn blocks_for(&self, set: &[usize]) -> Vec<usize> {
        let mut blocks: Vec<usize> = set
            .iter()
            .map(|&i| {
                assert!(i < self.n, "coefficient {i} out of range");
                self.locations[i].0
            })
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Fetches the listed coefficients through the cache, returning values
    /// aligned with `set`.
    ///
    /// # Panics
    /// If any block read fails — use [`WaveletStore::fetch_degraded`] on
    /// devices that can fault.
    pub fn fetch(&self, set: &[usize], pool: &SharedBlockCache) -> Vec<f64> {
        let outcome = self.fetch_degraded(set, pool, &RetryPolicy::none());
        assert!(outcome.is_complete(), "block read failed (use fetch_degraded)");
        outcome.values
    }

    /// Fetches the listed coefficients, retrying transient failures under
    /// `policy` and degrading when a block stays unreadable: its
    /// coefficients come back as `0.0` and are listed in `missing`.
    ///
    /// Each permanently lost block increments `storage.degraded`.
    pub fn fetch_degraded(
        &self,
        set: &[usize],
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> FetchOutcome {
        let mut lost_blocks: Vec<usize> = Vec::new();
        let mut missing: Vec<usize> = Vec::new();
        let mut blocks: Vec<usize> = Vec::with_capacity(set.len());
        let mut values = Vec::with_capacity(set.len());
        for (pos, &i) in set.iter().enumerate() {
            assert!(i < self.n, "coefficient {i} out of range");
            let (b, off) = self.locations[i];
            blocks.push(b);
            if lost_blocks.contains(&b) {
                // Already failed this fetch — don't burn the budget again.
                missing.push(pos);
                values.push(0.0);
                continue;
            }
            match pool.get_or_read_outcome(&self.device, b, policy) {
                Ok((data, _)) => values.push(data[off]),
                Err(_) => {
                    global().counter("storage.degraded").inc();
                    lost_blocks.push(b);
                    missing.push(pos);
                    values.push(0.0);
                }
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        record_fetch(set.len(), blocks.len());
        lost_blocks.sort_unstable();
        FetchOutcome { values, missing, lost_blocks }
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
        outcome.value
    }

    /// Range sum `Σ_{t=a}^{b} x[t]`, reading only the two boundary paths.
    ///
    /// # Panics
    /// If a block read fails — use [`WaveletStore::range_sum_outcome`] on
    /// devices that can fault.
    pub fn range_sum(&self, a: usize, b: usize, pool: &SharedBlockCache) -> f64 {
        let outcome = self.range_sum_outcome(a, b, pool, &RetryPolicy::none());
        assert!(!outcome.degraded(), "block read failed (use range_sum_outcome)");
        outcome.value
    }

    /// Fault-tolerant point query: retries under `policy`, degrades to a
    /// partial answer with a guaranteed error bound when blocks are lost.
    pub fn point_value_outcome(
        &self,
        t: usize,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> QueryOutcome {
        let _span = span!("storage.store.point_value");
        global().counter("storage.store.point_queries").inc();
        let set = point_query_set(t, self.n);
        self.answer(&set, pool, policy, |i| haar_basis_value(i, t, self.n))
    }

    /// Fault-tolerant range sum: retries under `policy`, degrades to a
    /// partial answer with a guaranteed error bound when blocks are lost.
    pub fn range_sum_outcome(
        &self,
        a: usize,
        b: usize,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> QueryOutcome {
        let _span = span!("storage.store.range_sum");
        global().counter("storage.store.range_queries").inc();
        let set = range_query_set(a, b, self.n);
        self.answer(&set, pool, policy, |i| haar_basis_range_sum(i, a, b, self.n))
    }

    /// `Σ_{i ∈ set} c_i · weight(i)`, accumulated in `set` order, from
    /// whatever the device delivers.
    fn answer(
        &self,
        set: &[usize],
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
        weight: impl Fn(usize) -> f64,
    ) -> QueryOutcome {
        let outcome = self.fetch_degraded(set, pool, policy);
        let mut value = 0.0;
        for (&i, &c) in set.iter().zip(&outcome.values) {
            value += c * weight(i);
        }
        let error_bound = self.lost_bound(set, &outcome, weight);
        QueryOutcome { value, error_bound, lost_blocks: outcome.lost_blocks }
    }

    /// Cauchy–Schwarz bound on the contribution of the lost coefficients:
    /// `sqrt(Σ_{i missing} φ_i²) · sqrt(Σ_{b lost} block_energy[b])`.
    ///
    /// The basis weights of the missing set are known exactly; the lost
    /// coefficients are bounded by the load-time per-block energy catalog
    /// (an over-estimate, since a lost block may also hold coefficients
    /// outside the access set).
    fn lost_bound(
        &self,
        set: &[usize],
        outcome: &FetchOutcome,
        weight: impl Fn(usize) -> f64,
    ) -> f64 {
        if outcome.missing.is_empty() {
            return 0.0;
        }
        let w2: f64 = outcome
            .missing
            .iter()
            .map(|&pos| {
                let w = weight(set[pos]);
                w * w
            })
            .sum();
        let e2: f64 = outcome.lost_blocks.iter().map(|&b| self.block_energy[b]).sum();
        (w2 * e2).sqrt()
    }

    /// Full reconstruction (reads every block).
    pub fn reconstruct_all(&self, pool: &SharedBlockCache) -> Vec<f64> {
        let set: Vec<usize> = (0..self.n).collect();
        let coeffs = self.fetch(&set, pool);
        idwt_full(&coeffs, &WaveletFilter::haar())
    }
}

/// Rebuilds a per-block `Σ c²` catalog from an already-populated device:
/// verified reads under the default retry policy, and a typed error — not
/// a zero — for a block that stays unreadable.
pub fn block_energies<D: BlockDevice + ?Sized>(
    device: &D,
    num_blocks: usize,
) -> Result<Vec<f64>, ReadError> {
    (0..num_blocks)
        .map(|b| {
            let (data, _) = read_with_retry(device, b, &RetryPolicy::default())?;
            Ok(data.iter().map(|c| c * c).sum())
        })
        .collect()
}

/// Records the fetch-shape telemetry.
fn record_fetch(set_len: usize, distinct_blocks: usize) {
    if distinct_blocks == 0 {
        return;
    }
    let telemetry = global();
    telemetry.counter("storage.store.coefficients_fetched").add(set_len as u64);
    // The paper's success metric (§3.2.1): needed items per retrieved
    // block, which tiling pushes toward 1 + lg B.
    telemetry
        .histogram_f64("storage.alloc.needed_items_per_block")
        .record_f64(set_len as f64 / distinct_blocks as f64);
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
            assert_eq!(a.to_bits(), b.value.to_bits(), "t={t}");
            assert_eq!(b.error_bound, 0.0);
            assert!(!b.degraded());
        }
        for (a0, b0) in [(0usize, 127usize), (5, 9), (30, 100)] {
            let p1 = SharedBlockCache::new(8);
            let p2 = SharedBlockCache::new(8);
            let a = plain.range_sum(a0, b0, &p1);
            let b = faulty.range_sum_outcome(a0, b0, &p2, &policy);
            assert_eq!(a.to_bits(), b.value.to_bits(), "[{a0},{b0}]");
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
                (got.value - truth).abs() <= got.error_bound + 1e-9,
                "[{a},{b}]: |{} − {truth}| > {}",
                got.value,
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
    fn blocks_for_matches_fetch_shape() {
        let x = signal(64);
        let store = WaveletStore::from_signal(&x, 8, AllocKind::TreeTiling);
        let set = point_query_set(13, 64);
        let blocks = store.blocks_for(&set);
        assert!(!blocks.is_empty());
        assert!(blocks.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        let pool = SharedBlockCache::with_shards(64, 1);
        store.reset_stats();
        store.point_value(13, &pool);
        assert_eq!(store.device_stats().reads as usize, blocks.len());
    }

    #[test]
    fn reopen_never_prices_an_unreadable_block_at_zero() {
        let x = signal(256);
        let plain = WaveletStore::from_signal(&x, 16, AllocKind::TreeTiling);
        let blocks = plain.allocation().num_blocks();
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
                assert!((got.value - truth).abs() <= got.error_bound + 1e-9);
            }
        }
    }
}
