//! Device-backed coefficient retrieval for ProPolyne queries.
//!
//! The in-memory engine ([`crate::engine::Propolyne`]) evaluates prepared
//! queries against a dense coefficient slice. This module is the fetch
//! path the AIMS storage design implies: cube coefficients live on a
//! [`BlockDevice`] in checksummed blocks, queries pull only the blocks
//! their sparse entries touch through a [`SharedBlockCache`], and storage
//! faults degrade the answer instead of failing it — missing
//! coefficients contribute zero and the answer carries a guaranteed
//! error bound (Cauchy–Schwarz against the lost blocks' load-time
//! energy).
//!
//! The layout rule (`coefficient i → block i / B, offset i % B`) lives in
//! [`BlockedCoefficients::plan`] and [`BlockedCoefficients::accumulate`]
//! and nowhere else: the first says which blocks a query needs and what
//! each is worth, the second folds one fetched block into the running
//! sum. Both walk the prepared entries in ascending offset order, exactly
//! like [`crate::engine::Propolyne::evaluate_prepared`], so with a healthy
//! device the result is bit-identical to the in-memory path.

use std::sync::Arc;

use aims_storage::device::{BlockDevice, MemDevice, ReadError, RetryPolicy};
use aims_storage::store::block_energies;
use aims_storage::{BlockPlan, BoundLedger, SharedBlockCache};
use aims_telemetry::global;

use crate::engine::PreparedQuery;

/// Cube coefficients stored sequentially on a block device
/// (`coefficient i → block i / B, offset i % B`), with a load-time
/// per-block energy catalog for degraded error bounds.
#[derive(Debug)]
pub struct BlockedCoefficients<D: BlockDevice = MemDevice> {
    device: D,
    block_size: usize,
    n: usize,
    /// `Σ c²` per block, captured at load time.
    block_energy: Vec<f64>,
}

/// A query answer served from (possibly faulty) blocked storage.
#[derive(Clone, Debug)]
pub struct DegradedAnswer {
    /// The (possibly partial) inner product.
    pub estimate: f64,
    /// Guaranteed bound on `|estimate − exact|`; `0.0` when nothing was
    /// lost.
    pub error_bound: f64,
    /// Distinct blocks that stayed unreadable after retries.
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

impl BlockedCoefficients<MemDevice> {
    /// Loads a coefficient vector onto a fresh in-memory device.
    pub fn new(coeffs: &[f64], block_size: usize) -> Self {
        BlockedCoefficients::on_device(coeffs, block_size, MemDevice::new)
    }
}

impl<D: BlockDevice> BlockedCoefficients<D> {
    /// Loads a coefficient vector onto a device built by
    /// `make(block_size, num_blocks)` — the hook for fault-injected
    /// devices. The vector is padded with zeros to a whole number of
    /// blocks.
    pub fn on_device(
        coeffs: &[f64],
        block_size: usize,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(!coeffs.is_empty(), "cannot store an empty coefficient vector");
        let num_blocks = coeffs.len().div_ceil(block_size);
        let mut device = make(block_size, num_blocks);
        assert!(device.block_size() == block_size, "device block size mismatch");
        assert!(device.num_blocks() >= num_blocks, "device too small");
        let mut block_energy = Vec::with_capacity(num_blocks);
        let mut staged = vec![0.0; block_size];
        for b in 0..num_blocks {
            staged.iter_mut().for_each(|v| *v = 0.0);
            let start = b * block_size;
            let end = (start + block_size).min(coeffs.len());
            staged[..end - start].copy_from_slice(&coeffs[start..end]);
            block_energy.push(staged.iter().map(|c| c * c).sum());
            device.write_block(b, &staged);
        }
        device.reset_stats();
        BlockedCoefficients { device, block_size, n: coeffs.len(), block_energy }
    }

    /// Rebuilds over an already-populated device — the reopen path for a
    /// recovered durable device. The sequential layout
    /// (`coefficient i → block i / B, offset i % B`) is implicit, so only
    /// the unpadded coefficient count `len` is needed; the per-block
    /// energy catalog is re-read from the device with verified, retried
    /// reads. A block that stays unreadable fails the reopen: priced at
    /// zero it would let every later query that touches it report a zero
    /// bound over missing coefficients.
    ///
    /// # Panics
    /// If the device is too small for `len` coefficients.
    pub fn from_device(device: D, len: usize) -> Result<Self, ReadError> {
        assert!(len > 0, "cannot reopen an empty coefficient vector");
        let block_size = device.block_size();
        let num_blocks = len.div_ceil(block_size);
        assert!(device.num_blocks() >= num_blocks, "device too small");
        let block_energy = block_energies(&device, num_blocks)?;
        device.reset_stats();
        Ok(BlockedCoefficients { device, block_size, n: len, block_energy })
    }

    /// Mutable access to the backing device (checkpoint / close hooks on
    /// durable devices).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Coefficient count (unpadded).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Blocked stores are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The backing device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Total stored energy `Σ c²` (from the load-time catalog).
    pub fn data_energy(&self) -> f64 {
        self.block_energy.iter().sum()
    }

    /// Coefficients per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks the coefficient vector occupies.
    pub fn num_blocks(&self) -> usize {
        self.block_energy.len()
    }

    /// Load-time energy `Σ c²` of block `b`.
    pub fn block_energy(&self, b: usize) -> f64 {
        self.block_energy[b]
    }

    /// The whole block-energy catalog, indexed by block id. The adaptive
    /// QoS scheduler reads this to price each plan block's expected
    /// error-bound reduction without touching the device.
    pub fn block_energies(&self) -> &[f64] {
        &self.block_energy
    }

    /// The blocks a prepared query needs, ascending (the fold order of
    /// every evaluation over this store), each priced at
    /// `sqrt(Σw² · Σc²)` from the query's weights and the energy catalog.
    /// No device I/O.
    pub fn plan(&self, prepared: &PreparedQuery) -> BlockPlan {
        let mut pairs: Vec<(usize, f64)> = Vec::new();
        for (i, w) in prepared.entries() {
            assert!(i < self.n, "query offset {i} out of range");
            let b = i / self.block_size;
            match pairs.last_mut() {
                Some((last, wsq)) if *last == b => *wsq += w * w,
                _ => pairs.push((b, w * w)),
            }
        }
        let mut plan = BlockPlan::default();
        plan.extend(pairs, |b| self.block_energy[b]);
        plan
    }

    /// The distinct device blocks a prepared query will touch, ascending.
    ///
    /// This is the plan-observation hook the serving layer's shared-scan
    /// batcher needs: overlap between concurrent queries is detected by
    /// intersecting these sets *before* any fetch happens. Useful
    /// standalone too — `plan_blocks(q).len()` is the exact device read
    /// cost of a cold-cache evaluation.
    pub fn plan_blocks(&self, prepared: &PreparedQuery) -> Vec<usize> {
        self.plan(prepared).blocks
    }

    /// Folds plan block `block` into a running evaluation: every prepared
    /// entry from `*cursor` on that lives in the block is consumed —
    /// added to `*sum` as `w · data[offset]`, or skipped (contributing
    /// zero) when the block was lost and `data` is `None`. Returns the
    /// number of entries consumed. Called once per plan block in plan
    /// order, this is one flat accumulator over the entries ascending.
    pub fn accumulate(
        &self,
        prepared: &PreparedQuery,
        block: usize,
        data: Option<&[f64]>,
        cursor: &mut usize,
        sum: &mut f64,
    ) -> usize {
        let base = block * self.block_size;
        let start = *cursor;
        while let Some(&i) = prepared.indices.get(*cursor) {
            if i >= base + self.block_size {
                break;
            }
            if let Some(data) = data {
                *sum += prepared.weights[*cursor] * data[i - base];
            }
            *cursor += 1;
        }
        *cursor - start
    }

    /// Evaluates a prepared query against the device, retrying transient
    /// faults under `policy` and degrading when blocks stay unreadable:
    /// plan, fetch each plan block once, [`accumulate`] it or charge it to
    /// the [`BoundLedger`]. A fault-free run is bit-identical to the
    /// in-memory engine; a degraded one reports the lost blocks' summed
    /// gains, the bound a query service session ends on.
    ///
    /// [`accumulate`]: BlockedCoefficients::accumulate
    pub fn evaluate_degraded(
        &self,
        prepared: &PreparedQuery,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> DegradedAnswer {
        let mut ledger = BoundLedger::in_fold_order(Arc::new(self.plan(prepared)));
        let (mut cursor, mut estimate, mut missing) = (0usize, 0.0, 0usize);
        while let Some(k) = ledger.peek() {
            let b = ledger.plan().blocks[k];
            match pool.get_or_read_outcome(&self.device, b, policy) {
                Ok((data, _)) => {
                    self.accumulate(prepared, b, Some(&data), &mut cursor, &mut estimate);
                    ledger.deliver();
                }
                Err(_) => {
                    global().counter("storage.degraded").inc();
                    missing += self.accumulate(prepared, b, None, &mut cursor, &mut estimate);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DataCube;
    use crate::engine::Propolyne;
    use crate::query::RangeSumQuery;
    use aims_dsp::filters::FilterKind;
    use aims_storage::device::ReadErrorKind;
    use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};

    fn engine_and_store() -> (Propolyne, BlockedCoefficients) {
        let mut cube = DataCube::zeros(&[32, 32]);
        let mut state = 41u64;
        for v in cube.values_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 9) as f64;
        }
        let wc = cube.transform(&FilterKind::Db4.filter());
        let blocked = BlockedCoefficients::new(wc.coeffs(), 16);
        (Propolyne::new(wc), blocked)
    }

    #[test]
    fn clean_device_is_bit_identical_to_in_memory_engine() {
        let (engine, blocked) = engine_and_store();
        let pool = SharedBlockCache::new(64);
        for q in [
            RangeSumQuery::count(vec![(0, 31), (0, 31)]),
            RangeSumQuery::count(vec![(3, 25), (7, 19)]),
            RangeSumQuery::count(vec![(16, 16), (0, 30)]),
        ] {
            let prepared = engine.prepare(&q);
            let expect = engine.evaluate_prepared(&prepared);
            let got = blocked.evaluate_degraded(&prepared, &pool, &RetryPolicy::none());
            assert_eq!(got.estimate.to_bits(), expect.to_bits());
            assert_eq!(got.error_bound, 0.0);
            assert!(!got.degraded());
        }
    }

    #[test]
    fn lost_blocks_degrade_with_honored_bound() {
        let (engine, reference) = engine_and_store();
        let coeffs: Vec<f64> = {
            let pool = SharedBlockCache::new(256);
            (0..reference.len())
                .map(|i| pool.get_or_read(reference.device(), i / 16).unwrap()[i % 16])
                .collect()
        };
        let blocked = BlockedCoefficients::on_device(&coeffs, 16, |bs, nb| {
            FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(19, FaultKind::DeadBlock, 0.2))
        });
        let mut degraded_seen = 0;
        for q in [
            RangeSumQuery::count(vec![(0, 31), (0, 31)]),
            RangeSumQuery::count(vec![(1, 30), (2, 29)]),
            RangeSumQuery::count(vec![(5, 28), (0, 15)]),
            RangeSumQuery::count(vec![(0, 20), (10, 31)]),
        ] {
            let prepared = engine.prepare(&q);
            let exact = engine.evaluate_prepared(&prepared);
            let pool = SharedBlockCache::new(256);
            let got = blocked.evaluate_degraded(&prepared, &pool, &RetryPolicy::none());
            assert!(
                (got.estimate - exact).abs() <= got.error_bound + 1e-9,
                "|{} − {exact}| > {}",
                got.estimate,
                got.error_bound
            );
            if got.degraded() {
                degraded_seen += 1;
                assert!(got.missing_coefficients > 0);
            }
        }
        assert!(degraded_seen > 0, "20% dead blocks should degrade something");
    }

    #[test]
    fn plan_blocks_predicts_exact_cold_read_cost() {
        let (engine, blocked) = engine_and_store();
        for q in [
            RangeSumQuery::count(vec![(0, 31), (0, 31)]),
            RangeSumQuery::count(vec![(3, 25), (7, 19)]),
            RangeSumQuery::count(vec![(16, 16), (0, 30)]),
        ] {
            let prepared = engine.prepare(&q);
            let plan = blocked.plan_blocks(&prepared);
            // Sorted, deduplicated, in range.
            assert!(plan.windows(2).all(|w| w[0] < w[1]));
            assert!(plan.iter().all(|&b| b < blocked.num_blocks()));
            // The plan IS the cold-cache device read cost.
            blocked.device().reset_stats();
            let pool = SharedBlockCache::new(blocked.num_blocks());
            blocked.evaluate_degraded(&prepared, &pool, &RetryPolicy::none());
            assert_eq!(blocked.device().stats().reads as usize, plan.len());
        }
        assert_eq!(blocked.block_size(), 16);
        assert_eq!(blocked.num_blocks(), blocked.len().div_ceil(16));
        let total: f64 = (0..blocked.num_blocks()).map(|b| blocked.block_energy(b)).sum();
        assert!((total - blocked.data_energy()).abs() < 1e-9);
    }

    #[test]
    fn reopen_never_prices_an_unreadable_block_at_zero() {
        let (engine, reference) = engine_and_store();
        let mut device = FaultyDevice::with_plan(
            16,
            reference.num_blocks(),
            FaultPlan::uniform(19, FaultKind::DeadBlock, 0.2),
        );
        for b in 0..reference.num_blocks() {
            device.write_block(b, &reference.device().read_block(b).unwrap());
        }
        assert!((0..reference.num_blocks()).any(|b| device.is_dead(b)));
        // Refusing to open is the contract; a store that does open must
        // still bound what its dead blocks hide.
        match BlockedCoefficients::from_device(device, reference.len()) {
            Err(e) => assert_eq!(e.kind, ReadErrorKind::Dead),
            Ok(reopened) => {
                let prepared = engine.prepare(&RangeSumQuery::count(vec![(0, 31), (0, 31)]));
                let exact = engine.evaluate_prepared(&prepared);
                let pool = SharedBlockCache::new(64);
                let got = reopened.evaluate_degraded(&prepared, &pool, &RetryPolicy::none());
                assert!((got.estimate - exact).abs() <= got.error_bound + 1e-9);
            }
        }
    }
}
