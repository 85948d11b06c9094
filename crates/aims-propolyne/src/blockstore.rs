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
//! All of that is [`CoefficientStore`]; [`BlockedCoefficients`] only hands
//! it a [`PreparedQuery`]'s entries. The store is sequential, so its
//! block-major fold is the prepared entries in ascending offset order —
//! exactly [`crate::engine::Propolyne::evaluate_prepared`] — and with a
//! healthy device the result is bit-identical to the in-memory path.

use std::io;
use std::ops::{Deref, DerefMut};

use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::store::AllocKind;
use aims_storage::{BlockPlan, CoefficientStore, DegradedAnswer, SharedBlockCache};

use crate::engine::PreparedQuery;

/// Cube coefficients in a sequential [`CoefficientStore`] (which this
/// dereferences to), queried with [`PreparedQuery`]s.
#[derive(Debug)]
pub struct BlockedCoefficients<D: BlockDevice = MemDevice> {
    store: CoefficientStore<D>,
}

impl<D: BlockDevice> Deref for BlockedCoefficients<D> {
    type Target = CoefficientStore<D>;
    fn deref(&self) -> &CoefficientStore<D> {
        &self.store
    }
}

impl<D: BlockDevice> DerefMut for BlockedCoefficients<D> {
    fn deref_mut(&mut self) -> &mut CoefficientStore<D> {
        &mut self.store
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
    /// `make(block_size, num_blocks)` — the hook for fault-injected and
    /// durable devices ([`CoefficientStore::load`]).
    pub fn on_device(
        coeffs: &[f64],
        block_size: usize,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        let store = CoefficientStore::load(coeffs, block_size, AllocKind::Sequential, make);
        BlockedCoefficients { store }
    }

    /// Rebuilds over an already-populated device holding `len`
    /// coefficients and the energy catalog persisted when they were
    /// written — the reopen path for a recovered durable device
    /// ([`CoefficientStore::reopen`]: no block is read; a catalog that is
    /// not one finite `Σc² ≥ 0` per block is `InvalidData`).
    ///
    /// # Panics
    /// If the device is too small for `len` coefficients.
    pub fn from_device(device: D, len: usize, catalog: Vec<f64>) -> io::Result<Self> {
        Ok(BlockedCoefficients {
            store: CoefficientStore::reopen(device, AllocKind::Sequential, len, catalog)?,
        })
    }

    /// The blocks a prepared query needs, ascending, each priced at
    /// `sqrt(Σw² · Σc²)` ([`CoefficientStore::plan`]). No device I/O.
    pub fn plan(&self, prepared: &PreparedQuery) -> BlockPlan {
        self.store.plan(&prepared.indices, &prepared.weights)
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

    /// Evaluates a prepared query against the device
    /// ([`CoefficientStore::evaluate`]). A fault-free run is bit-identical
    /// to the in-memory engine; a degraded one reports the lost blocks'
    /// summed gains, the bound a query service session ends on.
    pub fn evaluate_degraded(
        &self,
        prepared: &PreparedQuery,
        pool: &SharedBlockCache,
        policy: &RetryPolicy,
    ) -> DegradedAnswer {
        self.store.evaluate(&prepared.indices, &prepared.weights, pool, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DataCube;
    use crate::engine::Propolyne;
    use crate::query::RangeSumQuery;
    use aims_dsp::filters::FilterKind;
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
        assert_eq!((blocked.len(), blocked.num_blocks()), (1024, 64));
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
        // The catalog is the image's as written: the reopen succeeds over
        // dead blocks, and the whole-cube query prices what they hide.
        let catalog = reference.block_energies().to_vec();
        let reopened = BlockedCoefficients::from_device(device, reference.len(), catalog).unwrap();
        assert_eq!(reopened.device().stats().reads, 0);
        let prepared = engine.prepare(&RangeSumQuery::count(vec![(0, 31), (0, 31)]));
        let exact = engine.evaluate_prepared(&prepared);
        let pool = SharedBlockCache::new(64);
        let got = reopened.evaluate_degraded(&prepared, &pool, &RetryPolicy::none());
        assert!(got.degraded() && got.error_bound > 0.0);
        assert!((got.estimate - exact).abs() <= got.error_bound + 1e-9);
    }
}
