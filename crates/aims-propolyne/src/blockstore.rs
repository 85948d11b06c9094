//! The benchmark harness's shim over [`CoefficientStore`].
//!
//! The frozen harness (`bench/src/ladder.rs`) loads a cube's coefficients
//! with [`BlockedCoefficients::on_device`], plans and evaluates
//! [`PreparedQuery`]s through it, and hands it to
//! `aims_service::QueryService::with_blocked`. That is all this type is:
//! a sequential [`CoefficientStore`] (which it dereferences to) taking a
//! prepared query where the store takes its entries. Everything else
//! loads, reopens and queries a `CoefficientStore` directly. Under
//! [`AllocKind::Sequential`] a prepared query's ascending offsets are
//! already the store's block-major fold order, so a fault-free evaluation
//! is bit-identical to [`crate::engine::Propolyne::evaluate_prepared`].
//! The shim is deleted when the harness is re-based onto
//! `CoefficientStore` (ROADMAP item 1c).

use std::ops::{Deref, DerefMut};

use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::store::AllocKind;
use aims_storage::{CoefficientStore, DegradedAnswer, SharedBlockCache};

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

impl<D: BlockDevice> BlockedCoefficients<D> {
    /// Loads a coefficient vector onto a device built by
    /// `make(block_size, num_blocks)` under [`AllocKind::Sequential`]
    /// ([`CoefficientStore::load`]).
    pub fn on_device(
        coeffs: &[f64],
        block_size: usize,
        make: impl FnOnce(usize, usize) -> D,
    ) -> Self {
        let store = CoefficientStore::load(coeffs, block_size, AllocKind::Sequential, make);
        BlockedCoefficients { store }
    }

    /// The store itself.
    pub fn into_store(self) -> CoefficientStore<D> {
        self.store
    }

    /// The distinct device blocks a prepared query will touch, ascending
    /// ([`CoefficientStore::plan`]): a cold-cache evaluation reads exactly
    /// these. No device I/O.
    pub fn plan_blocks(&self, prepared: &PreparedQuery) -> Vec<usize> {
        self.store.plan(&prepared.indices, &prepared.weights).blocks
    }

    /// Evaluates a prepared query against the device
    /// ([`CoefficientStore::evaluate`]). A fault-free run is bit-identical
    /// to the in-memory engine; a degraded one reports the lost blocks'
    /// summed gains.
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
        let blocked = BlockedCoefficients::on_device(wc.coeffs(), 16, MemDevice::new);
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
}
