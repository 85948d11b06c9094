//! The blocked-storage fetch path (plain and zero-fault-wrapped) must be
//! bit-identical to the in-memory engine; ci.sh runs this file under
//! `AIMS_THREADS=1` and `=4`. Shared batches across pool sizes are the
//! query service's contract
//! (`service::tests::any_partition_of_plan_blocks_into_rounds_folds_to_the_serial_bits`).

use proptest::prelude::*;

use aims_dsp::filters::FilterKind;
use aims_propolyne::cube::DataCube;
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;
use aims_storage::cache::SharedBlockCache;
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::faults::{FaultPlan, FaultyDevice};
use aims_storage::store::{AllocKind, CoefficientStore};

fn filter_strategy() -> impl Strategy<Value = FilterKind> {
    prop_oneof![
        Just(FilterKind::Haar),
        Just(FilterKind::Db4),
        Just(FilterKind::Db6),
        Just(FilterKind::Db8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The blocked-storage fetch path — on a plain device and on a
    /// zero-fault `FaultyDevice` — is bit-identical to the in-memory
    /// engine for the same prepared query.
    #[test]
    fn blocked_fetch_bit_identical_to_in_memory(
        cells in prop::collection::vec(-7.0_f64..7.0, 256),
        (l0, h0) in (0usize..16, 0usize..16),
        (l1, h1) in (0usize..16, 0usize..16),
        kind in filter_strategy(),
        seed in any::<u64>(),
    ) {
        let mut cube = DataCube::zeros(&[16, 16]);
        cube.values_mut().copy_from_slice(&cells);
        let engine = Propolyne::new(cube.transform(&kind.filter()));
        let q = RangeSumQuery::count(vec![
            (l0.min(h0), l0.max(h0)),
            (l1.min(h1), l1.max(h1)),
        ]);
        let prepared = engine.prepare(&q);
        let expect = engine.evaluate_prepared(&prepared);

        let coeffs = engine.cube().coeffs();
        // Sequential: the prepared query's ascending offsets are the
        // stores' block-major fold order.
        let plain = CoefficientStore::load(coeffs, 16, AllocKind::Sequential, MemDevice::new);
        let wrapped = CoefficientStore::load(coeffs, 16, AllocKind::Sequential, |bs, nb| {
            FaultyDevice::with_plan(bs, nb, FaultPlan::none(seed))
        });
        let p1 = SharedBlockCache::new(32);
        let p2 = SharedBlockCache::new(32);
        let (indices, weights) = (&prepared.indices, &prepared.weights);
        let a = plain.evaluate(indices, weights, &p1, &RetryPolicy::none());
        let b = wrapped.evaluate(indices, weights, &p2, &RetryPolicy::default());
        prop_assert_eq!(a.estimate.to_bits(), expect.to_bits(), "plain device diverged");
        prop_assert_eq!(b.estimate.to_bits(), expect.to_bits(), "zero-fault wrapper diverged");
        prop_assert!(!a.degraded() && !b.degraded());
        prop_assert_eq!(
            plain.device().stats().reads,
            wrapped.device().stats().reads,
            "wrapper added I/O"
        );
    }
}
