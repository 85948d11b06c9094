//! Zero-fault equivalence: a `FaultyDevice` with every fault disabled
//! must be a *transparent* wrapper — every storage result bit-identical
//! (`f64::to_bits`) to the plain `MemDevice` path, with the same device
//! read counts. ci.sh runs this under `AIMS_THREADS=1` and `=4`,
//! extending the parallel-equivalence pattern to the storage path.

use proptest::prelude::*;

use aims_storage::cache::SharedBlockCache;
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::faults::{FaultPlan, FaultyDevice};
use aims_storage::store::{AllocKind, CoefficientStore};

fn pow2(lo: u32, hi: u32) -> impl Strategy<Value = usize> {
    (lo..=hi).prop_map(|e| 1usize << e)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn coeffs(n: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n).map(|_| (xorshift(&mut state) % 1000) as f64 / 10.0 - 50.0).collect()
}

/// Up to `count` seeded entries over the store's coefficients, distinct,
/// in its fold order.
fn entries<D: BlockDevice>(
    store: &CoefficientStore<D>,
    count: usize,
    seed: u64,
) -> (Vec<usize>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut indices: Vec<usize> =
        (0..count).map(|_| xorshift(&mut state) as usize % store.len()).collect();
    indices.sort_unstable();
    indices.dedup();
    let weights = indices.iter().map(|_| (xorshift(&mut state) % 200) as f64 / 10.0 - 10.0);
    let weights = weights.collect();
    store.block_major(indices, weights)
}

fn stores(
    x: &[f64],
    block: usize,
    kind: AllocKind,
    seed: u64,
) -> (CoefficientStore, CoefficientStore<FaultyDevice>) {
    let plain = CoefficientStore::load(x, block, kind, MemDevice::new);
    let faulty = CoefficientStore::load(x, block, kind, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::none(seed))
    });
    (plain, faulty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse queries, and the one that reads every coefficient, are
    /// bit-identical through a zero-fault wrapper, for every allocation
    /// kind.
    #[test]
    fn zero_fault_wrapper_is_bit_identical(
        n in pow2(4, 9),
        b_exp in 1u32..=4,
        salt in 0u64..1000,
        seed in any::<u64>(),
    ) {
        let block = (1usize << b_exp).min(n);
        let x = coeffs(n, salt);
        for kind in [AllocKind::Sequential, AllocKind::Random(salt), AllocKind::TreeTiling] {
            let (plain, faulty) = stores(&x, block, kind, seed);
            let p1 = SharedBlockCache::new(8);
            let p2 = SharedBlockCache::new(8);
            let every = plain.block_major((0..n).collect(), vec![1.0; n]);
            let queries = (0..5).map(|q| entries(&plain, 1 + q * 4, salt ^ q as u64));
            for (indices, weights) in queries.chain([every]) {
                let a = plain.evaluate(&indices, &weights, &p1, &RetryPolicy::none());
                let b = faulty.evaluate(&indices, &weights, &p2, &RetryPolicy::default());
                prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{:?}", kind);
                prop_assert!(!b.degraded());
            }
        }
    }

    /// The wrapper adds no I/O: identical read counts for identical
    /// workloads.
    #[test]
    fn zero_fault_wrapper_costs_no_extra_reads(
        n in pow2(5, 8),
        salt in 0u64..1000,
    ) {
        let x = coeffs(n, salt);
        let (plain, faulty) = stores(&x, 8.min(n), AllocKind::TreeTiling, salt);
        let p1 = SharedBlockCache::new(4);
        let p2 = SharedBlockCache::new(4);
        plain.reset_stats();
        faulty.reset_stats();
        for q in 0..(n / 7) as u64 {
            let (indices, weights) = entries(&plain, 6, salt ^ q);
            plain.evaluate(&indices, &weights, &p1, &RetryPolicy::none());
            faulty.evaluate(&indices, &weights, &p2, &RetryPolicy::default());
        }
        prop_assert_eq!(plain.device_stats().reads, faulty.device_stats().reads);
        prop_assert_eq!(p1.stats(), p2.stats());
    }
}
