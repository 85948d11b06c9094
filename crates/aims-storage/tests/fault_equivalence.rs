//! Zero-fault equivalence: a `FaultyDevice` with every fault disabled
//! must be a *transparent* wrapper — every storage result bit-identical
//! (`f64::to_bits`) to the plain `MemDevice` path, with the same device
//! read counts. ci.sh runs this under `AIMS_THREADS=1` and `=4`,
//! extending the parallel-equivalence pattern to the storage path.

use proptest::prelude::*;

use aims_storage::cache::SharedBlockCache;
use aims_storage::device::RetryPolicy;
use aims_storage::faults::{FaultPlan, FaultyDevice};
use aims_storage::store::{AllocKind, WaveletStore};

fn pow2(lo: u32, hi: u32) -> impl Strategy<Value = usize> {
    (lo..=hi).prop_map(|e| 1usize << e)
}

fn signal(n: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0 - 50.0
        })
        .collect()
}

fn stores(
    x: &[f64],
    block: usize,
    kind: AllocKind,
    seed: u64,
) -> (WaveletStore, WaveletStore<FaultyDevice>) {
    let plain = WaveletStore::from_signal(x, block, kind);
    let faulty = WaveletStore::from_signal_on(x, block, kind, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::none(seed))
    });
    (plain, faulty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point values, range sums and full reconstruction are bit-identical
    /// through a zero-fault wrapper, for every allocation kind.
    #[test]
    fn zero_fault_wrapper_is_bit_identical(
        n in pow2(4, 9),
        b_exp in 1u32..=4,
        salt in 0u64..1000,
        seed in any::<u64>(),
    ) {
        let block = (1usize << b_exp).min(n);
        let x = signal(n, salt);
        for kind in [AllocKind::Sequential, AllocKind::Random(salt), AllocKind::TreeTiling] {
            let (plain, faulty) = stores(&x, block, kind, seed);
            let p1 = SharedBlockCache::new(8);
            let p2 = SharedBlockCache::new(8);
            for t in [0, n / 3, n / 2, n - 1] {
                let a = plain.point_value(t, &p1);
                let b = faulty.point_value_outcome(t, &p2, &RetryPolicy::default());
                prop_assert_eq!(a.to_bits(), b.estimate.to_bits(), "{:?} t={}", kind, t);
                prop_assert!(!b.degraded());
            }
            let (lo, hi) = (n / 5, n - 1 - n / 7);
            let a = plain.range_sum(lo, hi, &p1);
            let b = faulty.range_sum_outcome(lo, hi, &p2, &RetryPolicy::default());
            prop_assert_eq!(a.to_bits(), b.estimate.to_bits(), "{:?} [{},{}]", kind, lo, hi);

            let ra = plain.reconstruct_all(&p1);
            let rb = faulty.reconstruct_all(&p2);
            for (va, vb) in ra.iter().zip(&rb) {
                prop_assert_eq!(va.to_bits(), vb.to_bits());
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
        let x = signal(n, salt);
        let (plain, faulty) = stores(&x, 8.min(n), AllocKind::TreeTiling, salt);
        let p1 = SharedBlockCache::new(4);
        let p2 = SharedBlockCache::new(4);
        plain.reset_stats();
        faulty.reset_stats();
        for t in (0..n).step_by(7) {
            plain.point_value(t, &p1);
            faulty.point_value_outcome(t, &p2, &RetryPolicy::default());
        }
        prop_assert_eq!(plain.device_stats().reads, faulty.device_stats().reads);
        prop_assert_eq!(p1.stats(), p2.stats());
    }
}
