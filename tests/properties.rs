//! Property-based tests of the core cross-crate invariants.

use proptest::prelude::*;

use aims::dsp::dwt::{dwt_full, idwt_full};
use aims::dsp::filters::FilterKind;
use aims::dsp::lazy::lazy_transform;
use aims::dsp::poly::Polynomial;
use aims::propolyne::cube::DataCube;
use aims::propolyne::engine::Propolyne;
use aims::propolyne::query::RangeSumQuery;
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::{MemDevice, RetryPolicy};
use aims::storage::error_tree::{point_query_set, range_query_set};
use aims::storage::store::{AllocKind, CoefficientStore};
use aims::{range_entries, range_sum};

fn filter_strategy() -> impl Strategy<Value = FilterKind> {
    prop_oneof![
        Just(FilterKind::Haar),
        Just(FilterKind::Db4),
        Just(FilterKind::Db6),
        Just(FilterKind::Db8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Orthonormal DWT round-trips arbitrary signals and preserves energy.
    #[test]
    fn dwt_roundtrip_and_parseval(
        raw in prop::collection::vec(-100.0_f64..100.0, 1..=128),
        kind in filter_strategy(),
    ) {
        let mut signal = raw;
        signal.resize(signal.len().next_power_of_two().max(2), 0.0);
        let f = kind.filter();
        let coeffs = dwt_full(&signal, &f);
        let back = idwt_full(&coeffs, &f);
        let energy: f64 = signal.iter().map(|x| x * x).sum();
        let coeff_energy: f64 = coeffs.iter().map(|x| x * x).sum();
        prop_assert!((energy - coeff_energy).abs() <= 1e-6 * energy.max(1.0));
        for (a, b) in signal.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-7 * energy.max(1.0).sqrt());
        }
    }

    /// The lazy wavelet transform agrees with the dense transform of the
    /// materialized query vector, for every filter, range, and degree ≤ 2.
    #[test]
    fn lazy_transform_equals_dense(
        log_n in 4_u32..=9,
        range in (0usize..512, 0usize..512),
        degree in 0usize..=2,
        kind in filter_strategy(),
    ) {
        let n = 1usize << log_n;
        let a = range.0 % n;
        let b = a + (range.1 % (n - a));
        let poly = Polynomial::monomial(degree);
        let f = kind.filter();

        let lazy = lazy_transform(n, a, b, &poly, &f);
        let dense_input: Vec<f64> = (0..n)
            .map(|i| if i >= a && i <= b { poly.eval(i as f64) } else { 0.0 })
            .collect();
        let dense = dwt_full(&dense_input, &f);
        let sparse: std::collections::HashMap<usize, f64> =
            lazy.nonzeros(0.0).into_iter().collect();
        let scale = dense.iter().fold(1.0_f64, |m, x| m.max(x.abs()));
        for (i, &d) in dense.iter().enumerate() {
            let s = sparse.get(&i).copied().unwrap_or(0.0);
            prop_assert!(
                (s - d).abs() < 1e-6 * scale,
                "{:?} n={} [{},{}] deg={}: idx {}: {} vs {}",
                kind, n, a, b, degree, i, s, d
            );
        }
    }

    /// ProPolyne exact evaluation equals a relational scan for random
    /// 2-D cubes and COUNT/SUM queries.
    #[test]
    fn propolyne_equals_scan(
        cells in prop::collection::vec(0.0_f64..9.0, 256),
        ranges in ((0usize..16, 0usize..16), (0usize..16, 0usize..16)),
        kind in filter_strategy(),
    ) {
        let mut cube = DataCube::zeros(&[16, 16]);
        cube.values_mut().copy_from_slice(&cells);
        let engine = Propolyne::new(cube.transform(&kind.filter()));

        let (r0, r1) = ranges;
        let range0 = (r0.0.min(r0.1), r0.0.max(r0.1));
        let range1 = (r1.0.min(r1.1), r1.0.max(r1.1));
        for q in [
            RangeSumQuery::count(vec![range0, range1]),
            RangeSumQuery::sum_poly(vec![range0, range1], 0, Polynomial::monomial(1)),
        ] {
            let got = engine.evaluate(&q);
            let expect = q.eval_scan(&cube);
            prop_assert!(
                (got - expect).abs() < 1e-5 * expect.abs().max(1.0),
                "{:?}: {} vs {}", kind, got, expect
            );
        }
    }

    /// A signal's Haar store answers point values and range sums — the
    /// 1-D COUNT over the range, planned by `prepare` — exactly, whatever
    /// its allocation, block size or cache size.
    #[test]
    fn haar_store_queries_are_exact(
        raw in prop::collection::vec(-50.0_f64..50.0, 64),
        t in 0usize..64,
        range in (0usize..64, 0usize..64),
        alloc in prop_oneof![
            Just(AllocKind::Sequential),
            Just(AllocKind::Random(3)),
            Just(AllocKind::TreeTiling),
        ],
        b_exp in 1u32..=6,
        pool_size in 1usize..8,
    ) {
        let coeffs = dwt_full(&raw, &FilterKind::Haar.filter());
        let store = CoefficientStore::load(&coeffs, 1 << b_exp, alloc, MemDevice::new);
        let pool = SharedBlockCache::new(pool_size);
        let sum = |a, b| range_sum(&store, a, b, &pool, &RetryPolicy::none()).estimate;
        prop_assert!((sum(t, t) - raw[t]).abs() < 1e-8);
        let (a, b) = (range.0.min(range.1), range.0.max(range.1));
        let expect: f64 = raw[a..=b].iter().sum();
        prop_assert!((sum(a, b) - expect).abs() < 1e-7);
    }

    /// Huffman coding round-trips arbitrary symbol streams.
    #[test]
    fn huffman_roundtrip(symbols in prop::collection::vec(0u16..64, 0..600)) {
        let enc = aims::dsp::huffman::encode(&symbols, 64);
        prop_assert_eq!(aims::dsp::huffman::decode(&enc), symbols);
    }

    /// ADPCM decode length always matches, and reconstruction error stays
    /// bounded by the adaptive step envelope on smooth inputs.
    #[test]
    fn adpcm_roundtrip_shape(amps in prop::collection::vec(-5.0_f64..5.0, 2..40)) {
        // Build a smooth signal from the random control points.
        let mut signal = Vec::new();
        for w in amps.windows(2) {
            for k in 0..20 {
                signal.push(w[0] + (w[1] - w[0]) * k as f64 / 20.0);
            }
        }
        let enc = aims::dsp::adpcm::encode_auto(&signal);
        let dec = aims::dsp::adpcm::decode(&enc);
        prop_assert_eq!(dec.len(), signal.len());
        let rmse = aims::dsp::quantize::rmse(&signal, &dec);
        prop_assert!(rmse < 1.0, "rmse {}", rmse);
    }
}

#[test]
fn lazy_entries_are_the_error_tree_sets_less_their_zero_weights() {
    // A point query's entries are its whole root-to-leaf path; a range
    // sum's lie on its two boundary paths, less the ancestors whose Haar
    // basis sums to zero over the range — and, with them, any block that
    // held only such ancestors.
    const N: usize = 4096;
    let signal: Vec<f64> = (0..N).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect();
    let coeffs = dwt_full(&signal, &FilterKind::Haar.filter());
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize % n
    };
    let queries: Vec<(usize, usize, usize)> = (0..200)
        .map(|_| {
            let (t, a) = (next(N), next(N));
            (t, a, a + next(N - a))
        })
        .collect();
    let mut dropped_ancestors = Vec::new();
    for kind in [AllocKind::Sequential, AllocKind::Random(3), AllocKind::TreeTiling] {
        let store = CoefficientStore::load(&coeffs, 16, kind, MemDevice::new);
        let (mut ancestors, mut blocks, mut set_entries, mut set_reads) = (0, 0, 0, 0);
        for &(t, a, b) in &queries {
            let (mut point, _) = range_entries(&store, t, t);
            let mut path = point_query_set(t, N);
            point.sort_unstable();
            path.sort_unstable();
            assert_eq!(point, path, "{kind:?} point {t}");

            let (entries, weights) = range_entries(&store, a, b);
            let set = range_query_set(a, b, N);
            assert!(entries.iter().all(|i| set.contains(i)), "{kind:?} [{a}, {b}]");
            ancestors += set.len() - entries.len();
            let zeros = vec![0.0; set.len()];
            let (set, zeros) = store.block_major(set, zeros);
            let set_blocks = store.plan(&set, &zeros).blocks.len();
            blocks += set_blocks - store.plan(&entries, &weights).blocks.len();
            (set_entries, set_reads) = (set_entries + set.len(), set_reads + set_blocks);
        }
        eprintln!(
            "{kind:?}: dropped {ancestors} of {set_entries} range-set entries \
             (zero-weight ancestors) and {blocks} of {set_reads} block reads"
        );
        assert!(ancestors > 0, "{kind:?}: no range query dropped an ancestor");
        dropped_ancestors.push(ancestors);
    }
    // Which entries drop is a property of the query, not the layout.
    assert!(dropped_ancestors.windows(2).all(|w| w[0] == w[1]), "{dropped_ancestors:?}");
}
