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
use aims::storage::store::{AllocKind, WaveletStore};

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

    /// Blocked wavelet storage answers point and range-sum queries exactly
    /// under every allocation strategy.
    #[test]
    fn wavelet_store_queries_are_exact(
        raw in prop::collection::vec(-50.0_f64..50.0, 64),
        t in 0usize..64,
        range in (0usize..64, 0usize..64),
        alloc in prop_oneof![
            Just(AllocKind::Sequential),
            Just(AllocKind::Random(3)),
            Just(AllocKind::TreeTiling),
        ],
    ) {
        let store = WaveletStore::from_signal(&raw, 8, alloc);
        let pool = SharedBlockCache::new(4);
        prop_assert!((store.point_value(t, &pool) - raw[t]).abs() < 1e-8);
        let (a, b) = (range.0.min(range.1), range.0.max(range.1));
        let expect: f64 = raw[a..=b].iter().sum();
        prop_assert!((store.range_sum(a, b, &pool) - expect).abs() < 1e-7);
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
