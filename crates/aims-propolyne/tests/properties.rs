//! Property-based tests of ProPolyne's core identities.

use proptest::prelude::*;

use aims_dsp::dwt::dwt_full;
use aims_dsp::filters::FilterKind;
use aims_dsp::lazy::lazy_transform;
use aims_dsp::poly::Polynomial;
use aims_propolyne::cube::DataCube;
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::{Monomial, RangeSumQuery};

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

    /// The lazy transform preserves inner products with arbitrary data:
    /// ⟨q, x⟩ time domain == ⟨q̂, x̂⟩ wavelet domain.
    #[test]
    fn lazy_preserves_inner_products(
        data in prop::collection::vec(-20.0_f64..20.0, 128),
        (lo, hi) in (0usize..128, 0usize..128),
        degree in 0usize..=2,
        kind in filter_strategy(),
    ) {
        let (a, b) = (lo.min(hi), lo.max(hi));
        let poly = Polynomial::monomial(degree);
        let f = kind.filter();
        let time: f64 = (a..=b).map(|i| poly.eval(i as f64) * data[i]).sum();
        let xh = dwt_full(&data, &f);
        let lazy = lazy_transform(128, a, b, &poly, &f);
        let freq: f64 = lazy.nonzeros(0.0).iter().map(|&(i, v)| v * xh[i]).sum();
        prop_assert!(
            (time - freq).abs() < 1e-5 * time.abs().max(1.0),
            "{} vs {}", time, freq
        );
    }

    /// ProPolyne is linear in the measure: evaluating a two-term query
    /// equals the sum of evaluating the terms separately.
    #[test]
    fn evaluation_is_linear(
        cells in prop::collection::vec(0.0_f64..5.0, 64),
        (l0, h0) in (0usize..8, 0usize..8),
        (l1, h1) in (0usize..8, 0usize..8),
        kind in filter_strategy(),
    ) {
        let mut cube = DataCube::zeros(&[8, 8]);
        cube.values_mut().copy_from_slice(&cells);
        let engine = Propolyne::new(cube.transform(&kind.filter()));
        let ranges = vec![(l0.min(h0), l0.max(h0)), (l1.min(h1), l1.max(h1))];

        let t1 = Monomial::ones(2);
        let t2 = Monomial::single(2, 0, Polynomial::from_coeffs(vec![0.5, 1.0]));
        let combined = RangeSumQuery { ranges: ranges.clone(), terms: vec![t1.clone(), t2.clone()] };
        let q1 = RangeSumQuery { ranges: ranges.clone(), terms: vec![t1] };
        let q2 = RangeSumQuery { ranges, terms: vec![t2] };
        let sum = engine.evaluate(&q1) + engine.evaluate(&q2);
        let joint = engine.evaluate(&combined);
        prop_assert!((joint - sum).abs() < 1e-6 * sum.abs().max(1.0));
    }

    /// Additivity over disjoint ranges: Q([a,m]) + Q([m+1,b]) = Q([a,b]).
    #[test]
    fn range_additivity(
        cells in prop::collection::vec(0.0_f64..5.0, 256),
        (lo, hi) in (0usize..16, 0usize..16),
        split in 0usize..16,
        kind in filter_strategy(),
    ) {
        let (a, b) = (lo.min(hi), lo.max(hi));
        prop_assume!(a < b);
        let m = a + split % (b - a);
        let mut cube = DataCube::zeros(&[16, 16]);
        cube.values_mut().copy_from_slice(&cells);
        let engine = Propolyne::new(cube.transform(&kind.filter()));

        let whole = engine.evaluate(&RangeSumQuery::count(vec![(a, b), (0, 15)]));
        let left = engine.evaluate(&RangeSumQuery::count(vec![(a, m), (0, 15)]));
        let right = engine.evaluate(&RangeSumQuery::count(vec![(m + 1, b), (0, 15)]));
        prop_assert!((whole - left - right).abs() < 1e-6 * whole.abs().max(1.0));
    }

    /// Synopsis evaluation converges monotonically-ish to exact: with the
    /// full budget it is exact.
    #[test]
    fn full_synopsis_exact(
        cells in prop::collection::vec(0.0_f64..5.0, 64),
        kind in filter_strategy(),
    ) {
        let mut cube = DataCube::zeros(&[8, 8]);
        cube.values_mut().copy_from_slice(&cells);
        let wc = cube.transform(&kind.filter());
        let syn = aims_propolyne::synopsis::DataSynopsis::new(&wc, 64);
        let q = RangeSumQuery::count(vec![(1, 6), (0, 7)]);
        let exact = q.eval_scan(&cube);
        prop_assert!((syn.evaluate(&q) - exact).abs() < 1e-6 * exact.abs().max(1.0));
    }
}
