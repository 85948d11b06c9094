//! E7/E9-adjacent performance benches: the lazy wavelet transform vs the
//! dense transform, and full ProPolyne query evaluation (paper §3.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aims_dsp::dwt::dwt_full;
use aims_dsp::filters::FilterKind;
use aims_dsp::lazy::lazy_transform;
use aims_dsp::poly::Polynomial;
use aims_propolyne::cube::DataCube;
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;

fn bench_lazy_vs_dense(c: &mut Criterion) {
    let filter = FilterKind::Db4.filter();
    let poly = Polynomial::from_coeffs(vec![1.0, 0.5]);
    let mut g = c.benchmark_group("query_transform");
    for log_n in [12u32, 16, 20] {
        let n = 1usize << log_n;
        let (a, b) = (n / 7, n - n / 5);
        g.bench_with_input(BenchmarkId::new("lazy", n), &n, |bch, &n| {
            bch.iter(|| lazy_transform(n, a, b, &poly, &filter));
        });
        if log_n <= 16 {
            g.bench_with_input(BenchmarkId::new("dense", n), &n, |bch, &n| {
                let q: Vec<f64> = (0..n)
                    .map(|i| if i >= a && i <= b { poly.eval(i as f64) } else { 0.0 })
                    .collect();
                bch.iter(|| dwt_full(&q, &filter));
            });
        }
    }
    g.finish();
}

fn test_cube(n: usize) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let mut state = 17u64;
    for v in cube.values_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state % 9) as f64;
    }
    cube
}

fn bench_query_evaluation(c: &mut Criterion) {
    let cube = test_cube(256);
    let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
    let count = RangeSumQuery::count(vec![(31, 210), (17, 199)]);
    let sum = RangeSumQuery::sum_poly(vec![(31, 210), (17, 199)], 0, Polynomial::monomial(1));

    let mut g = c.benchmark_group("propolyne_eval_256x256");
    g.bench_function("count_exact", |b| b.iter(|| engine.evaluate(&count)));
    g.bench_function("sum_exact", |b| b.iter(|| engine.evaluate(&sum)));
    g.bench_function("count_scan_baseline", |b| b.iter(|| count.eval_scan(&cube)));
    g.finish();
}

fn bench_cube_population(c: &mut Criterion) {
    let cube = test_cube(256);
    let mut g = c.benchmark_group("cube_transform_256x256");
    g.sample_size(20);
    for kind in [FilterKind::Haar, FilterKind::Db4] {
        let f = kind.filter();
        g.bench_with_input(BenchmarkId::from_parameter(format!("{kind:?}")), &cube, |b, cube| {
            b.iter(|| cube.transform(&f));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lazy_vs_dense, bench_query_evaluation, bench_cube_population);
criterion_main!(benches);
