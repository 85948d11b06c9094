//! E4-adjacent performance bench: query I/O under the three allocation
//! strategies, measured as wall time through the full store + buffer-pool
//! stack (paper §3.2.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aims_storage::cache::SharedBlockCache;
use aims_storage::store::{AllocKind, WaveletStore};

fn signal(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37 + 11) % 101) as f64 - 50.0).collect()
}

fn bench_point_queries(c: &mut Criterion) {
    let n = 1 << 16;
    let x = signal(n);
    let mut g = c.benchmark_group("store_point_queries");
    for (name, kind) in [
        ("tiling", AllocKind::TreeTiling),
        ("sequential", AllocKind::Sequential),
        ("random", AllocKind::Random(7)),
    ] {
        let store = WaveletStore::from_signal(&x, 64, kind);
        g.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, store| {
            b.iter(|| {
                let pool = SharedBlockCache::new(8);
                let mut acc = 0.0;
                for t in (0..n).step_by(701) {
                    acc += store.point_value(t, &pool);
                }
                acc
            });
        });
    }
    g.finish();
}

fn bench_range_sums(c: &mut Criterion) {
    let n = 1 << 16;
    let x = signal(n);
    let mut g = c.benchmark_group("store_range_sums");
    for (name, kind) in [("tiling", AllocKind::TreeTiling), ("sequential", AllocKind::Sequential)] {
        let store = WaveletStore::from_signal(&x, 64, kind);
        g.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, store| {
            b.iter(|| {
                let pool = SharedBlockCache::new(8);
                let mut acc = 0.0;
                for k in 0..50 {
                    let a = (k * 997) % (n / 2);
                    acc += store.range_sum(a, a + n / 3, &pool);
                }
                acc
            });
        });
    }
    g.finish();
}

fn bench_load(c: &mut Criterion) {
    let x = signal(1 << 14);
    c.bench_function("store_load_16k_tiling", |b| {
        b.iter(|| WaveletStore::from_signal(&x, 64, AllocKind::TreeTiling));
    });
}

criterion_group!(benches, bench_point_queries, bench_range_sums, bench_load);
criterion_main!(benches);
