//! E4-adjacent performance bench: query I/O under the three allocation
//! strategies, measured as wall time through the full store + buffer-pool
//! stack (paper §3.2.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aims::range_sum;
use aims_dsp::dwt::dwt_full;
use aims_dsp::filters::WaveletFilter;
use aims_storage::cache::SharedBlockCache;
use aims_storage::device::{MemDevice, RetryPolicy};
use aims_storage::store::{AllocKind, CoefficientStore};

fn signal(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37 + 11) % 101) as f64 - 50.0).collect()
}

/// `x`'s Haar coefficients in a fresh in-memory store of 64-coefficient
/// blocks.
fn haar_store(x: &[f64], kind: AllocKind) -> CoefficientStore {
    CoefficientStore::load(&dwt_full(x, &WaveletFilter::haar()), 64, kind, MemDevice::new)
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
        let store = haar_store(&x, kind);
        g.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, store| {
            b.iter(|| {
                let pool = SharedBlockCache::new(8);
                let mut acc = 0.0;
                for t in (0..n).step_by(701) {
                    acc += range_sum(store, t, t, &pool, &RetryPolicy::none()).estimate;
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
        let store = haar_store(&x, kind);
        g.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, store| {
            b.iter(|| {
                let pool = SharedBlockCache::new(8);
                let mut acc = 0.0;
                for k in 0..50 {
                    let a = (k * 997) % (n / 2);
                    acc += range_sum(store, a, a + n / 3, &pool, &RetryPolicy::none()).estimate;
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
        b.iter(|| haar_store(&x, AllocKind::TreeTiling));
    });
}

criterion_group!(benches, bench_point_queries, bench_range_sums, bench_load);
criterion_main!(benches);
