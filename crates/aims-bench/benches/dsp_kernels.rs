//! Microbenchmarks of the DSP substrate: FFT, DWT, DWPT best-basis,
//! ADPCM and Huffman — the kernels every AIMS subsystem sits on — plus
//! the two big single-core kernels (1024² Db4 forward+inverse, 512²
//! matmul) in absolute time. Printed, not gated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aims_dsp::dwpt::{CostFunction, WaveletPacketTree};
use aims_dsp::dwt::{dwt_full, dwt_standard_md_with, idwt_full, idwt_standard_md_with};
use aims_dsp::fft::fft_real;
use aims_dsp::filters::FilterKind;
use aims_dsp::{adpcm, huffman, quantize};
use aims_exec::ThreadPool;
use aims_linalg::Matrix;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 100.0;
            (t * 6.1).sin() * 20.0 + (t * 0.7).cos() * 8.0 + ((i * 2654435761) % 13) as f64 * 0.1
        })
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for log_n in [10u32, 14] {
        let n = 1usize << log_n;
        let x = signal(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| fft_real(x));
        });
    }
    g.finish();
}

fn bench_dwt(c: &mut Criterion) {
    let mut g = c.benchmark_group("dwt_full");
    let n = 1usize << 14;
    let x = signal(n);
    for kind in [FilterKind::Haar, FilterKind::Db4, FilterKind::Db8] {
        let f = kind.filter();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(format!("{kind:?}")), &x, |b, x| {
            b.iter(|| dwt_full(x, &f));
        });
    }
    // Round trip.
    let f = FilterKind::Db4.filter();
    let coeffs = dwt_full(&x, &f);
    g.bench_function("idwt_db4", |b| b.iter(|| idwt_full(&coeffs, &f)));
    g.finish();
}

/// One core, whatever `AIMS_THREADS` says: these rows read kernel speed,
/// not scaling.
fn bench_single_core_kernels(c: &mut Criterion) {
    let serial = ThreadPool::new(1);
    let n = 1024usize;
    let f = FilterKind::Db4.filter();
    let data: Vec<f64> =
        (0..n * n).map(|i| ((i % 613) as f64 * 0.25).sin() + (i / n) as f64 * 1e-3).collect();
    c.bench_function("dwt2d_db4_1024x1024_fwd_inv", |b| {
        b.iter(|| {
            let fwd = dwt_standard_md_with(&serial, &data, &[n, n], &f);
            idwt_standard_md_with(&serial, &fwd, &[n, n], &f)
        });
    });
    let n = 512usize;
    let lhs = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 101) as f64 * 0.01 - 0.5);
    let rhs = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 17) % 89) as f64 * 0.01 - 0.4);
    c.bench_function("matmul_512x512", |b| b.iter(|| lhs.matmul_with(&serial, &rhs)));
}

fn bench_dwpt_best_basis(c: &mut Criterion) {
    let x = signal(1 << 10);
    c.bench_function("dwpt_best_basis_1024x6", |b| {
        b.iter(|| {
            let tree = WaveletPacketTree::decompose(&x, &FilterKind::Db4.filter(), 6);
            tree.best_basis(CostFunction::ShannonEntropy)
        });
    });
}

fn bench_codecs(c: &mut Criterion) {
    let x = signal(1 << 14);
    let mut g = c.benchmark_group("codecs");
    g.throughput(Throughput::Elements(x.len() as u64));
    g.bench_function("adpcm_encode", |b| b.iter(|| adpcm::encode_auto(&x)));
    let enc = adpcm::encode_auto(&x);
    g.bench_function("adpcm_decode", |b| b.iter(|| adpcm::decode(&enc)));
    let q = quantize::UniformQuantizer::fit(&x, 10);
    let codes = q.encode_signal(&x);
    g.bench_function("huffman_encode", |b| b.iter(|| huffman::encode(&codes, 1024)));
    let henc = huffman::encode(&codes, 1024);
    g.bench_function("huffman_decode", |b| b.iter(|| huffman::decode(&henc)));
    g.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_dwt,
    bench_single_core_kernels,
    bench_dwpt_best_basis,
    bench_codecs
);
criterion_main!(benches);
