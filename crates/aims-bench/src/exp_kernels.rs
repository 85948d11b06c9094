//! Experiment E29: single-core kernel speed — the in-place lifting DWT,
//! cache-blocked tiled transforms, unrolled matmul and SoA batch inner
//! products against frozen copies of the pre-kernel implementations.
//!
//! Everything here runs on a one-thread pool: E24 measures how well the
//! hot paths scale *across* cores, E29 measures how fast one core moves
//! through them. The old implementations are reproduced verbatim below
//! (per-line gather + per-level allocating convolution for the DWT, the
//! naive zero-skipping triple loop for matmul, the AoS `(index, value)`
//! sorted merge for the batch dot) so the speedup is measured against the
//! real predecessor, not a strawman.

use aims_dsp::dwt::{analysis_step, dwt_standard_md_with, idwt_standard_md_with, synthesis_step};
use aims_dsp::filters::{FilterKind, WaveletFilter};
use aims_exec::ThreadPool;
use aims_linalg::Matrix;
use aims_propolyne::batch::{drill_down_queries, evaluate_batch_with};
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;

use crate::workloads::gaussian_mixture_cube;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pre-kernel full decomposition: one fresh `(approx, detail)` Vec pair
/// per level, error-tree concatenation.
fn old_dwt_full(signal: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    let mut approx = signal.to_vec();
    let mut details = Vec::new();
    while approx.len() > 1 {
        let (a, d) = analysis_step(&approx, filter);
        details.push(d);
        approx = a;
    }
    let mut out = approx;
    for d in details.into_iter().rev() {
        out.extend_from_slice(&d);
    }
    out
}

fn old_idwt_full(coeffs: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    let mut approx = vec![coeffs[0]];
    let mut offset = 1;
    while offset < coeffs.len() {
        let band = &coeffs[offset..offset + approx.len()];
        approx = synthesis_step(&approx, band, filter);
        offset += band.len();
    }
    approx
}

/// Pre-kernel 2-D standard transform: per axis, gather every line into a
/// fresh Vec (strided element-by-element for the non-contiguous axis),
/// transform it through the allocating per-level path, scatter it back.
fn old_dwt_2d(data: &[f64], dims: &[usize; 2], filter: &WaveletFilter, forward: bool) -> Vec<f64> {
    let (rows, cols) = (dims[0], dims[1]);
    let mut out = data.to_vec();
    // Axis 0: stride `cols` lines of length `rows`.
    for c in 0..cols {
        let line: Vec<f64> = (0..rows).map(|r| out[r * cols + c]).collect();
        let t = if forward { old_dwt_full(&line, filter) } else { old_idwt_full(&line, filter) };
        for (r, v) in t.into_iter().enumerate() {
            out[r * cols + c] = v;
        }
    }
    // Axis 1: contiguous rows.
    for r in 0..rows {
        let line = out[r * cols..(r + 1) * cols].to_vec();
        let t = if forward { old_dwt_full(&line, filter) } else { old_idwt_full(&line, filter) };
        out[r * cols..(r + 1) * cols].copy_from_slice(&t);
    }
    out
}

/// Pre-kernel matmul: the naive i→k→j triple loop with the zero-skip
/// branch the blocked kernel replaced.
fn old_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let orow = out.row_mut(i);
        for (k, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(b.row(k)) {
                *o += aik * bv;
            }
        }
        let _ = orow;
    }
    out
}

/// Pre-kernel batch evaluation: AoS `(index, weight)` entries merged
/// against an AoS `(index, value)` fetch plan, serial throughout.
fn old_evaluate_batch(engine: &Propolyne, queries: &[RangeSumQuery]) -> Vec<f64> {
    let prepared: Vec<Vec<(usize, f64)>> =
        queries.iter().map(|q| engine.prepare(q).entries().collect()).collect();
    let coeffs = engine.cube().coeffs();
    let mut needed: Vec<usize> = prepared.iter().flat_map(|p| p.iter().map(|&(i, _)| i)).collect();
    needed.sort_unstable();
    needed.dedup();
    let plan: Vec<(usize, f64)> = needed.into_iter().map(|i| (i, coeffs[i])).collect();
    prepared
        .iter()
        .map(|entries| {
            let mut acc = 0.0;
            let mut cursor = 0usize;
            for &(i, w) in entries {
                while plan[cursor].0 < i {
                    cursor += 1;
                }
                acc += w * plan[cursor].1;
                cursor += 1;
            }
            acc
        })
        .collect()
}

/// E29 — kernel rework: serial wall time of the current kernels vs the
/// frozen pre-rework implementations, results pinned (bit-identical where
/// the kernel is exact, ulp-bounded for the Db4 lifting factorization).
/// Records `target/bench_kernels.json` for the trend gate.
pub fn e29_kernel_speed() {
    crate::header("E29", "kernel rework: serial speed vs frozen pre-kernel implementations");
    println!("pool size: 1 (single-core kernel speed; E24 covers scaling)\n");

    // Resolve the autotuner up front so its one-shot calibration doesn't
    // land inside the first timed region.
    let tune = aims_exec::tuning();
    println!(
        "autotuned tile {} / serial-below {} ({})\n",
        tune.tile,
        tune.par_threshold,
        if tune.from_env { "AIMS_TILE override" } else { "calibrated" }
    );

    let serial = ThreadPool::new(1);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    let report = crate::TelemetryReport::start();

    // 2-D DWT, 1024x1024 db4, forward + inverse.
    {
        let n = 1024usize;
        let filter = FilterKind::Db4.filter();
        let data: Vec<f64> =
            (0..n * n).map(|i| ((i % 613) as f64 * 0.25).sin() + (i / n) as f64 * 1e-3).collect();
        let dims = [n, n];
        let (old_fwd, t_old) = crate::timed("bench.e29.dwt.old", || {
            let fwd = old_dwt_2d(&data, &dims, &filter, true);
            let _inv = old_dwt_2d(&fwd, &dims, &filter, false);
            fwd
        });
        let (new_fwd, t_new) = crate::timed("bench.e29.dwt.new", || {
            let fwd = dwt_standard_md_with(&serial, &data, &dims, &filter);
            let _inv = idwt_standard_md_with(&serial, &fwd, &dims, &filter);
            fwd
        });
        // Db4 runs through the lifting factorization: equal to the old
        // convolution path up to a few ulps per level. In 2-D the two
        // axis passes compound, and the column pass's rounding is carried
        // at the magnitude of its intermediate coefficients (which grow
        // ~sqrt(2) per level), so the error scale is the largest
        // coefficient, not the input scale.
        let levels = (n.trailing_zeros() as f64) + 1.0;
        let cmax = old_fwd.iter().fold(1e-30_f64, |m, v| m.max(v.abs()));
        let tol = 8.0 * levels * cmax * f64::EPSILON;
        for (i, (a, b)) in new_fwd.iter().zip(&old_fwd).enumerate() {
            assert!((a - b).abs() <= tol, "db4 coeff {i}: {a} vs {b} (tol {tol:e})");
        }
        rows.push(("2-D DWT 1024^2 fwd+inv".into(), t_old.as_secs_f64(), t_new.as_secs_f64()));
    }

    // Same transform with Haar, where the new kernel must be exact.
    {
        let n = 512usize;
        let filter = FilterKind::Haar.filter();
        let data: Vec<f64> = (0..n * n).map(|i| ((i * 29 + 3) % 97) as f64 * 0.1 - 4.0).collect();
        let dims = [n, n];
        let (old_fwd, t_old) =
            crate::timed("bench.e29.haar.old", || old_dwt_2d(&data, &dims, &filter, true));
        let (new_fwd, t_new) = crate::timed("bench.e29.haar.new", || {
            dwt_standard_md_with(&serial, &data, &dims, &filter)
        });
        assert_eq!(bits(&new_fwd), bits(&old_fwd), "haar kernel diverged from convolution");
        rows.push(("2-D Haar DWT 512^2 fwd".into(), t_old.as_secs_f64(), t_new.as_secs_f64()));
    }

    // Matmul 512x512: blocked + unrolled vs naive, bit-identical.
    {
        let n = 512usize;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 101) as f64 * 0.01 - 0.5);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 17) % 89) as f64 * 0.01 - 0.4);
        let (c_old, t_old) = crate::timed("bench.e29.matmul.old", || old_matmul(&a, &b));
        let (c_new, t_new) = crate::timed("bench.e29.matmul.new", || a.matmul_with(&serial, &b));
        assert_eq!(bits(c_new.as_slice()), bits(c_old.as_slice()), "blocked matmul diverged");
        rows.push(("matmul 512^2".into(), t_old.as_secs_f64(), t_new.as_secs_f64()));
    }

    // 64-query drill-down batch: SoA plan + merge vs AoS, bit-identical.
    {
        let cube = gaussian_mixture_cube(256);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let base = RangeSumQuery::count(vec![(0, 255), (16, 239)]);
        let queries = drill_down_queries(&base, 0, 64);
        let (res_old, t_old) =
            crate::timed("bench.e29.batch.old", || old_evaluate_batch(&engine, &queries));
        let (res_new, t_new) =
            crate::timed("bench.e29.batch.new", || evaluate_batch_with(&serial, &engine, &queries));
        assert_eq!(bits(&res_new.answers), bits(&res_old), "SoA batch diverged from AoS");
        rows.push(("ProPolyne batch 64q".into(), t_old.as_secs_f64(), t_new.as_secs_f64()));
    }

    println!("{:>24} {:>12} {:>12} {:>10}", "workload", "old", "new", "speedup");
    for (name, to, tn) in &rows {
        println!(
            "{:>24} {:>12} {:>12} {:>10}",
            name,
            format!("{:.1} ms", to * 1e3),
            format!("{:.1} ms", tn * 1e3),
            crate::times(to / tn.max(1e-12))
        );
    }
    println!("\nshape check: exact kernels (Haar, matmul, batch) are asserted bit-identical");
    println!("to the frozen implementations; the Db4 lifting path is ulp-bounded per level.");
    println!("Target: >=2x on the 2-D DWT (in-place lifting + tiled strided access).");

    report.finish("E29 kernel counters (scratch reuse, tuner)");

    let json = format!(
        "{{\"experiment\":\"e29_kernels\",\"workloads\":[{}]}}\n",
        rows.iter()
            .map(|(name, to, tn)| format!(
                "{{\"name\":\"{name}\",\"old_s\":{to:.6},\"new_s\":{tn:.6},\"speedup\":{:.3}}}",
                to / tn.max(1e-12)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    // Both sides run on one core in one process, so the ratio is steadier
    // than a parallel speedup — but still wall-clock on a shared host:
    // medium band.
    let metrics: Vec<crate::Metric> = rows
        .iter()
        .map(|(name, to, tn)| {
            let speedup = to / tn.max(1e-12);
            crate::Metric::higher(format!("e29.{}.speedup", crate::slug(name)), speedup, 0.50, 0.0)
        })
        .collect();
    crate::record("bench_kernels.json", &json, &metrics);
}
