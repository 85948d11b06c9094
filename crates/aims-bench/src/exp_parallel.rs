//! Experiment E24: the execution layer — serial vs parallel wall time on
//! the three multicore hot paths (2-D DWT, ProPolyne batch, matmul), with
//! bit-identical results asserted for every measurement.

use aims_dsp::dwt::{dwt_standard_md_with, idwt_standard_md_with};
use aims_dsp::filters::FilterKind;
use aims_exec::{configured_threads, global_pool, ThreadPool};
use aims_linalg::Matrix;
use aims_propolyne::batch::{drill_down_queries, evaluate_batch_with};
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;

use crate::workloads::gaussian_mixture_cube;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// E24 — execution layer: work-stealing pool speedup on the DWT,
/// ProPolyne batch, and matmul hot paths. The parallel result of every
/// workload is asserted bit-identical to the serial one; the speedups are
/// recorded in `target/bench_parallel.json` (threads included, since a
/// single-core host legitimately reports ~1.0x).
pub fn e24_parallel_speedup() {
    let threads = configured_threads();
    crate::header("E24", "parallel execution layer: serial vs pooled hot paths (bit-identical)");
    println!("pool size: {threads} (AIMS_THREADS or available parallelism)\n");

    let serial = ThreadPool::new(1);
    let pool = global_pool();
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    // 2-D DWT, 1024x1024 db4: forward + inverse.
    {
        let n = 1024usize;
        let filter = FilterKind::Db4.filter();
        let data: Vec<f64> =
            (0..n * n).map(|i| ((i % 613) as f64 * 0.25).sin() + (i / n) as f64 * 1e-3).collect();
        let dims = [n, n];
        let (fwd_s, t_serial) = crate::timed("bench.e24.dwt.serial", || {
            let fwd = dwt_standard_md_with(&serial, &data, &dims, &filter);
            let inv = idwt_standard_md_with(&serial, &fwd, &dims, &filter);
            (fwd, inv)
        });
        let (fwd_p, t_par) = crate::timed("bench.e24.dwt.parallel", || {
            let fwd = dwt_standard_md_with(pool, &data, &dims, &filter);
            let inv = idwt_standard_md_with(pool, &fwd, &dims, &filter);
            (fwd, inv)
        });
        assert_eq!(bits(&fwd_p.0), bits(&fwd_s.0), "parallel forward DWT diverged");
        assert_eq!(bits(&fwd_p.1), bits(&fwd_s.1), "parallel inverse DWT diverged");
        rows.push(("2-D DWT 1024^2 fwd+inv".into(), t_serial.as_secs_f64(), t_par.as_secs_f64()));
    }

    // 64-query drill-down batch on a 256x256 db4 cube.
    {
        let cube = gaussian_mixture_cube(256);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let base = RangeSumQuery::count(vec![(0, 255), (16, 239)]);
        let queries = drill_down_queries(&base, 0, 64);
        let (res_s, t_serial) = crate::timed("bench.e24.batch.serial", || {
            evaluate_batch_with(&serial, &engine, &queries)
        });
        let (res_p, t_par) = crate::timed("bench.e24.batch.parallel", || {
            evaluate_batch_with(pool, &engine, &queries)
        });
        assert_eq!(bits(&res_p.answers), bits(&res_s.answers), "parallel batch diverged");
        rows.push(("ProPolyne batch 64q".into(), t_serial.as_secs_f64(), t_par.as_secs_f64()));
    }

    // Blocked matmul, 512x512.
    {
        let n = 512usize;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 101) as f64 * 0.01 - 0.5);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 17) % 89) as f64 * 0.01 - 0.4);
        let (c_s, t_serial) =
            crate::timed("bench.e24.matmul.serial", || a.matmul_with(&serial, &b));
        let (c_p, t_par) = crate::timed("bench.e24.matmul.parallel", || a.matmul_with(pool, &b));
        assert_eq!(bits(c_p.as_slice()), bits(c_s.as_slice()), "parallel matmul diverged");
        rows.push(("matmul 512^2".into(), t_serial.as_secs_f64(), t_par.as_secs_f64()));
    }

    println!("{:>24} {:>12} {:>12} {:>10}", "workload", "serial", "parallel", "speedup");
    for (name, ts, tp) in &rows {
        println!(
            "{:>24} {:>12} {:>12} {:>10}",
            name,
            format!("{:.1} ms", ts * 1e3),
            format!("{:.1} ms", tp * 1e3),
            crate::times(ts / tp.max(1e-12))
        );
    }
    println!("\nshape check: every parallel result is bit-identical to serial (asserted");
    println!("above); speedup tracks the core count — ~1.0x on a single-core host,");
    println!(">=2x expected on 4+ cores for the DWT and batch workloads.");

    // Machine-readable record for the driver / CI trend tracking.
    let json = format!(
        "{{\"experiment\":\"e24_parallel\",\"threads\":{threads},\"workloads\":[{}]}}\n",
        rows.iter()
            .map(|(name, ts, tp)| format!(
                "{{\"name\":\"{name}\",\"serial_s\":{ts:.6},\"parallel_s\":{tp:.6},\"speedup\":{:.3}}}",
                ts / tp.max(1e-12)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    crate::record("bench_parallel.json", &json, &[]);
}
