//! Experiment E25: graceful degradation under storage faults —
//! degraded-query error vs. fraction of lost blocks, with the guaranteed
//! error bound asserted at every point and bit-identity asserted at zero
//! faults.

use aims::drill::faults::{run, Config};
use aims_storage::device::RetryPolicy;
use aims_storage::faults::{FaultKind, FaultPlan};

/// One measured point of the degradation curve.
struct Row {
    dead_fraction: f64,
    lost_blocks: usize,
    degraded_queries: usize,
    mean_abs_error: f64,
    mean_bound: f64,
    worst_rel_error: f64,
}

/// E25 — fault-injected storage: mean degraded-query error and guaranteed
/// bound as the fraction of dead blocks grows. Gates: at every fraction
/// the true error never exceeds the bound, and at fraction 0 every answer
/// is bit-identical to the plain in-memory device.
pub fn e25_fault_degradation() {
    crate::header("E25", "fault-injected storage: degraded-query error vs fraction of lost blocks");

    let n = 4096usize;
    let block = 32usize;
    let seed = 0xA1B2u64;
    let signal: Vec<f64> =
        (0..n).map(|i| ((i * 13 + 5) % 31) as f64 - 15.0 + (i as f64 * 0.003).sin()).collect();

    // 64 range queries spread over the domain at several widths.
    let queries: Vec<(usize, usize)> = (0..64)
        .map(|k| {
            let width = 1usize << (4 + (k % 8));
            let start = (k * 61) % (n - width);
            (start, start + width - 1)
        })
        .collect();

    println!("store: n={n}, B={block}, tree tiling, {} range queries, seed {seed:#x}\n", 64);

    let mut rows: Vec<Row> = Vec::new();
    let ((), wall) = crate::timed("bench.e25.faults", || {
        for dead_fraction in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let report = run(&Config {
                plan: FaultPlan::uniform(seed, FaultKind::DeadBlock, dead_fraction),
                retry: RetryPolicy::with_retries(2),
                signal: signal.clone(),
                block,
                queries: queries.clone(),
            });
            // The drill checks every query: bit-identical when nothing was
            // lost (all of them at fraction 0), within its bound otherwise.
            let violations = report.violations();
            assert!(violations.is_empty(), "fraction {dead_fraction}: {violations:?}");
            let degraded = report.degraded().count();
            assert!(
                dead_fraction > 0.0 || degraded == 0,
                "zero faults degraded {degraded} queries"
            );
            let denom = degraded.max(1) as f64;
            rows.push(Row {
                dead_fraction,
                lost_blocks: report.dead_blocks,
                degraded_queries: degraded,
                mean_abs_error: report.degraded().map(|r| r.abs_error()).sum::<f64>() / denom,
                mean_bound: report.degraded().map(|r| r.got.error_bound).sum::<f64>() / denom,
                worst_rel_error: report.worst_rel_error(),
            });
        }
    });

    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>14} {:>12}",
        "dead frac", "dead blocks", "degraded q", "mean |err|", "mean bound", "worst rel"
    );
    for r in &rows {
        println!(
            "{:>10} {:>12} {:>14} {:>14} {:>14} {:>12}",
            format!("{:.2}", r.dead_fraction),
            r.lost_blocks,
            format!("{}/64", r.degraded_queries),
            format!("{:.3}", r.mean_abs_error),
            format!("{:.3}", r.mean_bound),
            format!("{:.4}", r.worst_rel_error),
        );
    }
    println!("\nshape check: zero faults → 0 degraded queries and bit-identical answers");
    println!("(asserted above); the guaranteed bound dominates the true error at every");
    println!("fraction, and both grow with the share of lost blocks. ({wall:.1?})");
}
