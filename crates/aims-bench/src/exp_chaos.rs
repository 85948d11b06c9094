//! Experiment E31: adaptive QoS under composed chaos — the six-phase
//! seeded drill (storage faults × sensor faults × overload) plus the
//! utility-vs-FIFO round-scheduling comparison.

use std::time::Duration;

use aims::drill::chaos::{run, Config};
use aims_dsp::filters::FilterKind;
use aims_propolyne::blockstore::BlockedCoefficients;
use aims_propolyne::cube::WaveletCube;
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;
use aims_service::{Outcome, QueryService, QuerySpec, SchedulerPolicy, ServiceConfig};

use crate::workloads::gaussian_mixture_cube;

const SIDE: usize = 64;
const BLOCK: usize = 16;
const QUERIES: usize = 12;

/// A heterogeneous session mix: every third query is a broad **batch**
/// report sweeping most of the cube; the rest are narrow **interactive**
/// probes. The class split is where round scheduling has real freedom:
/// a class-blind FIFO sweep over the ascending block union serves the
/// batch reports' huge low-id mass first and makes the interactive
/// probes wait, while the utility scheduler's boost-weighted fair
/// shares tighten interactive bounds first at a bounded cost to batch.
fn mixed_queries() -> Vec<Vec<(usize, usize)>> {
    (0..QUERIES)
        .map(|k| {
            if is_batch(k) {
                let lo = (k * 3) % 24;
                let hi = (lo + 38).min(SIDE - 1);
                let lo2 = (k * 5) % 20;
                let hi2 = (lo2 + 34).min(SIDE - 1);
                vec![(lo, hi), (lo2, hi2)]
            } else {
                let lo = (7 * k + 13) % (SIDE - 8);
                let lo2 = (11 * k + 29) % (SIDE - 8);
                vec![(lo, lo + 6), (lo2, lo2 + 6)]
            }
        })
        .collect()
}

/// Whether workload query `k` is the broad batch class (the rest are
/// narrow interactive probes).
fn is_batch(k: usize) -> bool {
    k.is_multiple_of(3)
}

/// Runs the mixed-class workload under one scheduler policy, submitted as
/// one cohort that fits the batch (so queue pressure is zero at every
/// observation and nothing degrades), and returns
/// each session's relative bound-trajectory area — Σ over its per-round
/// progress frames of `bound / initial_bound`, the "remaining
/// uncertainty" the utility scheduler allocates against. Lower = faster
/// refinement. Also returns the answer bits.
fn bound_auc(
    policy: SchedulerPolicy,
    cube: &WaveletCube,
    queries: &[Vec<(usize, usize)>],
    initial: &[f64],
) -> (Vec<f64>, Vec<u64>) {
    let svc = QueryService::new(
        cube.clone(),
        BLOCK,
        ServiceConfig {
            queue_capacity: QUERIES,
            max_batch: QUERIES,
            round_blocks: 8,
            round_pause: Duration::from_micros(300),
            policy,
            ..ServiceConfig::default()
        },
    );
    // One admission for the whole cohort: submitted one by one, early
    // rounds would race the submission loop, late admits would catch up
    // free from a warm cache, and the measured areas would flip between
    // discrete modes run to run.
    let specs = queries
        .iter()
        .enumerate()
        .map(|(k, r)| {
            if is_batch(k) {
                QuerySpec::batch(r.clone())
            } else {
                QuerySpec::interactive(r.clone())
            }
        })
        .collect();
    let handles = svc.submit_all(specs).expect("queue sized for workload");
    let mut saucs = Vec::new();
    let mut bits = Vec::new();
    for (h, &initial) in handles.into_iter().zip(initial) {
        let (trace, outcome) = h.collect();
        let mut sauc = 0.0;
        for r in &trace {
            sauc += r.error_bound / initial.max(f64::MIN_POSITIVE);
        }
        saucs.push(sauc);
        match outcome {
            Outcome::Done(r) => bits.push(r.estimate.to_bits()),
            other => panic!("undisturbed workload must complete, got {other:?}"),
        }
    }
    svc.shutdown();
    (saucs, bits)
}

/// E31 — adaptive QoS and composed chaos. Part 1 runs the six-phase
/// seeded drill (no panics, no lost queries, monotone bounds, shed ⇒
/// best-so-far, full drain recovery). Part 2 compares utility-driven
/// round scheduling against FIFO on a mixed batch/interactive workload
/// submitted as one cohort: answers must be bit-identical, and the utility
/// policy must reduce the class-weighted error bound faster (smaller
/// boost-weighted trajectory area).
pub fn e31_chaos_qos() {
    crate::header("E31", "adaptive QoS: composed chaos drill + utility-vs-FIFO scheduling");

    // Part 1 — the composed drill.
    // The master seed: `AIMS_CHAOS_SEED` if set (CI pins two values).
    let cfg = Config { seed: aims::drill::env_seed("AIMS_CHAOS_SEED", 4242), ..Config::default() };
    let (report, drill_elapsed) = crate::timed("e31.drill", || run(&cfg));
    println!("\n{}", report.render_table());
    println!("drill wall {:.0} ms", drill_elapsed.as_secs_f64() * 1e3);
    let violations = report.violations();
    assert!(
        report.passed(),
        "chaos drill (seed {}) violated {} invariant(s):\n  {}",
        report.seed,
        violations.len(),
        violations.join("\n  ")
    );
    assert!(report.shed_fraction > 0.0, "flood phases never engaged shedding");

    // Part 2 — utility vs FIFO round scheduling, one cohort.
    let cube = gaussian_mixture_cube(SIDE).transform(&FilterKind::Db4.filter());
    let engine = Propolyne::new(cube.clone());
    let blocked = BlockedCoefficients::new(engine.cube().coeffs(), BLOCK);
    let queries = mixed_queries();
    // Each session's starting error bound — the number the service
    // starts it at — to normalize bound trajectories (relative progress).
    let initial: Vec<f64> = queries
        .iter()
        .map(|ranges| {
            let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
            blocked.plan(&p).initial_bound()
        })
        .collect();
    let expected: Vec<u64> = queries
        .iter()
        .map(|ranges| {
            let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
            engine.evaluate_prepared(&p).to_bits()
        })
        .collect();

    let (fifo_sauc, fifo_bits) = bound_auc(SchedulerPolicy::Fifo, &cube, &queries, &initial);
    let (utility_sauc, utility_bits) =
        bound_auc(SchedulerPolicy::Utility, &cube, &queries, &initial);
    assert_eq!(fifo_bits, expected, "FIFO answers must match serial evaluation");
    assert_eq!(utility_bits, expected, "utility answers must match serial evaluation");

    // The gated metric is the *class-weighted* bound area — interactive
    // sessions weighted by the service's own interactive boost — i.e.
    // the utility objective the scheduler declares. The per-class areas
    // are reported alongside so the trade is visible: interactive
    // tightens faster, batch pays a bounded premium.
    let boost = aims_service::qos::INTERACTIVE_BOOST;
    let class_area = |saucs: &[f64], batch: bool| -> f64 {
        saucs.iter().enumerate().filter(|&(k, _)| is_batch(k) == batch).map(|(_, &s)| s).sum()
    };
    let fifo_int = class_area(&fifo_sauc, false);
    let fifo_bat = class_area(&fifo_sauc, true);
    let utility_int = class_area(&utility_sauc, false);
    let utility_bat = class_area(&utility_sauc, true);
    let fifo_auc = boost * fifo_int + fifo_bat;
    let utility_auc = boost * utility_int + utility_bat;
    let auc_ratio = fifo_auc / utility_auc.max(f64::MIN_POSITIVE);

    println!("\n{:>28} {:>10} {:>10}", "bound area", "fifo", "utility");
    println!("{:>28} {:>10.1} {:>10.1}", "interactive class", fifo_int, utility_int);
    println!("{:>28} {:>10.1} {:>10.1}", "batch class", fifo_bat, utility_bat);
    println!(
        "{:>28} {:>10.1} {:>10.1}",
        format!("weighted (boost {boost:.0})"),
        fifo_auc,
        utility_auc
    );
    println!(
        "{:>28} {:>10} sessions {}",
        "fifo/utility weighted",
        crate::times(auc_ratio),
        QUERIES
    );
    assert!(
        auc_ratio >= 1.0,
        "utility scheduling must not refine the weighted workload slower than FIFO \
         (ratio {auc_ratio:.3})"
    );
    println!("\nanswers bit-identical across policies; drill invariants all held");
}
