//! Experiments E7–E12: ProPolyne, the off-line query engine (paper §3.3,
//! §3.3.1).

use aims_dsp::dwt::dwt_full;
use aims_dsp::filters::FilterKind;
use aims_dsp::lazy::lazy_transform;
use aims_dsp::poly::Polynomial;
use aims_propolyne::blockstore::BlockedCoefficients;
use aims_propolyne::cube::{AttributeSpace, DataCube};
use aims_propolyne::engine::Propolyne;
use aims_propolyne::hybrid::{choose_standard_dims, HybridEngine};
use aims_propolyne::query::RangeSumQuery;
use aims_propolyne::synopsis::compare_at_budget;
use aims_service::{Outcome, QueryService, QuerySpec, ServiceConfig};
use aims_storage::{BlockDevice, RetryPolicy, SharedBlockCache};

use crate::workloads::{gaussian_mixture_cube, sensor_trace_cube, uniform_cube, zipf_cube};

/// E7 — "the lazy wavelet transform … translates polynomial range-sums to
/// the wavelet domain in polylogarithmic time" (§3.3). Nonzeros and time
/// vs domain size, against the naive dense transform.
pub fn e7_lazy_transform() {
    crate::header("E7", "lazy wavelet transform: polylog query translation (§3.3)");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "N", "log2 N", "nnz", "lazy work", "lazy time", "dense time"
    );
    let poly = Polynomial::from_coeffs(vec![1.0, 0.5]); // degree-1 measure
    let filter = FilterKind::Db4.filter();
    for log_n in [8u32, 10, 12, 14, 16, 18, 20] {
        let n = 1usize << log_n;
        let (a, b) = (n / 7, n - n / 5);

        let (lazy, lazy_time) =
            crate::timed("bench.e7.lazy_transform", || lazy_transform(n, a, b, &poly, &filter));

        let dense_time = if log_n <= 18 {
            let q: Vec<f64> =
                (0..n).map(|i| if i >= a && i <= b { poly.eval(i as f64) } else { 0.0 }).collect();
            let (_, dense) = crate::timed("bench.e7.dense_transform", || dwt_full(&q, &filter));
            format!("{:>10.2?}", dense)
        } else {
            "      (skip)".into()
        };

        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>14.2?} {:>12}",
            n,
            log_n,
            lazy.nnz(1e-7),
            lazy.work,
            lazy_time,
            dense_time
        );
    }
    println!("\nshape check: nnz and lazy work grow ~linearly in log N (polylog), while");
    println!("the dense transform time grows linearly in N.");
}

/// E8 — ProPolyne exact evaluation matches the relational scan for all
/// five aggregate types (§3.3: "not only COUNT, SUM and AVERAGE, but also
/// VARIANCE, COVARIANCE").
pub fn e8_exact_aggregates() {
    crate::header("E8", "exact COUNT/SUM/AVG/VARIANCE/COVARIANCE vs relational scan (§3.3)");
    let space = AttributeSpace::new(vec![(0.0, 64.0), (0.0, 64.0)], vec![64, 64]);
    let cube = {
        let mut c = DataCube::zeros(&[64, 64]);
        let mut state = 99u64;
        for v in c.values_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 6) as f64;
        }
        c
    };
    let engine = Propolyne::new(cube.transform(&FilterKind::Db6.filter()));
    let stats = aims_propolyne::stats::CubeStats::new(&engine, &space);

    let mut max_rel = vec![0.0f64; 5];
    let mut checked = 0usize;
    for k in 0..40 {
        let a0 = (k * 7) % 40;
        let a1 = (k * 11) % 32;
        let ranges = [(a0, a0 + 23), (a1, a1 + 31)];
        let rq = |q: RangeSumQuery| q.eval_scan(&cube);

        let count_scan = rq(RangeSumQuery::count(ranges.to_vec()));
        if count_scan == 0.0 {
            continue;
        }
        checked += 1;
        let vp0 = space.value_poly(0);
        let vp1 = space.value_poly(1);
        let sum_scan = rq(RangeSumQuery::sum_poly(ranges.to_vec(), 0, vp0.clone()));
        let sq_scan = rq(RangeSumQuery::sum_poly(ranges.to_vec(), 0, vp0.mul(&vp0)));
        let cross_scan =
            rq(RangeSumQuery::sum_product(ranges.to_vec(), 0, vp0.clone(), 1, vp1.clone()));
        let sum1_scan = rq(RangeSumQuery::sum_poly(ranges.to_vec(), 1, vp1));

        let avg_scan = sum_scan / count_scan;
        let var_scan = sq_scan / count_scan - avg_scan * avg_scan;
        let cov_scan = cross_scan / count_scan - avg_scan * (sum1_scan / count_scan);

        let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1.0);
        max_rel[0] = max_rel[0].max(rel(stats.count(&ranges), count_scan));
        max_rel[1] = max_rel[1].max(rel(stats.sum(0, &ranges), sum_scan));
        max_rel[2] = max_rel[2].max(rel(stats.average(0, &ranges).unwrap(), avg_scan));
        max_rel[3] = max_rel[3].max(rel(stats.variance(0, &ranges).unwrap(), var_scan));
        max_rel[4] = max_rel[4].max(rel(stats.covariance(0, 1, &ranges).unwrap(), cov_scan));
    }
    println!("{checked} random rectangles checked; max relative deviation from scan:");
    for (name, err) in ["COUNT", "SUM", "AVERAGE", "VARIANCE", "COVARIANCE"].iter().zip(&max_rel) {
        println!("  {name:>10}: {err:.2e}");
    }
    println!("\nshape check: all five aggregates agree with the scan to rounding error.");
}

/// E9 — "the approximate results produced by ProPolyne are very accurate
/// long before the exact query evaluation is complete" (§3.3), plus the
/// filter-moment ablation.
pub fn e9_progressive_accuracy() {
    crate::header("E9", "progressive accuracy: error vs retrieved query coefficients (§3.3)");
    let cube = gaussian_mixture_cube(256);

    println!("-- error vs fraction of query coefficients (db4, COUNT query) --");
    println!("(a store of one coefficient per block, so a block is a query coefficient:");
    println!(" order = catalog gain |w|·|c|, bound = the ledger's suffix Σ|w|·|c|)");
    let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
    let q = RangeSumQuery::count(vec![(31, 215), (40, 180)]);
    let prepared = engine.prepare(&q);
    let exact = engine.evaluate_prepared(&prepared);
    let store = BlockedCoefficients::new(engine.cube().coeffs(), 1);
    let pool = SharedBlockCache::new(64);
    let run = store.progressive(&prepared.indices, &prepared.weights, &pool, &RetryPolicy::none());
    let total = run.len();
    let rel_error = |k: usize| (run[k].estimate - exact).abs() / exact.abs();
    println!("{:>10} {:>12} {:>12}", "coeffs", "rel error", "bound/exact");
    for frac in [0.02, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let k = ((total as f64 * frac) as usize).clamp(1, total);
        let bound = run[k - 1].bound / exact.abs();
        println!("{:>9}% {:>12.2e} {:>12.2e}", (frac * 100.0) as usize, rel_error(k - 1), bound);
    }
    for (k, p) in run.iter().enumerate() {
        let error = (p.estimate - exact).abs();
        assert!(
            error <= p.bound + 1e-9 * exact.abs(),
            "step {k}: error {error} > bound {}",
            p.bound
        );
    }
    // The first step from which the relative error stays under 1%.
    let within = (0..total).rev().take_while(|&k| rel_error(k) <= 0.01).last().unwrap_or(total);
    println!(
        "1% relative error from {} of {total} coefficients ({:.1}%)",
        within + 1,
        100.0 * (within + 1) as f64 / total as f64
    );
    assert!(20 * (within + 1) <= total, "1% error needs more than 5% of the coefficients");

    println!("\n-- filter ablation: 1-D query nnz at N=65536 (moment condition) --");
    println!("{:>8} {:>10} {:>18} {:>18}", "filter", "moments", "nnz, degree 1", "nnz, degree 2");
    let n = 1 << 16;
    for kind in FilterKind::ALL {
        let f = kind.filter();
        let nnz = |deg: usize| {
            lazy_transform(n, n / 9, n - n / 11, &Polynomial::monomial(deg), &f).nnz(1e-7)
        };
        println!(
            "{:>8} {:>10} {:>18} {:>18}",
            format!("{kind:?}"),
            f.vanishing_moments(),
            nnz(1),
            nnz(2)
        );
    }
    println!("\nshape check: ~1% relative error within a few percent of the");
    println!("coefficients; a filter with too few vanishing moments for the measure's");
    println!("degree produces O(N) query coefficients, adequate filters stay at");
    println!("O(filter-length x log N) — the paper's moment condition, sharply.");
}

/// E10 — "the performance of wavelet based data approximation methods
/// varies wildly with the dataset, while query approximation based
/// ProPolyne delivers consistent, and consistently better, results" (§3.3).
pub fn e10_data_vs_query_approximation() {
    crate::header("E10", "data approximation vs query approximation across datasets (§3.3)");
    let n = 128;
    let datasets: Vec<(&str, DataCube)> = vec![
        ("smooth mixture", gaussian_mixture_cube(n)),
        ("uniform noise", uniform_cube(n, 5)),
        ("zipf spikes", zipf_cube(n, 9)),
        ("sensor trace", sensor_trace_cube(n, 13)),
    ];
    let workload: Vec<RangeSumQuery> = (0..15)
        .map(|k| {
            let a = (k * 7) % 50;
            RangeSumQuery::count(vec![(a, a + 60), (5 + k, 90 + k)])
        })
        .collect();
    let budget = 96;

    println!("{:>16} {:>14} {:>14} {:>10}", "dataset", "data-approx", "query-approx", "winner");
    let mut data_errs = Vec::new();
    let mut query_errs = Vec::new();
    for (name, cube) in &datasets {
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let (d, q) = compare_at_budget(&engine, &workload, budget);
        println!(
            "{:>16} {:>14.4} {:>14.4} {:>10}",
            name,
            d,
            q,
            if q <= d { "query" } else { "data" }
        );
        data_errs.push(d);
        query_errs.push(q);
    }
    let worst = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "\nworst-case error across datasets: data-approx {:.4}, query-approx {:.4}",
        worst(&data_errs),
        worst(&query_errs)
    );
    let wins = data_errs.iter().zip(&query_errs).filter(|(d, q)| q <= d).count();
    assert!(wins >= 3, "query approximation won {wins} of 4 datasets");
    assert!(worst(&query_errs) < worst(&data_errs), "query approximation's worst case is worse");
    println!("shape check: data approximation swings by an order of magnitude across");
    println!("datasets; query approximation wins on at least 3 of the 4 and its worst");
    println!("case is several-fold better — 'consistent, and consistently better'.");
}

/// E11 — the hybrid standard/wavelet engine "can perform dramatically
/// better" than pure relational or pure ProPolyne, with the decomposition
/// chosen at population time (§3.3.1).
pub fn e11_hybrid() {
    crate::header("E11", "hybrid standard+wavelet basis vs pure plans (§3.3.1)");
    // Sensor relation: (sensor_id, time, value) with 4 sensors.
    let space = AttributeSpace::new(vec![(0.0, 4.0), (0.0, 512.0), (0.0, 64.0)], vec![4, 512, 64]);
    let tuples: Vec<Vec<f64>> = (0..6000)
        .map(|i| {
            let sensor = (i % 4) as f64 + 0.5;
            let time = ((i / 4) % 512) as f64 + 0.5;
            let value = (32.0 + 24.0 * ((i as f64) * 0.013).sin()).floor() + 0.5;
            vec![sensor, time, value]
        })
        .collect();

    let chosen = choose_standard_dims(&space, &tuples, 16);
    println!("population-time chooser picked standard dims: {chosen:?} (expected [0])");

    let filter = FilterKind::Db4.filter();
    let hybrid = HybridEngine::build(&space, &tuples, &chosen, &filter);
    let cube = DataCube::from_tuples(&space, tuples.clone());
    let pure = Propolyne::new(cube.transform(&filter));

    // Workload: single-sensor range aggregates (the common immersidata
    // query: "this sensor, this time window").
    println!(
        "\n{:>26} {:>16} {:>16} {:>14}",
        "query", "pure ProPolyne", "hybrid coeffs", "relational rows"
    );
    for (label, sensor, trange) in [
        ("sensor 1, t∈[50,300)", 1usize, (50usize, 299usize)),
        ("sensor 3, t∈[0,512)", 3, (0, 511)),
        ("sensor 0, t∈[200,210)", 0, (200, 209)),
    ] {
        let q = RangeSumQuery::count(vec![(sensor, sensor), trange, (0, 63)]);
        let pure_cost = pure.prepare(&q).nnz();
        let ans = hybrid.evaluate(&q);
        // Pure relational plan: scan matching rows.
        let rows = tuples
            .iter()
            .filter(|t| {
                space.bin(0, t[0]) == sensor && (trange.0..=trange.1).contains(&space.bin(1, t[1]))
            })
            .count();
        println!("{:>26} {:>16} {:>16} {:>14}", label, pure_cost, ans.coefficients_touched, rows);
        let scan = q.eval_scan(&cube);
        assert!((ans.value - scan).abs() < 1e-5 * scan.abs().max(1.0), "hybrid wrong");
    }
    println!("\nshape check: the hybrid touches fewer coefficients than pure ProPolyne");
    println!("on selective sensor queries, and both beat scanning the matching rows.");
}

/// E12 — batch/group-by evaluation "shares I/O maximally" across related
/// ranges (§3.3.1): the drill-down buckets as co-admitted sessions of one
/// query service over a store of one coefficient per block, whose cache
/// holds the whole cube.
pub fn e12_batch_sharing() {
    crate::header("E12", "shared retrieval for drill-down query batches (§3.3.1)");
    let cube = gaussian_mixture_cube(128).transform(&FilterKind::Db4.filter());
    let engine = Propolyne::new(cube.clone());
    let store = BlockedCoefficients::new(cube.coeffs(), 1);
    let base = RangeSumQuery::count(vec![(0, 127), (16, 111)]);
    let whole = engine.evaluate(&base);

    println!("{:>10} {:>16} {:>16} {:>12}", "buckets", "independent", "shared", "sharing");
    for buckets in [2usize, 4, 8, 16, 32] {
        let queries = base.drill_down(0, buckets);
        let svc = QueryService::new(
            cube.clone(),
            1,
            ServiceConfig {
                cache_blocks: store.num_blocks(),
                round_blocks: 256,
                ..ServiceConfig::default()
            },
        );
        // One admission: the buckets share every round from the first.
        let specs = queries.iter().map(|q| QuerySpec::interactive(q.ranges.clone())).collect();
        let handles = svc.submit_all(specs).expect("queue fits");
        let (mut independent, mut total) = (0usize, 0.0);
        for (k, (q, h)) in queries.iter().zip(handles).enumerate() {
            let prepared = engine.prepare(q);
            independent += store.plan_blocks(&prepared).len();
            let expect = engine.evaluate_prepared(&prepared);
            match h.wait() {
                Outcome::Done(r) => {
                    assert_eq!(r.estimate.to_bits(), expect.to_bits(), "bucket {k} of {buckets}");
                    total += r.estimate;
                }
                other => panic!("bucket {k} of {buckets} did not complete: {other:?}"),
            }
        }
        let shared = svc.device().stats().reads as usize;
        svc.shutdown();
        println!(
            "{:>10} {:>16} {:>16} {:>12}",
            buckets,
            independent,
            shared,
            crate::times(independent as f64 / shared as f64)
        );
        // The buckets partition the base.
        assert!((total - whole).abs() < 1e-6 * whole.abs().max(1.0));
    }
    println!("\nshape check: the sharing factor grows with the number of related");
    println!("buckets — drill-down buckets share their coarse coefficients.");
}
