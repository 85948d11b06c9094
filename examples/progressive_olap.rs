//! Progressive and approximate OLAP with ProPolyne (paper §3.3): a
//! polynomial range-sum evaluated in the wavelet domain becomes accurate
//! "long before the exact query evaluation is complete", with guaranteed
//! error bounds — and the query-approximation approach is data-independent
//! where data approximation is not.
//!
//! Run with: `cargo run --release --example progressive_olap`

use aims::dsp::filters::FilterKind;
use aims::propolyne::blockstore::BlockedCoefficients;
use aims::propolyne::cube::DataCube;
use aims::propolyne::engine::Propolyne;
use aims::propolyne::query::RangeSumQuery;
use aims::propolyne::synopsis::compare_at_budget;
use aims::storage::{RetryPolicy, SharedBlockCache};

fn gaussian_mixture_cube(n: usize) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let centers = [(0.25, 0.3, 30.0), (0.7, 0.6, 50.0), (0.5, 0.85, 20.0)];
    for i in 0..n {
        for j in 0..n {
            let x = i as f64 / n as f64;
            let y = j as f64 / n as f64;
            let mut v = 1.0;
            for &(cx, cy, a) in &centers {
                let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                v += a * (-d2 / 0.02).exp();
            }
            *cube.at_mut(&[i, j]) = v.round();
        }
    }
    cube
}

fn noise_cube(n: usize) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let mut state = 0xC1DEu64;
    for v in cube.values_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state % 60) as f64;
    }
    cube
}

fn main() {
    let n = 256;
    let cube = gaussian_mixture_cube(n);
    let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
    println!("cube: {n}x{n}, total mass {:.0}", cube.total());

    // A COUNT range-sum over a large rectangle, evaluated progressively on
    // a store of one coefficient per block: each step retrieves one query
    // coefficient, the most valuable (largest |w|·|c|) first.
    let query = RangeSumQuery::count(vec![(30, 220), (45, 200)]);
    let prepared = engine.prepare(&query);
    let exact = engine.evaluate_prepared(&prepared);
    let store = BlockedCoefficients::new(engine.cube().coeffs(), 1);
    let pool = SharedBlockCache::new(64);
    let run = store.progressive(&prepared.indices, &prepared.weights, &pool, &RetryPolicy::none());
    let total_coeffs = run.len();
    println!(
        "\nprogressive COUNT over [30,220]x[45,200]: exact = {exact:.0}, {total_coeffs} query coefficients"
    );
    println!("{:>10} {:>14} {:>12} {:>12}", "coeffs", "estimate", "rel error", "bound");
    let rel_error = |k: usize| (run[k].estimate - exact).abs() / exact.abs();
    for frac in [0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let k = ((total_coeffs as f64 * frac) as usize).clamp(1, total_coeffs);
        let s = &run[k - 1];
        println!(
            "{:>9}% {:>14.1} {:>12.2e} {:>12.2e}",
            (frac * 100.0) as usize,
            s.estimate,
            rel_error(k - 1),
            s.bound / exact.abs()
        );
    }
    if let Some(k) = (0..total_coeffs).rev().take_while(|&k| rel_error(k) <= 0.01).last() {
        println!(
            "\n1% relative error reached after {}/{total_coeffs} coefficients ({:.1}%)",
            k + 1,
            100.0 * (k + 1) as f64 / total_coeffs as f64
        );
    }

    // Data approximation vs query approximation at equal budget, across
    // datasets of very different compressibility.
    println!("\ndata-approximation vs query-approximation (mean relative error):");
    println!("{:>16} {:>8} {:>12} {:>12}", "dataset", "budget", "data-approx", "query-approx");
    let workload: Vec<RangeSumQuery> = (0..12)
        .map(|k| {
            let a = (k * 11) % 100;
            RangeSumQuery::count(vec![(a, a + 120), (10 + k, 150 + k)])
        })
        .collect();
    for (name, cube) in
        [("smooth mixture", gaussian_mixture_cube(n)), ("white noise", noise_cube(n))]
    {
        let full = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        for budget in [64, 256] {
            let (data_err, query_err) = compare_at_budget(&full, &workload, budget);
            println!("{name:>16} {budget:>8} {data_err:>12.4} {query_err:>12.4}");
        }
    }
    println!("\n(the data-approximation column swings with the dataset; the");
    println!(" query-approximation column stays consistent — paper §3.3)");
}
