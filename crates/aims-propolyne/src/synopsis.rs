//! The wavelet data-approximation baseline.
//!
//! "Wavelets are often thought of as a data approximation tool, and have
//! been used this way for approximate range query answering. The efficacy
//! of this approach is highly data dependent; it only works when the data
//! have a concise wavelet approximation." (§3.3). ProPolyne instead
//! approximates the *query*. To reproduce that comparison we need the
//! baseline: keep the top-K data coefficients and answer queries exactly
//! against the truncated cube.

use aims_storage::store::AllocKind;
use aims_storage::{CoefficientStore, MemDevice, RetryPolicy, SharedBlockCache};

use crate::cube::WaveletCube;
use crate::engine::Propolyne;
use crate::query::RangeSumQuery;

/// A top-K data synopsis with its own evaluator.
#[derive(Clone, Debug)]
pub struct DataSynopsis {
    engine: Propolyne,
    kept: usize,
}

impl DataSynopsis {
    /// Builds the synopsis keeping the `k` largest-magnitude coefficients.
    pub fn new(cube: &WaveletCube, k: usize) -> Self {
        DataSynopsis { engine: Propolyne::new(cube.top_k_synopsis(k)), kept: k }
    }

    /// Coefficients retained.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Query answer against the truncated data.
    pub fn evaluate(&self, query: &RangeSumQuery) -> f64 {
        self.engine.evaluate(query)
    }
}

/// Relative-error comparison of the two approximation philosophies at
/// equal budget: `budget` data coefficients for the synopsis vs `budget`
/// *query* coefficients, most valuable first — the first `budget` blocks
/// of a progressive evaluation over a store of one coefficient per block.
/// Returns `(data_approx_rel_error, query_approx_rel_error)` averaged over
/// the workload.
pub fn compare_at_budget(full: &Propolyne, queries: &[RangeSumQuery], budget: usize) -> (f64, f64) {
    assert!(!queries.is_empty(), "need a workload");
    let synopsis = DataSynopsis::new(full.cube(), budget);
    let store =
        CoefficientStore::load(full.cube().coeffs(), 1, AllocKind::Sequential, MemDevice::new);
    let pool = SharedBlockCache::new(budget.max(1));
    let mut data_err = 0.0;
    let mut query_err = 0.0;
    for q in queries {
        let prepared = full.prepare(q);
        let exact = full.evaluate_prepared(&prepared);
        let scale = exact.abs().max(1e-9);

        let approx_data = synopsis.evaluate(q);
        data_err += (approx_data - exact).abs() / scale;

        let run =
            store.progressive(&prepared.indices, &prepared.weights, &pool, &RetryPolicy::none());
        let approx_query = run[..budget.min(run.len())].last().map_or(0.0, |p| p.estimate);
        query_err += (approx_query - exact).abs() / scale;
    }
    (data_err / queries.len() as f64, query_err / queries.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DataCube;
    use aims_dsp::filters::FilterKind;

    fn smooth_cube() -> DataCube {
        // Smooth data: compresses well, the favorable case for synopses.
        let mut cube = DataCube::zeros(&[64, 64]);
        for i in 0..64 {
            for j in 0..64 {
                *cube.at_mut(&[i, j]) =
                    50.0 + 20.0 * (i as f64 * 0.1).sin() + 10.0 * (j as f64 * 0.15).cos();
            }
        }
        cube
    }

    fn spiky_cube() -> DataCube {
        // High-frequency data: compresses badly, the unfavorable case.
        let mut cube = DataCube::zeros(&[64, 64]);
        let mut state = 77u64;
        for v in cube.values_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 100) as f64;
        }
        cube
    }

    fn workload() -> Vec<RangeSumQuery> {
        (0..10)
            .map(|k| {
                let a = (k * 5) % 30;
                RangeSumQuery::count(vec![(a, a + 30), (3 + k, 40 + k)])
            })
            .collect()
    }

    #[test]
    fn full_budget_synopsis_is_exact() {
        let cube = smooth_cube();
        let wc = cube.transform(&FilterKind::Db4.filter());
        let syn = DataSynopsis::new(&wc, 64 * 64);
        for q in workload() {
            let exact = q.eval_scan(&cube);
            assert!((syn.evaluate(&q) - exact).abs() < 1e-5 * exact.abs().max(1.0));
        }
    }

    #[test]
    fn synopsis_error_grows_as_budget_shrinks() {
        let cube = spiky_cube();
        let full = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let queries = workload();
        let (err_small, _) = compare_at_budget(&full, &queries, 16);
        let (err_large, _) = compare_at_budget(&full, &queries, 1024);
        assert!(err_large <= err_small + 1e-9, "{err_large} !<= {err_small}");
    }

    #[test]
    fn query_approximation_beats_data_approximation_on_spiky_data() {
        let cube = spiky_cube();
        let full = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let queries = workload();
        let (data_err, query_err) = compare_at_budget(&full, &queries, 64);
        assert!(
            query_err < data_err,
            "query approx {query_err} should beat data approx {data_err} on incompressible data"
        );
    }

    #[test]
    fn query_approximation_is_data_independent() {
        // The paper: data-approx error "varies wildly with the dataset",
        // query-approx error is consistent. Compare the spread across the
        // two cubes at the same budget.
        let queries = workload();
        let budget = 64;
        let mut data_errs = Vec::new();
        let mut query_errs = Vec::new();
        for cube in [smooth_cube(), spiky_cube()] {
            let full = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
            let (d, q) = compare_at_budget(&full, &queries, budget);
            data_errs.push(d);
            query_errs.push(q);
        }
        let spread = |v: &[f64]| -> f64 {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(&query_errs) < spread(&data_errs),
            "query-approx spread {:?} should be tighter than data-approx {:?}",
            query_errs,
            data_errs
        );
    }
}
