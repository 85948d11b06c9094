//! The ProPolyne evaluator: exact, approximate and progressive polynomial
//! range-sums entirely in the wavelet domain.
//!
//! For each product term the per-dimension query vectors go through the
//! lazy wavelet transform; the multidimensional query coefficient at a
//! tensor index is the product of the per-dimension coefficients. The
//! answer is the inner product with the stored cube coefficients. For
//! progressive evaluation, terms are consumed in decreasing |query
//! coefficient| order — "using the most important query wavelet
//! coefficients first provides excellent approximate results and
//! guaranteed error bounds with very little I/O" (§3.3); the error bound
//! is Cauchy–Schwarz against the cube's (precomputable) energy.

use std::collections::HashMap;

use aims_dsp::filters::WaveletFilter;
use aims_telemetry::{counter, histogram, histogram_f64, span};

use crate::cube::WaveletCube;
use crate::lazy::lazy_transform;
use crate::query::RangeSumQuery;

/// A prepared (transformed) query: sparse coefficients in the cube's flat
/// layout, stored structure-of-arrays so the inner-product kernels stream
/// offsets and weights from separate contiguous slices (the offset scan of
/// a sorted merge touches no weight cache lines, and the multiply-add loop
/// reads `weights` sequentially).
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    /// Flat coefficient offsets, strictly ascending.
    pub indices: Vec<usize>,
    /// Weights; `weights[k]` pairs with `indices[k]`.
    pub weights: Vec<f64>,
    /// Total lazy-transform work across dimensions and terms.
    pub transform_work: usize,
}

impl PreparedQuery {
    /// Number of nonzero query coefficients.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Energy of the query vector (squared L2 norm).
    pub fn energy(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum()
    }

    /// The `(offset, weight)` pairs in ascending offset order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices.iter().copied().zip(self.weights.iter().copied())
    }
}

/// One step of a progressive evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressStep {
    /// Query coefficients consumed so far.
    pub coefficients_used: usize,
    /// Running estimate.
    pub estimate: f64,
    /// Absolute error against the exact answer (available in experiments;
    /// a deployed system would expose only the bound).
    pub abs_error: f64,
    /// Cauchy–Schwarz guaranteed bound on the remaining error.
    pub guaranteed_bound: f64,
}

/// A full progressive run.
#[derive(Clone, Debug)]
pub struct ProgressiveEvaluation {
    /// The exact answer (the final estimate).
    pub exact: f64,
    /// One step per consumed coefficient (ordered most-important-first).
    pub steps: Vec<ProgressStep>,
}

impl ProgressiveEvaluation {
    /// Smallest number of coefficients after which the *relative* error
    /// stays below `rel`; `None` if never.
    pub fn coefficients_for_relative_error(&self, rel: f64) -> Option<usize> {
        let scale = self.exact.abs().max(1e-12);
        // Find the last step that violates the target; the answer is the
        // step after it (error is not monotone in general).
        let mut satisfied_from = None;
        for (i, s) in self.steps.iter().enumerate().rev() {
            if s.abs_error / scale > rel {
                break;
            }
            satisfied_from = Some(i);
        }
        satisfied_from.map(|i| self.steps[i].coefficients_used)
    }
}

/// The evaluator bound to one wavelet cube.
///
/// ```
/// use aims_dsp::filters::FilterKind;
/// use aims_propolyne::cube::{AttributeSpace, DataCube};
/// use aims_propolyne::engine::Propolyne;
/// use aims_propolyne::query::RangeSumQuery;
///
/// let space = AttributeSpace::new(vec![(0.0, 8.0), (0.0, 8.0)], vec![8, 8]);
/// let cube = DataCube::from_tuples(&space, vec![
///     vec![1.5, 2.5], vec![1.5, 2.5], vec![6.5, 7.5],
/// ]);
/// let engine = Propolyne::new(cube.transform(&FilterKind::Haar.filter()));
/// let q = RangeSumQuery::count(vec![(0, 3), (0, 3)]);
/// assert!((engine.evaluate(&q) - 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Propolyne {
    cube: WaveletCube,
    data_energy: f64,
}

impl Propolyne {
    /// Wraps a transformed cube (precomputing its energy for the error
    /// bounds).
    pub fn new(cube: WaveletCube) -> Self {
        let data_energy = cube.energy();
        Propolyne { cube, data_energy }
    }

    /// The underlying cube.
    pub fn cube(&self) -> &WaveletCube {
        &self.cube
    }

    /// Transforms a query into its sparse wavelet-domain form
    /// ([`prepare`]).
    ///
    /// # Panics
    /// If the query does not validate against the cube.
    pub fn prepare(&self, query: &RangeSumQuery) -> PreparedQuery {
        prepare(self.cube.dims(), self.cube.filter(), query)
    }

    /// Exact evaluation.
    pub fn evaluate(&self, query: &RangeSumQuery) -> f64 {
        let _span = span!("propolyne.query.evaluate");
        let prepared = self.prepare(query);
        self.evaluate_prepared(&prepared)
    }

    /// Exact evaluation of a prepared query.
    pub fn evaluate_prepared(&self, prepared: &PreparedQuery) -> f64 {
        counter!("propolyne.query.coefficients_retrieved").add(prepared.nnz() as u64);
        let coeffs = self.cube.coeffs();
        // Single accumulator, ascending offset order — the bit-for-bit
        // reference every other evaluation path reproduces.
        prepared.indices.iter().zip(&prepared.weights).map(|(&i, &w)| w * coeffs[i]).sum()
    }

    /// Progressive evaluation: consume query coefficients in decreasing
    /// magnitude, recording the estimate, true error and guaranteed bound
    /// after each.
    pub fn progressive(&self, query: &RangeSumQuery) -> ProgressiveEvaluation {
        let _span = span!("propolyne.query.progressive");
        let prepared = self.prepare(query);
        let coeffs = self.cube.coeffs();
        let exact = self.evaluate_prepared(&prepared);

        let mut order: Vec<(usize, f64)> = prepared.entries().collect();
        order.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());

        // Suffix query energy for the Cauchy–Schwarz bound.
        let mut suffix_energy = vec![0.0; order.len() + 1];
        for (i, &(_, w)) in order.iter().enumerate().rev() {
            suffix_energy[i] = suffix_energy[i + 1] + w * w;
        }

        let mut estimate = 0.0;
        let mut steps = Vec::with_capacity(order.len());
        let scale = exact.abs().max(1e-12);
        let step_error = histogram_f64!("propolyne.progressive.step_rel_error");
        for (i, &(idx, w)) in order.iter().enumerate() {
            estimate += w * coeffs[idx];
            let abs_error = (estimate - exact).abs();
            step_error.record_f64(abs_error / scale);
            steps.push(ProgressStep {
                coefficients_used: i + 1,
                estimate,
                abs_error,
                guaranteed_bound: (suffix_energy[i + 1] * self.data_energy).sqrt(),
            });
        }
        counter!("propolyne.progressive.steps").add(steps.len() as u64);
        ProgressiveEvaluation { exact, steps }
    }
}

/// Transforms a query over a cube of shape `dims`, transformed with
/// `filter`, into its sparse wavelet-domain form via the lazy wavelet
/// transform (per dimension, per term). Needs the cube's geometry only,
/// not its coefficients.
///
/// # Panics
/// If the query does not validate against `dims`.
pub fn prepare(dims: &[usize], filter: &WaveletFilter, query: &RangeSumQuery) -> PreparedQuery {
    let _span = span!("propolyne.query.prepare");
    query.validate(dims);
    let mut combined: HashMap<usize, f64> = HashMap::new();
    let mut work = 0usize;

    for term in &query.terms {
        // Lazy-transform each dimension's factor restricted to its
        // range.
        let per_dim: Vec<Vec<(usize, f64)>> = (0..dims.len())
            .map(|k| {
                let (a, b) = query.ranges[k];
                let lt = lazy_transform(dims[k], a, b, &term.factors[k], filter);
                work += lt.work;
                lt.nonzeros(0.0)
            })
            .collect();

        // Tensor-product expansion (odometer over per-dim nonzeros).
        if per_dim.iter().any(|v| v.is_empty()) {
            continue;
        }
        let mut pos = vec![0usize; dims.len()];
        loop {
            let mut offset = 0usize;
            let mut weight = term.coef;
            for (k, &p) in pos.iter().enumerate() {
                let (i, w) = per_dim[k][p];
                offset += i * stride(dims, k);
                weight *= w;
            }
            if weight != 0.0 {
                *combined.entry(offset).or_insert(0.0) += weight;
            }
            // Increment.
            let mut k = dims.len();
            loop {
                if k == 0 {
                    pos.clear();
                    break;
                }
                k -= 1;
                if pos[k] + 1 < per_dim[k].len() {
                    pos[k] += 1;
                    for p in pos.iter_mut().skip(k + 1) {
                        *p = 0;
                    }
                    break;
                }
            }
            if pos.is_empty() {
                break;
            }
        }
    }

    let mut entries: Vec<(usize, f64)> = combined.into_iter().filter(|(_, w)| *w != 0.0).collect();
    entries.sort_by_key(|&(i, _)| i);
    counter!("propolyne.query.prepared").inc();
    counter!("propolyne.query.transform_work").add(work as u64);
    histogram!("propolyne.query.nnz").record(entries.len() as u64);
    let (indices, weights) = entries.into_iter().unzip();
    PreparedQuery { indices, weights, transform_work: work }
}

fn stride(dims: &[usize], k: usize) -> usize {
    dims[k + 1..].iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{AttributeSpace, DataCube};
    use crate::query::{Monomial, RangeSumQuery};
    use aims_dsp::filters::FilterKind;
    use aims_dsp::poly::Polynomial;

    /// A deterministic pseudo-random 2-D frequency cube.
    fn cube_2d(nx: usize, ny: usize, seed: u64) -> DataCube {
        let mut cube = DataCube::zeros(&[nx, ny]);
        let mut state = seed.max(1);
        for v in cube.values_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 7) as f64;
        }
        cube
    }

    #[test]
    fn exact_count_matches_scan_all_filters() {
        let cube = cube_2d(32, 16, 3);
        for kind in FilterKind::ALL {
            let engine = Propolyne::new(cube.transform(&kind.filter()));
            let q = RangeSumQuery::count(vec![(3, 25), (2, 13)]);
            let got = engine.evaluate(&q);
            let expect = q.eval_scan(&cube);
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "{kind:?}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn exact_linear_and_quadratic_sums_match_scan() {
        let cube = cube_2d(64, 32, 9);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db6.filter()));
        for q in [
            RangeSumQuery::sum_poly(vec![(5, 60), (0, 31)], 0, Polynomial::monomial(1)),
            RangeSumQuery::sum_poly(vec![(0, 63), (7, 20)], 1, Polynomial::monomial(2)),
            RangeSumQuery::sum_product(
                vec![(10, 50), (3, 28)],
                0,
                Polynomial::monomial(1),
                1,
                Polynomial::monomial(1),
            ),
        ] {
            let got = engine.evaluate(&q);
            let expect = q.eval_scan(&cube);
            assert!((got - expect).abs() < 1e-5 * expect.abs().max(1.0), "{got} vs {expect}");
        }
    }

    #[test]
    fn multi_term_queries_combine() {
        let cube = cube_2d(16, 16, 5);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let mut q = RangeSumQuery::count(vec![(0, 15), (0, 15)]);
        q.terms.push(Monomial::single(2, 0, Polynomial::from_coeffs(vec![0.0, 2.0])));
        let got = engine.evaluate(&q);
        let expect = q.eval_scan(&cube);
        assert!((got - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }

    #[test]
    fn prepared_query_is_sparse_under_moment_condition() {
        let cube = cube_2d(256, 256, 11);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let q = RangeSumQuery::sum_poly(vec![(17, 200), (30, 222)], 0, Polynomial::monomial(1));
        let prepared = engine.prepare(&q);
        // Per dim O(filter · log n) → product ~ (4·9)² ≈ 1300 max; the
        // dense vector would be 65 536.
        assert!(prepared.nnz() < 4000, "nnz {}", prepared.nnz());
    }

    #[test]
    fn progressive_converges_and_bound_holds() {
        let cube = cube_2d(64, 64, 7);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let q = RangeSumQuery::count(vec![(5, 50), (10, 60)]);
        let run = engine.progressive(&q);
        let exact = q.eval_scan(&cube);
        assert!((run.exact - exact).abs() < 1e-6 * exact.max(1.0));
        // Final step is exact; bound dominates the true error everywhere.
        let last = run.steps.last().unwrap();
        assert!(last.abs_error < 1e-6 * exact.max(1.0));
        for s in &run.steps {
            assert!(
                s.abs_error <= s.guaranteed_bound + 1e-6 * exact.max(1.0),
                "bound violated at {}: err {} bound {}",
                s.coefficients_used,
                s.abs_error,
                s.guaranteed_bound
            );
        }
    }

    #[test]
    fn progressive_front_loads_accuracy() {
        let cube = cube_2d(128, 64, 13);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let q = RangeSumQuery::count(vec![(9, 100), (5, 55)]);
        let run = engine.progressive(&q);
        let n = run.steps.len();
        // Error after 25% of coefficients should be well under the initial
        // magnitude (the "accurate long before complete" claim).
        let early = &run.steps[n / 4];
        assert!(
            early.abs_error < 0.1 * run.exact.abs().max(1.0),
            "early error {} vs exact {}",
            early.abs_error,
            run.exact
        );
        let k = run.coefficients_for_relative_error(0.01);
        assert!(k.is_some() && k.unwrap() < n, "k={k:?} of {n}");
    }

    #[test]
    fn full_domain_count_uses_single_coefficient() {
        // COUNT over the whole domain = total, needs only the root
        // coefficient per dimension.
        let cube = cube_2d(32, 32, 21);
        let engine = Propolyne::new(cube.transform(&FilterKind::Haar.filter()));
        let q = RangeSumQuery::count(vec![(0, 31), (0, 31)]);
        let prepared = engine.prepare(&q);
        assert_eq!(prepared.nnz(), 1, "offsets: {:?}", prepared.indices);
        assert!((engine.evaluate(&q) - cube.total()).abs() < 1e-8);
    }

    #[test]
    fn one_dimensional_cube_works() {
        let mut cube = DataCube::zeros(&[128]);
        for (i, v) in cube.values_mut().iter_mut().enumerate() {
            *v = (i % 5) as f64;
        }
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let q = RangeSumQuery::sum_poly(vec![(10, 90)], 0, Polynomial::monomial(1));
        let got = engine.evaluate(&q);
        let expect = q.eval_scan(&cube);
        assert!((got - expect).abs() < 1e-6 * expect.abs());
    }

    #[test]
    fn tuple_loaded_cube_end_to_end() {
        let space = AttributeSpace::new(vec![(0.0, 100.0), (0.0, 1.0)], vec![64, 16]);
        let tuples: Vec<Vec<f64>> =
            (0..500).map(|i| vec![(i * 7 % 100) as f64, ((i * 13) % 16) as f64 / 16.0]).collect();
        let cube = DataCube::from_tuples(&space, tuples);
        let engine = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        let q = RangeSumQuery::count(vec![space.bin_range(0, 20.0, 80.0), (0, 15)]);
        let got = engine.evaluate(&q);
        let expect = q.eval_scan(&cube);
        assert!((got - expect).abs() < 1e-6 * expect);
    }
}
