//! Batch evaluation of related range-sums with shared retrieval.
//!
//! §3.3.1: group-by, drill-down and MDX-style queries "require the
//! simultaneous evaluation of multiple related range aggregates … these
//! queries act as linear maps where range queries act as linear
//! functionals", and the paper's PODS'02 work "developed query evaluation
//! algorithms which share I/O maximally and retrieve the most important
//! data first". Related ranges share most of their wavelet-domain support
//! (drill-down buckets share every coarse coefficient), so fetching the
//! union once is much cheaper than fetching per query.

use std::collections::{HashMap, HashSet};

use aims_exec::{global_pool, ThreadPool};
use aims_telemetry::global as telemetry;

use crate::engine::{PreparedQuery, Propolyne};
use crate::query::RangeSumQuery;

/// Result of a batch evaluation.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-query answers, in input order.
    pub answers: Vec<f64>,
    /// Distinct data coefficients fetched (shared plan).
    pub shared_fetches: usize,
    /// Total coefficient fetches had each query run alone.
    pub independent_fetches: usize,
}

impl BatchResult {
    /// I/O sharing factor (≥ 1; higher = more reuse across queries).
    pub fn sharing_factor(&self) -> f64 {
        if self.shared_fetches == 0 {
            1.0
        } else {
            self.independent_fetches as f64 / self.shared_fetches as f64
        }
    }
}

/// Evaluates a set of related queries with one shared coefficient fetch
/// plan, on the process-wide [`aims_exec`] pool.
pub fn evaluate_batch(engine: &Propolyne, queries: &[RangeSumQuery]) -> BatchResult {
    evaluate_batch_with(global_pool(), engine, queries)
}

/// [`evaluate_batch`] on an explicit thread pool. Three parallel stages:
/// per-query `prepare` fans out across the pool, the fetch-set union is
/// built from per-shard `HashSet`s merged once, and the per-query inner
/// products evaluate concurrently against the shared sorted fetch plan.
/// Each query is prepared and evaluated by exactly one task, so answers
/// are bit-identical to the serial path for every pool size.
pub fn evaluate_batch_with(
    pool: &ThreadPool,
    engine: &Propolyne,
    queries: &[RangeSumQuery],
) -> BatchResult {
    assert!(!queries.is_empty(), "empty batch");
    let _span = aims_telemetry::span!("propolyne.batch.evaluate");
    let prepared: Vec<PreparedQuery> = pool.par_map(queries, |q| engine.prepare(q));
    let independent: usize = prepared.iter().map(|p| p.nnz()).sum();

    // Union of needed coefficients = the shared fetch set: sharded
    // per-chunk sets, merged once (the merge order cannot matter for a
    // set union, and the plan below is sorted, so the result is
    // deterministic regardless of sharding).
    let shard = prepared.len().div_ceil(pool.threads() * 2).max(1);
    let shards: Vec<HashSet<usize>> = pool.par_map_blocks(prepared.len(), shard, |range| {
        let mut set = HashSet::new();
        for p in &prepared[range] {
            set.extend(p.indices.iter().copied());
        }
        set
    });
    let mut shards = shards.into_iter();
    let mut needed = shards.next().unwrap_or_default();
    for s in shards {
        needed.extend(s);
    }

    // "Fetch" the union once, as a structure-of-arrays plan sorted by
    // coefficient index: the merge's offset scan walks a dense `usize`
    // slice (no interleaved f64 halving its cache density), and the
    // multiply-add loop reads values from its own contiguous slice.
    let coeffs = engine.cube().coeffs();
    let mut plan_idx: Vec<usize> = needed.into_iter().collect();
    plan_idx.sort_unstable();
    let plan_vals: Vec<f64> = plan_idx.iter().map(|&i| coeffs[i]).collect();

    let answers: Vec<f64> =
        pool.par_map(&prepared, |p| dot_sorted(&p.indices, &p.weights, &plan_idx, &plan_vals));
    telemetry().counter("propolyne.batch.queries").add(queries.len() as u64);
    telemetry().counter("propolyne.batch.shared_fetches").add(plan_idx.len() as u64);
    BatchResult { answers, shared_fetches: plan_idx.len(), independent_fetches: independent }
}

/// Inner product of a prepared query against the shared fetch plan. Both
/// sides are strictly increasing in coefficient index and the plan is a
/// superset of the query's support, so a single two-pointer merge replaces
/// the per-entry hash lookup — no allocation, no hashing, accumulation in
/// the same entry order as independent evaluation (bit-identical to
/// `Propolyne::evaluate_prepared`). All four operands are separate
/// contiguous slices; when the query's support is a dense run of the plan
/// the merge degenerates to a straight `w[k]·v[cursor+k]` stream.
fn dot_sorted(indices: &[usize], weights: &[f64], plan_idx: &[usize], plan_vals: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut cursor = 0usize;
    for (&i, &w) in indices.iter().zip(weights) {
        while plan_idx[cursor] < i {
            cursor += 1;
        }
        debug_assert_eq!(plan_idx[cursor], i, "fetch plan missing coefficient {i}");
        acc += w * plan_vals[cursor];
        cursor += 1;
    }
    acc
}

/// Which error measure a progressive batch run optimizes (§3.3.1: "for
/// some applications it is important to minimize the standard deviation
/// (i.e., the standard L² norm) of the errors. For other applications it
/// may be more important to ensure that any large differences between
/// results for related ranges are captured early").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchErrorNorm {
    /// Minimize the total (L²) error across the batch.
    L2Total,
    /// Minimize the worst single query's error (L∞ across the batch).
    MaxQuery,
}

/// One step of a progressive batch evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchProgressStep {
    /// Distinct coefficients fetched so far.
    pub fetches: usize,
    /// √(Σ_q error_q²) at this point.
    pub l2_error: f64,
    /// max_q |error_q| at this point.
    pub max_error: f64,
}

/// A progressive batch run.
#[derive(Clone, Debug)]
pub struct BatchProgressive {
    /// Exact per-query answers.
    pub exact: Vec<f64>,
    /// Error trajectory, one step per fetched coefficient.
    pub steps: Vec<BatchProgressStep>,
}

impl BatchProgressive {
    /// Area under the chosen error curve (lower = faster convergence).
    pub fn auc(&self, norm: BatchErrorNorm) -> f64 {
        self.steps
            .iter()
            .map(|s| match norm {
                BatchErrorNorm::L2Total => s.l2_error,
                BatchErrorNorm::MaxQuery => s.max_error,
            })
            .sum()
    }
}

/// Progressive shared evaluation of a query batch: coefficients are
/// fetched one at a time in an order chosen for the given error norm, and
/// every query's estimate advances with each shared fetch.
pub fn progressive_batch(
    engine: &Propolyne,
    queries: &[RangeSumQuery],
    norm: BatchErrorNorm,
) -> BatchProgressive {
    assert!(!queries.is_empty(), "empty batch");
    let _span = aims_telemetry::span!("propolyne.batch.progressive");
    // The fetch-order search below is inherently sequential, but the
    // per-query transforms still fan out.
    let prepared: Vec<PreparedQuery> = global_pool().par_map(queries, |q| engine.prepare(q));
    let coeffs = engine.cube().coeffs();

    // Per-coefficient contribution to each query.
    let mut contribution: HashMap<usize, Vec<(usize, f64)>> = HashMap::new();
    for (qi, p) in prepared.iter().enumerate() {
        for (i, w) in p.entries() {
            contribution.entry(i).or_default().push((qi, w * coeffs[i]));
        }
    }
    let exact: Vec<f64> =
        prepared.iter().map(|p| p.entries().map(|(i, w)| w * coeffs[i]).sum()).collect();

    // Fetch order for the chosen norm.
    let mut order: Vec<usize> = contribution.keys().copied().collect();
    match norm {
        BatchErrorNorm::L2Total => {
            // Static score: a coefficient's total squared contribution.
            order.sort_by(|&a, &b| {
                let score =
                    |i: usize| -> f64 { contribution[&i].iter().map(|&(_, c)| c * c).sum() };
                score(b).partial_cmp(&score(a)).unwrap().then(a.cmp(&b))
            });
        }
        BatchErrorNorm::MaxQuery => {
            // Greedy: always fetch the coefficient with the largest
            // contribution to the currently-worst query.
            let mut remaining: Vec<f64> = exact.clone();
            let mut pool: Vec<usize> = order.clone();
            order.clear();
            while !pool.is_empty() {
                let worst_q = remaining
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                    .map(|(q, _)| q)
                    .unwrap();
                let (pos, &best) = pool
                    .iter()
                    .enumerate()
                    .max_by(|(_, &a), (_, &b)| {
                        let ca = contribution[&a]
                            .iter()
                            .find(|&&(q, _)| q == worst_q)
                            .map_or(0.0, |&(_, c)| c.abs());
                        let cb = contribution[&b]
                            .iter()
                            .find(|&&(q, _)| q == worst_q)
                            .map_or(0.0, |&(_, c)| c.abs());
                        ca.partial_cmp(&cb).unwrap()
                    })
                    .unwrap();
                for &(q, c) in &contribution[&best] {
                    remaining[q] -= c;
                }
                order.push(best);
                pool.swap_remove(pos);
            }
        }
    }

    // Walk the order, recording errors.
    let mut estimates = vec![0.0; queries.len()];
    let mut steps = Vec::with_capacity(order.len());
    for (k, &i) in order.iter().enumerate() {
        for &(q, c) in &contribution[&i] {
            estimates[q] += c;
        }
        let mut l2 = 0.0;
        let mut mx: f64 = 0.0;
        for (e, x) in estimates.iter().zip(&exact) {
            let err = (e - x).abs();
            l2 += err * err;
            mx = mx.max(err);
        }
        steps.push(BatchProgressStep { fetches: k + 1, l2_error: l2.sqrt(), max_error: mx });
    }
    BatchProgressive { exact, steps }
}

/// Builds the drill-down workload over one dimension: the base rectangle
/// split into `buckets` equal bins along `dim` (a SQL GROUP BY in range
/// form).
///
/// # Panics
/// If the bucket count doesn't divide the range length.
pub fn drill_down_queries(base: &RangeSumQuery, dim: usize, buckets: usize) -> Vec<RangeSumQuery> {
    assert!(dim < base.arity(), "dimension out of range");
    let (a, b) = base.ranges[dim];
    let len = b - a + 1;
    assert!(buckets > 0 && len % buckets == 0, "{buckets} buckets must divide range {len}");
    let w = len / buckets;
    (0..buckets)
        .map(|k| {
            let mut q = base.clone();
            q.ranges[dim] = (a + k * w, a + (k + 1) * w - 1);
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DataCube;
    use aims_dsp::filters::FilterKind;

    fn engine() -> (DataCube, Propolyne) {
        let mut cube = DataCube::zeros(&[64, 64]);
        let mut state = 31u64;
        for v in cube.values_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 5) as f64;
        }
        let e = Propolyne::new(cube.transform(&FilterKind::Db4.filter()));
        (cube, e)
    }

    #[test]
    fn batch_answers_match_individual() {
        let (cube, engine) = engine();
        let base = RangeSumQuery::count(vec![(0, 63), (8, 55)]);
        let queries = drill_down_queries(&base, 0, 8);
        let batch = evaluate_batch(&engine, &queries);
        for (q, &a) in queries.iter().zip(&batch.answers) {
            let expect = q.eval_scan(&cube);
            assert!((a - expect).abs() < 1e-6 * expect.abs().max(1.0), "{a} vs {expect}");
        }
    }

    /// The shared SoA fetch plan changes where a coefficient is read
    /// from, not the order it is folded in: every batch answer is the
    /// solo evaluation of its query, bit for bit.
    #[test]
    fn batch_answers_bit_match_solo_evaluation() {
        let (_, engine) = engine();
        let base = RangeSumQuery::count(vec![(0, 63), (8, 55)]);
        let queries = drill_down_queries(&base, 0, 64);
        let batch = evaluate_batch_with(&aims_exec::ThreadPool::new(1), &engine, &queries);
        for (k, (q, &a)) in queries.iter().zip(&batch.answers).enumerate() {
            let solo = engine.evaluate_prepared(&engine.prepare(q));
            assert_eq!(a.to_bits(), solo.to_bits(), "query {k}: {a} vs {solo}");
        }
    }

    #[test]
    fn drill_down_buckets_partition_the_base() {
        let (cube, engine) = engine();
        let base = RangeSumQuery::count(vec![(0, 63), (0, 63)]);
        let queries = drill_down_queries(&base, 1, 16);
        let batch = evaluate_batch(&engine, &queries);
        let total: f64 = batch.answers.iter().sum();
        assert!((total - cube.total()).abs() < 1e-6 * cube.total());
    }

    #[test]
    fn sharing_factor_exceeds_one_for_related_ranges() {
        let (_, engine) = engine();
        let base = RangeSumQuery::count(vec![(0, 63), (4, 59)]);
        let queries = drill_down_queries(&base, 0, 8);
        let batch = evaluate_batch(&engine, &queries);
        assert!(
            batch.sharing_factor() > 1.3,
            "drill-down should share coefficients: factor {}",
            batch.sharing_factor()
        );
        assert!(batch.shared_fetches < batch.independent_fetches);
    }

    #[test]
    fn single_query_batch_degenerates() {
        let (_, engine) = engine();
        let q = RangeSumQuery::count(vec![(3, 40), (3, 40)]);
        let batch = evaluate_batch(&engine, std::slice::from_ref(&q));
        assert_eq!(batch.answers.len(), 1);
        assert_eq!(batch.shared_fetches, batch.independent_fetches);
        assert!((batch.sharing_factor() - 1.0).abs() < 1e-12);
        assert!((batch.answers[0] - engine.evaluate(&q)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn uneven_buckets_panic() {
        let base = RangeSumQuery::count(vec![(0, 62), (0, 63)]);
        drill_down_queries(&base, 0, 8);
    }
}

#[cfg(test)]
mod progressive_tests {
    use super::*;
    use crate::cube::DataCube;
    use aims_dsp::filters::FilterKind;

    fn engine() -> Propolyne {
        let mut cube = DataCube::zeros(&[32, 32]);
        let mut state = 5u64;
        for v in cube.values_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 8) as f64;
        }
        Propolyne::new(cube.transform(&FilterKind::Db4.filter()))
    }

    #[test]
    fn both_norms_end_exact() {
        let engine = engine();
        let base = RangeSumQuery::count(vec![(0, 31), (4, 27)]);
        let queries = drill_down_queries(&base, 0, 8);
        for norm in [BatchErrorNorm::L2Total, BatchErrorNorm::MaxQuery] {
            let run = progressive_batch(&engine, &queries, norm);
            let last = run.steps.last().unwrap();
            assert!(last.l2_error < 1e-8, "{norm:?}: l2 {}", last.l2_error);
            assert!(last.max_error < 1e-8, "{norm:?}");
            // Exact answers match independent evaluation.
            for (q, &x) in queries.iter().zip(&run.exact) {
                assert!((engine.evaluate(q) - x).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn each_norm_wins_its_own_metric() {
        let engine = engine();
        let base = RangeSumQuery::count(vec![(0, 31), (0, 31)]);
        let queries = drill_down_queries(&base, 0, 16);
        let l2_run = progressive_batch(&engine, &queries, BatchErrorNorm::L2Total);
        let max_run = progressive_batch(&engine, &queries, BatchErrorNorm::MaxQuery);
        assert!(
            max_run.auc(BatchErrorNorm::MaxQuery) <= l2_run.auc(BatchErrorNorm::MaxQuery) * 1.05,
            "max-norm ordering should win (or tie) its own metric: {} vs {}",
            max_run.auc(BatchErrorNorm::MaxQuery),
            l2_run.auc(BatchErrorNorm::MaxQuery)
        );
    }

    #[test]
    fn errors_reach_zero_monotone_at_the_tail() {
        let engine = engine();
        let base = RangeSumQuery::count(vec![(2, 29), (2, 29)]);
        let queries = drill_down_queries(&base, 1, 4);
        let run = progressive_batch(&engine, &queries, BatchErrorNorm::L2Total);
        // The last step has strictly the smallest error of the run's tail.
        let n = run.steps.len();
        assert!(run.steps[n - 1].l2_error <= run.steps[n / 2].l2_error + 1e-9);
    }
}
