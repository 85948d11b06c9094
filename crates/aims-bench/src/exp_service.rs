//! Experiment E27: the serving layer — shared-scan batching plus the
//! process-wide block cache vs per-query isolated evaluation, on 32
//! concurrent overlapping range sums.

use std::sync::Arc;
use std::time::Duration;

use aims_dsp::filters::FilterKind;
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;
use aims_service::{Outcome, QueryService, QuerySpec, ServiceConfig, ServiceError};
use aims_storage::cache::SharedBlockCache;
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::store::{AllocKind, CoefficientStore};

use crate::workloads::gaussian_mixture_cube;

const SIDE: usize = 128;
const BLOCK: usize = 32;
const QUERIES: usize = 32;

/// 32 range sums clustered on a hot region of the cube, so their block
/// footprints overlap heavily — the workload the shared scan is for.
fn overlapping_queries() -> Vec<Vec<(usize, usize)>> {
    (0..QUERIES)
        .map(|k| {
            let lo = (k * 2) % 40;
            let hi = (lo + 80).min(SIDE - 1);
            let lo2 = (k * 3) % 32;
            let hi2 = (lo2 + 72).min(SIDE - 1);
            vec![(lo, hi), (lo2, hi2)]
        })
        .collect()
}

/// E27 — concurrent query service: 32 overlapping range sums through the
/// admission/shared-scan/cache path vs the same queries each evaluated in
/// isolation through a one-block buffer pool. Asserts every concurrent
/// answer bit-identical to serial, asserts the shared path reads at least
/// 2x fewer device blocks, and demonstrates typed overload rejections.
pub fn e27_service_sharing() {
    crate::header(
        "E27",
        "query service: shared-scan batching + block cache vs isolated evaluation",
    );

    let cube = gaussian_mixture_cube(SIDE).transform(&FilterKind::Db4.filter());
    let engine = Propolyne::new(cube.clone());
    let queries = overlapping_queries();
    let expected: Vec<u64> = queries
        .iter()
        .map(|ranges| {
            let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
            engine.evaluate_prepared(&p).to_bits()
        })
        .collect();

    // Baseline: each query on its own one-block buffer pool over a shared
    // blocked store — no reuse across queries, the pre-service shape.
    let store = CoefficientStore::load(
        engine.cube().coeffs(),
        BLOCK,
        AllocKind::Sequential,
        MemDevice::new,
    );
    let mut baseline_solo_blocks = 0usize;
    for (k, ranges) in queries.iter().enumerate() {
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let (indices, weights) = (&prepared.indices, &prepared.weights);
        baseline_solo_blocks += store.plan(indices, weights).blocks.len();
        let pool = SharedBlockCache::new(1);
        let answer = store.evaluate(indices, weights, &pool, &RetryPolicy::none());
        assert_eq!(
            answer.estimate.to_bits(),
            expected[k],
            "baseline evaluation diverged on query {k}"
        );
    }
    let baseline_reads = store.device().stats().reads;

    // Service: the same 32 queries submitted concurrently, one session
    // thread each, shared scan + cache underneath.
    let svc = Arc::new(QueryService::new(
        cube.clone(),
        BLOCK,
        ServiceConfig {
            max_batch: QUERIES,
            round_blocks: 48,
            cache_blocks: 512,
            ..ServiceConfig::default()
        },
    ));
    let (_, elapsed) = crate::timed("bench.e27.service", || {
        let mut sessions = Vec::new();
        for (k, ranges) in queries.iter().cloned().enumerate() {
            let svc = Arc::clone(&svc);
            sessions.push(std::thread::spawn(move || {
                (k, svc.submit(QuerySpec::interactive(ranges)).expect("queue sized for 32").wait())
            }));
        }
        for s in sessions {
            let (k, outcome) = s.join().unwrap();
            match outcome {
                Outcome::Done(r) => {
                    assert_eq!(
                        r.estimate.to_bits(),
                        expected[k],
                        "concurrent service answer diverged on query {k}"
                    );
                    assert_eq!(r.error_bound, 0.0, "clean storage must answer exactly");
                }
                other => panic!("query {k} did not complete: {other:?}"),
            }
        }
    });
    let service_reads = svc.device().stats().reads;
    let cache = svc.cache().stats();
    svc.shutdown();

    // Overload: a deliberately tiny queue, flooded — every failure must be
    // a typed QueueFull, never a panic or hang.
    let tiny = QueryService::new(
        cube,
        BLOCK,
        ServiceConfig {
            queue_capacity: 2,
            max_batch: 1,
            round_blocks: 4,
            round_pause: Duration::from_millis(2),
            ..ServiceConfig::default()
        },
    );
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for ranges in queries.iter().cloned() {
        match tiny.submit(QuerySpec::batch(ranges)) {
            Ok(h) => accepted.push(h),
            Err(ServiceError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("overload produced a non-overload error: {other}"),
        }
    }
    let accepted_count = accepted.len();
    for h in accepted {
        assert!(
            matches!(h.wait(), Outcome::Done(_) | Outcome::Shed(_)),
            "accepted queries must still finish (exactly or with a best-so-far answer)"
        );
    }
    let accepted = accepted_count;
    tiny.shutdown();

    let reduction = baseline_reads as f64 / (service_reads as f64).max(1.0);
    println!("{:>28} {:>12}", "metric", "value");
    println!("{:>28} {:>12}", "concurrent queries", QUERIES);
    println!("{:>28} {:>12}", "plan blocks (sum of solos)", baseline_solo_blocks);
    println!("{:>28} {:>12}", "baseline device reads", baseline_reads);
    println!("{:>28} {:>12}", "service device reads", service_reads);
    println!("{:>28} {:>12}", "read reduction", crate::times(reduction));
    println!("{:>28} {:>12}", "cache hits", cache.hits);
    println!("{:>28} {:>12}", "cache misses", cache.misses);
    println!(
        "{:>28} {:>12}",
        "service wall time",
        format!("{:.1} ms", elapsed.as_secs_f64() * 1e3)
    );
    println!("{:>28} {:>12}", "overload accepted", accepted);
    println!("{:>28} {:>12}", "overload rejected (typed)", rejected);

    assert!(
        baseline_reads >= 2 * service_reads,
        "shared scan + cache must at least halve device reads: {baseline_reads} vs {service_reads}"
    );
    assert!(rejected > 0, "a 2-slot queue flooded with 32 queries must reject some");

    println!("\nshape check: all 32 concurrent answers are bit-identical to serial");
    println!("evaluation (asserted above); overlapping plans share block fetches, so");
    println!("total device reads drop >=2x vs per-query isolation; overload surfaces");
    println!("as typed QueueFull rejections while every accepted query still finishes.");
}
