//! One contract, three paths. The same cube on the same seeded faulty
//! device (dead blocks plus transient read errors) answers the same
//! queries through the library (`CoefficientStore::evaluate`), the
//! in-process [`QueryService`] and a [`TcpClient`] — and all three must
//! end on the bit-identical estimate, the bit-identical error bound and
//! the same set of lost blocks, with the truth inside the bound.
//!
//! And two more ways in: a store reopened from an already-populated
//! device and its energy catalog (`CoefficientStore::reopen` +
//! `QueryService::open`) reads no block to open, must ride through the
//! transient read errors queries ride through, and serves without ever
//! holding the coefficients in memory; and a store under the error-tree
//! tiling, whose fold order is not ascending offset, is served to the
//! bits `CoefficientStore::evaluate` gives on it.

use std::sync::Arc;
use std::time::Duration;

use aims_propolyne::{Propolyne, RangeSumQuery};
use aims_service::{
    demo_cube, Outcome, ProgressKind, QueryService, QuerySpec, Server, ServiceConfig, TcpClient,
};
use aims_storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims_storage::faults::{FaultPlan, FaultyDevice};
use aims_storage::store::{AllocKind, CoefficientStore};
use aims_storage::{block_energy, SharedBlockCache};
use aims_telemetry::{global_recorder, AttrValue, TraceId};

const BLOCK: usize = 16;

/// The queries every path answers.
fn queries() -> [Vec<(usize, usize)>; 3] {
    [vec![(0, 31), (0, 31)], vec![(2, 29), (0, 31)], vec![(5, 28), (3, 17)]]
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 4242,
        read_error_rate: 0.25,
        bit_flip_rate: 0.0,
        torn_write_rate: 0.0,
        dead_fraction: 0.12,
        latency: Duration::ZERO,
        latency_rate: 0.0,
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy::with_retries(8)
}

/// A fresh service per query, like the fresh library store: per-block
/// attempt counters start at zero on every path, so the seeded schedule
/// plays out identically.
fn service() -> Arc<QueryService<FaultyDevice>> {
    Arc::new(QueryService::on_device(
        demo_cube(32, 99),
        BLOCK,
        ServiceConfig { retry: retry(), round_blocks: 4, ..ServiceConfig::default() },
        |bs, nb| FaultyDevice::with_plan(bs, nb, fault_plan()),
    ))
}

/// Blocks a traced session reported as degraded, ascending.
fn degraded_blocks(trace_id: u64) -> Vec<usize> {
    let mut blocks: Vec<usize> = global_recorder()
        .events_for(TraceId(trace_id))
        .iter()
        .filter(|e| e.name == "storage.fetch")
        .filter(|e| e.attrs().contains(&("outcome", AttrValue::Str("degraded"))))
        .filter_map(|e| match e.attrs().iter().find(|(k, _)| *k == "block") {
            Some((_, AttrValue::U64(b))) => Some(*b as usize),
            _ => None,
        })
        .collect();
    blocks.sort_unstable();
    blocks
}

#[test]
fn library_service_and_wire_agree_bit_for_bit_under_faults() {
    let cube = demo_cube(32, 99);
    let engine = Propolyne::new(cube.clone());
    let mut degraded_queries = 0;
    for ranges in queries() {
        // Library path.
        let store =
            CoefficientStore::load(cube.coeffs(), BLOCK, AllocKind::Sequential, |bs, nb| {
                FaultyDevice::with_plan(bs, nb, fault_plan())
            });
        let svc = service();
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let truth = engine.evaluate_prepared(&prepared);
        let (indices, weights) = (&prepared.indices, &prepared.weights);
        let (dead, live): (Vec<usize>, Vec<usize>) =
            (store.plan(indices, weights).blocks.iter()).partition(|&&b| store.device().is_dead(b));
        let worst = live.iter().map(|&b| store.device().planned_read_failures(b)).max().unwrap();
        assert!((1..=retry().retries).contains(&worst), "seed must retry within the budget");
        let cache = SharedBlockCache::new(store.num_blocks());
        let lib = store.evaluate(indices, weights, &cache, &retry());
        assert_eq!(lib.lost_blocks, dead, "{ranges:?}");
        assert!((lib.estimate - truth).abs() <= lib.error_bound + 1e-9, "{ranges:?}");
        assert_eq!(dead.is_empty(), lib.error_bound == 0.0, "{ranges:?}");
        degraded_queries += usize::from(!dead.is_empty());

        // In-process service.
        let spec = QuerySpec::interactive(ranges.clone()).traced();
        let (_, outcome, profile) = svc.submit(spec.clone()).unwrap().collect_profiled();
        let Outcome::Done(got) = outcome else { panic!("expected Done, got {outcome:?}") };
        assert_eq!(got.estimate.to_bits(), lib.estimate.to_bits(), "service {ranges:?}");
        assert_eq!(got.error_bound.to_bits(), lib.error_bound.to_bits(), "service {ranges:?}");
        assert_eq!(degraded_blocks(profile.unwrap().trace_id), dead, "service {ranges:?}");

        // Over the wire, against its own fresh service.
        let svc = service();
        let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(("127.0.0.1", server.port())).unwrap();
        let remote = client.run_query(1, &spec).unwrap();
        assert_eq!(remote.kind, ProgressKind::Done);
        let got = remote.last.unwrap();
        assert_eq!(got.estimate.to_bits(), lib.estimate.to_bits(), "wire {ranges:?}");
        assert_eq!(got.error_bound.to_bits(), lib.error_bound.to_bits(), "wire {ranges:?}");
        assert_eq!(degraded_blocks(remote.profile.unwrap().trace_id), dead, "wire {ranges:?}");
        client.shutdown_server().unwrap();
        server.join();
    }
    assert!(degraded_queries > 0, "the fault plan must kill at least one planned block");
}

#[test]
fn reopen_rides_through_transient_read_errors_and_never_loads_the_cube() {
    let cube = demo_cube(32, 99);
    let engine = Propolyne::new(cube.clone());
    let blocks = cube.coeffs().len() / BLOCK;
    // Transient read errors only: nothing is dead, every block comes back
    // within the default budget when a query reads it.
    let plan = FaultPlan { dead_fraction: 0.0, ..fault_plan() };
    let mut device = FaultyDevice::with_plan(BLOCK, blocks, plan);
    for (b, data) in cube.coeffs().chunks(BLOCK).enumerate() {
        device.write_block(b, data);
    }
    let budget = RetryPolicy::default();
    let streaks: Vec<usize> = (0..blocks).map(|b| device.planned_read_failures(b)).collect();
    assert!(streaks.iter().any(|&s| s > 0), "seed must fail some first reads");
    assert!(streaks.iter().all(|&s| s <= budget.retries), "seed must stay within the budget");

    // The energy catalog is the one written with the blocks: the reopen
    // takes it and reads nothing.
    let catalog = cube.coeffs().chunks(BLOCK).map(block_energy).collect();
    let store =
        CoefficientStore::reopen(device, AllocKind::Sequential, cube.coeffs().len(), catalog)
            .unwrap();
    assert_eq!(store.device_stats().reads, 0, "reopen reads no block");
    let cache_blocks = blocks / 4;
    let svc = QueryService::open(
        cube.dims().to_vec(),
        cube.filter().clone(),
        store,
        ServiceConfig { retry: budget, cache_blocks, ..ServiceConfig::default() },
    );
    for ranges in queries() {
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let truth = engine.evaluate_prepared(&prepared);
        let outcome = svc.submit(QuerySpec::interactive(ranges.clone())).unwrap().wait();
        let Outcome::Done(got) = outcome else { panic!("expected Done, got {outcome:?}") };
        assert_eq!(got.estimate.to_bits(), truth.to_bits(), "{ranges:?}");
        assert_eq!(got.error_bound, 0.0, "{ranges:?}");
        // All the service holds of the store is a quarter of its blocks.
        assert!(svc.cache().resident() <= cache_blocks);
    }
}

#[test]
fn a_tiled_store_is_served_to_its_own_evaluation_bits() {
    let cube = demo_cube(32, 99);
    let engine = Propolyne::new(cube.clone());
    let store = CoefficientStore::load(cube.coeffs(), BLOCK, AllocKind::TreeTiling, MemDevice::new);
    // The library's answers on this store, each query's entries put in
    // its block-major fold order first.
    let (mut expected, mut reordered) = (Vec::new(), 0);
    for ranges in queries() {
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.clone()));
        let ascending = prepared.indices.clone();
        let (indices, weights) = store.block_major(prepared.indices, prepared.weights);
        reordered += usize::from(indices != ascending);
        let pool = SharedBlockCache::new(store.num_blocks());
        expected.push(store.evaluate(&indices, &weights, &pool, &RetryPolicy::none()));
    }
    assert!(reordered > 0, "the tiling must reorder some query's entries");
    let svc = QueryService::open(
        cube.dims().to_vec(),
        cube.filter().clone(),
        store,
        ServiceConfig { round_blocks: 4, ..ServiceConfig::default() },
    );
    for (ranges, want) in queries().into_iter().zip(expected) {
        let outcome = svc.submit(QuerySpec::interactive(ranges.clone())).unwrap().wait();
        let Outcome::Done(got) = outcome else { panic!("expected Done, got {outcome:?}") };
        assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(), "{ranges:?}");
        assert_eq!(got.error_bound.to_bits(), want.error_bound.to_bits(), "{ranges:?}");
        let truth = engine.evaluate(&RangeSumQuery::count(ranges.clone()));
        assert!((got.estimate - truth).abs() < 1e-9 * truth.abs().max(1.0), "{ranges:?}");
    }
}
