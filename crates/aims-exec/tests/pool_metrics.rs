//! A pool lists its metrics from the moment it exists.
//!
//! A single test in its own binary, so nothing else in the process
//! registers the pool's metric names first.

use aims_exec::ThreadPool;

#[test]
fn a_serial_pool_lists_its_three_metrics_at_once() {
    // A serial pool has no worker thread to register anything later.
    let _pool = ThreadPool::new(1);
    let snapshot = aims_telemetry::global().snapshot();
    let counters: Vec<&str> = snapshot.counters.iter().map(|(name, _)| name.as_str()).collect();
    let histograms: Vec<&str> = snapshot.histograms.iter().map(|h| h.name.as_str()).collect();
    for name in ["exec.pool.tasks", "exec.pool.steals"] {
        assert!(counters.contains(&name), "counter {name} is not listed: {counters:?}");
    }
    assert!(
        histograms.contains(&"exec.pool.idle.ns"),
        "histogram exec.pool.idle.ns is not listed: {histograms:?}"
    );
}
