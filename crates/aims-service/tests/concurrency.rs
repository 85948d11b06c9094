//! Concurrency properties of the serving layer.
//!
//! The claims under test:
//! - N parallel sessions produce final answers **bit-identical** to
//!   serial `evaluate_prepared`.
//! - Cancellation never deadlocks — every handle resolves under a
//!   watchdog timeout no matter when the cancel lands.
//! - Overload degrades gracefully: admitted queries end in `Done` or a
//!   best-so-far `Shed`, the rest get typed rejections — never a panic
//!   or hang.
//! - The same holds across the TCP wire path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;

use aims_propolyne::RangeSumQuery;
use aims_service::{
    demo_cube, Outcome, ProgressKind, QueryService, QuerySpec, Server, ServiceConfig, ServiceError,
    TcpClient,
};

const SIDE: usize = 32;

/// Runs `f` on a helper thread and fails the test if it neither finishes
/// nor panics within `timeout` — the deadlock detector for every test in
/// this file.
fn with_watchdog(timeout: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => worker.join().expect("test body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("test body panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: test exceeded {timeout:?} — possible deadlock");
        }
    }
}

fn range_strategy() -> impl Strategy<Value = (usize, usize)> {
    (0usize..SIDE, 0usize..SIDE).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

fn spec_strategy() -> impl Strategy<Value = (Vec<(usize, usize)>, bool)> {
    (prop::collection::vec(range_strategy(), 2..=2), any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel sessions, bit-identical to serial.
    #[test]
    fn parallel_sessions_bit_identical_to_serial(
        specs in prop::collection::vec(spec_strategy(), 1..=10),
        seed in 1u64..1_000,
    ) {
        let cube = demo_cube(SIDE, seed);
        // Serial ground truth from a standalone engine.
        let engine = aims_propolyne::Propolyne::new(cube.clone());
        let expected: Vec<u64> = specs
            .iter()
            .map(|(ranges, _)| {
                let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
                engine.evaluate_prepared(&p).to_bits()
            })
            .collect();

        let svc = Arc::new(QueryService::new(
            cube,
            16,
            ServiceConfig {
                max_batch: 4,
                round_blocks: 8,
                ..ServiceConfig::default()
            },
        ));
        // Submit every query from its own client thread.
        let mut clients = Vec::new();
        for (k, (ranges, interactive)) in specs.iter().cloned().enumerate() {
            let svc = Arc::clone(&svc);
            clients.push(std::thread::spawn(move || {
                let spec = if interactive {
                    QuerySpec::interactive(ranges)
                } else {
                    QuerySpec::batch(ranges)
                };
                (k, svc.submit(spec).expect("queue is large enough").wait())
            }));
        }
        for c in clients {
            let (k, outcome) = c.join().unwrap();
            match outcome {
                Outcome::Done(r) => {
                    prop_assert_eq!(
                        r.estimate.to_bits(),
                        expected[k],
                        "query {} diverged from serial",
                        k
                    );
                    prop_assert_eq!(r.error_bound, 0.0);
                }
                other => prop_assert!(false, "query {} did not complete: {:?}", k, other),
            }
        }
    }

    /// Cancels landing at arbitrary times never deadlock the scheduler,
    /// and surviving queries still finish bit-identical to serial.
    #[test]
    fn cancellation_never_deadlocks(
        specs in prop::collection::vec(spec_strategy(), 2..=8),
        cancel_mask in prop::collection::vec(any::<bool>(), 2..=8),
        seed in 1u64..1_000,
    ) {
        let cube = demo_cube(SIDE, seed);
        let engine = aims_propolyne::Propolyne::new(cube.clone());
        let expected: Vec<u64> = specs
            .iter()
            .map(|(ranges, _)| {
                let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
                engine.evaluate_prepared(&p).to_bits()
            })
            .collect();
        with_watchdog(Duration::from_secs(60), move || {
            let svc = Arc::new(QueryService::new(
                cube,
                16,
                ServiceConfig {
                    round_blocks: 2,
                    round_pause: Duration::from_micros(500),
                    ..ServiceConfig::default()
                },
            ));
            let mut workers = Vec::new();
            for (k, (ranges, _)) in specs.iter().cloned().enumerate() {
                let svc = Arc::clone(&svc);
                let cancel = cancel_mask.get(k).copied().unwrap_or(false);
                workers.push(std::thread::spawn(move || {
                    let handle = svc.submit(QuerySpec::interactive(ranges)).unwrap();
                    if cancel {
                        handle.cancel();
                    }
                    (k, cancel, handle.wait())
                }));
            }
            for w in workers {
                let (k, cancelled, outcome) = w.join().unwrap();
                match outcome {
                    Outcome::Done(r) => {
                        // A cancel can race completion; a finished answer
                        // must still be the exact serial answer.
                        assert_eq!(r.estimate.to_bits(), expected[k]);
                    }
                    Outcome::Cancelled => assert!(cancelled, "query {k} cancelled itself"),
                    other => panic!("query {k} ended strangely: {other:?}"),
                }
            }
            svc.shutdown();
        });
    }
}

#[test]
fn overload_floods_get_typed_rejections_never_hangs() {
    with_watchdog(Duration::from_secs(60), || {
        let svc = Arc::new(QueryService::new(
            demo_cube(SIDE, 7),
            16,
            ServiceConfig {
                queue_capacity: 4,
                max_batch: 2,
                round_blocks: 4,
                ..ServiceConfig::default()
            },
        ));
        let accepted = Arc::new(AtomicUsize::new(0));
        let rejected = Arc::new(AtomicUsize::new(0));
        let mut floods = Vec::new();
        for t in 0..8 {
            let svc = Arc::clone(&svc);
            let accepted = Arc::clone(&accepted);
            let rejected = Arc::clone(&rejected);
            floods.push(std::thread::spawn(move || {
                for k in 0..25 {
                    let lo = (t + k) % 16;
                    match svc.submit(QuerySpec::batch(vec![(lo, 31), (0, 31)])) {
                        Ok(h) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            // Under sustained overload an admitted query
                            // may be shed — a best-so-far answer with a
                            // finite bound, never a silent loss.
                            match h.wait() {
                                Outcome::Done(r) | Outcome::Shed(r) => {
                                    assert!(r.estimate.is_finite());
                                    assert!(r.error_bound.is_finite());
                                }
                                other => panic!("admitted query lost under flood: {other:?}"),
                            }
                        }
                        Err(ServiceError::QueueFull { capacity }) => {
                            assert_eq!(capacity, 4);
                            rejected.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("unexpected error under flood: {other}"),
                    }
                }
            }));
        }
        for f in floods {
            f.join().unwrap();
        }
        let (a, r) = (accepted.load(Ordering::SeqCst), rejected.load(Ordering::SeqCst));
        assert_eq!(a + r, 200, "every submit resolved");
        assert!(a > 0, "some queries must get through");
        svc.shutdown();
    });
}

#[test]
fn tcp_loopback_round_trip_is_bit_identical_and_shuts_down_cleanly() {
    with_watchdog(Duration::from_secs(60), || {
        let cube = demo_cube(SIDE, 41);
        let engine = aims_propolyne::Propolyne::new(cube.clone());
        let svc = Arc::new(QueryService::new(cube, 16, ServiceConfig::default()));
        let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
        let port = server.port();

        // Two concurrent connections, overlapping queries.
        let mut conns = Vec::new();
        for t in 0..2u64 {
            conns.push(std::thread::spawn(move || {
                let mut client = TcpClient::connect(("127.0.0.1", port)).expect("connect");
                let mut got = Vec::new();
                for (k, ranges) in
                    [vec![(0, 31), (0, 31)], vec![(2, 29), (4, 27)], vec![(0, 15), (16, 31)]]
                        .into_iter()
                        .enumerate()
                {
                    let out = client
                        .run_query(t * 100 + k as u64, &QuerySpec::interactive(ranges.clone()))
                        .expect("query");
                    assert_eq!(out.kind, ProgressKind::Done);
                    // Monotone refinement across the wire.
                    for w in out.trace.windows(2) {
                        assert!(w[1].error_bound <= w[0].error_bound);
                    }
                    got.push((ranges, out.last.unwrap().estimate));
                }
                got
            }));
        }
        for c in conns {
            for (ranges, estimate) in c.join().unwrap() {
                let p = engine.prepare(&RangeSumQuery::count(ranges));
                assert_eq!(estimate.to_bits(), engine.evaluate_prepared(&p).to_bits());
            }
        }

        // Metrics over the wire, then a clean shutdown handshake.
        let mut client = TcpClient::connect(("127.0.0.1", port)).expect("connect");
        let metrics = client.metrics().expect("metrics");
        assert!(metrics.contains("service.submitted"));
        client.shutdown_server().expect("goodbye");
        server.join();
        svc.shutdown();
    });
}

#[test]
fn traced_tcp_query_returns_a_profile_and_json_metrics() {
    with_watchdog(Duration::from_secs(60), || {
        let cube = demo_cube(SIDE, 63);
        let svc = Arc::new(QueryService::new(cube, 16, ServiceConfig::default()));
        let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
        let mut client = TcpClient::connect(("127.0.0.1", server.port())).expect("connect");

        // Untraced queries carry no profile frame.
        let plain = client
            .run_query(1, &QuerySpec::interactive(vec![(0, 31), (0, 31)]))
            .expect("untraced query");
        assert_eq!(plain.kind, ProgressKind::Done);
        assert!(plain.profile.is_none(), "untraced query must not ship a profile");

        // A traced query gets the full cost attribution back.
        let traced = client
            .run_query(2, &QuerySpec::interactive(vec![(2, 29), (0, 31)]).traced())
            .expect("traced query");
        assert_eq!(traced.kind, ProgressKind::Done);
        let p = traced.profile.expect("traced query must ship a profile");
        assert_ne!(p.trace_id, 0);
        assert!(p.latency_ns > 0);
        assert_eq!(p.degraded_blocks, 0);
        assert!(p.blocks_read + p.blocks_shared > 0);
        assert_eq!(p.rounds as usize, p.trajectory.len());
        assert_eq!(p.trajectory.last().unwrap().error_bound, 0.0);

        // METRICS_REPLY is structured JSON lines, parseable by the
        // shared parser, carrying registry metrics.
        let metrics = client.metrics().expect("metrics");
        let mut kinds = Vec::new();
        for line in metrics.lines().filter(|l| !l.trim().is_empty()) {
            let v = aims_telemetry::json::parse(line).expect("every metrics line parses");
            kinds.push(v.str("kind").expect("every line is tagged").to_string());
        }
        assert!(kinds.iter().any(|k| k == "counter"));
        let snap = aims_telemetry::Snapshot::from_json_lines(&metrics)
            .expect("snapshot round-trips through JSON");
        assert!(snap.counters.iter().any(|(name, _)| name == "service.submitted"));

        client.shutdown_server().expect("goodbye");
        server.join();
        svc.shutdown();
    });
}

#[test]
fn wire_rejections_are_typed_end_to_end() {
    with_watchdog(Duration::from_secs(60), || {
        let svc = Arc::new(QueryService::new(demo_cube(SIDE, 11), 16, ServiceConfig::default()));
        let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
        let mut client = TcpClient::connect(("127.0.0.1", server.port())).expect("connect");
        // Wrong dimensionality → InvalidQuery over the wire.
        match client.run_query(1, &QuerySpec::interactive(vec![(0, 31)])) {
            Err(ServiceError::InvalidQuery(msg)) => assert!(msg.contains("dimensional")),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        client.shutdown_server().expect("goodbye");
        server.join();
    });
}
