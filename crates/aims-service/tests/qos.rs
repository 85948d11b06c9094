//! Property tests for the adaptive QoS layer: admission plus graduated
//! shedding under randomized flood/drain schedules.
//!
//! The claims under test:
//! - No flood/drain schedule deadlocks the scheduler — every submit
//!   resolves under a watchdog, accepted or rejected.
//! - An admitted query is never dropped without a terminal frame: it
//!   ends in `Done` or a best-so-far `Shed` with a finite estimate, a
//!   finite bound, and a monotone bound trajectory. Rejections are
//!   typed (`QueueFull`), never panics.
//! - Below the shed threshold the QoS layer is invisible: with pressure
//!   under the first enter threshold, every session stays at
//!   `Tier::Normal` and the answers are bit-identical to serial
//!   evaluation for worker pools of 1, 2 and 8 threads.
//!
//! Both run the shipped ladder (`aims_service::qos` constants).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;

use aims_propolyne::RangeSumQuery;
use aims_service::{
    demo_cube, Outcome, QueryService, QuerySpec, ServiceConfig, ServiceError, Tier,
};

const SIDE: usize = 32;

/// Runs `f` on a helper thread and fails the test if it neither
/// finishes nor panics within `timeout` — the deadlock detector.
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

/// One flood/drain phase: how many queries to burst, whether the burst
/// is interactive, and how long to drain afterwards (0 = keep
/// flooding).
fn phase_strategy() -> impl Strategy<Value = (usize, bool, u64)> {
    (1usize..=8, any::<bool>(), prop_oneof![Just(0u64), 1u64..=10])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized flood/drain schedules against a deliberately tiny
    /// service: no deadlocks, no admitted query lost without a
    /// terminal frame, no untyped failures.
    #[test]
    fn flood_drain_schedules_never_lose_admitted_queries(
        phases in prop::collection::vec(phase_strategy(), 1..=6),
        ranges in prop::collection::vec(range_strategy(), 2..=2),
        seed in 1u64..1_000,
    ) {
        let cube = demo_cube(SIDE, seed);
        with_watchdog(Duration::from_secs(60), move || {
            let svc = Arc::new(QueryService::new(
                cube,
                8,
                ServiceConfig {
                    queue_capacity: 4,
                    max_batch: 2,
                    round_blocks: 2,
                    round_pause: Duration::from_micros(200),
                    threads: Some(2),
                    ..ServiceConfig::default()
                },
            ));
            let admitted = Arc::new(AtomicUsize::new(0));
            let rejected = Arc::new(AtomicUsize::new(0));
            let mut waiters = Vec::new();
            for &(burst, interactive, drain_ms) in &phases {
                for _ in 0..burst {
                    let spec = if interactive {
                        QuerySpec::interactive(ranges.clone())
                    } else {
                        QuerySpec::batch(ranges.clone())
                    };
                    match svc.submit(spec) {
                        Ok(h) => {
                            admitted.fetch_add(1, Ordering::SeqCst);
                            // Collect on a separate thread so the flood
                            // keeps pressure on the queue while earlier
                            // sessions refine.
                            waiters.push(std::thread::spawn(move || h.collect()));
                        }
                        Err(ServiceError::QueueFull { capacity }) => {
                            assert_eq!(capacity, 4);
                            rejected.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("untyped failure under flood: {other}"),
                    }
                }
                if drain_ms > 0 {
                    std::thread::sleep(Duration::from_millis(drain_ms));
                }
            }
            let mut terminals = 0usize;
            for w in waiters {
                let (trace, outcome) = w.join().unwrap();
                for pair in trace.windows(2) {
                    assert!(
                        pair[1].error_bound <= pair[0].error_bound,
                        "bound widened mid-session"
                    );
                }
                match outcome {
                    Outcome::Done(r) | Outcome::Shed(r) => {
                        assert!(r.estimate.is_finite());
                        assert!(r.error_bound.is_finite());
                        terminals += 1;
                    }
                    other => panic!("admitted query lost without terminal frame: {other:?}"),
                }
            }
            assert_eq!(
                terminals,
                admitted.load(Ordering::SeqCst),
                "every admitted query must reach a terminal frame"
            );
            let shed = svc.qos_stats().shed;
            assert!(
                shed as usize <= terminals,
                "shed counter ({shed}) cannot exceed terminals ({terminals})"
            );
            svc.shutdown();
        });
    }

    /// Below the first shed threshold the QoS layer must be invisible:
    /// identical bits to serial evaluation, every session at
    /// `Tier::Normal`, across pool widths.
    #[test]
    fn below_threshold_is_bit_identical_to_non_degraded_path(
        specs in prop::collection::vec(prop::collection::vec(range_strategy(), 2..=2), 1..=6),
        seed in 1u64..1_000,
    ) {
        let cube = demo_cube(SIDE, seed);
        let engine = aims_propolyne::Propolyne::new(cube.clone());
        let expected: Vec<u64> = specs
            .iter()
            .map(|ranges| {
                let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
                engine.evaluate_prepared(&p).to_bits()
            })
            .collect();

        for threads in [1usize, 2, 8] {
            // A queue far larger than the workload keeps pressure well
            // under the first enter threshold for the whole run.
            let svc = QueryService::new(
                cube.clone(),
                8,
                ServiceConfig {
                    queue_capacity: 64,
                    max_batch: 4,
                    round_blocks: 4,
                    threads: Some(threads),
                    ..ServiceConfig::default()
                },
            );
            let handles: Vec<_> = specs
                .iter()
                .map(|r| svc.submit(QuerySpec::interactive(r.clone())).unwrap())
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let (trace, outcome) = h.collect();
                for r in &trace {
                    prop_assert_eq!(
                        r.tier,
                        Tier::Normal,
                        "unloaded session degraded (threads={})",
                        threads
                    );
                }
                match outcome {
                    Outcome::Done(r) => {
                        prop_assert_eq!(r.error_bound, 0.0);
                        prop_assert_eq!(
                            r.estimate.to_bits(),
                            expected[k],
                            "threads={} diverged from serial",
                            threads
                        );
                    }
                    other => prop_assert!(false, "query {} did not complete: {:?}", k, other),
                }
            }
            prop_assert_eq!(svc.qos_stats().shed, 0, "nothing may shed below threshold");
            svc.shutdown();
        }
    }
}
