//! The server's thread count is a function of its open connections, not of
//! the queries they have run or of the configured pool width: the query
//! service is one thread, its scheduler, and the TCP front-end adds an
//! accept thread and `2 × connections` — during a pipelined burst, after
//! thousands of queries, and across connection churn — and nothing of it
//! outlives `Server::join`.
//!
//! A single test in its own binary, so libtest's own threads are constant
//! and `/proc/self/status` counts only what this test started.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aims_service::{
    demo_cube, ClientEvent, QueryService, QuerySpec, Server, ServiceConfig, TcpClient,
};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads line");
    line.split_whitespace().nth(1).expect("Threads value").parse().expect("a count")
}

/// Pipelines `wave` queries and drains every terminal frame.
fn pipelined_wave(client: &mut TcpClient, first_id: u64, wave: u64) {
    // A 26-block plan at two blocks and a millisecond a round: each query
    // is in flight for a dozen milliseconds and streams a dozen frames.
    let spec = QuerySpec::interactive(vec![(1, 30), (2, 29)]);
    for req_id in first_id..first_id + wave {
        client.submit(req_id, &spec).unwrap();
    }
    let mut ended = 0;
    while ended < wave {
        match client.next_event().unwrap() {
            ClientEvent::Progress { kind, .. } => ended += u64::from(kind.is_terminal()),
            other => panic!("unexpected event {other:?}"),
        }
    }
}

#[test]
fn threads_follow_connections_not_queries() {
    // The highest count seen, sampled from a thread of the test's own (a
    // constant, like libtest's): what the server does mid-burst is not
    // visible from the client's side of a 44 ms wire stall.
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = Arc::downgrade(&peak);
    std::thread::spawn(move || {
        while let Some(peak) = sampler.upgrade() {
            peak.fetch_max(threads(), Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(500));
        }
    });
    let config = ServiceConfig {
        round_blocks: 2,
        round_pause: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    // The cube first, so whatever building it starts is not counted.
    let cube = demo_cube(32, 41);
    let without_service = threads();
    let svc = Arc::new(QueryService::new(cube, 16, config));
    let without_server = threads();
    assert_eq!(without_server, without_service + 1, "the service is its scheduler thread");
    let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let port = server.port();

    // One connection, one query: accept thread + reader + writer.
    let mut client = TcpClient::connect(("127.0.0.1", port)).unwrap();
    pipelined_wave(&mut client, 0, 1);
    let baseline = threads();
    assert_eq!(baseline, without_server + 3);
    peak.store(0, Ordering::SeqCst);

    // 2,000 queries on that connection, 32 in flight at a time (a TCP
    // round trip costs the 44 ms wire stall, so waves, not one by one).
    for wave in 0..2_000 / 32 + 1 {
        pipelined_wave(&mut client, 1 + wave * 32, 32);
    }
    let seen = peak.swap(0, Ordering::SeqCst);
    assert!(seen <= baseline + 2, "{seen} threads with 32 queries in flight, {baseline} with one");
    drop(client);

    // 50 connect → query → close cycles: a finished connection's two
    // threads go when it ends (the + 2 is the one just closed, winding
    // down while the next is already up).
    for cycle in 0..50 {
        let mut client = TcpClient::connect(("127.0.0.1", port)).unwrap();
        pipelined_wave(&mut client, 100_000 + cycle, 1);
    }
    let seen = peak.load(Ordering::SeqCst);
    assert!(seen <= baseline + 2, "{seen} threads across connection churn, {baseline} at rest");

    // After `join` nothing of the server is left. (A joined thread can
    // stay visible in /proc for a moment after its join returns.)
    server.stop();
    server.join();
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != without_server {
        assert!(Instant::now() < deadline, "{} threads left, {without_server} expected", threads());
        std::thread::sleep(Duration::from_millis(5));
    }
    svc.shutdown();
}
