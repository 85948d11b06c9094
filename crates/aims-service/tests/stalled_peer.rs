//! A peer that stops reading must cost the server a timeout, not its
//! shutdown: the connection's writes time out, its sessions are cancelled,
//! it is closed and counted in `service.net.conn_errors` — and everyone
//! else is served as if it were not there.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use aims_propolyne::{Propolyne, RangeSumQuery};
use aims_service::wire::write_frame;
use aims_service::{
    demo_cube, Frame, Priority, ProgressKind, QueryService, QuerySpec, Server, ServiceConfig,
    TcpClient,
};
use aims_telemetry::global;

/// Runs `f` on a helper thread and fails the test if it neither finishes
/// nor panics within `timeout`: at the parent of this test's commit both
/// cases block until the stalled peer goes away, which it never does.
fn with_watchdog(timeout: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(timeout) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("test body panicked")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: test exceeded {timeout:?} — the stalled peer wedged the server");
        }
    }
}

/// A connected peer that has pipelined `frames` and will never read a
/// byte.
fn stalled_peer(port: u16, frames: impl Iterator<Item = Frame>) -> TcpStream {
    let mut requests = Vec::new();
    frames.for_each(|frame| write_frame(&mut requests, &frame).unwrap());
    let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
    peer.write_all(&requests).unwrap();
    peer
}

/// A well-behaved connection's query, beside the stalled one, is
/// bit-identical to serial evaluation.
fn served_as_usual(port: u16, engine: &Propolyne) {
    let ranges = vec![(2, 29), (4, 27)];
    let mut client = TcpClient::connect(("127.0.0.1", port)).unwrap();
    let out = client.run_query(1, &QuerySpec::interactive(ranges.clone())).unwrap();
    assert_eq!(out.kind, ProgressKind::Done);
    let exact = engine.evaluate_prepared(&engine.prepare(&RangeSumQuery::count(ranges)));
    assert_eq!(out.last.unwrap().estimate.to_bits(), exact.to_bits());
}

/// `stop()` + `join()` with the stalled peer still attached.
fn stops_within_two_seconds(server: Server, peer: TcpStream) {
    let start = Instant::now();
    server.stop();
    server.join();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "stop + join took {took:?} beside a stalled peer");
    drop(peer);
}

/// The two cases run one after the other, so each can count exactly its
/// own connection error in the process-wide registry.
#[test]
fn a_peer_that_stops_reading_is_given_up_on() {
    with_watchdog(Duration::from_secs(60), || {
        unread_metrics_replies_do_not_wedge_shutdown();
        an_unread_query_stream_ends_its_sessions_cancelled();
    });
}

fn unread_metrics_replies_do_not_wedge_shutdown() {
    let cube = demo_cube(32, 41);
    let engine = Propolyne::new(cube.clone());
    let svc = Arc::new(QueryService::new(cube, 16, ServiceConfig::default()));
    let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let errors = global().counter("service.net.conn_errors");
    let before = errors.get();
    // 20 KB of requests; the replies run to tens of megabytes.
    let peer = stalled_peer(server.port(), (0..4_000).map(|_| Frame::MetricsRequest));
    served_as_usual(server.port(), &engine);
    // The server is by now blocked writing a reply nobody reads.
    stops_within_two_seconds(server, peer);
    assert_eq!(errors.get() - before, 1, "the timed-out write is a connection error");
}

fn an_unread_query_stream_ends_its_sessions_cancelled() {
    let cube = demo_cube(32, 41);
    let engine = Propolyne::new(cube.clone());
    // One block a millisecond and no cache to speak of: the flood
    // below is seconds of work, so most of it is still in flight when
    // the peer's socket fills. (The queue is more than twice the flood,
    // so pressure stays under the first shedding threshold: a queue
    // fuller than that would end sessions after one round, and one
    // frame.)
    let config = ServiceConfig {
        queue_capacity: 16_384,
        cache_blocks: 1,
        round_blocks: 1,
        round_pause: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let svc = Arc::new(QueryService::new(cube, 16, config));
    let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let errors = global().counter("service.net.conn_errors");
    let cancelled = global().counter("service.cancelled");
    let (errors_before, cancelled_before) = (errors.get(), cancelled.get());
    // Traced 26-block batch queries: 26 PROGRESS frames and a PROFILE
    // each, 16 MB in all.
    let peer = stalled_peer(
        server.port(),
        (0..8_000).map(|req_id| Frame::Submit {
            req_id,
            priority: Priority::Batch,
            deadline_ms: 0,
            ranges: vec![(1, 30), (2, 29)],
            trace: true,
        }),
    );
    served_as_usual(server.port(), &engine);
    // Nobody tells the server to stop: the write timeout alone ends
    // the connection and cancels what it still had in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while errors.get() == errors_before || !svc.sessions_json_lines().is_empty() {
        assert!(Instant::now() < deadline, "the stalled connection was never given up on");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(errors.get() - errors_before, 1);
    assert!(cancelled.get() > cancelled_before, "its in-flight sessions end Cancelled");
    stops_within_two_seconds(server, peer);
    svc.shutdown();
}
