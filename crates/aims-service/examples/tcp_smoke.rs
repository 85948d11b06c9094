//! Minimal TCP smoke driver: run one query against a live `aims-serve`,
//! fetch metrics, then ask the server to shut down cleanly.
//!
//! Used by `ci.sh` (in memory, then `--data DIR` created and reopened):
//!   aims-serve --side 32 --block 16 &          # prints the bound port
//!   cargo run -p aims-service --example tcp_smoke -- <port>

use aims_service::{ProgressKind, QuerySpec, TcpClient};

fn main() {
    let port: u16 = std::env::args()
        .nth(1)
        .expect("usage: tcp_smoke <port>")
        .parse()
        .expect("port must be a number");
    let mut client = TcpClient::connect(("127.0.0.1", port)).expect("connect");
    let out = client.run_query(1, &QuerySpec::interactive(vec![(0, 31), (0, 31)])).expect("query");
    assert_eq!(out.kind, ProgressKind::Done, "query must complete");
    let last = out.last.expect("Done carries a final refinement");
    assert_eq!(last.error_bound, 0.0, "clean storage must answer exactly");
    println!("answer = {} (bound {})", last.estimate, last.error_bound);
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("service.submitted"), "snapshot must carry service counters");
    assert!(
        metrics.contains("storage.alloc.needed_items_per_block"),
        "snapshot must carry the served plan's needed items per block"
    );
    client.shutdown_server().expect("shutdown");
    println!("smoke ok");
}
