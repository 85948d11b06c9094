//! The serving layer in process: three overlapping progressive range sums
//! with different deadlines submitted concurrently to one
//! [`aims::service::QueryService`]. The scheduler batches their
//! overlapping block fetches (each hot block is read once per round and
//! fanned out), and every session streams monotonically refining
//! estimates with guaranteed error bounds — the unlimited queries end
//! bit-exact, the tightly-deadlined one ends with its best bounded answer.
//!
//! Run with: `cargo run --release --example query_service`

use std::sync::Arc;
use std::time::Duration;

use aims::dsp::filters::FilterKind;
use aims::propolyne::cube::DataCube;
use aims::service::{ProgressKind, QueryService, QuerySpec, Refinement, ServiceConfig, Update};
use aims::storage::device::BlockDevice;

fn gaussian_mixture_cube(n: usize) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let centers = [(0.25, 0.3, 30.0), (0.7, 0.6, 50.0), (0.5, 0.85, 20.0)];
    for i in 0..n {
        for j in 0..n {
            let x = i as f64 / n as f64;
            let y = j as f64 / n as f64;
            let mut v = 1.0;
            for &(cx, cy, a) in &centers {
                let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                v += a * (-d2 / 0.02).exp();
            }
            *cube.at_mut(&[i, j]) = v.round();
        }
    }
    cube
}

fn main() {
    let cube = gaussian_mixture_cube(128).transform(&FilterKind::Db4.filter());
    // Small rounds with a pause between them, so the progressive traces
    // have several visible steps instead of finishing in one round.
    let service = Arc::new(QueryService::new(
        cube,
        32,
        ServiceConfig {
            round_blocks: 8,
            round_pause: Duration::from_millis(2),
            ..ServiceConfig::default()
        },
    ));

    // Three overlapping windows over the hot center of the cube; the
    // third gets a deadline far too tight to finish.
    let sessions = [
        ("interactive, no deadline", QuerySpec::interactive(vec![(16, 95), (16, 95)])),
        (
            "batch, 2s deadline",
            QuerySpec::batch(vec![(32, 111), (8, 87)]).with_deadline(Duration::from_secs(2)),
        ),
        (
            "interactive, 5ms deadline",
            QuerySpec::interactive(vec![(0, 79), (32, 127)])
                .with_deadline(Duration::from_millis(5)),
        ),
    ];

    let mut handles = Vec::new();
    for (label, spec) in sessions {
        let handle = service.submit(spec).expect("queue has room for three");
        handles.push((label, handle));
    }

    for (label, handle) in handles {
        println!("\n== {label} ==");
        loop {
            let (kind, r) = match handle.next() {
                Some(Update::Progress { kind, refinement }) => (kind, refinement),
                Some(Update::Profile(p)) => {
                    println!(
                        "  profile: {} blocks read, {} shared, hit ratio {:.2}",
                        p.blocks_read,
                        p.blocks_shared,
                        p.cache_hit_ratio()
                    );
                    continue;
                }
                None => (ProgressKind::Cancelled, Refinement::NONE),
            };
            match kind {
                ProgressKind::Progress => println!(
                    "  round {:>3}: {:>5.1}% of coefficients, estimate {:>10.2} +/- {:.2}",
                    r.round,
                    100.0 * r.progress(),
                    r.estimate,
                    r.error_bound
                ),
                ProgressKind::Done => {
                    println!("  done: {:.2} (exact — bound {:.2})", r.estimate, r.error_bound)
                }
                ProgressKind::DeadlineExpired => println!(
                    "  deadline expired at {:.1}%: best answer {:.2} +/- {:.2}",
                    100.0 * r.progress(),
                    r.estimate,
                    r.error_bound
                ),
                ProgressKind::Shed => println!(
                    "  shed under overload at {:.1}%: best answer {:.2} +/- {:.2}",
                    100.0 * r.progress(),
                    r.estimate,
                    r.error_bound
                ),
                ProgressKind::Cancelled => println!("  session ended without an answer"),
            }
            if kind.is_terminal() {
                break;
            }
        }
    }

    let stats = service.cache().stats();
    println!(
        "\nshared scan: {} device block reads total, cache {} hits / {} misses",
        service.device().stats().reads,
        stats.hits,
        stats.misses
    );
    service.shutdown();
}
