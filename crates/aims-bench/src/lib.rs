//! Experiment harness for the AIMS reproduction.
//!
//! The CIDR 2003 paper is a system-design paper: its "evaluation" is a set
//! of quantitative claims rather than numbered result tables. Every claim
//! is reproduced by one experiment here (E1–E19, plus extension
//! experiments E20–E23, E25–E28 and E30–E32; see `DESIGN.md` for the
//! claim → experiment index). `cargo run --release -p aims-bench --bin
//! experiments` prints the full table set that `EXPERIMENTS.md` records;
//! the Criterion benches under `benches/` cover the performance-shaped
//! claims.
//!
//! An experiment asserts what its header claims — exact equalities, drill
//! invariants, the floors it states — and prints its timings; it compares
//! nothing against a recorded past run. Timings that gate anything belong
//! to the end-to-end benchmark (`bench/`, `BENCHMARK.json`).

pub mod exp_acquisition;
pub mod exp_adhd;
pub mod exp_chaos;
pub mod exp_durability;
pub mod exp_extensions;
pub mod exp_faults;
pub mod exp_ingest_faults;
pub mod exp_online;
pub mod exp_propolyne;
pub mod exp_service;
pub mod exp_storage;
pub mod exp_system;
pub mod exp_tier;
pub mod exp_trace;
pub mod workloads;

use std::time::{Duration, Instant};

use aims_telemetry::{global, Snapshot};

/// Prints a section header for one experiment.
pub fn header(id: &str, claim: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id}: {claim}");
    println!("{}", "=".repeat(78));
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Times `f`: the elapsed time lands in the `<name>.ns` histogram of the
/// global registry *and* is returned for inline experiment output.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    global().histogram(&format!("{name}.ns")).record_duration(elapsed);
    (result, elapsed)
}

/// Scoped view of what an experiment recorded into the global telemetry
/// registry: construct with [`TelemetryReport::start`] before the work,
/// call [`TelemetryReport::finish`] after it to print the counters that
/// moved plus every histogram/gauge (cumulative), as an aligned table.
pub struct TelemetryReport {
    before: Snapshot,
}

impl TelemetryReport {
    /// Marks the starting point.
    pub fn start() -> Self {
        TelemetryReport { before: global().snapshot() }
    }

    /// Snapshot of the activity since [`TelemetryReport::start`].
    pub fn delta(&self) -> Snapshot {
        global().snapshot().delta_since(&self.before)
    }

    /// Prints the delta as a table under a `-- telemetry: <title> --`
    /// banner.
    pub fn finish(self, title: &str) {
        let delta = self.delta();
        if delta.is_empty() {
            return;
        }
        println!("\n-- telemetry: {title} --");
        print!("{}", delta.render_table());
    }
}
