//! Experiment harness for the AIMS reproduction.
//!
//! The CIDR 2003 paper is a system-design paper: its "evaluation" is a set
//! of quantitative claims rather than numbered result tables. Every claim
//! is reproduced by one experiment here (E1–E19, plus extension
//! experiments E20–E32; see `DESIGN.md` for the
//! claim → experiment index). `cargo run --release -p aims-bench --bin
//! experiments` prints the full table set that `EXPERIMENTS.md` records;
//! the Criterion benches under `benches/` cover the performance-shaped
//! claims.

pub mod exp_acquisition;
pub mod exp_adhd;
pub mod exp_chaos;
pub mod exp_durability;
pub mod exp_extensions;
pub mod exp_faults;
pub mod exp_ingest_faults;
pub mod exp_kernels;
pub mod exp_online;
pub mod exp_parallel;
pub mod exp_propolyne;
pub mod exp_service;
pub mod exp_storage;
pub mod exp_system;
pub mod exp_tier;
pub mod exp_trace;
pub mod workloads;

use std::time::{Duration, Instant};

pub use aims::drill::Metric;
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

/// `"2-D DWT 1024^2 fwd+inv"` -> `"2_d_dwt_1024_2_fwd_inv"` — a stable
/// metric-name fragment from a human workload label.
pub fn slug(name: &str) -> String {
    let words = name.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| !w.is_empty());
    words.collect::<Vec<_>>().join("_").to_ascii_lowercase()
}

/// A drill's metrics under an experiment's id: `query_p99_ms` ->
/// `e32.query_p99_ms`.
pub fn prefixed(id: &str, metrics: impl IntoIterator<Item = Metric>) -> Vec<Metric> {
    metrics.into_iter().map(|m| Metric { name: format!("{id}.{}", m.name), ..m }).collect()
}

/// Records an experiment's machine-readable result for the driver and the
/// `trend` gate: `body` (one JSON object) lands in `target/<file>` with
/// the uniform `"metrics":[{name,value,direction,rel_tolerance,
/// abs_tolerance}]` array appended as its last key. The experiment passes
/// the numbers it wants gated while its rows are still in memory, each
/// with the tolerance its noise warrants; `trend` reads nothing else.
pub fn record(file: &str, body: &str, metrics: &[Metric]) {
    let open = body.trim_end().strip_suffix('}').expect("record: body must be a JSON object");
    let metrics: Vec<String> = metrics.iter().map(Metric::to_json).collect();
    let path = std::path::Path::new("target").join(file);
    match std::fs::write(&path, format!("{open},\"metrics\":[{}]}}\n", metrics.join(","))) {
        Ok(()) => println!("\nrecorded {}", path.display()),
        Err(e) => println!("\n(could not write {}: {e})", path.display()),
    }
}

/// Times `f` under a telemetry span, so the elapsed time lands in the
/// `<name>.ns` histogram of the global registry (with parent/child
/// nesting) *and* is returned for inline experiment output. This replaces
/// the hand-rolled `Instant::now()` pairs the experiment modules used to
/// carry.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = {
        let _span = aims_telemetry::span!(name);
        f()
    };
    (result, start.elapsed())
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
