//! The benchmark's vocabulary — workload and metric names, units and
//! directions — and the result line the driver reads.
//!
//! These tables are the single source the harness emits from;
//! `BENCHMARK.json` must list exactly the same names (a unit test holds
//! the two together).

use std::collections::BTreeMap;

use crate::spans::Spans;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_point_hot",
        "point-heavy TCP queries on a store that fits the cache: wire, admission and scheduler do the work, the device none",
    ),
    (
        "serve_range_cold",
        "wide TCP range sums on a store 64x the cache: FileDevice reads, checksums, eviction and progressive delivery dominate",
    ),
    (
        "ingest_burst",
        "a million samples a second into the durable tiered store with no reader to hide behind: WAL, fsync cadence, seal, compaction",
    ),
    (
        "mixed_ingest_query",
        "paced open-loop ingest beside closed-loop planner queries on one store: snapshot cost, compactor throttling, hot-tier sums",
    ),
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 7] = [
    lo("setup_s", "s"),
    lo("query_p50_ms", "ms"),
    hi("query_qps", "1/s"),
    lo("first_answer_p50_ms", "ms"),
    hi("ingest_samples_per_s", "1/s"),
    lo("ingest_ack_p50_us", "us"),
    lo("peak_rss_mb", "MiB"),
];

/// What single layers report in the traced pass. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 66] = [
    lo("service.wire_overhead_ms", "ms"),
    lo("service.inproc_p50_ms", "ms"),
    lo("service.queue_wait_us.p50", "us"),
    lo("service.queue_wait_us.p99", "us"),
    lo("service.rounds_per_query", "count"),
    lo("service.frames_per_query", "count"),
    hi("service.fanout_ratio", "ratio"),
    lo("service.frame_codec_ns", "ns"),
    lo("service.rejected", "count"),
    lo("service.shed", "count"),
    lo("service.dropped_progress", "count"),
    lo("service.tiered_query_p50_ms", "ms"),
    lo("service.tiered_query_p99_ms", "ms"),
    hi("service.tiered_query_qps", "1/s"),
    lo("service.tiered_rounds_per_query", "count"),
    lo("service.tiered_hist_blocks_per_query", "count"),
    lo("service.tiered_hot_rows_per_query", "count"),
    lo("propolyne.prepare_us", "us"),
    lo("propolyne.query_nnz", "count"),
    lo("propolyne.plan_blocks_per_query", "count"),
    lo("propolyne.evaluate_us", "us"),
    lo("storage.device_reads_per_query", "count"),
    hi("storage.cache_hit_ratio", "ratio"),
    lo("storage.cache_evictions_per_query", "count"),
    lo("storage.read_block_us", "us"),
    lo("storage.cache_hit_ns", "ns"),
    lo("storage.write_block_us.none", "us"),
    lo("storage.write_block_us.periodic64", "us"),
    lo("storage.write_block_us.always", "us"),
    lo("storage.wal_appends", "count"),
    lo("storage.wal_fsyncs", "count"),
    lo("storage.wal_checkpoints", "count"),
    lo("storage.checkpoint_ms", "ms"),
    lo("storage.wal_replayed", "count"),
    lo("tier.push_block_us", "us"),
    lo("tier.compaction_busy_frac", "ratio"),
    hi("tier.compaction_mb_per_s", "MB/s"),
    lo("tier.compaction_runs", "count"),
    lo("tier.compaction_refused", "count"),
    lo("tier.backlog_max_segments", "count"),
    lo("tier.compaction_drain_ms", "ms"),
    lo("tier.transform_segment_us", "us"),
    lo("tier.snapshot_us.1000", "us"),
    lo("tier.snapshot_us.3000", "us"),
    lo("tier.feed_outcome_us", "us"),
    lo("dsp.dwt_fwd_4096_us", "us"),
    lo("dsp.cube_transform_s", "s"),
    hi("acquisition.ingest_frames_per_s", "1/s"),
    hi("exec.threads", "count"),
    lo("exec.pool_dispatch_us", "us"),
    lo("telemetry.trace_overhead_frac", "ratio"),
    lo("bench.gen_lateness_p99_ms", "ms"),
    lo("bench.unattributed_frac", "ratio"),
    // End-to-end figures that cannot be gated. Tails and the reopen do
    // not repeat within a tenth on the sandbox (README, "Bounds"); the
    // disk ratio is a constant of the on-disk layout; the expected error
    // rate is zero.
    lo("query_p99_ms", "ms"),
    lo("ingest_ack_p99_us", "us"),
    lo("reopen_s", "s"),
    lo("disk_bytes_per_sample_byte", "ratio"),
    lo("error_rate", "ratio"),
    // The traced pass's own view of the end-to-end figures, so a trace
    // file can be read without the untraced run beside it.
    lo("traced.query_p50_ms", "ms"),
    hi("traced.query_qps", "1/s"),
    lo("traced.first_answer_p50_ms", "ms"),
    lo("traced.server_latency_p50_ms", "ms"),
    hi("traced.ingest_samples_per_s", "1/s"),
    lo("traced.ingest_ack_p50_us", "us"),
    lo("traced.samples.queries", "count"),
    lo("traced.samples.ingest_acks", "count"),
];

/// The metrics of one run, keyed by declared name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be declared in one of the
    /// tables above — a typo fails the run instead of inventing a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"));
        self.values.insert(def.name, value);
    }

    /// `(definition, value)` for every metric of `table`, in table order.
    /// A missing end-to-end metric is a harness bug; a per-layer metric
    /// the workload never touched reads 0.
    pub fn rows(&self, table: &'static [MetricDef], all_required: bool) -> Vec<(MetricDef, f64)> {
        table
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(&v) => (*d, v),
                None if all_required => panic!("workload did not measure {}", d.name),
                None => (*d, 0.0),
            })
            .collect()
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, ingest calls, verification checks).
    pub attempted: u64,
    /// Operations rejected, shed, expired, failed or answered wrongly.
    pub failed: u64,
    /// The measurements.
    pub metrics: Metrics,
    /// The traced pass's span log, for the trace file.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Counts `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        let rows = if traced {
            self.metrics.rows(&PER_LAYER, false)
        } else {
            self.metrics.rows(&END_TO_END, true)
        };
        let body: Vec<String> = rows
            .iter()
            .map(|(d, v)| {
                assert!(v.is_finite(), "{} is not a finite number: {v}", d.name);
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_telemetry::json::{parse, JsonValue};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.str(k).unwrap_or_default().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// Every workload and metric in BENCHMARK.json is emitted by the
    /// harness and the other way round, with the same unit and direction.
    #[test]
    fn benchmark_json_and_harness_agree() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");

        let declared: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let emitted: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(declared, emitted, "workloads");

        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = names(&doc, key);
            let emitted: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key}");
        }

        let bounds = doc.get("end_to_end").and_then(JsonValue::as_array).unwrap();
        for m in bounds {
            let b = m.num("bound").expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "bound {b} out of range");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                d.unit,
                d.name
            );
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(WORKLOADS.iter().all(|w| crate::workload::by_name(w.0).is_some()));
        assert!(crate::workload::by_name("nope").is_none());
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let mut out = Outcome::default();
        for d in END_TO_END {
            out.metrics.set(d.name, 1.25);
        }
        out.count(10, 0);
        let doc = parse(&out.result_line(false)).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"].num("value"), Some(1.25));
        assert_eq!(metrics["setup_s"].str("unit"), Some("s"));
        // The traced line carries the per-layer table, untouched layers as 0.
        let traced = parse(&out.result_line(true)).unwrap();
        assert_eq!(traced.get("metrics").unwrap().as_object().unwrap().len(), PER_LAYER.len());
    }
}
