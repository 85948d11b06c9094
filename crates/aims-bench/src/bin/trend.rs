//! Perf-trajectory regression gate (ROADMAP item 2).
//!
//! Every E-experiment records its result in a `target/bench_*.json`
//! whose `"metrics"` array names the numbers it wants gated — `{name,
//! value, direction, rel_tolerance, abs_tolerance}`, written by
//! `aims_bench::record`. This tool reads those arrays, compares each
//! value against the committed baseline in `BENCH_TRAJECTORY.json`, and
//! exits non-zero when any metric has regressed beyond its tolerance —
//! so a perf regression fails ci.sh the same way a broken test does. It
//! knows nothing about any one experiment.
//!
//! Usage:
//!   trend check            compare current numbers against baselines
//!   trend check --record   also ratchet baselines on improvement and
//!                          adopt any metrics not yet tracked
//!
//! `higher` metrics regress by falling below `baseline * (1 - rel) -
//! abs`; `lower` metrics by rising above `baseline * (1 + rel) + abs`.
//! An experiment's tolerances seed a newly adopted metric; once a metric
//! is tracked, the committed tolerances govern. A tracked metric whose
//! experiment ran (some `eNN.*` metric is present) but no longer emits
//! it is an error: a renamed number must not drop out of the gate
//! silently. Metrics of experiments that did not run are skipped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use aims::drill::{Direction, Metric};
use aims_telemetry::json::{self, JsonValue};

const TRAJECTORY_PATH: &str = "BENCH_TRAJECTORY.json";
const HISTORY_CAP: usize = 24;

/// The `metrics[]` of one recorded experiment file.
fn parse_metrics(path: &str, text: &str) -> Result<Vec<Metric>, String> {
    let v = json::parse(text).map_err(|e| format!("{path}: {e:?}"))?;
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: missing metrics[]"))?;
    metrics
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.str("name")?.to_string(),
                value: m.num("value")?,
                direction: m.str("direction").and_then(Direction::parse)?,
                rel_tolerance: m.num("rel_tolerance")?,
                abs_tolerance: m.num("abs_tolerance")?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed metrics[] entry"))
}

/// Every metric of every `target/bench_*.json`, in file-name order.
fn collect_current() -> Result<Vec<Metric>, String> {
    let Ok(dir) = fs::read_dir("target") else { return Ok(Vec::new()) };
    let mut paths: Vec<String> = dir
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("bench_") && n.ends_with(".json"))
        .map(|n| format!("target/{n}"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        out.extend(parse_metrics(&path, &text)?);
    }
    Ok(out)
}

/// The experiment a metric belongs to: `e31` for `e31.auc_ratio`.
fn owner(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Tracked metrics whose experiment ran but no longer emits them.
fn dropped<'a>(tracked: impl Iterator<Item = &'a String>, current: &[Metric]) -> Vec<&'a str> {
    tracked
        .map(String::as_str)
        .filter(|t| {
            current.iter().all(|m| m.name != *t)
                && current.iter().any(|m| owner(&m.name) == owner(t))
        })
        .collect()
}

/// The committed state for one metric.
struct Tracked {
    direction: Direction,
    rel_tolerance: f64,
    abs_tolerance: f64,
    baseline: f64,
    history: Vec<f64>,
}

fn load_trajectory(path: &str) -> Result<BTreeMap<String, Tracked>, String> {
    if !Path::new(path).exists() {
        return Ok(BTreeMap::new());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{path}: missing metrics object"))?;
    let mut out = BTreeMap::new();
    for (name, m) in metrics {
        let direction = m
            .str("direction")
            .and_then(Direction::parse)
            .ok_or_else(|| format!("{path}: metric {name} has bad direction"))?;
        let baseline =
            m.num("baseline").ok_or_else(|| format!("{path}: metric {name} has no baseline"))?;
        let history = m
            .get("history")
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default();
        out.insert(
            name.clone(),
            Tracked {
                direction,
                rel_tolerance: m.num("rel_tolerance").unwrap_or(0.0),
                abs_tolerance: m.num("abs_tolerance").unwrap_or(0.0),
                baseline,
                history,
            },
        );
    }
    Ok(out)
}

fn write_trajectory(path: &str, metrics: &BTreeMap<String, Tracked>) -> Result<(), String> {
    let mut s = String::from("{\n  \"version\": 1,\n  \"metrics\": {\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (name, t)) in metrics.iter().enumerate() {
        let history = t.history.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(", ");
        let _ = write!(
            s,
            "    {}: {{\"direction\": \"{}\", \"rel_tolerance\": {}, \"abs_tolerance\": {}, \
             \"baseline\": {:.6}, \"history\": [{}]}}",
            json_string(name),
            t.direction.as_str(),
            t.rel_tolerance,
            t.abs_tolerance,
            t.baseline,
            history
        );
        s.push_str(if i == last { "\n" } else { ",\n" });
    }
    s.push_str("  }\n}\n");
    fs::write(path, s).map_err(|e| format!("{path}: {e}"))
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let cmd = args.iter().find(|a| !a.starts_with("--")).map(String::as_str);
    match cmd {
        Some("check") | None => {}
        Some(other) => {
            eprintln!("unknown command `{other}`\nusage: trend check [--record]");
            return ExitCode::FAILURE;
        }
    }

    let current = match collect_current() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("trend: {e}");
            return ExitCode::FAILURE;
        }
    };
    if current.is_empty() {
        eprintln!(
            "trend: no metrics in target/bench_*.json — run the experiments first\n\
             (cargo run --release -p aims-bench --bin experiments -- e25 e26 e27 e28)"
        );
        return ExitCode::FAILURE;
    }

    let mut trajectory = match load_trajectory(TRAJECTORY_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trend: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    let mut changed = false;
    println!("perf trajectory vs {TRAJECTORY_PATH}:");
    for spec in &current {
        let value = spec.value;
        match trajectory.get_mut(&spec.name) {
            None => {
                if record {
                    trajectory.insert(
                        spec.name.clone(),
                        Tracked {
                            direction: spec.direction,
                            rel_tolerance: spec.rel_tolerance,
                            abs_tolerance: spec.abs_tolerance,
                            baseline: value,
                            history: vec![value],
                        },
                    );
                    changed = true;
                    println!("  {:32} {value:>10.4}  NEW (baseline recorded)", spec.name);
                } else {
                    println!("  {:32} {value:>10.4}  untracked (run with --record)", spec.name);
                }
            }
            Some(t) => {
                // The committed tolerances govern — editing the file is
                // how a human loosens or tightens a gate.
                let (ok, bound) = match t.direction {
                    Direction::Higher => {
                        let min_ok = t.baseline * (1.0 - t.rel_tolerance) - t.abs_tolerance;
                        (value >= min_ok, min_ok)
                    }
                    Direction::Lower => {
                        let max_ok = t.baseline * (1.0 + t.rel_tolerance) + t.abs_tolerance;
                        (value <= max_ok, max_ok)
                    }
                };
                let improved = match t.direction {
                    Direction::Higher => value > t.baseline,
                    Direction::Lower => value < t.baseline,
                };
                let verdict = if !ok {
                    regressions += 1;
                    "REGRESSION"
                } else if improved {
                    "ok (improved)"
                } else {
                    "ok"
                };
                println!(
                    "  {:32} {value:>10.4}  baseline {:>10.4}  bound {:>10.4}  {verdict}",
                    spec.name, t.baseline, bound
                );
                if record {
                    t.history.push(value);
                    if t.history.len() > HISTORY_CAP {
                        let drop = t.history.len() - HISTORY_CAP;
                        t.history.drain(..drop);
                    }
                    if improved {
                        // Ratchet: improvements become the new floor, so
                        // the gate tracks the best the code has done.
                        t.baseline = value;
                    }
                    changed = true;
                }
            }
        }
    }

    if changed {
        if let Err(e) = write_trajectory(TRAJECTORY_PATH, &trajectory) {
            eprintln!("trend: {e}");
            return ExitCode::FAILURE;
        }
        println!("updated {TRAJECTORY_PATH}");
    }

    let dropped = dropped(trajectory.keys(), &current);
    for name in &dropped {
        eprintln!("trend: tracked metric {name} is no longer emitted by its experiment");
    }
    if regressions > 0 {
        eprintln!("trend: {regressions} metric(s) regressed beyond tolerance");
    }
    if regressions > 0 || !dropped.is_empty() {
        ExitCode::FAILURE
    } else {
        println!("trend: all {} tracked metrics within tolerance", current.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"experiment":"e32_tier","seed":3634,"metrics":[
        {"name":"e32.query_p99_ms","value":6.5,"direction":"lower","rel_tolerance":2,"abs_tolerance":10},
        {"name":"e32.ingest_samples_per_sec","value":1240071.1,"direction":"higher","rel_tolerance":0.6,"abs_tolerance":0}]}"#;

    #[test]
    fn parses_a_recorded_metrics_array() {
        let m = parse_metrics("sample", SAMPLE).unwrap();
        assert_eq!(m[0], Metric::lower("e32.query_p99_ms", 6.5, 2.0, 10.0));
        assert_eq!(m[1], Metric::higher("e32.ingest_samples_per_sec", 1240071.1, 0.6, 0.0));
        // What `aims_bench::record` writes is what this reads.
        let written = format!("{{\"metrics\":[{}]}}", m[0].to_json());
        assert_eq!(parse_metrics("written", &written).unwrap(), m[..1]);
        assert!(parse_metrics("bare", r#"{"rows":[]}"#).unwrap_err().contains("missing metrics"));
        let bad = r#"{"metrics":[{"name":"x","value":1,"direction":"sideways"}]}"#;
        assert!(parse_metrics("bad", bad).unwrap_err().contains("malformed"));
    }

    #[test]
    fn a_renamed_metric_is_dropped_but_an_unrun_experiment_is_skipped() {
        let current = parse_metrics("sample", SAMPLE).unwrap();
        let tracked: Vec<String> =
            ["e32.query_p99_ms", "e32.compaction_lag_ms", "e25.worst_rel_error"]
                .map(String::from)
                .to_vec();
        assert_eq!(dropped(tracked.iter(), &current), ["e32.compaction_lag_ms"]);
    }
}
