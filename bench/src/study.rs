//! Running every workload: each in its own child process (so peak memory
//! and the process-global telemetry registry belong to that workload
//! alone), both passes, metrics printed by name with their units — and
//! the variance study that sets the regression bounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use aims_telemetry::json::{parse, JsonValue};

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, relative_spread};

/// One child run's result line, raw and parsed.
struct Run {
    raw: String,
    doc: JsonValue,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.doc.get("metrics")?.get(name)?.num("value")
    }
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    trace: bool,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let raw = stdout.lines().last().unwrap_or_default().to_string();
    let doc = parse(&raw).map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    if doc.get("correct") != Some(&JsonValue::Bool(true)) {
        return Err(format!(
            "{workload} (seed {seed}): {} of {} operations failed",
            doc.num("failed").unwrap_or(-1.0),
            doc.num("attempted").unwrap_or(-1.0)
        ));
    }
    Ok(Run { raw, doc })
}

fn print_metrics(workload: &str, run: &Run) {
    let Some(metrics) = run.doc.get("metrics").and_then(JsonValue::as_object) else { return };
    for (name, m) in metrics {
        println!(
            "{workload} {name} {} {}",
            m.num("value").unwrap_or(f64::NAN),
            m.str("unit").unwrap_or("?")
        );
    }
}

/// The finding that motivates the next change, stated without acting on
/// it: how much of the client's wait is the wire.
fn finding(workload: &str, untraced: &Run, traced: &Run) -> Option<String> {
    let p50 = untraced.metric("query_p50_ms")?;
    let wire = traced.metric("service.wire_overhead_ms")?;
    if wire == 0.0 {
        return None;
    }
    Some(format!(
        "{workload}: query_p50_ms {p50:.3} = service.wire_overhead_ms {wire:.3} + server-side {:.3} \
         (service.inproc_p50_ms {:.3}: queue_wait {:.1} us, {:.1} device reads x {:.2} us, \
         evaluate {:.1} us, prepare {:.1} us); bench.unattributed_frac {:.4}",
        traced.metric("traced.server_latency_p50_ms")?,
        traced.metric("service.inproc_p50_ms")?,
        traced.metric("service.queue_wait_us.p50")?,
        traced.metric("storage.device_reads_per_query")?,
        traced.metric("storage.read_block_us")?,
        traced.metric("propolyne.evaluate_us")?,
        traced.metric("propolyne.prepare_us")?,
        traced.metric("bench.unattributed_frac")?,
    ))
}

fn write(path: PathBuf, text: String) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Both passes of every workload for one seed; writes
/// `bench/out/result-<seed>.json`.
fn full_set(seed: u64, seconds: Option<f64>, quick: bool) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut findings = Vec::new();
    for (workload, _) in WORKLOADS {
        let untraced = run_child(workload, seed, seconds, quick, false)?;
        print_metrics(workload, &untraced);
        let traced = run_child(workload, seed, seconds, quick, true)?;
        print_metrics(workload, &traced);
        findings.extend(finding(workload, &untraced, &traced));
        rows.push(format!(
            "\"{workload}\": {{\"untraced\": {}, \"traced\": {}}}",
            untraced.raw, traced.raw
        ));
    }
    for f in &findings {
        println!("finding: {f}");
    }
    let findings: Vec<String> =
        findings.iter().map(|f| format!("\"{}\"", aims_telemetry::json::escape(f))).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    write(
        PathBuf::from(format!("bench/out/result-{seed}.json")),
        format!(
            "{{\"seed\": {seed}, \"cores\": {threads}, \"aims_threads\": {},\n\"findings\": [{}],\n\"workloads\": {{\n{}\n}}}}\n",
            threads.min(4),
            findings.join(",\n"),
            rows.join(",\n")
        ),
    )
}

/// The untraced pass of every workload for `n` consecutive seeds; records
/// each end-to-end metric's median and quartile spread in
/// `bench/VARIANCE.json`.
fn variance_study(seed: u64, seconds: Option<f64>, quick: bool, n: usize) -> Result<(), String> {
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for s in seed..seed + n as u64 {
        for (workload, _) in WORKLOADS {
            let run = run_child(workload, s, seconds, quick, false)?;
            for d in &END_TO_END {
                let v = run
                    .metric(d.name)
                    .ok_or_else(|| format!("{workload} did not report {}", d.name))?;
                println!("{workload} seed {s} {} {v} {}", d.name, d.unit);
                samples.entry((workload, d.name)).or_default().push(v);
            }
        }
    }
    let mut per_workload: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    println!("{:<20} {:<22} {:>14} {:>9}", "workload", "metric", "median", "spread");
    for ((workload, metric), values) in &samples {
        let [q1, med, q3] = quartiles(values);
        let spread = relative_spread(values);
        let better =
            END_TO_END.iter().find(|d| d.name == *metric).map_or("", |d| d.better.as_str());
        println!(
            "{workload:<20} {metric:<22} {med:>14.4} {:>8.2}%  ({better} is better)",
            spread * 100.0
        );
        per_workload.entry(workload).or_default().push(format!(
            "\"{metric}\": {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}}}"
        ));
    }
    let body: Vec<String> = per_workload
        .iter()
        .map(|(w, rows)| format!("\"{w}\": {{\n  {}\n}}", rows.join(",\n  ")))
        .collect();
    write(
        PathBuf::from("bench/VARIANCE.json"),
        format!(
            "{{\"runs\": {n}, \"first_seed\": {seed}, \"spread\": \"(q3 - q1) / median, quartiles as Python statistics.quantiles(n=4)\",\n\"metrics\": {{\n{}\n}}}}\n",
            body.join(",\n")
        ),
    )
}

/// Entry point when no `--workload` is given.
pub fn run_all(
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    repeat: Option<usize>,
) -> Result<(), String> {
    match repeat {
        Some(n) => variance_study(seed, seconds, quick, n),
        None => full_set(seed, seconds, quick),
    }
}
