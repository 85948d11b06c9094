//! Composed chaos drills: every seeded fault injector in the system,
//! driven together under one master seed.
//!
//! The repo has grown three independent, deterministic fault injectors:
//!
//! 1. **Storage** — [`FaultyDevice`] (read errors, bit flips, torn
//!    writes, dead blocks, latency) under the serving layer's retry and
//!    degraded-evaluation path.
//! 2. **Acquisition** — [`aims_sensors::FaultySensorRig`] (dropouts, spikes, stuck-at,
//!    clock faults, duplicates, reordering, sensor death) under the
//!    supervised ingest pipeline.
//! 3. **Overload** — query floods against a bounded admission queue,
//!    under the adaptive QoS layer's graduated load shedding.
//!
//! Each is tested in isolation elsewhere. This module is the *composed*
//! drill: one `u64` master seed derives a sub-seed per injector
//! (splitmix64), and six phases walk the system from a clean baseline
//! through every injector separately, then all three at once, then a
//! drain — asserting the robustness invariants that matter end-to-end:
//!
//! - **No silent losses**: every admitted query reaches a terminal
//!   outcome (`Done`, `Shed`, or `DeadlineExpired`), never a hang and
//!   never a dropped session.
//! - **Monotone bounds**: every session's error-bound trajectory is
//!   non-increasing and finite, faults or not.
//! - **Shed ⇒ best-so-far**: a shed session receives a real partial
//!   answer with a finite guaranteed bound — not an error.
//! - **Drains recover**: after the flood stops, the service walks back
//!   to [`Tier::Normal`] with an empty session registry, and a fresh
//!   query completes undegraded.
//!
//! Shells: `tests/chaos_drill.rs` (CI, under pinned `AIMS_CHAOS_SEED`s),
//! `aims-cli chaos` (the operator's drill button), and `aims-bench e31`
//! (which adds the FIFO-vs-utility scheduling comparison).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aims_acquisition::ingest::IngestConfig;
use aims_propolyne::cube::{DataCube, WaveletCube};
use aims_propolyne::{Propolyne, RangeSumQuery};
use aims_sensors::faulty::SensorFaultPlan;
use aims_service::{
    Outcome, QueryService, QuerySpec, Refinement, ServiceConfig, ServiceError, Tier,
};
use aims_storage::device::{BlockDevice, RetryPolicy};
use aims_storage::faults::{FaultPlan, FaultyDevice};

use super::{ingest, percentile, sub_seed, Rng};

/// Coefficients per storage block in every drill service.
const BLOCK: usize = 16;
/// Cube dims: 28 glove channels padded to 32 × 200 frames padded to 256.
const DIMS: [usize; 2] = [32, 256];

/// Tuning for one composed drill run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Master seed; every fault schedule and workload derives from it.
    pub seed: u64,
    /// Concurrent flood clients in the overload phases.
    pub flood_threads: usize,
    /// Queries each flood client pushes through (closed-loop).
    pub flood_queries: usize,
    /// Queries in the non-flood load phases.
    pub load_queries: usize,
    /// How long the drain phase may take to reach zero degradation.
    pub drain_timeout: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 4242,
            flood_threads: 12,
            flood_queries: 4,
            load_queries: 12,
            drain_timeout: Duration::from_secs(20),
        }
    }
}

/// Outcome tallies and invariant checks for one drill phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    /// Phase name (stable identifiers: `baseline`, `overload`, …).
    pub name: String,
    /// Queries submitted (accepted + typed rejections).
    pub submitted: usize,
    /// Queries past admission.
    pub accepted: usize,
    /// Typed `QueueFull` rejections (never a hang or panic).
    pub rejected: usize,
    /// Sessions that ran to `Done`.
    pub done: usize,
    /// Sessions shed with a best-so-far answer.
    pub shed: usize,
    /// Sessions that hit their deadline.
    pub expired: usize,
    /// `Done` outcomes with a non-zero bound (degraded storage).
    pub degraded: usize,
    /// p99 accepted-query latency, milliseconds.
    pub p99_ms: f64,
    /// Phase wall time, milliseconds.
    pub elapsed_ms: f64,
    /// Invariant violations (empty = phase passed).
    pub violations: Vec<String>,
}

/// Everything one composed drill produces.
#[derive(Clone, Debug)]
pub struct Report {
    /// The master seed the run derived everything from.
    pub seed: u64,
    /// Per-phase tallies, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Drain phase: milliseconds until the service returned to
    /// [`Tier::Normal`] with an empty session registry.
    pub recovery_ms: f64,
    /// Shed sessions / accepted sessions over the flood phases.
    pub shed_fraction: f64,
    /// p99 latency of the pure-overload phase, milliseconds.
    pub p99_overload_ms: f64,
}

impl Report {
    /// Every invariant violation across every phase.
    pub fn violations(&self) -> Vec<String> {
        self.phases.iter().flat_map(|p| p.violations.iter().cloned()).collect()
    }

    /// True when no phase violated an invariant.
    pub fn passed(&self) -> bool {
        self.phases.iter().all(|p| p.violations.is_empty())
    }

    /// The per-phase table and summary line every shell prints.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "composed chaos drill (seed {}):\n{:>16} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} \
             {:>9} {:>9}\n",
            self.seed,
            "phase",
            "submit",
            "accept",
            "reject",
            "done",
            "shed",
            "expire",
            "degr",
            "p99 ms",
            "wall ms"
        );
        for p in &self.phases {
            out.push_str(&format!(
                "{:>16} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>9.2} {:>9.0}\n",
                p.name,
                p.submitted,
                p.accepted,
                p.rejected,
                p.done,
                p.shed,
                p.expired,
                p.degraded,
                p.p99_ms,
                p.elapsed_ms
            ));
        }
        out.push_str(&format!(
            "recovery {:.1} ms | shed fraction {:.3} | p99 overload {:.2} ms",
            self.recovery_ms, self.shed_fraction, self.p99_overload_ms
        ));
        out
    }

    /// Machine-readable record (one JSON object) for CI gates.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"experiment\":\"chaos_drill\",\"seed\":{},\"passed\":{},\
             \"recovery_ms\":{:.3},\"shed_fraction\":{:.4},\"p99_overload_ms\":{:.3},\
             \"violations\":{},\"phases\":[",
            self.seed,
            self.passed(),
            self.recovery_ms,
            self.shed_fraction,
            self.p99_overload_ms,
            self.violations().len(),
        );
        for (k, p) in self.phases.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"submitted\":{},\"accepted\":{},\"rejected\":{},\
                 \"done\":{},\"shed\":{},\"expired\":{},\"degraded\":{},\
                 \"p99_ms\":{:.3},\"elapsed_ms\":{:.3},\"violations\":{}}}",
                p.name,
                p.submitted,
                p.accepted,
                p.rejected,
                p.done,
                p.shed,
                p.expired,
                p.degraded,
                p.p99_ms,
                p.elapsed_ms,
                p.violations.len(),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// One accepted query's post-mortem, sent back from a drill worker.
struct QueryRecord {
    latency_ms: f64,
    outcome: &'static str,
    bound: f64,
    violations: Vec<String>,
}

/// Checks the per-session invariants on a finished session: a monotone,
/// finite bound trajectory and a real (finite) terminal answer.
fn audit_session(
    label: &str,
    trace: &[Refinement],
    outcome: &Outcome,
) -> (QueryRecord, &'static str) {
    let mut violations = Vec::new();
    let (kind, terminal) = match outcome {
        Outcome::Done(r) => ("done", Some(r)),
        Outcome::Shed(r) => ("shed", Some(r)),
        Outcome::DeadlineExpired(r) => ("expired", Some(r)),
        Outcome::Cancelled => ("cancelled", None),
        Outcome::Disconnected => ("disconnected", None),
    };
    let mut prev = f64::INFINITY;
    for r in trace.iter().chain(terminal) {
        if !r.error_bound.is_finite() {
            violations.push(format!("{label}: non-finite bound {}", r.error_bound));
        }
        if r.error_bound > prev + 1e-9 {
            violations.push(format!("{label}: bound widened {prev} -> {}", r.error_bound));
        }
        prev = r.error_bound;
        if !r.estimate.is_finite() {
            violations.push(format!("{label}: non-finite estimate {}", r.estimate));
        }
        if r.coefficients_used > r.total_coefficients {
            violations.push(format!(
                "{label}: used {} > total {}",
                r.coefficients_used, r.total_coefficients
            ));
        }
    }
    if terminal.is_none() {
        violations.push(format!("{label}: admitted query ended `{kind}` with no answer"));
    }
    let bound = terminal.map_or(f64::NAN, |r| r.error_bound);
    (QueryRecord { latency_ms: 0.0, outcome: kind, bound, violations }, kind)
}

/// `n` seeded 2-D range-sum specs over the drill cube: channel band ×
/// time window, spans wide enough that plans overlap heavily (the
/// shared-scan / utility-scheduler regime).
fn drill_queries(seed: u64, n: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|_| {
            DIMS.iter()
                .map(|&d| {
                    let lo = (rng.next() as usize) % (d / 2);
                    let span = d / 3 + (rng.next() as usize) % (d / 2);
                    (lo, (lo + span).min(d - 1))
                })
                .collect()
        })
        .collect()
}

/// Records a glove session, replays it through a (possibly faulty)
/// sensor link and the supervised ingest, and packs the repaired stream
/// into a channels × time wavelet cube. Returns the cube plus any
/// acquisition-side invariant violations (non-finite repaired samples,
/// an empty stream).
pub fn sensor_cube(seed: u64, plan: &SensorFaultPlan) -> (WaveletCube, Vec<String>) {
    let clean = ingest::session(sub_seed(seed, 11), 2.0);
    let replayed = ingest::replay(&clean, plan, IngestConfig::default().repair);
    let violations: Vec<String> =
        replayed.violations().iter().map(|v| format!("acquisition: {v}")).collect();
    let out = replayed.outcome;
    let mut cube = DataCube::zeros(&DIMS);
    let (channels, frames) = (out.stream.channels().min(DIMS[0]), out.stream.len().min(DIMS[1]));
    {
        let values = cube.values_mut();
        for c in 0..channels {
            let signal = out.stream.channel(c);
            values[c * DIMS[1]..c * DIMS[1] + frames].copy_from_slice(&signal[..frames]);
            // Pad by repeating the final value, matching the system
            // facade's ingest (zeros would pollute coarse coefficients).
            let last = signal.get(frames.saturating_sub(1)).copied().unwrap_or(0.0);
            for t in frames..DIMS[1] {
                values[c * DIMS[1] + t] = last;
            }
        }
    }
    (cube.transform(&aims_dsp::filters::FilterKind::Db4.filter()), violations)
}

/// The sensor-fault schedule the drill injects: dropouts, spikes,
/// stuck-at episodes, duplicates and reordering all at once.
pub fn drill_sensor_plan(seed: u64) -> SensorFaultPlan {
    SensorFaultPlan {
        dropout_rate: 0.08,
        stuck_rate: 0.01,
        spike_rate: 0.02,
        duplicate_rate: 0.05,
        reorder_rate: 0.05,
        ..SensorFaultPlan::none(sub_seed(seed, 22))
    }
}

/// The storage-fault schedule the drill injects: transient read errors
/// and bit flips (retried), a sliver of dead blocks (degraded bounds).
pub fn drill_storage_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none(sub_seed(seed, 33));
    plan.read_error_rate = 0.10;
    plan.bit_flip_rate = 0.05;
    plan.dead_fraction = 0.04;
    plan
}

/// Service tuning for the calm (non-flood) phases: queue sized for the
/// whole load, generous round budget.
fn calm_config(load: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: load.max(4),
        max_batch: 8,
        round_blocks: 16,
        retry: RetryPolicy::with_retries(4),
        ..ServiceConfig::default()
    }
}

/// Service tuning for the flood phases: a small queue and deliberately
/// slow rounds, so pressure genuinely sustains and the shipped degradation
/// ladder climbs — the regime graduated shedding exists for.
fn flood_config() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 8,
        max_batch: 4,
        round_blocks: 4,
        round_pause: Duration::from_micros(300),
        retry: RetryPolicy::with_retries(4),
        ..ServiceConfig::default()
    }
}

/// Runs a calm phase: `queries` submitted as one cohort (the queue is
/// sized for them), every session collected and audited. `expected` carries
/// serial ground-truth bits for clean-storage phases (bit-identity is
/// asserted); `None` for degraded storage.
fn calm_phase<D: BlockDevice + Send + Sync + 'static>(
    name: &str,
    svc: &QueryService<D>,
    queries: &[Vec<(usize, usize)>],
    expected: Option<&[u64]>,
) -> PhaseReport {
    let started = Instant::now();
    let mut report = PhaseReport { name: name.into(), ..PhaseReport::default() };
    report.submitted = queries.len();
    let specs = queries.iter().map(|r| QuerySpec::interactive(r.clone())).collect();
    let handles = svc.submit_all(specs).unwrap_or_else(|e| {
        report.violations.push(format!("{name}: calm-phase cohort rejected: {e}"));
        Vec::new()
    });
    report.accepted = handles.len();
    let accepted_at = Instant::now();
    let mut latencies = Vec::new();
    for (k, h) in handles.into_iter().enumerate() {
        let (trace, outcome) = h.collect();
        let label = format!("{name} q{k}");
        let (mut rec, kind) = audit_session(&label, &trace, &outcome);
        rec.latency_ms = accepted_at.elapsed().as_secs_f64() * 1e3;
        match kind {
            "done" => {
                report.done += 1;
                if rec.bound > 0.0 {
                    report.degraded += 1;
                }
                if let (Some(exp), Outcome::Done(r)) = (expected, &outcome) {
                    if r.estimate.to_bits() != exp[k] {
                        rec.violations.push(format!(
                            "{label}: clean-storage answer diverged from serial evaluation"
                        ));
                    }
                    if r.error_bound != 0.0 {
                        rec.violations.push(format!(
                            "{label}: clean storage ended with bound {}",
                            r.error_bound
                        ));
                    }
                }
            }
            "shed" => {
                report.shed += 1;
                rec.violations.push(format!("{label}: calm phase must never shed"));
            }
            "expired" => report.expired += 1,
            other => rec.violations.push(format!("{label}: admitted query lost: {other}")),
        }
        latencies.push(rec.latency_ms);
        report.violations.extend(rec.violations);
    }
    report.p99_ms = percentile(&mut latencies, 0.99);
    report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    report
}

/// Runs a flood phase: `threads` closed-loop clients, each submitting
/// `per_thread` queries with retry-on-`QueueFull` — the retrying is what
/// keeps the bounded queue saturated and the pressure signal sustained.
/// Mixed priorities (3 batch : 1 interactive) exercise both sides of the
/// tier ladder.
fn flood_phase<D: BlockDevice + Send + Sync + 'static>(
    name: &str,
    svc: &Arc<QueryService<D>>,
    seed: u64,
    threads: usize,
    per_thread: usize,
) -> PhaseReport {
    let started = Instant::now();
    let mut report = PhaseReport { name: name.into(), ..PhaseReport::default() };
    let (tx, rx) = mpsc::channel::<QueryRecord>();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let tx = tx.clone();
            let svc = Arc::clone(svc);
            let queries = drill_queries(sub_seed(seed, 100 + t as u64), per_thread);
            scope.spawn(move || {
                for (k, ranges) in queries.into_iter().enumerate() {
                    let spec = if k % 4 == 3 {
                        QuerySpec::interactive(ranges)
                    } else {
                        QuerySpec::batch(ranges)
                    };
                    // Closed-loop with retry: a rejected submit backs off
                    // and tries again, so the queue stays full while any
                    // capacity exists downstream.
                    let mut rejections = 0usize;
                    let handle = loop {
                        match svc.submit(spec.clone()) {
                            Ok(h) => break Some(h),
                            Err(ServiceError::QueueFull { .. }) => {
                                rejections += 1;
                                if rejections > 50_000 {
                                    break None;
                                }
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(e) => {
                                tx.send(QueryRecord {
                                    latency_ms: 0.0,
                                    outcome: "rejected",
                                    bound: f64::NAN,
                                    violations: vec![format!(
                                        "{name} t{t} q{k}: non-overload rejection: {e}"
                                    )],
                                })
                                .ok();
                                break None;
                            }
                        }
                    };
                    let Some(handle) = handle else {
                        tx.send(QueryRecord {
                            latency_ms: 0.0,
                            outcome: "rejected",
                            bound: f64::NAN,
                            violations: vec![format!(
                                "{name} t{t} q{k}: starved out by rejections"
                            )],
                        })
                        .ok();
                        continue;
                    };
                    let accepted_at = Instant::now();
                    let (trace, outcome) = handle.collect();
                    let label = format!("{name} t{t} q{k}");
                    let (mut rec, _) = audit_session(&label, &trace, &outcome);
                    rec.latency_ms = accepted_at.elapsed().as_secs_f64() * 1e3;
                    tx.send(rec).ok();
                }
            });
        }
        drop(tx);
    });
    let mut latencies = Vec::new();
    for rec in rx.iter() {
        report.submitted += 1;
        match rec.outcome {
            "done" => {
                report.accepted += 1;
                report.done += 1;
                if rec.bound > 0.0 {
                    report.degraded += 1;
                }
                latencies.push(rec.latency_ms);
            }
            "shed" => {
                report.accepted += 1;
                report.shed += 1;
                latencies.push(rec.latency_ms);
            }
            "expired" => {
                report.accepted += 1;
                report.expired += 1;
                latencies.push(rec.latency_ms);
            }
            "cancelled" | "disconnected" => {
                report.accepted += 1;
            }
            _ => report.rejected += 1,
        }
        report.violations.extend(rec.violations);
    }
    if report.shed == 0 {
        // The flood is sized ~6x over capacity with slowed rounds; if
        // nothing shed, the QoS layer never engaged — that is a drill
        // failure, not good luck.
        report.violations.push(format!("{name}: sustained flood engaged no load shedding"));
    }
    report.p99_ms = percentile(&mut latencies, 0.99);
    report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    report
}

/// The serial in-memory answers a clean service must reproduce bit for
/// bit.
fn reference_bits(cube: &WaveletCube, queries: &[Vec<(usize, usize)>]) -> Vec<u64> {
    let engine = Propolyne::new(cube.clone());
    queries
        .iter()
        .map(|ranges| {
            let p = engine.prepare(&RangeSumQuery::count(ranges.clone()));
            engine.evaluate_prepared(&p).to_bits()
        })
        .collect()
}

/// Runs the full six-phase composed drill. Phases:
///
/// 1. `baseline` — clean sensors, clean storage, calm load. Bit-exact.
/// 2. `overload` — clean data, flood. Graduated shedding engages.
/// 3. `storage-faults` — seeded device faults, calm load. Degraded
///    bounds, no losses.
/// 4. `sensor-faults` — seeded wire faults through supervised ingest,
///    clean storage, calm load over the repaired stream.
/// 5. `all-faults` — sensor-faulted data on a faulty device, flooded.
/// 6. `drain` — the phase-5 service with the flood stopped: measures
///    recovery to zero degradation, then proves a fresh query runs
///    undegraded to `Done`.
pub fn run(cfg: &Config) -> Report {
    let mut phases = Vec::new();

    // Phase 1 — baseline: every layer clean, answers bit-exact.
    let (clean_cube, acq_violations) =
        sensor_cube(cfg.seed, &SensorFaultPlan::none(sub_seed(cfg.seed, 1)));
    let queries = drill_queries(sub_seed(cfg.seed, 2), cfg.load_queries);
    let svc = QueryService::new(clean_cube.clone(), BLOCK, calm_config(cfg.load_queries));
    let expected = reference_bits(&clean_cube, &queries);
    let mut baseline = calm_phase("baseline", &svc, &queries, Some(&expected));
    baseline.violations.splice(0..0, acq_violations);
    svc.shutdown();
    phases.push(baseline);

    // Phase 2 — overload only: clean data, flooded bounded queue.
    let svc = Arc::new(QueryService::new(clean_cube.clone(), BLOCK, flood_config()));
    let overload =
        flood_phase("overload", &svc, sub_seed(cfg.seed, 3), cfg.flood_threads, cfg.flood_queries);
    let p99_overload_ms = overload.p99_ms;
    svc.shutdown();
    phases.push(overload);

    // Phase 3 — storage faults only: calm load over a faulty device.
    let storage_plan = drill_storage_plan(cfg.seed);
    let svc =
        QueryService::on_device(clean_cube, BLOCK, calm_config(cfg.load_queries), |bs, nb| {
            FaultyDevice::with_plan(bs, nb, storage_plan.clone())
        });
    phases.push(calm_phase("storage-faults", &svc, &queries, None));
    svc.shutdown();

    // Phase 4 — sensor faults only: the wire mangles the stream, the
    // supervised ingest repairs it, clean storage serves it exactly.
    let (faulted_cube, acq_violations) = sensor_cube(cfg.seed, &drill_sensor_plan(cfg.seed));
    let svc = QueryService::new(faulted_cube.clone(), BLOCK, calm_config(cfg.load_queries));
    let expected = reference_bits(&faulted_cube, &queries);
    let mut sensor = calm_phase("sensor-faults", &svc, &queries, Some(&expected));
    sensor.violations.splice(0..0, acq_violations);
    svc.shutdown();
    phases.push(sensor);

    // Phase 5 — all three injectors at once: sensor-faulted data on a
    // faulty device, flooded.
    let svc = Arc::new(QueryService::on_device(faulted_cube, BLOCK, flood_config(), |bs, nb| {
        FaultyDevice::with_plan(bs, nb, storage_plan.clone())
    }));
    phases.push(flood_phase(
        "all-faults",
        &svc,
        sub_seed(cfg.seed, 4),
        cfg.flood_threads,
        cfg.flood_queries,
    ));

    // Phase 6 — drain: same service, flood stopped. The controller must
    // walk back to Normal with an empty registry, and a fresh query must
    // run undegraded (Done, not shed) — zero residual degradation.
    let drain_started = Instant::now();
    let mut drain = PhaseReport { name: "drain".into(), ..PhaseReport::default() };
    let deadline = drain_started + cfg.drain_timeout;
    loop {
        let quiet = svc.qos_tier() == Tier::Normal
            && !svc.sessions_json_lines().contains("\"kind\":\"session\"");
        if quiet {
            break;
        }
        if Instant::now() >= deadline {
            drain.violations.push(format!(
                "drain: service stuck at tier {:?} after {:?}",
                svc.qos_tier(),
                cfg.drain_timeout
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let recovery_ms = drain_started.elapsed().as_secs_f64() * 1e3;
    let post = calm_phase("drain", &svc, &queries[..1.min(queries.len())], None);
    drain.submitted = post.submitted;
    drain.accepted = post.accepted;
    drain.done = post.done;
    drain.shed = post.shed;
    drain.expired = post.expired;
    drain.degraded = post.degraded;
    drain.p99_ms = post.p99_ms;
    drain.violations.extend(post.violations);
    if drain.done != drain.submitted {
        drain.violations.push("drain: post-drain query did not run undegraded to Done".into());
    }
    drain.elapsed_ms = drain_started.elapsed().as_secs_f64() * 1e3;
    svc.shutdown();
    phases.push(drain);

    let (mut shed, mut accepted) = (0usize, 0usize);
    for p in &phases {
        if p.name == "overload" || p.name == "all-faults" {
            shed += p.shed;
            accepted += p.accepted;
        }
    }
    Report {
        seed: cfg.seed,
        phases,
        recovery_ms,
        shed_fraction: shed as f64 / accepted.max(1) as f64,
        p99_overload_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_queries_are_seeded_and_in_bounds() {
        let q1 = drill_queries(7, 8);
        let q2 = drill_queries(7, 8);
        assert_eq!(q1, q2);
        for ranges in &q1 {
            assert_eq!(ranges.len(), DIMS.len());
            for (k, &(lo, hi)) in ranges.iter().enumerate() {
                assert!(lo <= hi && hi < DIMS[k]);
            }
        }
        assert_ne!(drill_queries(8, 8), q1);
    }

    #[test]
    fn sensor_cube_is_deterministic_per_seed() {
        let plan = drill_sensor_plan(99);
        let (a, va) = sensor_cube(99, &plan);
        let (b, vb) = sensor_cube(99, &plan);
        assert_eq!(va, vb);
        assert!(va.is_empty(), "clean pipeline raised violations: {va:?}");
        let (ca, cb) = (a.coeffs(), b.coeffs());
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let report = Report {
            seed: 1,
            phases: vec![PhaseReport { name: "baseline".into(), ..PhaseReport::default() }],
            recovery_ms: 1.5,
            shed_fraction: 0.25,
            p99_overload_ms: 3.0,
        };
        let json = report.to_json();
        assert!(json.contains("\"experiment\":\"chaos_drill\""));
        assert!(json.contains("\"passed\":true"));
        assert!(json.contains("\"name\":\"baseline\""));
    }
}
