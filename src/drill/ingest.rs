//! The sensor-fault ingest drill: a clean glove session replayed through
//! a seeded faulty wire into the supervised ingest stage.
//!
//! The supervisor's recorder buffer holds the whole repaired grid, so
//! everything the report shows is the injected wire faults, never
//! recorder-thread scheduling. Invariants: the stored stream is non-empty
//! and finite, and a zero-fault plan is transparent — the stored stream is
//! bit-identical to the clean session with nothing repaired and nothing
//! flagged.

use aims_acquisition::ingest::{IngestConfig, IngestOutcome, RepairPolicy, SupervisedIngest};
use aims_sensors::faulty::{FaultySensorRig, SensorFaultPlan};
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::types::MultiStream;

/// One ingest drill: which session, which wire faults, which repair.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the recorded glove session.
    pub seed: u64,
    /// Session length in seconds.
    pub seconds: f64,
    /// The wire's fault schedule (carries its own seed).
    pub plan: SensorFaultPlan,
    /// How the supervisor fills gaps.
    pub repair: RepairPolicy,
}

/// What one replay produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// Frames that came off the faulty wire (duplicates included).
    pub wire_frames: usize,
    /// Everything the supervised ingest stored and observed.
    pub outcome: IngestOutcome,
    /// Relative RMSE of the stored stream against the clean session; zero
    /// when the stored grid's length differs from the session's and so
    /// cannot be compared.
    pub relative_rmse: f64,
    violations: Vec<String>,
}

impl Report {
    /// Invariants that did not hold (empty = the drill passed).
    pub fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// The clean session of a drill: the default glove rig at activity 0.6.
pub fn session(seed: u64, seconds: f64) -> MultiStream {
    CyberGloveRig::default().record_session(seconds, 0.6, &mut NoiseSource::seeded(seed))
}

/// Every `(frame, channel)` of a stream, frame-major.
fn cells(s: &MultiStream) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..s.len()).flat_map(move |t| (0..s.channels()).map(move |c| (t, c)))
}

/// Replays `clean` through a wire faulted by `plan` into the supervised
/// ingest and audits the result.
pub fn replay(clean: &MultiStream, plan: &SensorFaultPlan, repair: RepairPolicy) -> Report {
    let wire = FaultySensorRig::new(plan.clone()).transmit(clean);
    let out = SupervisedIngest::new(IngestConfig { repair }).ingest(clean.spec(), &wire);

    let mut violations = Vec::new();
    if out.stream.is_empty() {
        violations.push("supervised ingest produced an empty stream".to_string());
    }
    if let Some((t, c)) = cells(&out.stream).find(|&(t, c)| !out.stream.value(t, c).is_finite()) {
        violations.push(format!("non-finite repaired sample at frame {t} ch {c}"));
    }
    let same_grid = out.stream.len() == clean.len();
    if plan.is_none() {
        let differs = |&(t, c): &(usize, usize)| {
            out.stream.value(t, c).to_bits() != clean.value(t, c).to_bits()
        };
        if !same_grid {
            violations.push("zero-fault ingest changed the frame count".to_string());
        } else if let Some((t, c)) = cells(clean).find(differs) {
            violations.push(format!("zero-fault ingest not bit-identical at frame {t} ch {c}"));
        }
        if out.stats.repaired_samples != 0 || !out.quality.all_clean() {
            violations.push("zero-fault ingest repaired or flagged samples".to_string());
        }
    }

    let (mut err, mut norm) = (0.0f64, 0.0f64);
    if same_grid {
        for (t, c) in cells(clean) {
            let d = out.stream.value(t, c) - clean.value(t, c);
            err += d * d;
            norm += clean.value(t, c) * clean.value(t, c);
        }
    }
    let relative_rmse = if norm > 0.0 { (err / norm).sqrt() } else { 0.0 };
    Report { wire_frames: wire.len(), outcome: out, relative_rmse, violations }
}

/// Records the session `cfg` names and replays it.
pub fn run(cfg: &Config) -> Report {
    replay(&session(cfg.seed, cfg.seconds), &cfg.plan, cfg.repair)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One session, wire faults drawn from `plan_seed`.
    fn config(plan_seed: u64) -> Config {
        let plan = SensorFaultPlan {
            dropout_rate: 0.1,
            duplicate_rate: 0.05,
            reorder_rate: 0.05,
            dead_channel_fraction: 0.1,
            ..SensorFaultPlan::none(plan_seed)
        };
        Config { seed: 2003, seconds: 1.0, plan, repair: RepairPolicy::Interpolate }
    }

    #[test]
    fn same_seed_same_report_and_a_different_seed_differs() {
        let (a, b, other) = (run(&config(17)), run(&config(17)), run(&config(18)));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert_eq!(a.wire_frames, b.wire_frames);
        assert_eq!(a.outcome.stream, b.outcome.stream);
        assert_eq!(a.outcome.quality, b.outcome.quality);
        assert_eq!(a.outcome.health_events, b.outcome.health_events);
        assert_eq!(a.outcome.stats.repaired_samples, b.outcome.stats.repaired_samples);
        assert_eq!(a.relative_rmse, b.relative_rmse);
        assert_ne!(a.outcome.stream, other.outcome.stream);
    }
}
