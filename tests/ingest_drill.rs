//! The deterministic sensor-fault ingest drill.
//!
//! Drives the acquisition-side fault path end to end — a clean glove
//! session replayed through a seeded faulty wire into the supervised
//! ingest stage — and asserts the three contracts of the design:
//!
//! 1. **Zero-fault transparency** — with every fault rate at zero the
//!    supervised path is bit-identical to the clean session, for any
//!    seed.
//! 2. **Reproducibility** — the whole fault history is a pure function
//!    of one u64 seed (pinned by `aims::drill::ingest`'s own
//!    same-seed-same-report test).
//! 3. **Supervised degradation** — under a mixed fault schedule the
//!    repaired stream keeps the clean session's shape, repairs are
//!    counted, and a killed sensor is detected and flagged Dead.
//!
//! The seed is pinned via `AIMS_INGEST_FAULT_SEED` (default 2003; ci.sh
//! also runs seeds 17 and 1017), so the drill is reproducible anywhere.

use aims::acquisition::ingest::{IngestOutcome, RepairPolicy};
use aims::drill::ingest::{replay, session};
use aims::sensors::faulty::{FaultySensorRig, SensorFaultPlan};
use aims::sensors::types::{MultiStream, SampleQuality};

fn seed() -> u64 {
    aims::drill::env_seed("AIMS_INGEST_FAULT_SEED", 2003)
}

/// Replays `clean` through the library drill (overrun-proof recorder, so
/// only injected faults are measured), which must raise no violation.
fn run(plan: SensorFaultPlan, repair: RepairPolicy, clean: &MultiStream) -> IngestOutcome {
    let report = replay(clean, &plan, repair);
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    report.outcome
}

/// Contract 1: for any seed, a zero-rate plan stores the clean session
/// bit-for-bit with nothing repaired and nothing flagged.
#[test]
fn zero_fault_ingest_is_bit_identical_for_any_seed() {
    let clean = session(seed(), 3.0);
    for salt in [0u64, 1, 2] {
        // `run` asserts the drill's zero-fault contract: bit-identical
        // samples, nothing repaired, nothing flagged.
        let out = run(SensorFaultPlan::none(seed() ^ salt), RepairPolicy::Interpolate, &clean);
        assert_eq!(out.stream, clean, "seed {}", seed() ^ salt);
    }
}

/// Contract 3: under a mixed schedule the supervisor keeps the grid shape,
/// counts its repairs, and catches a killed sensor.
#[test]
fn mixed_faults_are_repaired_and_dead_sensors_flagged() {
    let clean = session(seed(), 3.0);
    // Find a salt whose schedule kills at least one channel, so the test
    // exercises the death path regardless of the pinned seed.
    let salt = (0..64)
        .find(|&salt| {
            let plan = SensorFaultPlan {
                dead_channel_fraction: 0.1,
                ..SensorFaultPlan::none(seed() ^ salt)
            };
            let rig = FaultySensorRig::new(plan);
            (0..clean.channels()).any(|c| rig.is_channel_dead(c))
        })
        .expect("some salt within 64 should kill a channel at 10% of 28");
    let plan = SensorFaultPlan {
        dropout_rate: 0.1,
        spike_rate: 0.01,
        dead_channel_fraction: 0.1,
        ..SensorFaultPlan::none(seed() ^ salt)
    };

    for repair in RepairPolicy::ALL {
        let out = run(plan.clone(), repair, &clean);
        assert_eq!(out.stream.len(), clean.len(), "grid shape must survive ({})", repair.name());
        assert!(out.stats.repaired_samples > 0, "dropout must be repaired");
        assert!(!out.dead_channels().is_empty(), "the killed sensor must be flagged Dead");
        assert!(out.quality.count(SampleQuality::Dead) > 0);
        // (`run` already asserted every stored value finite — repair
        // never manufactures junk.)
    }
}
