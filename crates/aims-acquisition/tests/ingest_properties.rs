//! Property-based tests of the supervised ingest stage.
//!
//! Three contracts, each over randomized shapes and seeds:
//!
//! 1. **Zero-fault transparency** — with every fault rate at zero, the
//!    default supervised path stores a stream bit-identical
//!    (`f64::to_bits`) to the clean session, repairs nothing and flags
//!    nothing; a full-length glove session checks the same at the size
//!    where the recorder used to overrun.
//! 2. **Reassembly order** — whatever bounded reordering and duplication
//!    the wire applies, the reorder window emits every grid slot exactly
//!    once in strictly increasing sequence order, and its counters
//!    account for every wire frame.
//! 3. **Plausibility flagging** — a hand-built stuck-at run or spike is
//!    flagged non-clean within the documented hysteresis budget, and a
//!    spike's value never reaches the stored stream.

use proptest::prelude::*;

use aims_acquisition::ingest::{
    IngestConfig, Reassembler, RepairPolicy, SupervisedIngest, STUCK_AFTER,
};
use aims_sensors::faulty::{FaultySensorRig, SensorFaultPlan, WireFrame};
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::types::{MultiStream, SampleQuality, StreamSpec};

/// A smooth session: steps stay far below the spike threshold and the tiny
/// ramp keeps consecutive values bit-distinct (no natural stuck runs).
fn smooth(frames: usize, channels: usize, freq: f64, amp: f64) -> MultiStream {
    let spec = StreamSpec::anonymous(channels, 100.0);
    let chans: Vec<Vec<f64>> = (0..channels)
        .map(|c| {
            (0..frames)
                .map(|t| (t as f64 * freq + c as f64 * 0.7).sin() * amp + t as f64 * 1e-7)
                .collect()
        })
        .collect();
    MultiStream::from_channels(spec, &chans)
}

/// Wire frames delivering `stream` perfectly in order.
fn perfect_wire(stream: &MultiStream) -> Vec<WireFrame> {
    (0..stream.len())
        .map(|t| WireFrame {
            seq: t as u64,
            values: stream.frame(t).iter().copied().map(Some).collect(),
        })
        .collect()
}

/// Contract 1 at full length: a 40 s, 100 Hz glove session (4 000 frames
/// of 28 channels) on a fault-free wire, ingested with the default
/// configuration, stores every frame bit for bit.
#[test]
fn default_ingest_stores_every_frame_of_a_full_glove_session() {
    let clean =
        CyberGloveRig::default().record_session(40.0, 0.7, &mut NoiseSource::seeded(0xAC41));
    assert_eq!(clean.len(), 4000);
    let wire = FaultySensorRig::new(SensorFaultPlan::none(0xFA17)).transmit(&clean);
    let out = SupervisedIngest::new(IngestConfig::default()).ingest(clean.spec(), &wire);
    assert_eq!(out.stats.stored_frames, 4000, "dropped {}", out.stats.dropped_frames);
    assert_eq!(out.stats.dropped_frames, 0);
    assert_eq!(out.stream.len(), clean.len());
    for t in 0..clean.len() {
        for c in 0..clean.channels() {
            let (got, want) = (out.stream.value(t, c), clean.value(t, c));
            assert_eq!(got.to_bits(), want.to_bits(), "frame {t} ch {c}");
        }
    }
    assert!(out.quality.all_clean());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: zero faults ⇒ bit-identical storage, zero repairs,
    /// all-clean flags — for any seed, shape and repair policy.
    #[test]
    fn zero_fault_ingest_is_bit_identical(
        seed in 0u64..10_000,
        frames in 20usize..120,
        channels in 1usize..5,
        freq in 0.005f64..0.1,
        amp in 1.0f64..12.0,
        interpolate in any::<bool>(),
    ) {
        let clean = smooth(frames, channels, freq, amp);
        let rig = FaultySensorRig::new(SensorFaultPlan::none(seed));
        let wire = rig.transmit(&clean);
        let policy = if interpolate { RepairPolicy::Interpolate } else { RepairPolicy::Hold };
        let out = SupervisedIngest::new(IngestConfig { repair: policy }).ingest(clean.spec(), &wire);

        prop_assert_eq!(out.stream.len(), clean.len());
        for t in 0..clean.len() {
            for c in 0..channels {
                prop_assert_eq!(
                    out.stream.value(t, c).to_bits(),
                    clean.value(t, c).to_bits(),
                    "frame {} ch {}", t, c
                );
            }
        }
        prop_assert_eq!(out.stats.repaired_samples, 0);
        prop_assert_eq!(out.stats.reordered_frames, 0);
        prop_assert_eq!(out.stats.duplicate_frames, 0);
        prop_assert!(out.quality.all_clean());
    }

    /// Contract 2: under bounded reordering and duplication the window
    /// emits slots 0..n exactly once, strictly increasing, and every wire
    /// frame is accounted for as stored, duplicate or late.
    #[test]
    fn reassembler_emits_monotone_slots(
        seed in 0u64..10_000,
        frames in 40usize..200,
        reorder_rate in 0.0f64..0.4,
        span in 1usize..4,
        dup_rate in 0.0f64..0.3,
    ) {
        let clean = smooth(frames, 2, 0.02, 8.0);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            reorder_rate,
            reorder_span: span,
            duplicate_rate: dup_rate,
            ..SensorFaultPlan::none(seed)
        });
        let wire = rig.transmit(&clean);

        let mut asm = Reassembler::new();
        let mut slots = Vec::new();
        for f in &wire {
            slots.extend(asm.push(f));
        }
        slots.extend(asm.finish());
        let counters = asm.counters();

        // Every grid slot exactly once, in strictly increasing order.
        prop_assert_eq!(slots.len(), frames);
        for (expect, (seq, _)) in slots.iter().enumerate() {
            prop_assert_eq!(*seq, expect as u64);
        }
        // Conservation: wire frames = real slots + duplicates + lates.
        let holes = slots.iter().filter(|(_, v)| v.is_none()).count();
        prop_assert_eq!(
            (frames - holes) + counters.duplicates + counters.late,
            wire.len()
        );
        // A hole only ever comes from a frame that arrived too late.
        prop_assert!(holes <= counters.late);
        if counters.late == 0 {
            prop_assert_eq!(holes, 0);
        }
    }

    /// Contract 3: hand-built stuck runs and spikes are flagged within the
    /// hysteresis budget, and a spike's value never reaches storage.
    #[test]
    fn stuck_and_spike_are_flagged_within_budget(
        frames in 80usize..160,
        channels in 1usize..4,
        ch_pick in 0usize..8,
        start_frac in 0.1f64..0.6,
        extra in 0usize..16,
        spike_frac in 0.7f64..0.95,
    ) {
        let run_len = STUCK_AFTER + extra;
        let c = ch_pick % channels;
        let start = ((frames as f64 * start_frac) as usize).max(1);
        let spike_at = ((frames as f64 * spike_frac) as usize).min(frames - 2);
        prop_assume!(start + run_len < spike_at - 1);

        let clean = smooth(frames, channels, 0.02, 8.0);
        let mut wire = perfect_wire(&clean);
        let held = clean.value(start, c);
        for frame in wire.iter_mut().skip(start).take(run_len) {
            frame.values[c] = Some(held);
        }
        let spiked = clean.value(spike_at, c) + 100.0;
        wire[spike_at].values[c] = Some(spiked);

        let out = SupervisedIngest::default().ingest(clean.spec(), &wire);

        // The run is flagged from the frame it qualifies onward — i.e.
        // within `STUCK_AFTER` samples of onset.
        for t in start + STUCK_AFTER - 1..start + run_len {
            prop_assert_ne!(
                out.quality.get(t, c), SampleQuality::Clean,
                "stuck sample at frame {} ch {} not flagged", t, c
            );
        }
        // The spike is flagged, its value replaced, and counted repaired.
        prop_assert_ne!(out.quality.get(spike_at, c), SampleQuality::Clean);
        prop_assert!(
            (out.stream.value(spike_at, c) - spiked).abs() > 50.0,
            "spike value {} survived into storage", spiked
        );
        prop_assert!(out.stats.repaired_samples >= 1);
    }
}
