//! Deterministic fault injection at the sensor boundary.
//!
//! The paper motivates a dedicated acquisition component precisely because
//! immersidata arrives from real hardware: samples are "noisy" and delivery
//! is imperfect. [`FaultySensorRig`] is the front-end twin of the storage
//! layer's `FaultyDevice`: it wraps a clean recorded [`MultiStream`] and
//! replays it as the *wire* would have delivered it, injecting faults from
//! a schedule that is a pure function of a single `u64` seed — every run
//! with the same seed sees the identical fault history, which is what makes
//! the ingest fault drill reproducible.
//!
//! Fault classes (all rates in `[0, 1]`, independently configurable):
//!
//! - **dropout** (`dropout_rate`): a per-(frame, channel) sample is lost in
//!   transit; the wire frame carries `None` for that channel.
//! - **stuck-at** (`stuck_rate` / `stuck_frames`): a channel freezes at its
//!   current value for a fixed episode length — the classic failure of a
//!   bend sensor losing contact.
//! - **spikes** (`spike_rate` / `spike_amplitude`): isolated glitch
//!   outliers added to single samples.
//! - **duplicates** (`duplicate_rate`): a frame is delivered twice.
//! - **reordering** (`reorder_rate` / `reorder_span`): a frame swaps places
//!   with one up to `reorder_span` positions later.
//! - **sensor death** (`dead_channel_fraction`): a seed-chosen subset of
//!   channels stops reporting from a seed-chosen onset frame onward.
//!
//! A wire frame carries no timestamp: its device sequence number places it
//! on the grid, and the supervised ingest orders frames by it.
//!
//! A zero-rate plan is a transparent pass-through: the wire frames carry
//! exactly the clean stream's sequence numbers and bit-identical values —
//! the contract the supervised ingest's zero-fault equivalence tests rest
//! on.

use crate::types::MultiStream;

/// One frame as delivered by the (possibly faulty) sensor link.
///
/// Unlike the in-memory [`crate::types::Frame`], a wire frame carries the
/// device's own sequence number in place of a timestamp, and per-channel
/// samples that may be missing entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct WireFrame {
    /// Device sequence number (position in the clean stream).
    pub seq: u64,
    /// One sample per channel; `None` marks a dropped sample.
    pub values: Vec<Option<f64>>,
}

impl WireFrame {
    /// Number of channels carried (present or not).
    pub fn channels(&self) -> usize {
        self.values.len()
    }

    /// Number of present samples.
    pub fn present(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }
}

/// A deterministic, seeded sensor-fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct SensorFaultPlan {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability a (frame, channel) sample is dropped in transit.
    pub dropout_rate: f64,
    /// Probability a channel *starts* a stuck-at episode at a given frame.
    pub stuck_rate: f64,
    /// Length of each stuck-at episode in frames.
    pub stuck_frames: usize,
    /// Probability a (frame, channel) sample is hit by a glitch outlier.
    pub spike_rate: f64,
    /// Magnitude added (with seed-chosen sign) by each spike.
    pub spike_amplitude: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame swaps places with a later one.
    pub reorder_rate: f64,
    /// Maximum displacement (frames) of a reordered frame.
    pub reorder_span: usize,
    /// Fraction of channels that die mid-stream.
    pub dead_channel_fraction: f64,
}

impl SensorFaultPlan {
    /// A plan with every fault disabled — the rig becomes a transparent
    /// pass-through (used by the zero-fault equivalence tests).
    pub fn none(seed: u64) -> Self {
        SensorFaultPlan {
            seed,
            dropout_rate: 0.0,
            stuck_rate: 0.0,
            stuck_frames: 8,
            spike_rate: 0.0,
            spike_amplitude: 60.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_span: 4,
            dead_channel_fraction: 0.0,
        }
    }

    /// A plan exercising only per-sample dropout at `rate`.
    pub fn dropout(seed: u64, rate: f64) -> Self {
        SensorFaultPlan { dropout_rate: rate, ..SensorFaultPlan::none(seed) }
    }

    /// True when every fault class is disabled.
    pub fn is_none(&self) -> bool {
        self.dropout_rate == 0.0
            && self.stuck_rate == 0.0
            && self.spike_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.dead_channel_fraction == 0.0
    }
}

/// Salts separating the per-purpose random streams.
const SALT_DROP: u64 = 0x7101;
const SALT_STUCK: u64 = 0x7202;
const SALT_SPIKE: u64 = 0x7303;
const SALT_SPIKE_SIGN: u64 = 0x7304;
const SALT_DUP: u64 = 0x7506;
const SALT_REORDER: u64 = 0x7607;
const SALT_REORDER_TO: u64 = 0x7608;
const SALT_DEAD_CH: u64 = 0x7709;
const SALT_DEAD_ONSET: u64 = 0x770A;

/// SplitMix64 over the combined (seed, a, b, salt) tuple — the same
/// construction the storage fault layer uses, so one seed reproduces the
/// whole fault history.
fn mix(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
fn chance(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A sensor rig replaying a clean recording through a seeded fault
/// schedule.
#[derive(Clone, Debug)]
pub struct FaultySensorRig {
    plan: SensorFaultPlan,
}

impl FaultySensorRig {
    /// Creates a rig with the given schedule.
    pub fn new(plan: SensorFaultPlan) -> Self {
        FaultySensorRig { plan }
    }

    /// The schedule in force.
    pub fn plan(&self) -> &SensorFaultPlan {
        &self.plan
    }

    /// Whether the schedule kills channel `c` (whole-sensor death).
    pub fn is_channel_dead(&self, c: usize) -> bool {
        self.plan.dead_channel_fraction > 0.0
            && chance(mix(self.plan.seed, c as u64, 0, SALT_DEAD_CH))
                < self.plan.dead_channel_fraction
    }

    /// The frame from which a dead channel stops reporting, for a stream
    /// of `len` frames. Onsets land in the middle half of the stream so
    /// both the healthy prefix and the dead tail are observable.
    pub fn death_onset(&self, c: usize, len: usize) -> usize {
        let span = (len / 2).max(1) as u64;
        len / 4 + (mix(self.plan.seed, c as u64, 1, SALT_DEAD_ONSET) % span) as usize
    }

    /// The stuck-at episodes the schedule produces on channel `c` over
    /// `len` frames, as `(start, end)` half-open ranges (a predictor for
    /// tests; mirrors the forward pass of [`Self::transmit`]).
    pub fn stuck_episodes(&self, c: usize, len: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut until = 0usize;
        for t in 0..len {
            if t < until {
                continue;
            }
            if self.plan.stuck_rate > 0.0
                && chance(mix(self.plan.seed, t as u64, c as u64, SALT_STUCK))
                    < self.plan.stuck_rate
            {
                until = (t + self.plan.stuck_frames.max(1)).min(len);
                out.push((t, until));
            }
        }
        out
    }

    /// Replays `clean` through the fault schedule and returns the frames
    /// as the wire delivers them: possibly missing samples, corrupted
    /// values, duplicates and out-of-order arrival.
    ///
    /// With a zero-rate plan the result is exactly one in-order wire frame
    /// per clean frame, `seq == t`, every value `Some` and bit-identical to
    /// the clean stream.
    pub fn transmit(&self, clean: &MultiStream) -> Vec<WireFrame> {
        let n = clean.len();
        let channels = clean.channels();
        let seed = self.plan.seed;

        let dead: Vec<Option<usize>> = (0..channels)
            .map(|c| self.is_channel_dead(c).then(|| self.death_onset(c, n)))
            .collect();

        // Per-channel forward state for stuck-at episodes.
        let mut stuck_until = vec![0usize; channels];
        let mut stuck_value = vec![0.0f64; channels];

        let mut frames: Vec<WireFrame> = Vec::with_capacity(n);
        for t in 0..n {
            let mut values: Vec<Option<f64>> = Vec::with_capacity(channels);
            for (c, onset) in dead.iter().enumerate() {
                if let Some(onset) = onset {
                    if t >= *onset {
                        values.push(None);
                        continue;
                    }
                }
                // Stuck-at: freeze the channel at its episode-start value.
                if t >= stuck_until[c]
                    && self.plan.stuck_rate > 0.0
                    && chance(mix(seed, t as u64, c as u64, SALT_STUCK)) < self.plan.stuck_rate
                {
                    stuck_until[c] = t + self.plan.stuck_frames.max(1);
                    stuck_value[c] = clean.value(t, c);
                }
                if t < stuck_until[c] {
                    values.push(Some(stuck_value[c]));
                    continue;
                }
                if self.plan.dropout_rate > 0.0
                    && chance(mix(seed, t as u64, c as u64, SALT_DROP)) < self.plan.dropout_rate
                {
                    values.push(None);
                    continue;
                }
                let mut v = clean.value(t, c);
                if self.plan.spike_rate > 0.0
                    && chance(mix(seed, t as u64, c as u64, SALT_SPIKE)) < self.plan.spike_rate
                {
                    let sign = if mix(seed, t as u64, c as u64, SALT_SPIKE_SIGN) & 1 == 0 {
                        1.0
                    } else {
                        -1.0
                    };
                    v += sign * self.plan.spike_amplitude;
                }
                values.push(Some(v));
            }
            frames.push(WireFrame { seq: t as u64, values });
        }

        // Out-of-order delivery: bounded forward swaps.
        if self.plan.reorder_rate > 0.0 && self.plan.reorder_span > 0 {
            for t in 0..frames.len() {
                if chance(mix(seed, t as u64, 0, SALT_REORDER)) < self.plan.reorder_rate {
                    let d = 1
                        + (mix(seed, t as u64, 0, SALT_REORDER_TO) % self.plan.reorder_span as u64)
                            as usize;
                    let j = (t + d).min(frames.len() - 1);
                    frames.swap(t, j);
                }
            }
        }

        // Duplicated delivery: a frame arrives twice, back to back.
        if self.plan.duplicate_rate > 0.0 {
            let mut out = Vec::with_capacity(frames.len());
            for f in frames {
                let dup = chance(mix(seed, f.seq, 0, SALT_DUP)) < self.plan.duplicate_rate;
                if dup {
                    out.push(f.clone());
                }
                out.push(f);
            }
            frames = out;
        }

        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamSpec;

    fn clean(frames: usize, channels: usize) -> MultiStream {
        let spec = StreamSpec::anonymous(channels, 100.0);
        let chans: Vec<Vec<f64>> = (0..channels)
            .map(|c| (0..frames).map(|t| (t as f64 * 0.013 + c as f64).sin() * 10.0).collect())
            .collect();
        MultiStream::from_channels(spec, &chans)
    }

    #[test]
    fn zero_plan_is_transparent() {
        let s = clean(120, 4);
        let rig = FaultySensorRig::new(SensorFaultPlan::none(7));
        let wire = rig.transmit(&s);
        assert_eq!(wire.len(), s.len());
        for (t, f) in wire.iter().enumerate() {
            assert_eq!(f.seq, t as u64);
            for (c, v) in f.values.iter().enumerate() {
                assert_eq!(v.unwrap().to_bits(), s.value(t, c).to_bits());
            }
        }
    }

    #[test]
    fn dropout_rate_is_respected_and_seeded() {
        let s = clean(400, 6);
        let rig = FaultySensorRig::new(SensorFaultPlan::dropout(42, 0.3));
        let wire = rig.transmit(&s);
        let total: usize = wire.iter().map(|f| f.channels()).sum();
        let missing: usize = wire.iter().map(|f| f.channels() - f.present()).sum();
        let rate = missing as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed dropout {rate}");
        // Reproducible bit-for-bit.
        assert_eq!(wire, rig.transmit(&s));
        // A different seed drops different samples.
        let other = FaultySensorRig::new(SensorFaultPlan::dropout(43, 0.3)).transmit(&s);
        assert_ne!(wire, other);
    }

    #[test]
    fn dead_channels_stop_reporting_at_onset() {
        let s = clean(300, 8);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            dead_channel_fraction: 0.4,
            ..SensorFaultPlan::none(11)
        });
        let dead: Vec<usize> = (0..8).filter(|&c| rig.is_channel_dead(c)).collect();
        assert!(!dead.is_empty(), "seed 11 should kill some of 8 channels at 40%");
        assert!(dead.len() < 8);
        let wire = rig.transmit(&s);
        for &c in &dead {
            let onset = rig.death_onset(c, s.len());
            assert!(onset >= s.len() / 4 && onset < s.len());
            for (t, f) in wire.iter().enumerate() {
                assert_eq!(f.values[c].is_none(), t >= onset, "channel {c} frame {t}");
            }
        }
    }

    #[test]
    fn stuck_episodes_freeze_the_channel() {
        let s = clean(500, 3);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            stuck_rate: 0.01,
            stuck_frames: 12,
            ..SensorFaultPlan::none(5)
        });
        let wire = rig.transmit(&s);
        let episodes = rig.stuck_episodes(1, s.len());
        assert!(!episodes.is_empty(), "seed 5 should produce stuck episodes");
        for &(start, end) in &episodes {
            let held = wire[start].values[1].unwrap();
            assert_eq!(held.to_bits(), s.value(start, 1).to_bits());
            for f in &wire[start..end] {
                assert_eq!(f.values[1].unwrap().to_bits(), held.to_bits());
            }
        }
    }

    #[test]
    fn spikes_are_large_isolated_outliers() {
        let s = clean(400, 2);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            spike_rate: 0.02,
            spike_amplitude: 80.0,
            ..SensorFaultPlan::none(9)
        });
        let wire = rig.transmit(&s);
        let spiked: Vec<(usize, usize)> = (0..s.len())
            .flat_map(|t| (0..2).map(move |c| (t, c)))
            .filter(|&(t, c)| (wire[t].values[c].unwrap() - s.value(t, c)).abs() > 1.0)
            .collect();
        assert!(!spiked.is_empty(), "seed 9 should spike some of 800 samples at 2%");
        for &(t, c) in &spiked {
            let delta = (wire[t].values[c].unwrap() - s.value(t, c)).abs();
            assert!((delta - 80.0).abs() < 1e-9, "spike delta {delta}");
        }
    }

    #[test]
    fn duplicates_and_reordering_disturb_delivery() {
        let s = clean(300, 2);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            duplicate_rate: 0.1,
            reorder_rate: 0.1,
            reorder_span: 3,
            ..SensorFaultPlan::none(21)
        });
        let wire = rig.transmit(&s);
        assert!(wire.len() > s.len(), "duplicates should lengthen delivery");
        let seqs: Vec<u64> = wire.iter().map(|f| f.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "reordering should break arrival order");
        // Every clean frame is delivered at least once, displacement ≤ span
        // + duplicate slack.
        for t in 0..s.len() as u64 {
            assert!(seqs.contains(&t), "frame {t} lost without dropout");
        }
    }
}
