//! CyberGlove + Polhemus tracker simulator.
//!
//! Table 1 of the AIMS paper lists the 22 joint-angle sensors of the
//! CyberGlove; a Polhemus tracker on the wrist adds hand position (x, y, z)
//! and rotation (h, p, r), for 28 channels sampled at ~100 Hz ("about 0.01
//! second" per §2.2). The simulator produces streams with the same shape:
//! smooth band-limited joint motion toward target hand shapes, oscillatory
//! wrist trajectories, per-sensor distinct activity frequencies (so the
//! acquisition subsystem has something real to adapt to), and Gaussian
//! sensor noise.

use crate::noise::NoiseSource;
use crate::types::{MultiStream, StreamSpec};

/// Joint-angle sensor names, exactly as in Table 1 of the paper.
pub const GLOVE_SENSOR_NAMES: [&str; 22] = [
    "thumb roll",
    "thumb inner joint",
    "thumb outer joint",
    "thumb-index abduction",
    "index inner joint",
    "index middle joint",
    "index outer joint",
    "middle inner joint",
    "middle middle joint",
    "middle outer joint",
    "middle-index abduction",
    "ring inner joint",
    "ring middle joint",
    "ring outer joint",
    "ring-middle abduction",
    "pinky inner joint",
    "pinky middle joint",
    "pinky outer joint",
    "pinky-ring abduction",
    "palm arch",
    "wrist flexion",
    "wrist abduction",
];

/// Polhemus tracker channel names: position relative to the initial
/// setting, then rotation of the palm plane (paper §2.2).
pub const TRACKER_CHANNEL_NAMES: [&str; 6] = ["pos x", "pos y", "pos z", "rot h", "rot p", "rot r"];

/// Number of glove joint sensors.
pub const NUM_GLOVE_SENSORS: usize = 22;
/// Number of tracker channels.
pub const NUM_TRACKER_CHANNELS: usize = 6;
/// Total channels in the aggregated stream.
pub const NUM_CHANNELS: usize = NUM_GLOVE_SENSORS + NUM_TRACKER_CHANNELS;

/// A static hand posture: one target angle (degrees) per glove sensor.
#[derive(Clone, Debug, PartialEq)]
pub struct HandShape {
    /// Joint angles in degrees, one per glove sensor.
    pub joints: [f64; NUM_GLOVE_SENSORS],
}

impl HandShape {
    /// A relaxed open hand.
    pub fn neutral() -> Self {
        let mut joints = [10.0; NUM_GLOVE_SENSORS];
        joints[19] = 5.0; // palm arch
        joints[20] = 0.0; // wrist flexion
        joints[21] = 0.0; // wrist abduction
        HandShape { joints }
    }

    /// A fist: all finger joints flexed.
    pub fn fist() -> Self {
        let mut joints = [80.0; NUM_GLOVE_SENSORS];
        for abduction in [3usize, 10, 14, 18] {
            joints[abduction] = 5.0;
        }
        joints[19] = 30.0;
        joints[20] = 0.0;
        joints[21] = 0.0;
        HandShape { joints }
    }

    /// A reproducible pseudo-random (but anatomically bounded) shape.
    pub fn random(noise: &mut NoiseSource) -> Self {
        let mut joints = [0.0; NUM_GLOVE_SENSORS];
        for (i, j) in joints.iter_mut().enumerate() {
            let (lo, hi) = if matches!(i, 3 | 10 | 14 | 18) {
                (0.0, 25.0) // abduction sensors have a smaller range
            } else {
                (0.0, 90.0)
            };
            *j = noise.uniform(lo, hi);
        }
        HandShape { joints }
    }

    /// Linear interpolation toward `other` (`t = 0` → self, `t = 1` →
    /// other).
    pub fn lerp(&self, other: &HandShape, t: f64) -> HandShape {
        let mut joints = [0.0; NUM_GLOVE_SENSORS];
        for (i, j) in joints.iter_mut().enumerate() {
            *j = self.joints[i] + (other.joints[i] - self.joints[i]) * t;
        }
        HandShape { joints }
    }

    /// Euclidean distance in joint-angle space.
    pub fn distance(&self, other: &HandShape) -> f64 {
        self.joints.iter().zip(&other.joints).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }
}

/// A parametric wrist trajectory over the 6 tracker channels: per-channel
/// sinusoidal oscillation plus a linear sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct WristMotion {
    /// Oscillation amplitude per tracker channel.
    pub amplitude: [f64; NUM_TRACKER_CHANNELS],
    /// Oscillation frequency (Hz) per tracker channel.
    pub frequency: [f64; NUM_TRACKER_CHANNELS],
    /// Phase offset per channel (radians).
    pub phase: [f64; NUM_TRACKER_CHANNELS],
    /// Net displacement per channel over the motion (linear component).
    pub sweep: [f64; NUM_TRACKER_CHANNELS],
}

impl WristMotion {
    /// A motionless wrist.
    pub fn still() -> Self {
        WristMotion { amplitude: [0.0; 6], frequency: [0.0; 6], phase: [0.0; 6], sweep: [0.0; 6] }
    }

    /// The wrist-twist gesture the paper uses for color signs ("wrist
    /// twisting twice", §2.2): `twists` full oscillations on the roll
    /// channel over the motion duration.
    pub fn twist(twists: f64) -> Self {
        let mut m = Self::still();
        m.amplitude[5] = 35.0; // rot r
        m.frequency[5] = twists; // cycles per normalized duration
        m
    }

    /// A reproducible pseudo-random motion.
    pub fn random(noise: &mut NoiseSource) -> Self {
        let mut m = Self::still();
        for c in 0..NUM_TRACKER_CHANNELS {
            let position = c < 3;
            m.amplitude[c] = noise.uniform(0.0, if position { 8.0 } else { 25.0 });
            m.frequency[c] = noise.uniform(0.3, 2.5);
            m.phase[c] = noise.uniform(0.0, std::f64::consts::TAU);
            m.sweep[c] = noise.uniform(-1.0, 1.0) * if position { 15.0 } else { 20.0 };
        }
        m
    }

    /// Tracker channel values at normalized time `t ∈ [0, 1]`.
    pub fn eval(&self, t: f64) -> [f64; NUM_TRACKER_CHANNELS] {
        let mut out = [0.0; NUM_TRACKER_CHANNELS];
        for (c, o) in out.iter_mut().enumerate() {
            *o = self.sweep[c] * t
                + self.amplitude[c]
                    * (std::f64::consts::TAU * self.frequency[c] * t + self.phase[c]).sin();
        }
        out
    }
}

/// Configuration of the simulated rig.
#[derive(Clone, Debug)]
pub struct CyberGloveRig {
    /// Samples per second (the real device ticks at ~100 Hz).
    pub sample_rate: f64,
    /// Sensor-noise standard deviation (degrees / position units).
    pub noise_sigma: f64,
    /// Per-sensor tremor amplitude (physiological micro-motion).
    pub tremor_amplitude: f64,
}

impl Default for CyberGloveRig {
    fn default() -> Self {
        CyberGloveRig { sample_rate: 100.0, noise_sigma: 0.25, tremor_amplitude: 0.6 }
    }
}

impl CyberGloveRig {
    /// The 28-channel stream spec of this rig.
    pub fn spec(&self) -> StreamSpec {
        let names = GLOVE_SENSOR_NAMES
            .iter()
            .map(|s| format!("glove/{s}"))
            .chain(TRACKER_CHANNEL_NAMES.iter().map(|s| format!("tracker/{s}")))
            .collect();
        StreamSpec::new(names, self.sample_rate)
    }

    /// Smoothstep easing used for shape transitions (C¹, zero end
    /// velocities — human motion does not jerk between shapes).
    fn ease(t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        t * t * (3.0 - 2.0 * t)
    }

    /// Records a single motion: the hand moves from `from` to `to` (easing
    /// over the first 40% of the window), the wrist follows `motion`, and
    /// every channel carries tremor at a per-sensor characteristic
    /// frequency plus white measurement noise.
    pub fn record_motion(
        &self,
        from: &HandShape,
        to: &HandShape,
        motion: &WristMotion,
        frames: usize,
        noise: &mut NoiseSource,
    ) -> MultiStream {
        let mut stream = MultiStream::new(self.spec());
        let mut values = [0.0; NUM_CHANNELS];
        for f in 0..frames {
            let t = if frames > 1 { f as f64 / (frames - 1) as f64 } else { 0.0 };
            let shape_t = Self::ease(t / 0.4);
            let shape = from.lerp(to, shape_t);
            let seconds = f as f64 / self.sample_rate;
            for (i, value) in values.iter_mut().take(NUM_GLOVE_SENSORS).enumerate() {
                // Each joint trembles at its own frequency so the adaptive
                // sampler sees per-sensor distinct f_max.
                let tremor_freq = 0.5 + 0.25 * i as f64;
                let tremor = self.tremor_amplitude
                    * (std::f64::consts::TAU * tremor_freq * seconds + i as f64).sin();
                *value = shape.joints[i] + tremor + noise.gaussian_scaled(self.noise_sigma);
            }
            let wrist = motion.eval(t);
            for c in 0..NUM_TRACKER_CHANNELS {
                values[NUM_GLOVE_SENSORS + c] = wrist[c] + noise.gaussian_scaled(self.noise_sigma);
            }
            stream.push(&values);
        }
        aims_telemetry::counter!("sensors.glove.frames_generated").add(stream.len() as u64);
        stream
    }

    /// Records a free-form "fiddling" session of the given duration: the
    /// hand wanders through random shapes (dwell ~0.8–2 s each) with random
    /// wrist motion, scaled by `activity ∈ [0, 1]` (0 = nearly still).
    /// Used by the acquisition experiments, which need sessions with
    /// varying activity levels (§3.1: "adaptive sampling considers the
    /// immersive session information").
    pub fn record_session(
        &self,
        duration_s: f64,
        activity: f64,
        noise: &mut NoiseSource,
    ) -> MultiStream {
        assert!(duration_s > 0.0, "duration must be positive");
        let activity = activity.clamp(0.0, 1.0);
        // Micro-motion scales with engagement: a resting hand barely
        // trembles. This is what gives adaptive sampling real idle periods
        // to exploit.
        let rig = CyberGloveRig {
            tremor_amplitude: self.tremor_amplitude * (0.1 + 0.9 * activity),
            ..self.clone()
        };
        let total = (duration_s * self.sample_rate) as usize;
        let mut stream = MultiStream::new(self.spec());
        let mut current = HandShape::neutral();
        while stream.len() < total {
            // Overshooting `total` is fine — the final slice trims it.
            let dwell = noise.uniform(0.8, 2.0) / (0.2 + activity);
            let frames = ((dwell * self.sample_rate) as usize).min(total - stream.len()).max(2);
            let next = if noise.chance(0.2 + 0.8 * activity) {
                let target = HandShape::random(noise);
                current.lerp(&target, activity)
            } else {
                current.clone()
            };
            let mut motion = WristMotion::random(noise);
            for a in &mut motion.amplitude {
                *a *= activity;
            }
            for s in &mut motion.sweep {
                *s *= activity;
            }
            let seg = rig.record_motion(&current, &next, &motion, frames, noise);
            stream.extend(&seg);
            current = next;
        }
        stream.slice(0, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_has_28_named_channels() {
        let rig = CyberGloveRig::default();
        let spec = rig.spec();
        assert_eq!(spec.channels(), 28);
        assert_eq!(spec.channel_names[0], "glove/thumb roll");
        assert_eq!(spec.channel_names[22], "tracker/pos x");
        assert_eq!(spec.sample_rate, 100.0);
    }

    #[test]
    fn hand_shape_lerp_endpoints() {
        let a = HandShape::neutral();
        let b = HandShape::fist();
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!(mid.distance(&a) > 0.0 && mid.distance(&b) > 0.0);
        assert!((mid.distance(&a) - mid.distance(&b)).abs() < 1e-9);
    }

    #[test]
    fn record_motion_shape_converges_to_target() {
        let rig = CyberGloveRig { noise_sigma: 0.0, tremor_amplitude: 0.0, ..Default::default() };
        let mut noise = NoiseSource::seeded(1);
        let s = rig.record_motion(
            &HandShape::neutral(),
            &HandShape::fist(),
            &WristMotion::still(),
            200,
            &mut noise,
        );
        assert_eq!(s.len(), 200);
        // After the 40% easing window the joints sit at the target.
        let last = s.frame(199);
        for (i, &v) in last.iter().take(NUM_GLOVE_SENSORS).enumerate() {
            assert!((v - HandShape::fist().joints[i]).abs() < 1e-9, "joint {i}: {v}");
        }
    }

    #[test]
    fn twist_motion_oscillates_roll_only() {
        let m = WristMotion::twist(2.0);
        let quarter = m.eval(0.125); // sin(2π·2·0.125) = sin(π/2) = 1
        assert!((quarter[5] - 35.0).abs() < 1e-9);
        for v in quarter.iter().take(5) {
            assert_eq!(*v, 0.0);
        }
        // Two full cycles: back near zero at t=1.
        assert!(m.eval(1.0)[5].abs() < 1e-6);
    }

    #[test]
    fn session_has_requested_length_and_is_reproducible() {
        let rig = CyberGloveRig::default();
        let mut n1 = NoiseSource::seeded(9);
        let mut n2 = NoiseSource::seeded(9);
        let s1 = rig.record_session(3.0, 0.5, &mut n1);
        let s2 = rig.record_session(3.0, 0.5, &mut n2);
        assert_eq!(s1.len(), 300);
        assert_eq!(s1, s2);
    }

    #[test]
    fn higher_activity_means_more_motion_energy() {
        let rig = CyberGloveRig::default();
        let mut noise = NoiseSource::seeded(4);
        let calm = rig.record_session(10.0, 0.05, &mut noise);
        let busy = rig.record_session(10.0, 0.95, &mut noise);
        let energy =
            |s: &MultiStream| -> f64 { s.motion_speed().iter().sum::<f64>() / s.len() as f64 };
        assert!(
            energy(&busy) > 1.5 * energy(&calm),
            "busy {} vs calm {}",
            energy(&busy),
            energy(&calm)
        );
    }

    #[test]
    fn random_shapes_are_anatomically_bounded() {
        let mut noise = NoiseSource::seeded(2);
        for _ in 0..50 {
            let s = HandShape::random(&mut noise);
            for (i, &j) in s.joints.iter().enumerate() {
                assert!((0.0..=90.0).contains(&j), "joint {i} = {j}");
            }
        }
    }
}
