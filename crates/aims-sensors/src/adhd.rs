//! Virtual Classroom ADHD session generator.
//!
//! §2.1 of the AIMS paper describes the Virtual Classroom study: children
//! (normal and ADHD-diagnosed) perform an "AX task" — press the button on
//! an X that follows an A — while scripted distractions play and trackers
//! on the head, hands and legs stream 6-DoF motion (x, y, z, h, p, r), plus
//! time-stamp and sensor-id: 8 dimensions total. The paper reports that an
//! SVM over tracker motion speed separated the groups with ~86% accuracy.
//!
//! Real clinical recordings are unavailable, so this module generates
//! sessions from a two-group statistical model grounded in the study's
//! premise: ADHD subjects show more motion energy, more frequent fidget
//! bursts, stronger/longer head excursions toward distractions, slower and
//! more variable response times, and more misses. Group parameter
//! distributions overlap, so classifiers achieve high-but-not-perfect
//! accuracy, matching the paper's 86% headline.

use crate::noise::NoiseSource;
use crate::types::{MultiStream, StreamSpec};

/// Diagnostic group of a simulated subject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubjectKind {
    /// Typically developing control subject.
    Normal,
    /// ADHD-diagnosed subject.
    Adhd,
}

/// Tracker placement sites used in the study ("trackers placed on the
/// head, hands and legs", §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrackerSite {
    /// Head-mounted tracker.
    Head,
    /// Left-hand tracker.
    LeftHand,
    /// Right-hand tracker (the mouse hand).
    RightHand,
    /// Left-leg tracker.
    LeftLeg,
    /// Right-leg tracker.
    RightLeg,
}

impl TrackerSite {
    /// All sites in canonical order (this order defines sensor ids).
    pub const ALL: [TrackerSite; 5] = [
        TrackerSite::Head,
        TrackerSite::LeftHand,
        TrackerSite::RightHand,
        TrackerSite::LeftLeg,
        TrackerSite::RightLeg,
    ];

    /// Stable sensor id of this site.
    pub fn sensor_id(self) -> u16 {
        Self::ALL.iter().position(|&s| s == self).unwrap() as u16
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TrackerSite::Head => "head",
            TrackerSite::LeftHand => "left_hand",
            TrackerSite::RightHand => "right_hand",
            TrackerSite::LeftLeg => "left_leg",
            TrackerSite::RightLeg => "right_leg",
        }
    }
}

/// The scripted classroom distractions of §2.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DistractionKind {
    /// Ambient classroom noise.
    AmbientNoise,
    /// A paper airplane flying around the room.
    PaperAirplane,
    /// Students walking into the room.
    PersonWalksIn,
    /// Activity occurring outside the window.
    OutsideActivity,
}

impl DistractionKind {
    /// All kinds, for round-robin scripting.
    pub const ALL: [DistractionKind; 4] = [
        DistractionKind::AmbientNoise,
        DistractionKind::PaperAirplane,
        DistractionKind::PersonWalksIn,
        DistractionKind::OutsideActivity,
    ];
}

/// One scripted distraction occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct DistractionEvent {
    /// Onset, seconds from session start.
    pub time_s: f64,
    /// Duration of the distraction.
    pub duration_s: f64,
    /// What happened.
    pub kind: DistractionKind,
    /// How long (seconds) this subject attended to it (head excursion).
    pub attention_s: f64,
}

/// One stimulus of the AX task and the subject's reaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskEvent {
    /// Stimulus onset, seconds from session start.
    pub time_s: f64,
    /// Displayed letter.
    pub stimulus: char,
    /// True when this is an X following an A (the response target).
    pub is_target: bool,
    /// True when the subject pressed the button for this stimulus.
    pub responded: bool,
    /// Reaction time in seconds, when a response occurred.
    pub reaction_s: Option<f64>,
}

impl TaskEvent {
    /// Correct press on a target.
    pub fn is_hit(&self) -> bool {
        self.is_target && self.responded
    }

    /// Missed target.
    pub fn is_miss(&self) -> bool {
        self.is_target && !self.responded
    }

    /// Press on a non-target.
    pub fn is_false_alarm(&self) -> bool {
        !self.is_target && self.responded
    }
}

/// An individual subject's latent parameters, drawn from their group's
/// distribution.
#[derive(Clone, Debug)]
pub struct SubjectProfile {
    /// Diagnostic group.
    pub kind: SubjectKind,
    /// Baseline postural-sway magnitude.
    pub motion_sigma: f64,
    /// Fidget bursts per second.
    pub fidget_rate: f64,
    /// Probability of attending to a distraction.
    pub distraction_susceptibility: f64,
    /// Mean reaction time (s).
    pub mean_rt: f64,
    /// Reaction-time standard deviation (s).
    pub rt_sigma: f64,
    /// Probability of missing a target.
    pub miss_rate: f64,
    /// Probability of pressing on a non-target.
    pub false_alarm_rate: f64,
}

impl SubjectProfile {
    /// Draws an individual from the group distribution. Group means differ
    /// but individual distributions overlap — by design, so downstream
    /// classifiers top out near the paper's 86%, not at 100%.
    pub fn sample(kind: SubjectKind, noise: &mut NoiseSource) -> Self {
        let g = |noise: &mut NoiseSource, mu: f64, sigma: f64, lo: f64| -> f64 {
            (mu + noise.gaussian_scaled(sigma)).max(lo)
        };
        match kind {
            SubjectKind::Normal => SubjectProfile {
                kind,
                motion_sigma: g(noise, 1.0, 0.25, 0.2),
                fidget_rate: g(noise, 0.06, 0.04, 0.0),
                distraction_susceptibility: g(noise, 0.25, 0.12, 0.0).min(1.0),
                mean_rt: g(noise, 0.45, 0.07, 0.2),
                rt_sigma: g(noise, 0.08, 0.03, 0.01),
                miss_rate: g(noise, 0.06, 0.04, 0.0).min(0.9),
                false_alarm_rate: g(noise, 0.03, 0.02, 0.0).min(0.9),
            },
            SubjectKind::Adhd => SubjectProfile {
                kind,
                motion_sigma: g(noise, 1.7, 0.45, 0.2),
                fidget_rate: g(noise, 0.28, 0.12, 0.0),
                distraction_susceptibility: g(noise, 0.65, 0.18, 0.0).min(1.0),
                mean_rt: g(noise, 0.62, 0.14, 0.2),
                rt_sigma: g(noise, 0.2, 0.07, 0.01),
                miss_rate: g(noise, 0.25, 0.1, 0.0).min(0.9),
                false_alarm_rate: g(noise, 0.12, 0.06, 0.0).min(0.9),
            },
        }
    }
}

/// Tracker sampling rate (Hz).
pub const SAMPLE_RATE: f64 = 60.0;
/// Mean inter-stimulus interval (s).
pub const STIMULUS_INTERVAL_S: f64 = 2.0;
/// Mean inter-distraction interval (s).
pub const DISTRACTION_INTERVAL_S: f64 = 12.0;

/// Session generation parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Session length in seconds.
    pub duration_s: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { duration_s: 120.0 }
    }
}

/// A complete recorded session for one subject.
#[derive(Clone, Debug)]
pub struct AdhdSession {
    /// Subject identifier.
    pub subject_id: u32,
    /// Latent profile (ground truth for evaluation only).
    pub profile: SubjectProfile,
    /// One 6-channel stream per tracker site, in [`TrackerSite::ALL`] order.
    pub trackers: Vec<MultiStream>,
    /// AX-task stimulus/response log.
    pub task_events: Vec<TaskEvent>,
    /// Scripted distractions with per-subject attention.
    pub distractions: Vec<DistractionEvent>,
    /// Sampling rate of the trackers (Hz).
    pub sample_rate: f64,
}

/// Channel names of one 6-DoF tracker.
fn tracker_spec(site: TrackerSite, rate: f64) -> StreamSpec {
    let names =
        ["x", "y", "z", "h", "p", "r"].iter().map(|c| format!("{}/{c}", site.name())).collect();
    StreamSpec::new(names, rate)
}

/// Generates one subject's session.
pub fn generate_session(
    subject_id: u32,
    kind: SubjectKind,
    config: &SessionConfig,
    noise: &mut NoiseSource,
) -> AdhdSession {
    let profile = SubjectProfile::sample(kind, noise);
    let frames = (config.duration_s * SAMPLE_RATE) as usize;

    // --- Script the distractions. ---
    let mut distractions = Vec::new();
    let mut t = noise.uniform(2.0, DISTRACTION_INTERVAL_S);
    let mut kind_idx = noise.index(DistractionKind::ALL.len());
    while t < config.duration_s - 3.0 {
        let duration = noise.uniform(1.5, 4.0);
        let attends = noise.chance(profile.distraction_susceptibility);
        let attention = if attends { noise.uniform(0.4, duration) } else { 0.0 };
        distractions.push(DistractionEvent {
            time_s: t,
            duration_s: duration,
            kind: DistractionKind::ALL[kind_idx % 4],
            attention_s: attention,
        });
        kind_idx += 1;
        t += noise.uniform(0.6, 1.4) * DISTRACTION_INTERVAL_S;
    }

    // --- Script the AX task. ---
    let letters = ['A', 'B', 'C', 'K', 'X', 'H'];
    let mut task_events: Vec<TaskEvent> = Vec::new();
    let mut t = 1.0;
    let mut prev_was_a = false;
    while t < config.duration_s - 1.0 {
        // Bias toward A and X so targets appear regularly.
        let stimulus = if prev_was_a && noise.chance(0.6) {
            'X'
        } else if noise.chance(0.3) {
            'A'
        } else {
            letters[noise.index(letters.len())]
        };
        let is_target = prev_was_a && stimulus == 'X';
        prev_was_a = stimulus == 'A';

        // Attention lapse: targets during attended distractions are missed
        // more often.
        let distracted = distractions
            .iter()
            .any(|d| d.attention_s > 0.0 && t >= d.time_s && t <= d.time_s + d.attention_s);
        let miss_p =
            if distracted { (profile.miss_rate * 2.5).min(0.95) } else { profile.miss_rate };
        let (responded, reaction) = if is_target {
            if noise.chance(miss_p) {
                (false, None)
            } else {
                let rt = (profile.mean_rt + noise.gaussian_scaled(profile.rt_sigma)).max(0.15);
                (true, Some(rt))
            }
        } else if noise.chance(profile.false_alarm_rate) {
            let rt = (profile.mean_rt + noise.gaussian_scaled(profile.rt_sigma * 1.5)).max(0.15);
            (true, Some(rt))
        } else {
            (false, None)
        };
        task_events.push(TaskEvent {
            time_s: t,
            stimulus,
            is_target,
            responded,
            reaction_s: reaction,
        });
        t += noise.uniform(0.7, 1.3) * STIMULUS_INTERVAL_S;
    }

    // --- Synthesize the tracker streams. ---
    let mut trackers = Vec::with_capacity(TrackerSite::ALL.len());
    for site in TrackerSite::ALL {
        let spec = tracker_spec(site, SAMPLE_RATE);
        let site_gain = match site {
            TrackerSite::Head => 1.0,
            TrackerSite::LeftHand | TrackerSite::RightHand => 1.3,
            TrackerSite::LeftLeg | TrackerSite::RightLeg => 0.8,
        };
        // Baseline postural sway per channel.
        let mut channels: Vec<Vec<f64>> = (0..6)
            .map(|c| {
                let sigma = profile.motion_sigma * site_gain * if c < 3 { 1.0 } else { 2.0 };
                noise.smooth_noise(frames, sigma, 0.04)
            })
            .collect();

        // Fidget bursts: short high-energy wiggles at the profile's rate.
        let expected_bursts = (profile.fidget_rate * config.duration_s) as usize;
        for _ in 0..expected_bursts {
            let at = noise.index(frames.max(1));
            let len = (noise.uniform(0.3, 1.2) * SAMPLE_RATE) as usize;
            let freq = noise.uniform(2.0, 5.0);
            let amp = profile.motion_sigma * site_gain * noise.uniform(2.0, 5.0);
            for (i, frame) in (at..(at + len).min(frames)).enumerate() {
                let envelope = (std::f64::consts::PI * i as f64 / len as f64).sin();
                let wiggle =
                    amp * envelope * (std::f64::consts::TAU * freq * i as f64 / SAMPLE_RATE).sin();
                for ch in channels.iter_mut() {
                    ch[frame] += wiggle * 0.5;
                }
            }
        }

        // Head excursions toward attended distractions (rotation channels).
        if site == TrackerSite::Head {
            for d in &distractions {
                if d.attention_s <= 0.0 {
                    continue;
                }
                let start = (d.time_s * SAMPLE_RATE) as usize;
                let len = (d.attention_s * SAMPLE_RATE) as usize;
                let turn = noise.uniform(20.0, 60.0) * if noise.chance(0.5) { 1.0 } else { -1.0 };
                for (i, frame) in (start..(start + len).min(frames)).enumerate() {
                    let envelope = (std::f64::consts::PI * i as f64 / len.max(1) as f64).sin();
                    channels[3][frame] += turn * envelope; // heading
                }
            }
        }

        // Mouse-hand response twitches.
        if site == TrackerSite::RightHand {
            for e in &task_events {
                if let Some(rt) = e.reaction_s {
                    let at = ((e.time_s + rt) * SAMPLE_RATE) as usize;
                    let len = (0.15 * SAMPLE_RATE) as usize;
                    for (i, frame) in (at..(at + len).min(frames)).enumerate() {
                        let envelope = (std::f64::consts::PI * i as f64 / len.max(1) as f64).sin();
                        channels[2][frame] += 3.0 * envelope; // z dip: press
                    }
                }
            }
        }

        trackers.push(MultiStream::from_channels(spec, &channels));
    }

    AdhdSession {
        subject_id,
        profile,
        trackers,
        task_events,
        distractions,
        sample_rate: SAMPLE_RATE,
    }
}

/// Generates a balanced cohort: `per_group` normal and `per_group` ADHD
/// sessions, subject ids `0..2·per_group`, deterministically from `seed`.
pub fn generate_cohort(per_group: usize, config: &SessionConfig, seed: u64) -> Vec<AdhdSession> {
    let mut noise = NoiseSource::seeded(seed);
    let mut sessions = Vec::with_capacity(per_group * 2);
    for i in 0..per_group * 2 {
        let kind = if i % 2 == 0 { SubjectKind::Normal } else { SubjectKind::Adhd };
        sessions.push(generate_session(i as u32, kind, config, &mut noise));
    }
    sessions
}

impl AdhdSession {
    /// Motion-speed feature vector: mean and standard deviation of the
    /// per-frame motion speed of every tracker (10 features for 5 sites).
    /// This is the feature set the paper's SVM classified with 86%
    /// accuracy (§2.1: "the motion speed of different trackers").
    pub fn motion_speed_features(&self) -> Vec<f64> {
        let mut features = Vec::with_capacity(self.trackers.len() * 2);
        for t in &self.trackers {
            let speed = t.motion_speed();
            let n = speed.len().max(1) as f64;
            let mean = speed.iter().sum::<f64>() / n;
            let var = speed.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
            features.push(mean);
            features.push(var.sqrt());
        }
        features
    }

    /// Flattens the session into the paper's 8-dimensional relation:
    /// `(sensor_id, x, y, z, h, p, r, time)` rows, one per tracker frame.
    pub fn to_relation(&self) -> Vec<[f64; 8]> {
        let mut rows = Vec::new();
        for (site, stream) in TrackerSite::ALL.iter().zip(&self.trackers) {
            for t in 0..stream.len() {
                let v = stream.frame(t);
                rows.push([
                    site.sensor_id() as f64,
                    v[0],
                    v[1],
                    v[2],
                    v[3],
                    v[4],
                    v[5],
                    t as f64 / self.sample_rate,
                ]);
            }
        }
        rows
    }

    /// Count of hits / misses / false alarms.
    pub fn score(&self) -> (usize, usize, usize) {
        let hits = self.task_events.iter().filter(|e| e.is_hit()).count();
        let misses = self.task_events.iter().filter(|e| e.is_miss()).count();
        let fas = self.task_events.iter().filter(|e| e.is_false_alarm()).count();
        (hits, misses, fas)
    }

    /// Mean reaction time over hits; `None` when the subject never hit.
    pub fn mean_reaction_time(&self) -> Option<f64> {
        let rts: Vec<f64> =
            self.task_events.iter().filter(|e| e.is_hit()).filter_map(|e| e.reaction_s).collect();
        if rts.is_empty() {
            None
        } else {
            Some(rts.iter().sum::<f64>() / rts.len() as f64)
        }
    }

    /// Total seconds spent attending to distractions.
    pub fn total_distraction_attention(&self) -> f64 {
        self.distractions.iter().map(|d| d.attention_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SessionConfig {
        SessionConfig { duration_s: 60.0 }
    }

    #[test]
    fn session_structure() {
        let mut noise = NoiseSource::seeded(1);
        let s = generate_session(0, SubjectKind::Normal, &quick_config(), &mut noise);
        assert_eq!(s.trackers.len(), 5);
        for t in &s.trackers {
            assert_eq!(t.channels(), 6);
            assert_eq!(t.len(), 3600);
        }
        assert!(!s.task_events.is_empty());
        assert!(!s.distractions.is_empty());
    }

    #[test]
    fn targets_follow_ax_rule() {
        let mut noise = NoiseSource::seeded(2);
        let s = generate_session(0, SubjectKind::Normal, &quick_config(), &mut noise);
        let mut prev = ' ';
        for e in &s.task_events {
            let expect_target = prev == 'A' && e.stimulus == 'X';
            assert_eq!(e.is_target, expect_target, "at t={}", e.time_s);
            prev = e.stimulus;
        }
        // There should be some targets in a minute of trials.
        assert!(s.task_events.iter().any(|e| e.is_target));
    }

    #[test]
    fn hits_misses_false_alarms_partition() {
        let mut noise = NoiseSource::seeded(3);
        let s = generate_session(0, SubjectKind::Adhd, &quick_config(), &mut noise);
        for e in &s.task_events {
            let flags = [e.is_hit(), e.is_miss(), e.is_false_alarm()];
            assert!(flags.iter().filter(|&&f| f).count() <= 1);
            if e.is_hit() {
                assert!(e.reaction_s.is_some());
            }
            if e.is_miss() {
                assert!(e.reaction_s.is_none());
            }
        }
    }

    #[test]
    fn adhd_group_moves_more_on_average() {
        let sessions = generate_cohort(8, &quick_config(), 42);
        let mean_speed = |s: &AdhdSession| -> f64 {
            s.motion_speed_features().iter().step_by(2).sum::<f64>() / 5.0
        };
        let normal: f64 = sessions
            .iter()
            .filter(|s| s.profile.kind == SubjectKind::Normal)
            .map(mean_speed)
            .sum::<f64>()
            / 8.0;
        let adhd: f64 = sessions
            .iter()
            .filter(|s| s.profile.kind == SubjectKind::Adhd)
            .map(mean_speed)
            .sum::<f64>()
            / 8.0;
        assert!(adhd > normal * 1.2, "adhd {adhd} vs normal {normal}");
    }

    #[test]
    fn adhd_group_slower_and_less_accurate() {
        let sessions = generate_cohort(10, &quick_config(), 7);
        let rt = |k: SubjectKind| -> f64 {
            let v: Vec<f64> = sessions
                .iter()
                .filter(|s| s.profile.kind == k)
                .filter_map(|s| s.mean_reaction_time())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(rt(SubjectKind::Adhd) > rt(SubjectKind::Normal));
        let miss_frac = |k: SubjectKind| -> f64 {
            let (mut h, mut m) = (0usize, 0usize);
            for s in sessions.iter().filter(|s| s.profile.kind == k) {
                let (hh, mm, _) = s.score();
                h += hh;
                m += mm;
            }
            m as f64 / (h + m).max(1) as f64
        };
        assert!(miss_frac(SubjectKind::Adhd) > miss_frac(SubjectKind::Normal));
    }

    #[test]
    fn relation_has_8_dims_and_correct_ids() {
        let mut noise = NoiseSource::seeded(5);
        let s = generate_session(3, SubjectKind::Normal, &quick_config(), &mut noise);
        let rel = s.to_relation();
        assert_eq!(rel.len(), 5 * 3600);
        assert_eq!(rel[0][0], 0.0); // head
        assert_eq!(rel.last().unwrap()[0], 4.0); // right leg
                                                 // Times within the session.
        for row in rel.iter().step_by(1000) {
            assert!((0.0..60.0).contains(&row[7]));
        }
    }

    #[test]
    fn features_have_fixed_dimension() {
        let mut noise = NoiseSource::seeded(6);
        let s = generate_session(0, SubjectKind::Adhd, &quick_config(), &mut noise);
        assert_eq!(s.motion_speed_features().len(), 10);
    }

    #[test]
    fn cohort_is_balanced_and_deterministic() {
        let a = generate_cohort(4, &quick_config(), 11);
        let b = generate_cohort(4, &quick_config(), 11);
        assert_eq!(a.len(), 8);
        let normals = a.iter().filter(|s| s.profile.kind == SubjectKind::Normal).count();
        assert_eq!(normals, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trackers, y.trackers);
            assert_eq!(x.task_events, y.task_events);
        }
    }
}
