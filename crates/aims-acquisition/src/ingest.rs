//! Supervised ingest: the fault-tolerant stage between the sensor wire and
//! the double-buffered recorder.
//!
//! The raw recorder (§3.1) assumes every frame arrives intact and in
//! order. Real sensor links deliver neither: samples drop, channels
//! freeze or die, frames duplicate and reorder. This module supervises the
//! wire before storage:
//!
//! 1. **Reordering + duplicate suppression** — a bounded window puts
//!    frames back in sequence order (by the wire's `seq`); copies and
//!    hopeless stragglers are counted, not stored twice.
//! 2. **Plausibility checks** — stuck-at runs and spike/glitch outliers
//!    are detected per channel and flagged [`SampleQuality::Suspect`].
//! 3. **Gap repair** — missing samples are synthesized by hold or linear
//!    interpolation and flagged [`SampleQuality::Repaired`], so downstream
//!    consumers always see a full uniform grid but never mistake invention
//!    for observation.
//! 4. **Health tracking** — a per-sensor state machine
//!    (Healthy → Suspect → Dead, with hysteresis in both directions) turns
//!    sample-level flags into channel-level verdicts; samples synthesized
//!    while a channel is dead are flagged [`SampleQuality::Dead`] so the
//!    online recognizer can mask the channel outright.
//! 5. **Recording** — the repaired grid is played through the
//!    double-buffered recorder, whose buffer is sized to the grid, so the
//!    interrupt side never finds it full and every frame is stored.
//!
//! The thresholds of stages 1–4 are the constants below; only the repair
//! policy is chosen per run ([`IngestConfig`]).
//!
//! With zero faults the stage is a transparent pass-through: the stored
//! stream is bit-identical to the clean source, every flag is `Clean`, and
//! every supervisor counter is zero. The fault drill and the proptests in
//! `tests/ingest_properties.rs` pin that contract.

use std::collections::{BTreeMap, VecDeque};

use aims_sensors::faulty::WireFrame;
use aims_sensors::types::{MultiStream, QualityMask, SampleQuality, StreamSpec};
use aims_telemetry::{counter, span};

use crate::recorder::{DoubleBufferRecorder, RecorderConfig, RecordingStats};

/// How missing samples are synthesized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Hold the last observed value (zero-order hold).
    Hold,
    /// Linear interpolation between the bracketing observations; stream
    /// edges fall back to hold.
    Interpolate,
}

impl RepairPolicy {
    /// All policies, for experiment drivers.
    pub const ALL: [RepairPolicy; 2] = [RepairPolicy::Hold, RepairPolicy::Interpolate];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RepairPolicy::Hold => "hold",
            RepairPolicy::Interpolate => "interpolate",
        }
    }
}

/// Channel health as judged by the supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Delivering plausible samples.
    Healthy,
    /// Enough consecutive bad samples to distrust the channel.
    Suspect,
    /// Enough consecutive bad samples to declare the sensor gone.
    Dead,
}

impl HealthState {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
        }
    }
}

/// One health-machine transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthEvent {
    /// Grid frame at which the transition fired.
    pub frame: usize,
    /// Channel index.
    pub channel: usize,
    /// State left.
    pub from: HealthState,
    /// State entered.
    pub to: HealthState,
}

/// Frames buffered to put out-of-order arrivals back in sequence.
pub const REORDER_WINDOW: usize = 8;
/// Consecutive bad samples that demote Healthy → Suspect.
pub const SUSPECT_AFTER: usize = 3;
/// Consecutive bad samples that demote Suspect → Dead.
pub const DEAD_AFTER: usize = 12;
/// Consecutive clean samples that promote one step back up (hysteresis:
/// recovery is slower than demotion).
pub const RECOVER_AFTER: usize = 8;
/// Jump (absolute value) that marks an isolated sample as a spike when
/// both neighbors agree with each other but not with it.
pub const SPIKE_JUMP: f64 = 25.0;
/// Length of an exact-repeat run that marks samples stuck-at.
pub const STUCK_AFTER: usize = 6;
/// Frames the recorder's storage thread drains per wakeup.
const RECORDER_BATCH: usize = 64;

// The health machine needs a Suspect stage before Dead, and a stuck run
// needs at least one repeat.
const _: () = assert!(0 < SUSPECT_AFTER && SUSPECT_AFTER < DEAD_AFTER);
const _: () = assert!(RECOVER_AFTER > 0 && STUCK_AFTER >= 2 && REORDER_WINDOW > 0);

/// What a supervised run is told: how to fill gaps.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Gap-repair policy.
    pub repair: RepairPolicy,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { repair: RepairPolicy::Interpolate }
    }
}

/// Everything one supervised run produces.
#[derive(Clone, Debug)]
pub struct IngestOutcome {
    /// The stored uniform-grid stream (post repair, post recorder).
    pub stream: MultiStream,
    /// Per-sample quality flags, aligned with `stream`.
    pub quality: QualityMask,
    /// Recording statistics including the supervisor's counters.
    pub stats: RecordingStats,
    /// Health transitions in frame order.
    pub health_events: Vec<HealthEvent>,
    /// Final health of every channel.
    pub final_health: Vec<HealthState>,
}

impl IngestOutcome {
    /// Channels whose final health is [`HealthState::Dead`].
    pub fn dead_channels(&self) -> Vec<usize> {
        self.final_health
            .iter()
            .enumerate()
            .filter(|(_, h)| **h == HealthState::Dead)
            .map(|(c, _)| c)
            .collect()
    }
}

/// Counters of the reordering stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReassemblyCounters {
    /// Frames that arrived after a higher sequence number.
    pub reordered: usize,
    /// Duplicate deliveries suppressed.
    pub duplicates: usize,
    /// Frames that arrived too late for the reorder window (their slot was
    /// already emitted as a loss).
    pub late: usize,
}

/// The bounded reordering window: wire frames go in (any order, with
/// copies), grid slots come out in strictly increasing sequence order.
///
/// Emitted slots are `(seq, Some(values))` for frames that arrived, or
/// `(seq, None)` for sequence numbers declared lost — the window only
/// waits [`REORDER_WINDOW`] frames for a straggler before giving its slot
/// up to repair.
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: BTreeMap<u64, Vec<Option<f64>>>,
    next_emit: u64,
    highest_seen: Option<u64>,
    /// Recently emitted real sequence numbers, for classifying stragglers
    /// as duplicates vs. losses.
    recent_real: VecDeque<u64>,
    counters: ReassemblyCounters,
}

type EmittedSlot = (u64, Option<Vec<Option<f64>>>);

impl Reassembler {
    /// An empty window holding up to [`REORDER_WINDOW`] out-of-order
    /// frames.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Accepts one wire frame; returns every grid slot this arrival
    /// releases, in strictly increasing sequence order.
    pub fn push(&mut self, frame: &WireFrame) -> Vec<EmittedSlot> {
        let seq = frame.seq;
        if let Some(h) = self.highest_seen {
            if seq < h {
                self.counters.reordered += 1;
            }
        }
        self.highest_seen = Some(self.highest_seen.map_or(seq, |h| h.max(seq)));

        if seq < self.next_emit {
            // The slot is gone: either we already stored this frame (a
            // duplicate) or we declared it lost (too late).
            if self.recent_real.contains(&seq) {
                self.counters.duplicates += 1;
            } else {
                self.counters.late += 1;
            }
            return Vec::new();
        }
        if self.pending.contains_key(&seq) {
            self.counters.duplicates += 1;
            return Vec::new();
        }
        self.pending.insert(seq, frame.values.clone());

        let mut out = Vec::new();
        loop {
            if self.pending.contains_key(&self.next_emit) {
                let values = self.pending.remove(&self.next_emit).unwrap();
                self.note_real(self.next_emit);
                out.push((self.next_emit, Some(values)));
                self.next_emit += 1;
            } else if self.pending.len() > REORDER_WINDOW {
                out.push((self.next_emit, None));
                self.next_emit += 1;
            } else {
                break;
            }
        }
        out
    }

    /// Drains the window at end of stream, declaring any remaining holes
    /// lost.
    pub fn finish(&mut self) -> Vec<EmittedSlot> {
        let mut out = Vec::new();
        while let Some((&seq, _)) = self.pending.iter().next() {
            while self.next_emit < seq {
                out.push((self.next_emit, None));
                self.next_emit += 1;
            }
            let values = self.pending.remove(&seq).unwrap();
            self.note_real(seq);
            out.push((seq, Some(values)));
            self.next_emit = seq + 1;
        }
        out
    }

    /// The stage's counters so far.
    pub fn counters(&self) -> ReassemblyCounters {
        self.counters
    }

    fn note_real(&mut self, seq: u64) {
        self.recent_real.push_back(seq);
        while self.recent_real.len() > 4 * REORDER_WINDOW {
            self.recent_real.pop_front();
        }
    }
}

/// The supervised ingest stage.
#[derive(Clone, Debug, Default)]
pub struct SupervisedIngest {
    config: IngestConfig,
}

impl SupervisedIngest {
    /// Creates a supervisor with the given configuration.
    pub fn new(config: IngestConfig) -> Self {
        SupervisedIngest { config }
    }

    /// Runs the full pipeline: reorder → plausibility + repair → health →
    /// recorder, and returns the stored stream with aligned quality flags,
    /// statistics and the health history.
    pub fn ingest(&self, spec: &StreamSpec, wire: &[WireFrame]) -> IngestOutcome {
        let _span = span!("acquisition.ingest.run");
        let channels = spec.channels();

        // Stage 1: reordering + duplicate suppression.
        let mut asm = Reassembler::new();
        let mut slots: Vec<Option<Vec<Option<f64>>>> = Vec::new();
        for frame in wire {
            debug_assert_eq!(frame.values.len(), channels, "wire frame width mismatch");
            for (seq, slot) in asm.push(frame) {
                debug_assert_eq!(seq as usize, slots.len());
                slots.push(slot);
            }
        }
        for (seq, slot) in asm.finish() {
            debug_assert_eq!(seq as usize, slots.len());
            slots.push(slot);
        }
        let counters = asm.counters();

        // Stages 2+3: per-channel plausibility checks and gap repair.
        let n = slots.len();
        let mut quality = QualityMask::clean(n, channels);
        let mut repaired_samples = 0usize;
        let mut chans: Vec<Vec<f64>> = Vec::with_capacity(channels);
        for c in 0..channels {
            let mut raw: Vec<Option<f64>> =
                slots.iter().map(|s| s.as_ref().and_then(|v| v[c])).collect();
            let missing: Vec<bool> = raw.iter().map(|v| v.is_none()).collect();

            let spikes = detect_spikes(&raw);
            for &t in &spikes {
                raw[t] = None;
            }
            let stuck = detect_stuck(&raw);

            let filled = fill_gaps(&raw, self.config.repair);
            for (t, &lost) in missing.iter().enumerate() {
                if lost || spikes.contains(&t) {
                    repaired_samples += 1;
                }
                if spikes.contains(&t) || stuck.contains(&t) {
                    quality.set(t, c, SampleQuality::Suspect);
                } else if lost {
                    quality.set(t, c, SampleQuality::Repaired);
                }
            }
            chans.push(filled);
        }
        // The recorder below holds up to two more copies of the grid:
        // release the reassembled slots and the channel vectors first, so
        // the stage's peak stays that of repair.
        drop(slots);
        let repaired = MultiStream::from_channels(spec.clone(), &chans);
        drop(chans);

        // Stage 4: the health machine — channel-level verdicts with
        // hysteresis, upgrading flags to Dead while a channel is out.
        let (health_events, final_health) = self.run_health_machine(&mut quality, n, channels);

        // Stage 5: storage through the double-buffered recorder, whose
        // buffer holds the whole grid: the interrupt side can never find it
        // full, so every repaired frame is stored, in order.
        let recorder = DoubleBufferRecorder::new(RecorderConfig {
            buffer_frames: n,
            batch_size: RECORDER_BATCH,
            store_latency_us: 0,
        });
        let (stored, mut stats) = recorder.record(&repaired);
        debug_assert_eq!(stats.dropped_frames, 0, "a grid-sized buffer cannot overrun");

        stats.repaired_samples = repaired_samples;
        stats.reordered_frames = counters.reordered;
        stats.duplicate_frames = counters.duplicates;
        stats.dropped_frames += counters.late;

        let deaths = health_events.iter().filter(|e| e.to == HealthState::Dead).count();
        counter!("ingest.repaired").add(repaired_samples as u64);
        counter!("ingest.reordered").add(counters.reordered as u64);
        counter!("ingest.duplicates").add(counters.duplicates as u64);
        counter!("ingest.dropped").add(stats.dropped_frames as u64);
        counter!("ingest.sensor.dead").add(deaths as u64);

        IngestOutcome { stream: stored, quality, stats, health_events, final_health }
    }

    fn run_health_machine(
        &self,
        quality: &mut QualityMask,
        n: usize,
        channels: usize,
    ) -> (Vec<HealthEvent>, Vec<HealthState>) {
        let mut states = vec![HealthState::Healthy; channels];
        let mut bad_streak = vec![0usize; channels];
        let mut good_streak = vec![0usize; channels];
        let mut events = Vec::new();

        for t in 0..n {
            for c in 0..channels {
                let bad = !quality.get(t, c).is_clean();
                if bad {
                    bad_streak[c] += 1;
                    good_streak[c] = 0;
                } else {
                    good_streak[c] += 1;
                    bad_streak[c] = 0;
                }
                let next = match states[c] {
                    HealthState::Healthy if bad_streak[c] >= SUSPECT_AFTER => HealthState::Suspect,
                    HealthState::Suspect if bad_streak[c] >= DEAD_AFTER => HealthState::Dead,
                    HealthState::Suspect if good_streak[c] >= RECOVER_AFTER => HealthState::Healthy,
                    HealthState::Dead if good_streak[c] >= RECOVER_AFTER => HealthState::Suspect,
                    s => s,
                };
                if next != states[c] {
                    events.push(HealthEvent { frame: t, channel: c, from: states[c], to: next });
                    states[c] = next;
                }
                if states[c] == HealthState::Dead && bad {
                    quality.set(t, c, SampleQuality::Dead);
                }
            }
        }
        (events, states)
    }
}

/// Spike detection: an isolated present sample deviating more than
/// [`SPIKE_JUMP`] from both its nearest present neighbors while those
/// neighbors agree with each other — the classic median-of-3 glitch shape.
fn detect_spikes(raw: &[Option<f64>]) -> Vec<usize> {
    let present: Vec<usize> = (0..raw.len()).filter(|&t| raw[t].is_some()).collect();
    let mut out = Vec::new();
    for w in present.windows(3) {
        let (p, t, q) = (w[0], w[1], w[2]);
        let (vp, v, vq) = (raw[p].unwrap(), raw[t].unwrap(), raw[q].unwrap());
        if (v - vp).abs() > SPIKE_JUMP
            && (v - vq).abs() > SPIKE_JUMP
            && (vp - vq).abs() <= SPIKE_JUMP
        {
            out.push(t);
        }
    }
    out
}

/// Stuck-at detection: maximal runs of exactly repeated present values of
/// length ≥ [`STUCK_AFTER`]; samples from the point the run qualifies
/// onward are flagged (so the flag lands within `STUCK_AFTER` samples of
/// onset). Missing samples are run-neutral: they neither extend nor reset
/// a run.
fn detect_stuck(raw: &[Option<f64>]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    let mut run_bits = 0u64;
    for (t, v) in raw.iter().enumerate() {
        let Some(v) = *v else { continue };
        if !run.is_empty() && v.to_bits() == run_bits {
            run.push(t);
            if run.len() >= STUCK_AFTER {
                out.push(t);
            }
        } else {
            run.clear();
            run.push(t);
            run_bits = v.to_bits();
        }
    }
    out
}

/// Gap filling per the repair policy. All-missing channels fill with 0.
fn fill_gaps(raw: &[Option<f64>], policy: RepairPolicy) -> Vec<f64> {
    let n = raw.len();
    let present: Vec<usize> = (0..n).filter(|&t| raw[t].is_some()).collect();
    if present.is_empty() {
        return vec![0.0; n];
    }
    let mut out = vec![0.0; n];
    for (k, &t) in present.iter().enumerate() {
        out[t] = raw[t].unwrap();
        // Fill the gap before this anchor.
        let prev = if k == 0 { None } else { Some(present[k - 1]) };
        let gap_start = prev.map_or(0, |p| p + 1);
        for g in gap_start..t {
            out[g] = match (policy, prev) {
                (_, None) => out[t], // leading gap: backfill
                (RepairPolicy::Hold, Some(p)) => out[p],
                (RepairPolicy::Interpolate, Some(p)) => {
                    let frac = (g - p) as f64 / (t - p) as f64;
                    out[p] + (out[t] - out[p]) * frac
                }
            };
        }
    }
    // Trailing gap: hold the last observation.
    let last = *present.last().unwrap();
    for g in last + 1..n {
        out[g] = out[last];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_sensors::faulty::{FaultySensorRig, SensorFaultPlan};

    fn smooth(frames: usize, channels: usize) -> MultiStream {
        let spec = StreamSpec::anonymous(channels, 100.0);
        let chans: Vec<Vec<f64>> = (0..channels)
            .map(|c| {
                (0..frames)
                    .map(|t| (t as f64 * 0.021 + c as f64 * 0.7).sin() * 12.0 + t as f64 * 1e-7)
                    .collect()
            })
            .collect();
        MultiStream::from_channels(spec, &chans)
    }

    fn wire_of(clean: &MultiStream) -> Vec<WireFrame> {
        FaultySensorRig::new(SensorFaultPlan::none(1)).transmit(clean)
    }

    #[test]
    fn zero_faults_pass_through_bit_identically() {
        let clean = smooth(300, 4);
        let wire = wire_of(&clean);
        let out = SupervisedIngest::default().ingest(clean.spec(), &wire);
        assert_eq!(out.stream.len(), clean.len());
        for t in 0..clean.len() {
            for c in 0..clean.channels() {
                assert_eq!(out.stream.value(t, c).to_bits(), clean.value(t, c).to_bits());
            }
        }
        assert!(out.quality.all_clean());
        assert_eq!(out.stats.repaired_samples, 0);
        assert_eq!(out.stats.reordered_frames, 0);
        assert_eq!(out.stats.duplicate_frames, 0);
        assert_eq!(out.stats.dropped_frames, 0);
        assert!(out.health_events.is_empty());
    }

    #[test]
    fn dropout_is_repaired_and_flagged() {
        let clean = smooth(400, 3);
        let rig = FaultySensorRig::new(SensorFaultPlan::dropout(17, 0.15));
        let out = SupervisedIngest::default().ingest(clean.spec(), &rig.transmit(&clean));
        assert_eq!(out.stream.len(), clean.len());
        assert!(out.stats.repaired_samples > 0);
        assert!(out.quality.count(SampleQuality::Repaired) > 0);
        // Interpolated repairs stay inside the local value envelope.
        for t in 1..clean.len() - 1 {
            for c in 0..3 {
                if out.quality.get(t, c) == SampleQuality::Repaired {
                    let v = out.stream.value(t, c);
                    assert!(v.abs() <= 13.0, "repair {v} escaped the signal envelope");
                }
            }
        }
    }

    #[test]
    fn reordering_and_duplicates_are_absorbed() {
        let clean = smooth(300, 2);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            reorder_rate: 0.2,
            reorder_span: 4,
            duplicate_rate: 0.1,
            ..SensorFaultPlan::none(23)
        });
        let out = SupervisedIngest::default().ingest(clean.spec(), &rig.transmit(&clean));
        assert!(out.stats.reordered_frames > 0);
        assert!(out.stats.duplicate_frames > 0);
        // Reordering within the window loses nothing: the grid is full and
        // every sample matches the clean stream bit-for-bit.
        assert_eq!(out.stream.len(), clean.len());
        for t in 0..clean.len() {
            for c in 0..2 {
                assert_eq!(out.stream.value(t, c).to_bits(), clean.value(t, c).to_bits());
            }
        }
        assert!(out.quality.all_clean());
    }

    #[test]
    fn dead_channel_goes_through_suspect_to_dead() {
        let clean = smooth(600, 4);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            dead_channel_fraction: 0.3,
            ..SensorFaultPlan::none(26)
        });
        let dead: Vec<usize> = (0..4).filter(|&c| rig.is_channel_dead(c)).collect();
        assert_eq!(dead, vec![2], "seed 26 kills exactly channel 2");
        let out = SupervisedIngest::default().ingest(clean.spec(), &rig.transmit(&clean));
        for &c in &dead {
            assert_eq!(out.final_health[c], HealthState::Dead, "channel {c}");
            let path: Vec<HealthState> =
                out.health_events.iter().filter(|e| e.channel == c).map(|e| e.to).collect();
            assert_eq!(path, vec![HealthState::Suspect, HealthState::Dead]);
            assert!(out.quality.count(SampleQuality::Dead) > 0);
        }
        for c in (0..4).filter(|c| !dead.contains(c)) {
            assert_eq!(out.final_health[c], HealthState::Healthy, "channel {c}");
        }
        assert_eq!(out.dead_channels(), dead);
    }

    #[test]
    fn stuck_and_spike_faults_are_flagged_suspect() {
        let clean = smooth(500, 2);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            stuck_rate: 0.004,
            stuck_frames: 15,
            spike_rate: 0.01,
            spike_amplitude: 90.0,
            ..SensorFaultPlan::none(7)
        });
        let out = SupervisedIngest::default().ingest(clean.spec(), &rig.transmit(&clean));
        assert!(out.quality.count(SampleQuality::Suspect) > 0);
        // Spikes were replaced: nothing in the stored stream strays far
        // from the clean signal envelope.
        for t in 0..out.stream.len() {
            for c in 0..2 {
                assert!(out.stream.value(t, c).abs() < 50.0);
            }
        }
    }

    #[test]
    fn suspect_channel_recovers_with_hysteresis() {
        // A hand-built wire: channel 0 drops 5 samples (→ Suspect), then
        // delivers clean forever (→ recovery after RECOVER_AFTER).
        let clean = smooth(100, 2);
        let mut wire = wire_of(&clean);
        for f in wire.iter_mut().take(25).skip(20) {
            f.values[0] = None;
        }
        let out = SupervisedIngest::default().ingest(clean.spec(), &wire);
        let path: Vec<(usize, HealthState)> =
            out.health_events.iter().filter(|e| e.channel == 0).map(|e| (e.frame, e.to)).collect();
        assert_eq!(path.len(), 2, "{path:?}");
        assert_eq!(path[0].1, HealthState::Suspect);
        assert_eq!(path[1].1, HealthState::Healthy);
        assert!(path[1].0 >= 25 + RECOVER_AFTER - 1, "recovery before hysteresis: {path:?}");
        assert_eq!(out.final_health[0], HealthState::Healthy);
    }

    #[test]
    fn reassembler_emits_strictly_increasing_sequences() {
        let clean = smooth(200, 2);
        let rig = FaultySensorRig::new(SensorFaultPlan {
            reorder_rate: 0.3,
            reorder_span: 5,
            duplicate_rate: 0.2,
            dropout_rate: 0.05,
            ..SensorFaultPlan::none(77)
        });
        let mut asm = Reassembler::new();
        let mut last: Option<u64> = None;
        let mut check = |emitted: Vec<EmittedSlot>| {
            for (seq, _) in emitted {
                if let Some(l) = last {
                    assert_eq!(seq, l + 1, "emission skipped or regressed");
                }
                last = Some(seq);
            }
        };
        for f in rig.transmit(&clean) {
            check(asm.push(&f));
        }
        check(asm.finish());
        assert_eq!(last, Some(199));
    }

    #[test]
    fn fill_gaps_policies() {
        let raw = vec![Some(0.0), None, None, None, Some(8.0), None];
        assert_eq!(fill_gaps(&raw, RepairPolicy::Hold), vec![0.0, 0.0, 0.0, 0.0, 8.0, 8.0]);
        assert_eq!(fill_gaps(&raw, RepairPolicy::Interpolate), vec![0.0, 2.0, 4.0, 6.0, 8.0, 8.0]);
        let leading = vec![None, None, Some(4.0)];
        assert_eq!(fill_gaps(&leading, RepairPolicy::Hold), vec![4.0, 4.0, 4.0]);
        assert_eq!(fill_gaps(&[None, None], RepairPolicy::Hold), vec![0.0, 0.0]);
    }
}
