//! Simultaneous pattern isolation and recognition over a continuous
//! stream — the paper's accumulation heuristic (§3.4).
//!
//! The chicken-and-egg problem: "in order to isolate p₁, it should be
//! recognized as a known pattern. However, p₁ must first be isolated in
//! order to be compared with a known set of patterns". The paper's
//! resolution comes from information theory: "the continuously arriving
//! data in a stream forms a process of accumulation in information about
//! the pattern sequence that is currently present in the stream. On the
//! other hand, the stream carries negative information about all the other
//! absent patterns."
//!
//! Implementation: a sliding window is periodically compared (weighted-sum
//! SVD) against every vocabulary member; each member accumulates its
//! similarity *advantage over the field mean* (present patterns gain,
//! absent ones lose and clamp at zero). A pattern is declared when its
//! accumulated evidence crosses the trigger, and closed when its
//! instantaneous advantage disappears — recognizing and isolating in one
//! pass, one look per sample, bounded memory.

use std::collections::VecDeque;

use aims_linalg::IncrementalSvd;
use aims_sensors::types::{MultiStream, QualityMask, SampleQuality};
use aims_telemetry::{counter, span};

use crate::engine::SlidingWindow;
use crate::signature::SvdSignature;

/// Recognizer tuning.
#[derive(Clone, Copy, Debug)]
pub struct IsolationConfig {
    /// Sliding-window length in frames.
    pub window_frames: usize,
    /// Frames between similarity evaluations.
    pub step_frames: usize,
    /// SVD directions retained per signature.
    pub rank: usize,
    /// Evidence margin subtracted each step (suppresses ambient drift).
    pub margin: f64,
    /// Accumulated evidence needed to declare a pattern.
    pub trigger: f64,
    /// Consecutive non-gaining steps that close an active pattern.
    pub release_steps: usize,
    /// Saturation ceiling for accumulated evidence. Without it, a label
    /// whose similarity sits persistently above the field mean (easy for
    /// the blended subspace of the incremental tracker, or for degraded
    /// input) accumulates without bound and can never be overtaken — one
    /// detection then swallows the whole stream. The cap bounds how far
    /// ahead the incumbent can get, so a genuinely present newcomer
    /// overtakes within a bounded number of steps.
    pub evidence_cap: f64,
    /// Maintain the window signature with an exponentially-forgetting
    /// incremental SVD instead of a batch SVD per evaluation — the
    /// lower-cost streaming mode of §3.4.1.
    pub incremental: bool,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig {
            window_frames: 40,
            step_frames: 5,
            rank: 5,
            margin: 0.01,
            trigger: 0.05,
            release_steps: 3,
            evidence_cap: 2.5,
            incremental: false,
        }
    }
}

/// One recognized-and-isolated pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectedPattern {
    /// Vocabulary label.
    pub label: usize,
    /// First stream frame attributed to the pattern.
    pub start: usize,
    /// One past the last attributed frame.
    pub end: usize,
    /// Peak accumulated evidence.
    pub peak_evidence: f64,
    /// Input-quality discount in `[0, 1]`: 1 when every frame the pattern
    /// was recognized from was clean, lower when channels were masked dead
    /// or samples were repaired/suspect (the minimum window confidence over
    /// the pattern's active span).
    pub confidence: f64,
}

enum State {
    Idle,
    Active { label: usize, start: usize, peak: f64, stall: usize, min_conf: f64 },
}

/// The streaming recognizer.
pub struct StreamRecognizer {
    config: IsolationConfig,
    templates: Vec<(usize, SvdSignature)>,
    num_labels: usize,
    window: SlidingWindow,
    evidence: Vec<f64>,
    /// Stream position where each label's evidence last sat at zero.
    rise_start: Vec<usize>,
    state: State,
    frames_since_eval: usize,
    /// End frame of the last emitted pattern (detections never overlap it).
    last_emit_end: usize,
    /// Exponentially-forgetting tracker for the incremental mode.
    tracker: Option<IncrementalSvd>,
    /// Per-frame decay of the tracker, matched to the window length.
    tracker_decay: f64,
    /// Quality flags of the frames currently in the window.
    quality_window: VecDeque<Vec<SampleQuality>>,
    /// Per-channel count of `Dead` flags in the quality window.
    dead_counts: Vec<usize>,
    /// Per-channel count of non-clean flags in the quality window.
    impaired_counts: Vec<usize>,
    /// Window confidence as of the latest evaluation.
    last_conf: f64,
}

impl StreamRecognizer {
    /// Builds a recognizer from labeled template recordings.
    ///
    /// # Panics
    /// If no templates are given or channel counts disagree.
    pub fn new(
        templates: &[(usize, MultiStream)],
        spec: aims_sensors::types::StreamSpec,
        config: IsolationConfig,
    ) -> Self {
        assert!(!templates.is_empty(), "need at least one template");
        let mut sigs = Vec::with_capacity(templates.len());
        let mut num_labels = 0;
        for (label, stream) in templates {
            assert_eq!(stream.channels(), spec.channels(), "template channel mismatch");
            num_labels = num_labels.max(label + 1);
            sigs.push((*label, SvdSignature::from_matrix(&stream.to_sensor_matrix(), config.rank)));
        }
        let channels = spec.channels();
        let tracker = if config.incremental {
            Some(IncrementalSvd::new(channels, config.rank + 6))
        } else {
            None
        };
        // Energy contribution of a frame k steps old scales by decay^{2k}.
        // Forgetting twice as fast as the hard window keeps stale pattern
        // directions from lingering across segment boundaries (they decay
        // below the noise floor within half a window).
        let tracker_decay = (1.0 - 2.0 / config.window_frames as f64).sqrt();
        StreamRecognizer {
            window: SlidingWindow::new(spec, config.window_frames),
            evidence: vec![0.0; num_labels],
            rise_start: vec![0; num_labels],
            state: State::Idle,
            frames_since_eval: 0,
            last_emit_end: 0,
            tracker,
            tracker_decay,
            quality_window: VecDeque::with_capacity(config.window_frames),
            dead_counts: vec![0; channels],
            impaired_counts: vec![0; channels],
            last_conf: 1.0,
            templates: sigs,
            num_labels,
            config,
        }
    }

    /// Number of vocabulary labels.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Ingests one clean frame; returns a pattern when one closes at this
    /// frame.
    pub fn push_frame(&mut self, frame: &[f64]) -> Option<DetectedPattern> {
        self.push_inner(frame, None)
    }

    /// Ingests one quality-flagged frame (one flag per channel, as produced
    /// by the supervised ingest). Channels with a sustained run of
    /// [`SampleQuality::Dead`] flags are masked out of the similarity
    /// comparison; repaired or suspect samples discount the detection's
    /// [`DetectedPattern::confidence`].
    pub fn push_frame_flagged(
        &mut self,
        frame: &[f64],
        flags: &[SampleQuality],
    ) -> Option<DetectedPattern> {
        assert_eq!(flags.len(), frame.len(), "one quality flag per channel");
        self.push_inner(frame, Some(flags))
    }

    fn push_inner(
        &mut self,
        frame: &[f64],
        flags: Option<&[SampleQuality]>,
    ) -> Option<DetectedPattern> {
        self.window.push(frame);
        if self.quality_window.len() == self.config.window_frames {
            if let Some(old) = self.quality_window.pop_front() {
                for (c, q) in old.iter().enumerate() {
                    if *q == SampleQuality::Dead {
                        self.dead_counts[c] -= 1;
                    }
                    if !q.is_clean() {
                        self.impaired_counts[c] -= 1;
                    }
                }
            }
        }
        let row: Vec<SampleQuality> =
            flags.map_or_else(|| vec![SampleQuality::Clean; frame.len()], <[_]>::to_vec);
        for (c, q) in row.iter().enumerate() {
            if *q == SampleQuality::Dead {
                self.dead_counts[c] += 1;
            }
            if !q.is_clean() {
                self.impaired_counts[c] += 1;
            }
        }
        self.quality_window.push_back(row);

        if let Some(tracker) = &mut self.tracker {
            tracker.decay(self.tracker_decay);
            let col: aims_linalg::Vector = frame.iter().copied().collect();
            tracker.append_column(&col);
        }
        self.frames_since_eval += 1;
        if !self.window.is_full() || self.frames_since_eval < self.config.step_frames {
            return None;
        }
        self.frames_since_eval = 0;
        self.evaluate()
    }

    /// Flushes any still-active pattern at end of stream.
    pub fn finish(&mut self) -> Option<DetectedPattern> {
        let result = match &self.state {
            State::Active { label, start, peak, min_conf, .. } => Some(DetectedPattern {
                label: *label,
                start: *start,
                end: self.window.position(),
                peak_evidence: *peak,
                confidence: *min_conf,
            }),
            State::Idle => None,
        };
        self.state = State::Idle;
        self.evidence.iter_mut().for_each(|e| *e = 0.0);
        result
    }

    /// Convenience: run a whole stream through (one frame at a time) and
    /// collect every detected pattern.
    pub fn process_stream(&mut self, stream: &MultiStream) -> Vec<DetectedPattern> {
        let mut out = Vec::new();
        for t in 0..stream.len() {
            if let Some(p) = self.push_frame(stream.frame(t)) {
                out.push(p);
            }
        }
        if let Some(p) = self.finish() {
            out.push(p);
        }
        out
    }

    /// Like [`Self::process_stream`], but with per-sample quality flags
    /// from the supervised ingest driving channel masking and confidence
    /// discounting.
    pub fn process_stream_flagged(
        &mut self,
        stream: &MultiStream,
        quality: &QualityMask,
    ) -> Vec<DetectedPattern> {
        assert_eq!(quality.len(), stream.len(), "quality mask length mismatch");
        assert_eq!(quality.channels(), stream.channels(), "quality mask width mismatch");
        let mut out = Vec::new();
        for t in 0..stream.len() {
            if let Some(p) = self.push_frame_flagged(stream.frame(t), quality.frame(t)) {
                out.push(p);
            }
        }
        if let Some(p) = self.finish() {
            out.push(p);
        }
        out
    }

    fn evaluate(&mut self) -> Option<DetectedPattern> {
        let _span = span!("stream.isolation.evaluate");
        counter!("stream.isolation.evaluations").inc();
        let sig = match &self.tracker {
            Some(tracker) => SvdSignature::from_incremental(tracker, self.config.rank),
            None => SvdSignature::from_matrix(&self.window.to_matrix(), self.config.rank),
        };
        // Channels dead for at least half the window are masked out of the
        // comparison; the rest of the flags discount confidence.
        let wlen = self.quality_window.len().max(1);
        let live: Vec<bool> = self.dead_counts.iter().map(|&d| 2 * d < wlen).collect();
        let masked = live.iter().filter(|&&l| !l).count();
        if masked > 0 {
            counter!("stream.masked_channels").add(masked as u64);
        }
        let live_count = live.len() - masked;
        let impaired: usize =
            self.impaired_counts.iter().zip(&live).filter(|(_, &l)| l).map(|(i, _)| *i).sum();
        let impaired_frac =
            if live_count == 0 { 1.0 } else { impaired as f64 / (wlen * live_count) as f64 };
        let masked_frac = masked as f64 / live.len().max(1) as f64;
        self.last_conf = (1.0 - 0.5 * masked_frac - 0.5 * impaired_frac).clamp(0.0, 1.0);

        // Per-label best template similarity.
        let mut sims = vec![f64::NEG_INFINITY; self.num_labels];
        for (label, template) in &self.templates {
            let s = if masked == 0 {
                template.similarity(&sig)
            } else {
                template.masked_similarity(&sig, &live)
            };
            if s > sims[*label] {
                sims[*label] = s;
            }
        }
        let mean = sims.iter().sum::<f64>() / sims.len() as f64;
        let position = self.window.position();

        // Accumulate advantage over the field; absent patterns decay to 0,
        // present ones saturate at the cap.
        for (l, e) in self.evidence.iter_mut().enumerate() {
            let gain = sims[l] - mean - self.config.margin;
            let was_zero = *e <= 0.0;
            *e = (*e + gain).max(0.0).min(self.config.evidence_cap);
            if was_zero && *e > 0.0 {
                // Evidence starts rising: the pattern plausibly began when
                // the window started covering it.
                self.rise_start[l] = self.window.start_position();
            }
        }

        match &mut self.state {
            State::Idle => {
                let (best, &best_e) = self
                    .evidence
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .expect("non-empty evidence");
                if best_e >= self.config.trigger {
                    counter!("stream.isolation.accumulation.triggers").inc();
                    self.state = State::Active {
                        label: best,
                        start: self.rise_start[best].max(self.last_emit_end),
                        peak: best_e,
                        stall: 0,
                        min_conf: self.last_conf,
                    };
                }
                None
            }
            State::Active { label, start, peak, stall, min_conf } => {
                *min_conf = min_conf.min(self.last_conf);
                let l = *label;
                let e = self.evidence[l];
                if e > *peak {
                    *peak = e;
                    *stall = 0;
                } else {
                    *stall += 1;
                }
                // Another pattern accumulating more evidence means the
                // stream has moved on — hand over immediately. A challenger
                // that has itself saturated at the cap counts even though it
                // cannot strictly exceed the capped incumbent.
                let overtaken = self.evidence.iter().enumerate().any(|(other, &oe)| {
                    other != l
                        && (oe > e.max(self.config.trigger) || oe >= self.config.evidence_cap)
                });
                // Close when the pattern stops gaining evidence (its
                // instantaneous advantage is gone) for several steps, when
                // its evidence collapsed, or on takeover.
                let advantage_gone = sims[l] <= mean + self.config.margin;
                if (*stall >= self.config.release_steps && advantage_gone) || e <= 0.0 || overtaken
                {
                    // On takeover the active pattern actually ended about a
                    // window ago (the window now covers the newcomer).
                    let end = if overtaken {
                        position.saturating_sub(self.config.window_frames / 2).max(*start + 1)
                    } else {
                        position
                    };
                    let detected = DetectedPattern {
                        label: l,
                        start: *start,
                        end,
                        peak_evidence: *peak,
                        confidence: *min_conf,
                    };
                    counter!("stream.isolation.patterns_detected").inc();
                    if overtaken {
                        counter!("stream.isolation.accumulation.takeovers").inc();
                    }
                    self.last_emit_end = end;
                    self.state = State::Idle;
                    if !overtaken {
                        // Normal close: clear the field so the next pattern
                        // accumulates from scratch. On takeover the
                        // newcomer's evidence is the signal — keep it.
                        self.evidence.iter_mut().for_each(|x| *x = 0.0);
                    } else {
                        self.evidence[l] = 0.0;
                    }
                    return Some(detected);
                }
                None
            }
        }
    }
}

/// Segmentation + recognition quality of a detection run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IsolationReport {
    /// Detections matching a truth segment / all detections.
    pub precision: f64,
    /// Truth segments matched / all truth segments.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
    /// Among matched pairs, fraction with the correct label.
    pub label_accuracy: f64,
}

/// Matches detections to ground-truth segments `(label, start, end)` by
/// temporal overlap (≥ `min_overlap` of the truth segment), greedily in
/// stream order, and scores the run.
pub fn evaluate_isolation(
    detections: &[DetectedPattern],
    truth: &[(usize, usize, usize)],
    min_overlap: f64,
) -> IsolationReport {
    let mut truth_matched = vec![false; truth.len()];
    let mut det_matched = vec![false; detections.len()];
    let mut correct_labels = 0usize;
    let mut matched_pairs = 0usize;

    for (di, d) in detections.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for (ti, &(_, ts, te)) in truth.iter().enumerate() {
            if truth_matched[ti] {
                continue;
            }
            let overlap = d.end.min(te).saturating_sub(d.start.max(ts)) as f64;
            let frac = overlap / (te - ts).max(1) as f64;
            if frac >= min_overlap && best.is_none_or(|(_, b)| frac > b) {
                best = Some((ti, frac));
            }
        }
        if let Some((ti, _)) = best {
            truth_matched[ti] = true;
            det_matched[di] = true;
            matched_pairs += 1;
            if truth[ti].0 == d.label {
                correct_labels += 1;
            }
        }
    }

    let precision = if detections.is_empty() {
        1.0
    } else {
        det_matched.iter().filter(|&&m| m).count() as f64 / detections.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        truth_matched.iter().filter(|&&m| m).count() as f64 / truth.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    let label_accuracy =
        if matched_pairs == 0 { 0.0 } else { correct_labels as f64 / matched_pairs as f64 };
    IsolationReport { precision, recall, f1, label_accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_sensors::asl::AslVocabulary;
    use aims_sensors::glove::CyberGloveRig;
    use aims_sensors::noise::NoiseSource;

    fn build_recognizer(vocab: &AslVocabulary, seed: u64) -> StreamRecognizer {
        let mut noise = NoiseSource::seeded(seed);
        let templates: Vec<(usize, _)> = (0..vocab.len())
            .flat_map(|l| {
                let a = vocab.instance(l, &mut noise).stream;
                let b = vocab.instance(l, &mut noise).stream;
                vec![(l, a), (l, b)]
            })
            .collect();
        StreamRecognizer::new(&templates, vocab.rig.spec(), IsolationConfig::default())
    }

    #[test]
    fn recognizes_sentence_of_separated_signs() {
        let vocab = AslVocabulary::synthetic(8, 21, CyberGloveRig::default());
        let mut recognizer = build_recognizer(&vocab, 5);
        let mut noise = NoiseSource::seeded(77);
        let labels = vec![0usize, 3, 6, 1, 7, 4];
        let (stream, truth) = vocab.sentence(&labels, &mut noise);
        let detections = recognizer.process_stream(&stream);
        let truth_tuples: Vec<(usize, usize, usize)> =
            truth.iter().map(|t| (t.label, t.start, t.end)).collect();
        let report = evaluate_isolation(&detections, &truth_tuples, 0.3);
        assert!(report.f1 > 0.6, "f1 {:?} detections {:?}", report, detections.len());
        assert!(report.label_accuracy > 0.7, "{report:?}");
    }

    #[test]
    fn silent_stream_detects_nothing() {
        let vocab = AslVocabulary::synthetic(4, 3, CyberGloveRig::default());
        let mut recognizer = build_recognizer(&vocab, 9);
        // A stream of pure neutral pose + noise, no sign performed…
        let mut noise = NoiseSource::seeded(4);
        let rig = CyberGloveRig::default();
        let neutral = rig.record_motion(
            &aims_sensors::glove::HandShape::neutral(),
            &aims_sensors::glove::HandShape::neutral(),
            &aims_sensors::glove::WristMotion::still(),
            400,
            &mut noise,
        );
        let detections = recognizer.process_stream(&neutral);
        // …should produce at most a spurious detection or two, not a
        // detection per window.
        assert!(detections.len() <= 2, "{} spurious detections", detections.len());
    }

    #[test]
    fn detections_are_ordered_and_disjointish() {
        let vocab = AslVocabulary::synthetic(6, 13, CyberGloveRig::default());
        let mut recognizer = build_recognizer(&vocab, 2);
        let mut noise = NoiseSource::seeded(31);
        let (stream, _) = vocab.sentence(&[2, 5, 0, 3], &mut noise);
        let detections = recognizer.process_stream(&stream);
        for w in detections.windows(2) {
            assert!(w[0].end <= w[1].start + 5, "overlapping detections: {w:?}");
        }
        for d in &detections {
            assert!(d.start < d.end);
            assert!(d.end <= stream.len());
            assert!(d.peak_evidence > 0.0);
        }
    }

    #[test]
    fn evaluate_isolation_scoring() {
        let truth = vec![(0usize, 0usize, 100usize), (1, 150, 250)];
        let perfect = vec![
            DetectedPattern { label: 0, start: 5, end: 95, peak_evidence: 1.0, confidence: 1.0 },
            DetectedPattern { label: 1, start: 155, end: 245, peak_evidence: 1.0, confidence: 1.0 },
        ];
        let r = evaluate_isolation(&perfect, &truth, 0.5);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.f1, 1.0);
        assert_eq!(r.label_accuracy, 1.0);

        let wrong_label = vec![DetectedPattern {
            label: 1,
            start: 0,
            end: 100,
            peak_evidence: 1.0,
            confidence: 1.0,
        }];
        let r2 = evaluate_isolation(&wrong_label, &truth, 0.5);
        assert_eq!(r2.recall, 0.5);
        assert_eq!(r2.label_accuracy, 0.0);

        let none = evaluate_isolation(&[], &truth, 0.5);
        assert_eq!(none.precision, 1.0);
        assert_eq!(none.recall, 0.0);
        assert_eq!(none.f1, 0.0);
    }

    #[test]
    fn clean_input_has_full_confidence() {
        let vocab = AslVocabulary::synthetic(6, 13, CyberGloveRig::default());
        let mut recognizer = build_recognizer(&vocab, 2);
        let mut noise = NoiseSource::seeded(31);
        let (stream, _) = vocab.sentence(&[2, 5, 0, 3], &mut noise);
        let detections = recognizer.process_stream(&stream);
        assert!(!detections.is_empty());
        for d in &detections {
            assert_eq!(d.confidence, 1.0, "clean input must not be discounted: {d:?}");
        }
    }

    #[test]
    fn repaired_flags_discount_confidence_without_changing_detections() {
        let vocab = AslVocabulary::synthetic(6, 13, CyberGloveRig::default());
        let mut noise = NoiseSource::seeded(31);
        let (stream, _) = vocab.sentence(&[2, 5, 0, 3], &mut noise);
        // Same samples, but channel 3 flagged entirely Repaired: no channel
        // is masked, so the similarity floats are untouched — identical
        // detection geometry, discounted confidence.
        let mut quality = QualityMask::clean(stream.len(), stream.channels());
        for t in 0..stream.len() {
            quality.set(t, 3, SampleQuality::Repaired);
        }
        let clean = build_recognizer(&vocab, 2).process_stream(&stream);
        let flagged = build_recognizer(&vocab, 2).process_stream_flagged(&stream, &quality);
        assert_eq!(clean.len(), flagged.len());
        for (c, f) in clean.iter().zip(&flagged) {
            assert_eq!((c.label, c.start, c.end), (f.label, f.start, f.end));
            assert!(f.confidence < 1.0, "repaired input must be discounted: {f:?}");
            assert!(f.confidence > 0.9, "one channel of 28 is a mild discount: {f:?}");
        }
    }

    #[test]
    fn dead_channel_is_masked_and_recognition_survives() {
        let vocab = AslVocabulary::synthetic(6, 13, CyberGloveRig::default());
        let mut noise = NoiseSource::seeded(31);
        let (stream, truth) = vocab.sentence(&[2, 5, 0, 3], &mut noise);
        let truth_tuples: Vec<(usize, usize, usize)> =
            truth.iter().map(|t| (t.label, t.start, t.end)).collect();
        // Channel 4 flatlines (a dead sensor) and is flagged Dead
        // throughout.
        let channels = stream.channels();
        let mut broken_ch: Vec<Vec<f64>> = (0..channels).map(|c| stream.channel(c)).collect();
        broken_ch[4] = vec![0.0; stream.len()];
        let broken = MultiStream::from_channels(stream.spec().clone(), &broken_ch);
        let mut quality = QualityMask::clean(stream.len(), channels);
        for t in 0..stream.len() {
            quality.set(t, 4, SampleQuality::Dead);
        }
        let clean_report = evaluate_isolation(
            &build_recognizer(&vocab, 2).process_stream(&stream),
            &truth_tuples,
            0.3,
        );
        let degraded = build_recognizer(&vocab, 2).process_stream_flagged(&broken, &quality);
        let degraded_report = evaluate_isolation(&degraded, &truth_tuples, 0.3);
        // Losing 1 of 28 sensors costs at most one truth segment here.
        assert!(
            degraded_report.recall >= clean_report.recall - 0.26,
            "degraded {degraded_report:?} vs clean {clean_report:?}"
        );
        for d in &degraded {
            assert!(d.confidence < 1.0, "masked input must be discounted: {d:?}");
        }
    }

    #[test]
    fn push_frame_is_single_pass_and_bounded() {
        let vocab = AslVocabulary::synthetic(4, 17, CyberGloveRig::default());
        let mut recognizer = build_recognizer(&vocab, 3);
        let mut noise = NoiseSource::seeded(8);
        let (stream, _) = vocab.sentence(&[1, 2], &mut noise);
        // Frame-at-a-time ingestion works without access to the past
        // stream.
        let mut count = 0;
        for t in 0..stream.len() {
            if recognizer.push_frame(stream.frame(t)).is_some() {
                count += 1;
            }
        }
        let _ = recognizer.finish();
        assert!(count <= 4);
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use aims_sensors::asl::AslVocabulary;
    use aims_sensors::glove::CyberGloveRig;
    use aims_sensors::noise::NoiseSource;

    #[test]
    fn incremental_mode_matches_batch_quality() {
        // A well-separated vocabulary keeps both modes away from their
        // trigger thresholds' knife edge: with the default 60.0 separation
        // this test was flaky, because the absolute F1 of the incremental
        // mode wobbled with float summation order (which changes with
        // AIMS_THREADS) around the old 0.35 floor.
        let vocab =
            AslVocabulary::synthetic_with_separation(6, 11, CyberGloveRig::default(), 110.0);
        let mut train = NoiseSource::seeded(2);
        let templates: Vec<(usize, _)> = (0..vocab.len())
            .flat_map(|l| (0..2).map(move |_| l))
            .map(|l| (l, vocab.instance(l, &mut train).stream))
            .collect();
        let mut stream_noise = NoiseSource::seeded(9);
        let labels = vec![0usize, 3, 5, 1, 4, 2, 0, 5];
        let (stream, truth) = vocab.sentence(&labels, &mut stream_noise);
        let truth_tuples: Vec<(usize, usize, usize)> =
            truth.iter().map(|t| (t.label, t.start, t.end)).collect();

        let run = |incremental: bool| {
            let config = IsolationConfig { incremental, ..Default::default() };
            let mut rec = StreamRecognizer::new(&templates, vocab.rig.spec(), config);
            let detections = rec.process_stream(&stream);
            evaluate_isolation(&detections, &truth_tuples, 0.3)
        };
        let batch = run(false);
        let incremental = run(true);
        // What this pins is *parity*: the exponentially-forgetting subspace
        // trades some recognition quality for ~5x less CPU, so it may trail
        // the hard-window batch mode — but only within a bounded band, and
        // both modes must actually find patterns.
        assert!(batch.recall > 0.0, "batch mode found nothing: {batch:?}");
        assert!(incremental.recall > 0.0, "incremental mode found nothing: {incremental:?}");
        assert!(
            (batch.f1 - incremental.f1).abs() <= 0.35,
            "modes diverged beyond the parity band: batch {batch:?} vs incremental {incremental:?}"
        );
    }
}
