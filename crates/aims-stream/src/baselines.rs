//! Sequence-similarity baselines (§3.4.2).
//!
//! The paper argues the alternatives fall short on 28-dimensional
//! aggregated streams: "Euclidean distance metric is not suitable for our
//! problem due to the effect of 'dimensionality curse' and the requirement
//! of identical length"; DFT \[1\] and DWT \[21\] similarity rotate each
//! sequence independently and "since our datasets are not correlated on
//! the sensor dimension at any given time, we do not expect DFT or DWT to
//! perform well". We implement all three honestly (with the standard
//! resample-to-common-length workaround for the length requirement) so
//! the comparison in the experiments is fair.

use aims_dsp::dwt::{dwt_full, next_pow2};
use aims_dsp::fft::fft_real;
use aims_dsp::filters::WaveletFilter;
use aims_sensors::types::MultiStream;

/// The similarity measures compared in the online experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimilarityMeasure {
    /// The paper's weighted-sum SVD.
    WeightedSvd,
    /// Euclidean distance on length-normalized flattened sequences.
    Euclidean,
    /// Distance between leading DFT magnitude coefficients per channel.
    Dft,
    /// Distance between leading DWT coefficients per channel.
    Dwt,
}

impl SimilarityMeasure {
    /// All baselines plus the paper's measure.
    pub const ALL: [SimilarityMeasure; 4] = [
        SimilarityMeasure::WeightedSvd,
        SimilarityMeasure::Euclidean,
        SimilarityMeasure::Dft,
        SimilarityMeasure::Dwt,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimilarityMeasure::WeightedSvd => "weighted-svd",
            SimilarityMeasure::Euclidean => "euclidean",
            SimilarityMeasure::Dft => "dft",
            SimilarityMeasure::Dwt => "dwt",
        }
    }

    /// Similarity in `[0, 1]` between two streams of the same channel
    /// count (any lengths).
    pub fn similarity(self, a: &MultiStream, b: &MultiStream) -> f64 {
        match self {
            SimilarityMeasure::WeightedSvd => {
                crate::similarity::weighted_svd_similarity(a, b, crate::similarity::DEFAULT_RANK)
            }
            SimilarityMeasure::Euclidean => euclidean_similarity(a, b),
            SimilarityMeasure::Dft => transform_similarity(a, b, TransformKind::Dft),
            SimilarityMeasure::Dwt => transform_similarity(a, b, TransformKind::Dwt),
        }
    }
}

/// Number of leading transform coefficients kept per channel.
const KEPT_COEFFS: usize = 8;
/// Common resample length for the length-sensitive baselines.
const RESAMPLE_LEN: usize = 64;

/// Linear resampling of one channel to a fixed length.
fn resample(channel: &[f64], len: usize) -> Vec<f64> {
    assert!(!channel.is_empty() && len > 0);
    if channel.len() == 1 {
        return vec![channel[0]; len];
    }
    (0..len)
        .map(|i| {
            let t = i as f64 * (channel.len() - 1) as f64 / (len - 1) as f64;
            let lo = t.floor() as usize;
            let hi = (lo + 1).min(channel.len() - 1);
            let frac = t - lo as f64;
            channel[lo] * (1.0 - frac) + channel[hi] * frac
        })
        .collect()
}

/// Distance → similarity squashing: `1 / (1 + d/scale)`.
fn squash(distance: f64, scale: f64) -> f64 {
    1.0 / (1.0 + distance / scale.max(1e-12))
}

fn euclidean_similarity(a: &MultiStream, b: &MultiStream) -> f64 {
    assert_eq!(a.channels(), b.channels(), "channel count mismatch");
    let mut dist_sq = 0.0;
    let mut scale_sq = 0.0;
    for c in 0..a.channels() {
        let ra = resample(&a.channel(c), RESAMPLE_LEN);
        let rb = resample(&b.channel(c), RESAMPLE_LEN);
        for (x, y) in ra.iter().zip(&rb) {
            dist_sq += (x - y) * (x - y);
            scale_sq += 0.5 * (x * x + y * y);
        }
    }
    squash(dist_sq.sqrt(), scale_sq.sqrt())
}

enum TransformKind {
    Dft,
    Dwt,
}

/// Per-channel feature vector: the leading transform coefficients of the
/// resampled channel.
fn channel_features(channel: &[f64], kind: &TransformKind) -> Vec<f64> {
    let r = resample(channel, next_pow2(RESAMPLE_LEN));
    match kind {
        TransformKind::Dft => fft_real(&r).into_iter().take(KEPT_COEFFS).map(|c| c.abs()).collect(),
        TransformKind::Dwt => {
            dwt_full(&r, &WaveletFilter::haar()).into_iter().take(KEPT_COEFFS).collect()
        }
    }
}

fn transform_similarity(a: &MultiStream, b: &MultiStream, kind: TransformKind) -> f64 {
    assert_eq!(a.channels(), b.channels(), "channel count mismatch");
    let mut dist_sq = 0.0;
    let mut scale_sq = 0.0;
    for c in 0..a.channels() {
        let fa = channel_features(&a.channel(c), &kind);
        let fb = channel_features(&b.channel(c), &kind);
        for (x, y) in fa.iter().zip(&fb) {
            dist_sq += (x - y) * (x - y);
            scale_sq += 0.5 * (x * x + y * y);
        }
    }
    squash(dist_sq.sqrt(), scale_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_sensors::types::StreamSpec;

    fn stream_of(channels: Vec<Vec<f64>>) -> MultiStream {
        let spec = StreamSpec::anonymous(channels.len(), 100.0);
        MultiStream::from_channels(spec, &channels)
    }

    #[test]
    fn identical_streams_score_near_one() {
        let s = stream_of(vec![
            (0..50).map(|i| (i as f64 * 0.2).sin()).collect(),
            (0..50).map(|i| (i as f64 * 0.1).cos()).collect(),
        ]);
        for m in SimilarityMeasure::ALL {
            let sim = m.similarity(&s, &s);
            assert!(sim > 0.95, "{}: {sim}", m.name());
        }
    }

    #[test]
    fn very_different_streams_score_lower() {
        // Two channels with opposite cross-channel structure, so even the
        // sensor-space (SVD) measure sees the difference — single-channel
        // streams are degenerate for it.
        let a = stream_of(vec![
            (0..60).map(|i| 10.0 + (i as f64 * 0.1).sin()).collect(),
            (0..60).map(|i| 10.0 + (i as f64 * 0.1).sin()).collect(),
        ]);
        let b = stream_of(vec![
            (0..60).map(|i| -10.0 + (i as f64 * 1.5).sin()).collect(),
            (0..60).map(|i| 10.0 - (i as f64 * 1.5).sin() * 3.0).collect(),
        ]);
        for m in SimilarityMeasure::ALL {
            let same = m.similarity(&a, &a);
            let diff = m.similarity(&a, &b);
            assert!(diff < same, "{}: diff {diff} !< same {same}", m.name());
        }
    }

    #[test]
    fn resample_endpoints_and_interior() {
        let r = resample(&[0.0, 1.0, 2.0, 3.0], 7);
        assert_eq!(r.len(), 7);
        assert_eq!(r[0], 0.0);
        assert_eq!(r[6], 3.0);
        assert!((r[3] - 1.5).abs() < 1e-12);
        // Constant input stays constant at any length.
        assert!(resample(&[5.0], 4).iter().all(|&x| x == 5.0));
    }

    #[test]
    fn length_invariance_of_baselines_via_resampling() {
        // Same waveform at two durations — the resampling workaround
        // should keep baseline similarity high.
        let long = stream_of(vec![(0..200).map(|i| (i as f64 * 0.05).sin()).collect()]);
        let short = stream_of(vec![(0..50).map(|i| (i as f64 * 0.2).sin()).collect()]);
        for m in SimilarityMeasure::ALL {
            let sim = m.similarity(&long, &short);
            assert!(sim > 0.6, "{}: {sim}", m.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            SimilarityMeasure::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
