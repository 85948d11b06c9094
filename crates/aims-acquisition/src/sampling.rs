//! The four immersidata sampling strategies of §3.1.
//!
//! All four start from per-sensor Nyquist-rate estimates
//! (`r = 2·f_max`, estimated by the spectral machinery in `aims-dsp`):
//!
//! - **Fixed** — one rate for the whole session and all sensors: the
//!   highest rate any sensor needs anywhere.
//! - **Modified-Fixed** — one rate for all sensors, re-estimated per time
//!   window, so quiet periods cost less.
//! - **Grouped** — sensors are clustered by their required rates and each
//!   cluster samples at its own (fixed) rate: "clustering similar sensors
//!   (in rates) and use a fix rate per cluster".
//! - **Adaptive** — per sensor *and* per window: "considers the immersive
//!   session information as well (within a sliding window) and samples
//!   according to the level of activity within the session window".
//!
//! A strategy turns a fully-sampled reference stream into a kept-sample
//! schedule; we account bandwidth at the device's native sample width
//! (plus a small per-window rate header where the schedule varies) and
//! measure fidelity
//! by reconstructing the full-rate stream with linear interpolation.

use aims_dsp::spectrum::{estimate_nyquist_rate, FmaxEstimator};
use aims_sensors::types::{MultiStream, DEVICE_SAMPLE_BYTES};
use aims_telemetry::{counter, gauge, global, span};

/// Which of the paper's four techniques to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One session-wide rate for every sensor.
    Fixed,
    /// One rate for every sensor, re-estimated per window.
    ModifiedFixed,
    /// One fixed rate per rate-cluster of sensors.
    Grouped,
    /// Per-sensor, per-window rates.
    Adaptive,
}

impl Strategy {
    /// All strategies in the paper's order.
    pub const ALL: [Strategy; 4] =
        [Strategy::Fixed, Strategy::ModifiedFixed, Strategy::Grouped, Strategy::Adaptive];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Fixed => "fixed",
            Strategy::ModifiedFixed => "modified-fixed",
            Strategy::Grouped => "grouped",
            Strategy::Adaptive => "adaptive",
        }
    }
}

/// Spectral confidence threshold for `f_max` (fraction of energy).
pub const CONFIDENCE: f64 = 0.95;
/// Analysis window length in seconds (Modified-Fixed / Adaptive).
pub const WINDOW_S: f64 = 2.0;
/// Number of rate clusters for Grouped.
pub const GROUPS: usize = 4;
/// Floor rate (Hz) so reconstruction always has anchor points.
pub const MIN_RATE: f64 = 2.0;
/// The `f_max` estimator. On short analysis windows the DFT estimator
/// inflates `f_max` whenever the window contains a transient (spectral
/// leakage makes broadband energy look like signal bandwidth), which
/// penalizes exactly the windowed strategies. The decimation-error search
/// ties the rate directly to a reconstruction-error budget and is robust
/// on transients.
pub const ESTIMATOR: FmaxEstimator = FmaxEstimator::MinSquareError;

/// Outcome of applying a strategy to a reference stream.
#[derive(Clone, Debug)]
pub struct SamplingResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// Total samples kept across sensors.
    pub kept_samples: usize,
    /// Bytes needed to ship/store the kept samples (at the device's
    /// native sample width) plus rate headers for time-varying schedules.
    pub bytes: usize,
    /// Full-rate reconstruction by per-channel linear interpolation.
    pub reconstructed: MultiStream,
}

impl SamplingResult {
    /// Average bandwidth in bytes per second of session time.
    pub fn bandwidth_bytes_per_s(&self, duration_s: f64) -> f64 {
        assert!(duration_s > 0.0);
        self.bytes as f64 / duration_s
    }

    /// Relative RMS reconstruction error against the reference stream.
    pub fn relative_rmse(&self, reference: &MultiStream) -> f64 {
        assert_eq!(reference.len(), self.reconstructed.len(), "length mismatch");
        let mut err = 0.0;
        let mut energy = 0.0;
        for c in 0..reference.channels() {
            let orig = reference.channel(c);
            let rec = self.reconstructed.channel(c);
            let mean = orig.iter().sum::<f64>() / orig.len().max(1) as f64;
            for (o, r) in orig.iter().zip(&rec) {
                err += (o - r) * (o - r);
                energy += (o - mean) * (o - mean);
            }
        }
        if energy <= 1e-300 {
            0.0
        } else {
            (err / energy).sqrt()
        }
    }
}

/// Per-sensor Nyquist rate estimate over one signal slice, floored and
/// capped to the physical rate.
fn required_rate(signal: &[f64], sample_rate: f64) -> f64 {
    let r = estimate_nyquist_rate(signal, sample_rate, ESTIMATOR, CONFIDENCE);
    // Keep a 25% guard band above Nyquist, as real systems do. A stream
    // slower than the floor keeps its own rate.
    (r * 1.25).max(MIN_RATE).min(sample_rate)
}

/// Keeps every `k`-th sample of a window so the local rate is ≥ `rate`.
/// Returns the kept (index, value) pairs relative to the window start.
fn decimate(signal: &[f64], native_rate: f64, rate: f64) -> Vec<(usize, f64)> {
    let k = ((native_rate / rate).floor() as usize).max(1);
    let mut kept: Vec<(usize, f64)> = signal.iter().copied().enumerate().step_by(k).collect();
    // Always keep the final sample so interpolation can close the window.
    if let Some(&(last_idx, _)) = kept.last() {
        if last_idx != signal.len() - 1 {
            kept.push((signal.len() - 1, signal[signal.len() - 1]));
        }
    }
    kept
}

/// Linear interpolation of kept samples back onto the native clock.
fn interpolate(kept: &[(usize, f64)], len: usize) -> Vec<f64> {
    assert!(!kept.is_empty(), "cannot interpolate from zero samples");
    let mut out = vec![0.0; len];
    let mut seg = 0;
    for (i, slot) in out.iter_mut().enumerate() {
        while seg + 1 < kept.len() && kept[seg + 1].0 <= i {
            seg += 1;
        }
        *slot = if seg + 1 < kept.len() && kept[seg].0 <= i {
            let (x0, y0) = kept[seg];
            let (x1, y1) = kept[seg + 1];
            if x1 == x0 {
                y0
            } else {
                y0 + (y1 - y0) * (i - x0) as f64 / (x1 - x0) as f64
            }
        } else {
            kept[seg.min(kept.len() - 1)].1
        };
    }
    out
}

/// Simple 1-D clustering of rates into at most `k` groups: sorts the rates
/// and greedily splits at the `k−1` largest gaps. Returns a group index
/// per sensor.
fn cluster_rates(rates: &[f64], k: usize) -> Vec<usize> {
    let n = rates.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rates[a].partial_cmp(&rates[b]).unwrap());
    // Gaps between consecutive sorted rates.
    let mut gaps: Vec<(f64, usize)> =
        (1..n).map(|i| (rates[order[i]] - rates[order[i - 1]], i)).collect();
    gaps.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut cuts: Vec<usize> = gaps.iter().take(k - 1).map(|&(_, i)| i).collect();
    cuts.sort_unstable();
    let mut groups = vec![0usize; n];
    let mut g = 0;
    for (pos, &idx) in order.iter().enumerate() {
        while g < cuts.len() && pos >= cuts[g] {
            g += 1;
        }
        groups[idx] = g;
    }
    groups
}

/// Size in bytes of one schedule header (a rate announcement).
const HEADER_BYTES: usize = 4;

/// Applies a sampling strategy to a reference stream.
///
/// ```
/// use aims_acquisition::sampling::{sample_stream, Strategy};
/// use aims_sensors::types::{MultiStream, StreamSpec};
///
/// // A slow 1 Hz tone oversampled at 100 Hz: adaptive sampling keeps a
/// // small fraction of the samples and reconstructs it accurately.
/// let tone: Vec<f64> = (0..800)
///     .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
///     .collect();
/// let stream = MultiStream::from_channels(StreamSpec::anonymous(1, 100.0), &[tone]);
/// let r = sample_stream(&stream, Strategy::Adaptive);
/// assert!(r.kept_samples < 400);
/// assert!(r.relative_rmse(&stream) < 0.1);
/// ```
///
/// The reference stream is assumed to be recorded at the device's native
/// rate; the strategy decides which samples would actually have been
/// acquired, and the result carries both the cost (bytes) and the fidelity
/// (via reconstruction).
///
/// # Panics
/// If the stream is empty.
pub fn sample_stream(reference: &MultiStream, strategy: Strategy) -> SamplingResult {
    assert!(!reference.is_empty(), "cannot sample an empty stream");
    let _span = span!("acquisition.sampling.sample_stream");
    let native = reference.spec().sample_rate;
    let len = reference.len();
    let channels = reference.channels();
    // At least 16 frames a window, but never more than the stream holds.
    let window = ((WINDOW_S * native) as usize).max(16).min(len);

    let channel_signals: Vec<Vec<f64>> = (0..channels).map(|c| reference.channel(c)).collect();

    let mut kept_per_channel: Vec<Vec<(usize, f64)>> = vec![Vec::new(); channels];
    let mut header_count = 0usize;

    match strategy {
        Strategy::Fixed => {
            // One rate: the max requirement over all sensors, whole session.
            let rate =
                channel_signals.iter().map(|s| required_rate(s, native)).fold(MIN_RATE, f64::max);
            header_count += 1;
            for (c, signal) in channel_signals.iter().enumerate() {
                kept_per_channel[c] = decimate(signal, native, rate);
            }
        }
        Strategy::ModifiedFixed => {
            // One rate for all sensors, per window.
            let mut start = 0;
            while start < len {
                let end = (start + window).min(len);
                let rate = channel_signals
                    .iter()
                    .map(|s| required_rate(&s[start..end], native))
                    .fold(MIN_RATE, f64::max);
                header_count += 1;
                for (c, signal) in channel_signals.iter().enumerate() {
                    for (i, v) in decimate(&signal[start..end], native, rate) {
                        kept_per_channel[c].push((start + i, v));
                    }
                }
                start = end;
            }
        }
        Strategy::Grouped => {
            // Cluster sensors by whole-session requirement; one fixed rate
            // per cluster (the cluster max).
            let rates: Vec<f64> =
                channel_signals.iter().map(|s| required_rate(s, native)).collect();
            let groups = cluster_rates(&rates, GROUPS);
            let n_groups = groups.iter().copied().max().unwrap_or(0) + 1;
            let mut group_rate = vec![MIN_RATE; n_groups];
            for (c, &g) in groups.iter().enumerate() {
                group_rate[g] = group_rate[g].max(rates[c]);
            }
            header_count += n_groups;
            for (c, signal) in channel_signals.iter().enumerate() {
                kept_per_channel[c] = decimate(signal, native, group_rate[groups[c]]);
            }
        }
        Strategy::Adaptive => {
            // Per sensor, per window.
            for (c, signal) in channel_signals.iter().enumerate() {
                let mut start = 0;
                while start < len {
                    let end = (start + window).min(len);
                    let rate = required_rate(&signal[start..end], native);
                    header_count += 1;
                    for (i, v) in decimate(&signal[start..end], native, rate) {
                        kept_per_channel[c].push((start + i, v));
                    }
                    start = end;
                }
            }
        }
    }

    // Deduplicate window-boundary repeats, rebuild reconstruction.
    let mut kept_samples = 0;
    let mut recon_channels = Vec::with_capacity(channels);
    for kept in &mut kept_per_channel {
        kept.sort_by_key(|&(i, _)| i);
        kept.dedup_by_key(|&mut (i, _)| i);
        kept_samples += kept.len();
        recon_channels.push(interpolate(kept, len));
    }

    // Telemetry: how much the strategy decided to keep vs. what a naive
    // full-rate acquisition would have shipped (the paper's bandwidth
    // claim), plus which strategy made the decision.
    let offered = len * channels;
    counter!("acquisition.sampling.runs").inc();
    global().counter(&format!("acquisition.sampling.strategy.{}", strategy.name())).inc();
    counter!("acquisition.sampling.frames_offered").add(offered as u64);
    counter!("acquisition.sampling.samples_kept").add(kept_samples as u64);
    counter!("acquisition.sampling.samples_saved").add(offered.saturating_sub(kept_samples) as u64);
    gauge!("acquisition.sampling.keep_ratio").set(kept_samples as f64 / offered as f64);

    SamplingResult {
        strategy,
        kept_samples,
        bytes: kept_samples * DEVICE_SAMPLE_BYTES + header_count * HEADER_BYTES,
        reconstructed: MultiStream::from_channels(reference.spec().clone(), &recon_channels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_sensors::types::StreamSpec;

    /// A 4-channel stream where channels need very different rates.
    fn mixed_stream(len: usize) -> MultiStream {
        let rate = 100.0;
        let spec = StreamSpec::anonymous(4, rate);
        let channels: Vec<Vec<f64>> = vec![
            (0..len).map(|i| (std::f64::consts::TAU * 0.5 * i as f64 / rate).sin()).collect(),
            (0..len).map(|i| (std::f64::consts::TAU * 2.0 * i as f64 / rate).sin()).collect(),
            (0..len).map(|i| (std::f64::consts::TAU * 10.0 * i as f64 / rate).sin()).collect(),
            vec![1.5; len],
        ];
        MultiStream::from_channels(spec, &channels)
    }

    #[test]
    fn all_strategies_reconstruct_accurately() {
        let s = mixed_stream(2000);
        for strat in Strategy::ALL {
            let r = sample_stream(&s, strat);
            // Linear interpolation at ~2.5 samples/cycle on the fastest
            // channel caps fidelity around 30–35% relative RMS; every
            // strategy must stay in that envelope.
            let err = r.relative_rmse(&s);
            assert!(err < 0.4, "{}: rmse {err}", strat.name());
            assert!(r.kept_samples > 0);
            assert_eq!(r.reconstructed.len(), s.len());
        }
    }

    #[test]
    fn adaptive_uses_least_bandwidth_on_heterogeneous_stream() {
        let s = mixed_stream(4000);
        let fixed = sample_stream(&s, Strategy::Fixed);
        let grouped = sample_stream(&s, Strategy::Grouped);
        let adaptive = sample_stream(&s, Strategy::Adaptive);
        assert!(grouped.bytes < fixed.bytes, "grouped {} !< fixed {}", grouped.bytes, fixed.bytes);
        assert!(
            adaptive.bytes < fixed.bytes,
            "adaptive {} !< fixed {}",
            adaptive.bytes,
            fixed.bytes
        );
    }

    #[test]
    fn fixed_rate_is_driven_by_fastest_sensor() {
        let s = mixed_stream(2000);
        let r = sample_stream(&s, Strategy::Fixed);
        // Fastest channel is 10 Hz → Nyquist 20 Hz (+guard) out of 100 Hz
        // native; with 4 channels and 20 s we expect roughly
        // 4 · 20 s · ≥20 Hz samples.
        let per_channel = r.kept_samples / 4;
        assert!(per_channel >= 400, "kept {per_channel} per channel");
        // And all channels keep the same count under Fixed.
    }

    #[test]
    fn constant_channel_is_cheap_under_adaptive() {
        let s = mixed_stream(2000);
        let r = sample_stream(&s, Strategy::Adaptive);
        // Reconstruct channel 3 (constant): error must be ~0 even with few
        // samples.
        let rec = r.reconstructed.channel(3);
        for v in rec {
            assert!((v - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn bursty_session_cheaper_than_uniform_under_modified_fixed() {
        // First half silent, second half busy.
        let rate = 100.0;
        let len = 4000;
        let spec = StreamSpec::anonymous(2, rate);
        let busy: Vec<f64> = (0..len)
            .map(|i| {
                if i < len / 2 {
                    0.0
                } else {
                    (std::f64::consts::TAU * 12.0 * i as f64 / rate).sin()
                }
            })
            .collect();
        let s = MultiStream::from_channels(spec, &[busy.clone(), busy]);
        let fixed = sample_stream(&s, Strategy::Fixed);
        let modified = sample_stream(&s, Strategy::ModifiedFixed);
        assert!(
            modified.bytes < fixed.bytes,
            "modified {} !< fixed {}",
            modified.bytes,
            fixed.bytes
        );
    }

    #[test]
    fn a_stream_slower_than_the_rate_floor_samples_under_every_strategy() {
        let (rate, len) = (1.0, 40);
        assert!(rate < MIN_RATE);
        let spec = StreamSpec::anonymous(2, rate);
        let ramp: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
        let wave: Vec<f64> = (0..len).map(|i| (i as f64 * 0.9).sin()).collect();
        let s = MultiStream::from_channels(spec, &[ramp, wave]);
        for strat in Strategy::ALL {
            let r = sample_stream(&s, strat);
            assert_eq!(r.reconstructed.len(), len, "{}", strat.name());
            assert!(r.kept_samples > 0 && r.kept_samples <= 2 * len, "{}", strat.name());
        }
    }

    #[test]
    fn cluster_rates_splits_on_gaps() {
        let rates = vec![2.0, 2.1, 50.0, 49.0, 10.0];
        let groups = cluster_rates(&rates, 3);
        assert_eq!(groups[0], groups[1]);
        assert_eq!(groups[2], groups[3]);
        assert_ne!(groups[0], groups[4]);
        assert_ne!(groups[2], groups[4]);
        // Single group when k = 1.
        assert!(cluster_rates(&rates, 1).iter().all(|&g| g == 0));
        assert!(cluster_rates(&[], 3).is_empty());
    }

    #[test]
    fn interpolate_recovers_line() {
        let kept = vec![(0usize, 0.0), (10usize, 10.0)];
        let out = interpolate(&kept, 11);
        for (i, v) in out.iter().enumerate() {
            assert!((v - i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn decimate_always_keeps_endpoints() {
        let signal: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let kept = decimate(&signal, 100.0, 15.0);
        assert_eq!(kept.first().unwrap().0, 0);
        assert_eq!(kept.last().unwrap().0, 16);
        // ~every 6th sample + endpoint.
        assert!(kept.len() <= 5, "{kept:?}");
    }

    #[test]
    fn bandwidth_accounting() {
        let s = mixed_stream(1000);
        let r = sample_stream(&s, Strategy::Fixed);
        assert_eq!(r.bytes, r.kept_samples * DEVICE_SAMPLE_BYTES + HEADER_BYTES);
        assert!((r.bandwidth_bytes_per_s(10.0) - r.bytes as f64 / 10.0).abs() < 1e-9);
    }
}
