//! # AIMS — An Immersidata Management System
//!
//! A from-scratch Rust reproduction of *"AIMS: An Immersidata Management
//! System"* (Cyrus Shahabi, CIDR 2003). AIMS manages **immersidata** — the
//! multidimensional, spatio-temporal, noisy, high-rate sensor streams
//! generated by a user's interactions with an immersive environment — via
//! four cooperating subsystems (Fig. 1 of the paper):
//!
//! 1. **Acquisition** ([`acquisition`]): Nyquist-driven sampling (Fixed /
//!    Modified-Fixed / Grouped / Adaptive), a multi-threaded
//!    double-buffered recorder, and per-dimension basis selection from the
//!    wavelet-packet library.
//! 2. **Storage** ([`storage`]): wavelet coefficients packed into disk
//!    blocks by optimal error-tree tiling, approaching the `1 + lg B`
//!    needed-items bound, with progressive importance-ordered retrieval.
//! 3. **Off-line query & analysis** ([`propolyne`]): exact, approximate
//!    and progressive polynomial range-sums (COUNT/SUM/AVERAGE/VARIANCE/
//!    COVARIANCE) evaluated entirely in the wavelet domain via the lazy
//!    wavelet transform, plus the hybrid standard/wavelet-basis engine and
//!    batch (group-by) evaluation.
//! 4. **Online query & analysis** ([`stream`]): real-time pattern
//!    isolation + recognition over aggregated sensor streams with the
//!    weighted-sum SVD similarity measure and its accumulation heuristic.
//! 5. **Serving** ([`service`]): a concurrent query service multiplexing
//!    many sessions over one ProPolyne store — admission control with
//!    priority classes and deadlines, shared-scan batching with a
//!    process-wide block cache, progressive delivery with cancellation,
//!    and a TCP front-end (`aims-serve`).
//!
//! Substrates: [`dsp`] (FFT, DWT/DWPT, ADPCM, Huffman), [`linalg`] (SVD,
//! eigen, incremental SVD), [`sensors`] (CyberGlove/Polhemus and Virtual
//! Classroom simulators), [`learn`] (SVM and baseline classifiers).
//!
//! Robustness: [`drill`] is the one drill library — seeded storage-fault,
//! ingest-fault, crash-recovery, tiered-ingest and composed chaos drills,
//! each `run(&Config) -> Report` with `violations()` and plain fields —
//! behind the `aims-cli` drill verbs, the experiments that own each
//! drill's claim and the matrix tests.
//!
//! ## Quickstart
//!
//! ```
//! use aims::{AimsConfig, AimsSystem};
//! use aims::sensors::glove::CyberGloveRig;
//! use aims::sensors::noise::NoiseSource;
//!
//! // Capture a two-second glove session and run it through the pipeline.
//! let rig = CyberGloveRig::default();
//! let mut noise = NoiseSource::seeded(7);
//! let session = rig.record_session(2.0, 0.6, &mut noise);
//!
//! let mut system = AimsSystem::new(AimsConfig::default());
//! let report = system.ingest(&session);
//! assert_eq!(report.channels, 28);
//!
//! // Offline: average of channel 0 over the first second, served from
//! // blocked wavelet storage.
//! let avg = system.channel_average(0, 0.0, 1.0).unwrap();
//! assert!(avg.is_finite());
//! ```

pub mod drill;

pub use aims_acquisition as acquisition;
pub use aims_dsp as dsp;
pub use aims_exec as exec;
pub use aims_learn as learn;
pub use aims_linalg as linalg;
pub use aims_propolyne as propolyne;
pub use aims_sensors as sensors;
pub use aims_service as service;
pub use aims_storage as storage;
pub use aims_stream as stream;
pub use aims_telemetry as telemetry;
pub use aims_tier as tier;

use aims_acquisition::sampling::{sample_stream, SamplingParams, Strategy};
use aims_dsp::dwt::next_pow2;
use aims_propolyne::cube::{AttributeSpace, DataCube};
use aims_propolyne::engine::Propolyne;
use aims_sensors::types::MultiStream;
use aims_storage::cache::SharedBlockCache;
use aims_storage::store::{AllocKind, WaveletStore};
use aims_stream::isolation::{IsolationConfig, StreamRecognizer};

/// System-wide configuration for the [`AimsSystem`] facade.
#[derive(Clone, Debug)]
pub struct AimsConfig {
    /// Sampling strategy applied at acquisition.
    pub sampling: Strategy,
    /// Sampling tuning.
    pub sampling_params: SamplingParams,
    /// Disk block size (coefficients per block, power of two).
    pub block_size: usize,
    /// Coefficient-to-block allocation.
    pub allocation: AllocKind,
    /// Capacity of each channel's block cache, in blocks.
    pub pool_blocks: usize,
}

impl Default for AimsConfig {
    fn default() -> Self {
        AimsConfig {
            sampling: Strategy::Adaptive,
            sampling_params: SamplingParams::default(),
            block_size: 16,
            allocation: AllocKind::TreeTiling,
            pool_blocks: 64,
        }
    }
}

/// Summary of one ingestion run.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Channels stored.
    pub channels: usize,
    /// Frames in the source stream.
    pub frames: usize,
    /// Bytes the sampling strategy would have acquired, at the device's
    /// native sample width (compare with
    /// [`MultiStream::device_size_bytes`]).
    pub sampled_bytes: usize,
    /// Relative RMS reconstruction error of the sampling stage.
    pub sampling_rmse: f64,
}

/// The integrated immersidata management system (Fig. 1): acquisition →
/// transform → blocked wavelet storage, with offline and online query
/// entry points.
pub struct AimsSystem {
    config: AimsConfig,
    /// Per-channel blocked wavelet stores (padded to a power of two).
    stores: Vec<WaveletStore>,
    /// One block cache per store: block ids are device-local, so a shared
    /// cache would alias blocks across channels.
    pools: Vec<SharedBlockCache>,
    /// Sample rate of the ingested stream.
    sample_rate: f64,
    /// Original (unpadded) frame count.
    frames: usize,
}

impl AimsSystem {
    /// Creates an empty system.
    pub fn new(config: AimsConfig) -> Self {
        AimsSystem { config, stores: Vec::new(), pools: Vec::new(), sample_rate: 0.0, frames: 0 }
    }

    /// Ingests a multi-sensor stream: applies the configured sampling
    /// strategy (measuring its bandwidth), transforms each channel with
    /// the Haar wavelet, and stores the coefficients in blocked form under
    /// the configured allocation.
    ///
    /// # Panics
    /// If the stream is empty.
    pub fn ingest(&mut self, stream: &MultiStream) -> IngestReport {
        let _span = aims_telemetry::span!("system.ingest");
        assert!(!stream.is_empty(), "cannot ingest an empty stream");
        aims_telemetry::counter!("system.ingest.frames").add(stream.len() as u64);
        let sampled = sample_stream(stream, self.config.sampling, &self.config.sampling_params);
        let rmse = sampled.relative_rmse(stream);

        self.sample_rate = stream.spec().sample_rate;
        self.frames = stream.len();
        self.stores = (0..stream.channels())
            .map(|c| {
                let mut signal = sampled.reconstructed.channel(c);
                // Pad by repeating the final value (not zeros: a zero step
                // would pollute the coarse coefficients of slow channels).
                let last = *signal.last().unwrap();
                signal.resize(next_pow2(signal.len()).max(2), last);
                WaveletStore::from_signal(&signal, self.config.block_size, self.config.allocation)
            })
            .collect();
        // Single owner per cache: one shard, the exact global LRU.
        self.pools = (0..stream.channels())
            .map(|_| SharedBlockCache::with_shards(self.config.pool_blocks, 1))
            .collect();

        IngestReport {
            channels: stream.channels(),
            frames: stream.len(),
            sampled_bytes: sampled.bytes,
            sampling_rmse: rmse,
        }
    }

    /// Number of stored channels.
    pub fn channels(&self) -> usize {
        self.stores.len()
    }

    /// Frames available for queries.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Reconstructs the value of one channel at a time point (seconds),
    /// reading only the error-tree path from storage.
    pub fn channel_value(&mut self, channel: usize, at_s: f64) -> Option<f64> {
        let _span = aims_telemetry::span!("system.query.point");
        let t = (at_s * self.sample_rate) as usize;
        if channel >= self.stores.len() || t >= self.frames {
            return None;
        }
        Some(self.stores[channel].point_value(t, &self.pools[channel]))
    }

    /// Range sum of one channel over `[from_s, to_s)` seconds.
    pub fn channel_range_sum(&mut self, channel: usize, from_s: f64, to_s: f64) -> Option<f64> {
        let _span = aims_telemetry::span!("system.query.range");
        if channel >= self.stores.len() || from_s >= to_s || self.frames == 0 {
            return None;
        }
        let a = (from_s * self.sample_rate) as usize;
        let b = (((to_s * self.sample_rate) as usize).saturating_sub(1)).min(self.frames - 1);
        if a > b {
            return None;
        }
        Some(self.stores[channel].range_sum(a, b, &self.pools[channel]))
    }

    /// Average of one channel over `[from_s, to_s)` seconds.
    pub fn channel_average(&mut self, channel: usize, from_s: f64, to_s: f64) -> Option<f64> {
        let a = (from_s * self.sample_rate) as usize;
        let b = (((to_s * self.sample_rate) as usize).saturating_sub(1))
            .min(self.frames.saturating_sub(1));
        let sum = self.channel_range_sum(channel, from_s, to_s)?;
        Some(sum / (b - a + 1) as f64)
    }

    /// Total device block reads since ingestion.
    pub fn total_block_reads(&self) -> u64 {
        self.stores.iter().map(|s| s.device_stats().reads).sum()
    }

    /// Builds an offline ProPolyne engine from a tuple relation (the
    /// ADHD-style analysis path, §2.1/§3.3).
    pub fn offline_engine(
        space: &AttributeSpace,
        tuples: impl IntoIterator<Item = Vec<f64>>,
        filter: &aims_dsp::filters::WaveletFilter,
    ) -> Propolyne {
        let cube = DataCube::from_tuples(space, tuples);
        Propolyne::new(cube.transform(filter))
    }

    /// Builds an online recognizer from labeled templates (the ASL path,
    /// §2.2/§3.4).
    pub fn online_recognizer(
        templates: &[(usize, MultiStream)],
        spec: aims_sensors::types::StreamSpec,
        config: IsolationConfig,
    ) -> StreamRecognizer {
        StreamRecognizer::new(templates, spec, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_sensors::glove::CyberGloveRig;
    use aims_sensors::noise::NoiseSource;

    fn ingested() -> (AimsSystem, MultiStream) {
        let rig = CyberGloveRig::default();
        let mut noise = NoiseSource::seeded(3);
        let session = rig.record_session(2.0, 0.5, &mut noise);
        let mut system = AimsSystem::new(AimsConfig::default());
        system.ingest(&session);
        (system, session)
    }

    #[test]
    fn ingest_reports_compression() {
        let rig = CyberGloveRig::default();
        let mut noise = NoiseSource::seeded(1);
        let session = rig.record_session(3.0, 0.3, &mut noise);
        let mut system = AimsSystem::new(AimsConfig::default());
        let report = system.ingest(&session);
        assert_eq!(report.channels, 28);
        assert_eq!(report.frames, 300);
        let raw = session.device_size_bytes();
        assert!(report.sampled_bytes < raw, "{} !< {raw}", report.sampled_bytes);
        assert!(report.sampling_rmse < 0.5);
        assert_eq!(system.channels(), 28);
    }

    #[test]
    fn point_queries_match_source_within_sampling_error() {
        let (mut system, session) = ingested();
        for &t in &[0.1_f64, 0.7, 1.5] {
            let frame = (t * 100.0) as usize;
            let v = system.channel_value(0, t).unwrap();
            let expect = session.value(frame, 0);
            assert!((v - expect).abs() < 6.0, "t={t}: {v} vs {expect}");
        }
        assert!(system.channel_value(99, 0.1).is_none());
        assert!(system.channel_value(0, 99.0).is_none());
    }

    #[test]
    fn averages_are_plausible() {
        let (mut system, session) = ingested();
        let avg = system.channel_average(2, 0.0, 2.0).unwrap();
        let direct: f64 = session.channel(2).iter().sum::<f64>() / 200.0;
        assert!((avg - direct).abs() < 3.0, "{avg} vs {direct}");
        assert!(system.channel_range_sum(0, 1.0, 1.0).is_none());
    }

    #[test]
    fn queries_cost_block_reads() {
        let (mut system, _) = ingested();
        let before = system.total_block_reads();
        system.channel_value(5, 0.5);
        let after = system.total_block_reads();
        assert!(after > before, "no I/O counted");
        // A point query touches at most ~log(n)/log(B)+1 blocks.
        assert!(after - before <= 8, "point query cost {} blocks", after - before);
    }
}
