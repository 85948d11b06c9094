//! Immersidata acquisition subsystem (paper §3.1).
//!
//! Acquiring immersidata means deciding *how fast to record each sensor*:
//! oversampling wastes "power consumption, storage space and bandwidth …
//! without providing any useful information", undersampling violates
//! Nyquist. The paper develops four sampling techniques — Fixed,
//! Modified-Fixed, Grouped and Adaptive — and reports that adaptive
//! sampling "requires far less bandwidth (and storage) as compared to the
//! other techniques", beating block compression (zip) with ADPCM adding
//! only marginal further improvement.
//!
//! - [`sampling`]: the four strategies, with bandwidth accounting and
//!   reconstruction-error measurement.
//! - [`recorder`] — the "simple multi-threaded double buffering approach"
//!   of §3.1 — one thread answers the sensor interrupt, a second
//!   asynchronously processes and stores.
//! - [`multibasis`]: per-dimension basis selection from the DWPT library
//!   (§3.1.1) — standard basis for low-cardinality dimensions, the best
//!   wavelet packet basis elsewhere.
//! - [`ingest`]: the supervised, fault-tolerant stage in front of the
//!   recorder — reordering, duplicate suppression, gap repair with
//!   per-sample quality flags and per-sensor health tracking, recorded
//!   through a buffer sized so no frame is dropped.

pub mod ingest;
pub mod multibasis;
pub mod recorder;
pub mod sampling;

pub use ingest::{
    HealthEvent, HealthState, IngestConfig, IngestOutcome, Reassembler, RepairPolicy,
    SupervisedIngest,
};
pub use multibasis::{select_bases, BasisChoice, TransformPlan};
pub use recorder::{DoubleBufferRecorder, RecorderConfig, RecordingStats};
pub use sampling::{sample_stream, SamplingResult, Strategy};
