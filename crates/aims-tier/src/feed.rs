//! Acquisition → hot tier wiring.
//!
//! The recorder and supervised-ingest pipelines end in a [`MultiStream`];
//! the hot tier wants a dense run of samples at their *source* positions
//! so segment offsets stay aligned with acquisition time. The feed places
//! each stored frame at its `record_with` source index, zero-filling the
//! holes left by dropped frames (counted, never silently skipped), and
//! appends through [`TieredStore::push_slice`] — every fed sample rides
//! the hot device's WAL.

use aims_acquisition::ingest::IngestOutcome;
use aims_acquisition::recorder::{DoubleBufferRecorder, QueuePolicy, RecordingStats};
use aims_sensors::types::MultiStream;
use aims_telemetry::counter;

use crate::store::{TierMedia, TieredStore};

/// What a feed pass delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeedReport {
    /// Samples appended to the hot tier (frames + zero-filled holes).
    pub samples: usize,
    /// Holes zero-filled where the recorder dropped frames.
    pub holes: usize,
}

/// Feeds one channel of a recorded stream into the hot tier using the
/// stored-frame indices from
/// [`DoubleBufferRecorder::record_with`]: frame `indices[k]` lands at
/// source position `indices[k]`, dropped positions in `0..source_len`
/// become zero-filled holes.
pub fn feed_recording<D: TierMedia>(
    store: &TieredStore<D>,
    stream: &MultiStream,
    indices: &[usize],
    source_len: usize,
    channel: usize,
) -> FeedReport {
    let mut values = vec![0.0; source_len];
    let mut holes = source_len;
    for (k, &idx) in indices.iter().enumerate() {
        values[idx] = stream.frame(k)[channel];
        holes -= 1;
    }
    store.push_slice(&values);
    counter!("tier.feed.holes").add(holes as u64);
    FeedReport { samples: source_len, holes }
}

/// Streams one channel of `source` through the double-buffered recorder
/// straight into the hot tier: each frame the storage thread drains is
/// appended (at its source position, holes zero-filled) *as it drains*,
/// not after the recording ends — including the trailing partial batch.
pub fn record_into_store<D: TierMedia + Send>(
    recorder: &DoubleBufferRecorder,
    source: &MultiStream,
    policy: QueuePolicy,
    channel: usize,
    store: &TieredStore<D>,
) -> (RecordingStats, FeedReport) {
    let mut next = 0usize;
    let mut holes = 0usize;
    let (_, _, stats) = recorder.record_with_sink(source, policy, |idx, frame| {
        // Stored indices arrive in ascending source order; anything
        // skipped between them was dropped at the interrupt side.
        debug_assert!(idx >= next, "stored frames out of source order");
        if idx > next {
            holes += idx - next;
            store.push_slice(&vec![0.0; idx - next]);
        }
        store.push(frame[channel]);
        next = idx + 1;
    });
    // Frames dropped off the tail still occupy source positions.
    if next < source.len() {
        holes += source.len() - next;
        store.push_slice(&vec![0.0; source.len() - next]);
    }
    counter!("tier.feed.holes").add(holes as u64);
    (stats, FeedReport { samples: source.len(), holes })
}

/// Feeds one channel of a supervised-ingest outcome into the hot tier.
/// The outcome's stream is already a full uniform grid (gaps repaired),
/// so the feed is a straight append.
pub fn feed_outcome<D: TierMedia>(
    store: &TieredStore<D>,
    outcome: &IngestOutcome,
    channel: usize,
) -> FeedReport {
    let n = outcome.stream.len();
    let values: Vec<f64> = (0..n).map(|t| outcome.stream.frame(t)[channel]).collect();
    store.push_slice(&values);
    FeedReport { samples: n, holes: 0 }
}
