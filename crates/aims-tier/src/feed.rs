//! Acquisition → hot tier wiring.
//!
//! The supervised ingest ends in a [`IngestOutcome`] whose stream is a
//! full uniform grid (gaps repaired, every frame recorded), so feeding one
//! channel is a straight append through [`TieredStore::push_slice`] —
//! every fed sample rides the hot device's WAL.

use aims_acquisition::ingest::IngestOutcome;

use crate::store::{TierMedia, TieredStore};

/// What a feed pass delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeedReport {
    /// Samples appended to the hot tier.
    pub samples: usize,
}

/// Feeds one channel of a supervised-ingest outcome into the hot tier.
pub fn feed_outcome<D: TierMedia>(
    store: &TieredStore<D>,
    outcome: &IngestOutcome,
    channel: usize,
) -> FeedReport {
    let n = outcome.stream.len();
    let values: Vec<f64> = (0..n).map(|t| outcome.stream.frame(t)[channel]).collect();
    store.push_slice(&values);
    FeedReport { samples: n }
}
