//! Tiered ingest engine: the missing middle between acquisition and the
//! queryable wavelet store.
//!
//! AIMS acquires immersidata continuously, but the paper's query side
//! (ProPolyne, §3.3) wants wavelet-transformed data. This crate closes
//! the loop with a two-tier design lifted from single-node high-velocity
//! ingest systems (PAPERS.md):
//!
//! - **Hot tier** ([`store`]): time-partitioned, append-only raw
//!   segments. Ingest appends samples; each completed device block is
//!   written through a WAL-backed [`aims_storage::FileDevice`] so acked
//!   ingest survives crashes; segments seal when full (or on demand for
//!   age-based policies). Queries over hot segments are **exact** — raw
//!   summation, zero error.
//! - **Background compactor** ([`compact`]): a dedicated thread claims
//!   sealed segments, full-depth wavelet-transforms them with the
//!   lifting kernels, and atomically swaps them into the historical
//!   store via a crash-ordered manifest protocol ([`layout`]) —
//!   coefficients → historical manifest → checkpoint → raw retirement.
//!   A crash mid-compaction keeps the raw segment authoritative. Once
//!   installed, a segment lives only on the historical device: memory
//!   holds the hot tier and one bounded block cache, not the data.
//! - **Unified queries** ([`query`]): one range sum fans out across both
//!   tiers — recent-exact plus historical-progressive, historical blocks
//!   planned by the lazy wavelet transform ([`aims_dsp::lazy`]), fetched
//!   on demand, most important first, and folded by the cube store's one
//!   [`aims_storage::Evaluation`] — and merges under a single monotone
//!   Cauchy–Schwarz bound. Queries run against
//!   [`store::TierSnapshot`]s, so a concurrent segment swap can never
//!   double- or zero-count a sample.
//! - **Acquisition wiring** ([`feed`]): the double-buffered recorder and
//!   supervised ingest stream straight into the hot tier, dropped-frame
//!   holes zero-filled and counted.
//!
//! The central correctness claim, property-tested in
//! `tests/tier_properties.rs`: a store that ingested incrementally and
//! compacted in the background answers **bit-identically** to one built
//! from the same signal in a single pass — compaction changes *where*
//! data lives, never *what* a query returns.

pub mod compact;
pub mod feed;
pub mod layout;
pub mod query;
pub mod store;

pub use compact::{drain, run_once, transform_segment, Compactor, CompactorConfig};
pub use feed::{feed_outcome, feed_recording, record_into_store, FeedReport};
pub use layout::TierConfig;
pub use query::{range_sum, TierStep, TieredProgressive};
pub use store::{
    QueryGuard, SegCoeffs, SegmentView, TierMedia, TierSnapshot, TierStats, TieredStore,
    HIST_CACHE_BYTES,
};
