//! Disk-level storage of wavelet-transformed immersidata (paper §3.2).
//!
//! The paper's storage question: *"Is there a principle of locality of
//! reference for wavelet data? Or more precisely, is there a way we can
//! store wavelet data to create such a principle?"* Its answer: for point
//! and range queries on the wavelet error tree, "if a wavelet coefficient
//! is retrieved, we are guaranteed that all of its dependent coefficients
//! will also be retrieved", and an allocation based on *optimal tiling of
//! the one-dimensional wavelet error tree* approaches the theoretical
//! bound of fewer than `1 + lg B` needed items per retrieved size-`B`
//! block; tensor products of the 1-D tiling extend it to multivariate
//! wavelets.
//!
//! - [`device`]: the [`BlockDevice`] trait with checksummed verified
//!   reads, plus the instrumented in-memory [`MemDevice`] — every storage
//!   claim is about which coefficients share a block and how many block
//!   reads a query costs, which this measures exactly.
//! - [`faults`]: a deterministic, seeded fault-injection wrapper
//!   ([`FaultyDevice`]) — read errors, bit flips, torn writes, dead
//!   blocks, latency — reproducible from a single u64 seed.
//! - [`cache`]: the one block cache ([`SharedBlockCache`], a sharded LRU
//!   of verified blocks with hit/miss accounting) every read path goes
//!   through, so concurrent sessions touching the same hot blocks read
//!   the device once.
//! - [`error_tree`]: the dependency structure of the flat DWT layout and
//!   the ancestor-closed access sets of point and range queries.
//! - [`alloc`]: block-allocation strategies — sequential, random,
//!   level-major baselines and the paper's error-tree tiling — plus the
//!   tensor-product extension to multidimensional coefficient grids.
//! - [`progressive`]: importance-ordered block retrieval ("perform the
//!   most valuable I/O's first and deliver approximate results
//!   progressively") — the [`BlockPlan`] that prices a query's blocks and
//!   the [`BoundLedger`] that carries its guaranteed error bound.
//! - [`store`]: the one blocked coefficient store
//!   ([`CoefficientStore`]: layout, energy catalog, load, reopen, and the
//!   plan → fetch → accumulate → bound evaluation) and its 1-D Haar front
//!   [`WaveletStore`].
//! - [`file`](mod@file): the durable file-backed device ([`FileDevice`]) — per-block
//!   checksums, a length-prefixed checksummed WAL with monotone LSNs,
//!   periodic checkpointing, torn-tail-truncating recovery, three
//!   durability modes, and seeded crash points for provably exact
//!   recovery. A store reopened over it is the paper's persistence plan
//!   (§4: BLOBs first, raw disk blocks next).

pub mod alloc;
pub mod cache;
pub mod device;
pub mod error_tree;
pub mod faults;
pub mod file;
pub mod progressive;
pub mod store;

pub use alloc::{Allocation, RandomAlloc, SequentialAlloc, TreeTilingAlloc};
pub use cache::{BlockFetch, CacheStats, SharedBlockCache};
pub use device::{
    block_digest, read_with_retry, BlockDevice, DeviceStats, MemDevice, RawMedia, ReadError,
    ReadErrorKind, RetryPolicy,
};
pub use error_tree::{point_query_set, range_query_set, ErrorTree};
pub use faults::{FaultKind, FaultPlan, FaultyDevice};
pub use file::{
    CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions, RecoveryReport, WalStats,
};
pub use progressive::{BlockPlan, BoundLedger};
pub use store::{CoefficientStore, DegradedAnswer, WaveletStore};

/// The frozen benchmark harness (`bench/src/ladder.rs`) still names the
/// old single-owner pool; nothing else may.
pub type BufferPool = SharedBlockCache;
