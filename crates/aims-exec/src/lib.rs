//! Parallel execution layer for the AIMS workspace.
//!
//! The ROADMAP's north star is a system that "runs as fast as the hardware
//! allows" under heavy multi-user query load, and the paper's own framing
//! (§3.3.1: batch queries "share I/O maximally") makes batches the natural
//! unit of parallelism: per-query transform work is embarrassingly
//! independent (Schmidt & Shahabi, PODS'02/EDBT'02). This crate provides
//! the one shared substrate those hot paths run on:
//!
//! - [`ThreadPool`]: a fixed-size work-stealing pool (per-worker deques +
//!   a shared injector) with a scoped [`ThreadPool::run`] API, so tasks
//!   may borrow from the caller's stack.
//! - Chunked data-parallel helpers — [`ThreadPool::par_map`],
//!   [`ThreadPool::par_chunks`] and the deterministic-reduction primitive
//!   [`ThreadPool::par_map_blocks`] — all with result ordering that is
//!   independent of scheduling.
//! - [`SharedSlice`]: an unsafe escape hatch for writing disjoint strided
//!   regions of one buffer from many tasks (the tensor-product DWT's
//!   scatter pattern).
//!
//! # Determinism
//!
//! Every helper returns results in input order, and callers keep each
//! floating-point reduction inside a single task (or decompose it into
//! *fixed-size* blocks via [`ThreadPool::par_map_blocks`] and fold the
//! partials in block order). Under that discipline the parallel paths are
//! **bit-identical** to the serial ones for every thread count — verified
//! by proptests in `aims-dsp`, `aims-propolyne` and `aims-linalg`.
//!
//! # Configuration
//!
//! The process-wide pool ([`global_pool`]) sizes itself from the
//! `AIMS_THREADS` environment variable, defaulting to the machine's
//! available parallelism. With one thread the pool spawns no workers and
//! every spawned task runs inline on the caller — the serial fallback that
//! keeps single-thread behavior exactly the code you would have written
//! without the pool. The thread count is the layer's only knob: a
//! kernel's own parameters (the tiled DWT's tile width and its
//! serial-below threshold, `aims_dsp::dwt::{TILE, PAR_THRESHOLD}`) are
//! constants beside the kernel, not measured at run time.
//!
//! # Observability
//!
//! The pool reports through `aims-telemetry`: `exec.pool.tasks` (tasks
//! executed), `exec.pool.steals` (tasks taken from another worker's
//! deque), `exec.pool.idle.ns` (per-wait idle time histogram) and the
//! `exec.pool.threads` gauge. [`ThreadPool::new`] registers the first
//! three at every width, so a snapshot lists them before any task runs.
//!
//! ```
//! use aims_exec::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub mod par;
pub mod pool;

pub use par::SharedSlice;
pub use pool::{configured_threads, global_pool, Scope, ThreadPool};
