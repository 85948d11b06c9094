//! Concurrent query-serving layer for AIMS.
//!
//! The paper frames ProPolyne's progressive range-sum evaluation as the
//! interactive face of an immersidata system; this crate is the missing
//! piece between "a library that can answer one query" and "a system
//! serving heavy traffic from many simultaneous users" (ROADMAP north
//! star). One [`QueryService`] multiplexes many sessions over one
//! blocked wavelet store:
//!
//! - [`admission`]: a bounded two-class queue — interactive before
//!   batch, overload rejected with typed errors
//!   ([`ServiceError::QueueFull`]) instead of collapsing.
//! - [`service`]: the shared-scan scheduler. Each round selects a set of
//!   blocks the active plans still need, pulls each **once** through a
//!   sharded LRU [`aims_storage::SharedBlockCache`] and folds it into
//!   every session still missing it, on the scheduler thread — final
//!   answers bit-identical to serial evaluation for every block arrival
//!   order. A cohort that must
//!   share rounds from the first one is submitted with
//!   [`QueryService::submit_all`]: one admission, all or nothing.
//! - [`session`]: progressive delivery — monotonically refining
//!   estimates with Cauchy–Schwarz error bounds, cancellation that
//!   actually halts block fetches, per-query deadlines.
//! - [`qos`]: the adaptive QoS layer — a utility-based round scheduler
//!   that spends each round's block budget where it shrinks aggregate
//!   error bounds fastest, and graduated load shedding that walks
//!   overloaded sessions through [`Tier`]s (coarser cadence → widened
//!   bounds → best-so-far early termination) with hysteresis, before
//!   any typed rejection. The ladder's thresholds are constants, the
//!   same in every deployment; [`ServiceConfig`] holds only what an
//!   operator or a test sets.
//! - [`profile`]: per-query cost attribution — every traced (or slow)
//!   query yields a [`QueryProfile`] with queue wait, block/cache/retry
//!   accounting, degraded-block count, and the per-round error-bound
//!   trajectory; threshold-tripping queries land in a bounded
//!   [`SlowQueryLog`].
//! - [`demo`]: the demo cube every harness serves, built whole in memory
//!   or streamed in a fixed working set (`aims-serve --data`'s create).
//! - [`wire`] / [`server`] / [`client`]: a length-prefixed binary
//!   protocol over std TCP (`aims-serve` binary), two threads per
//!   connection and one scheduler thread shared across all of them.
//!
//! ```
//! use aims_service::{QueryService, QuerySpec, ServiceConfig, Outcome};
//! use aims_propolyne::DataCube;
//! use aims_dsp::filters::FilterKind;
//!
//! let cube = DataCube::zeros(&[16, 16]).transform(&FilterKind::Haar.filter());
//! let service = QueryService::new(cube, 8, ServiceConfig::default());
//! let session = service.submit(QuerySpec::interactive(vec![(0, 15), (2, 13)])).unwrap();
//! match session.wait() {
//!     Outcome::Done(r) => assert_eq!(r.error_bound, 0.0),
//!     other => panic!("{other:?}"),
//! }
//! ```

pub mod admission;
pub mod client;
pub mod demo;
pub mod error;
pub mod profile;
pub mod qos;
pub mod server;
pub mod service;
pub mod session;
pub mod tiered;
pub mod wire;

pub use admission::{AdmissionController, Priority};
pub use client::{ClientEvent, RemoteOutcome, TcpClient};
pub use demo::{demo_cube, stream_demo_coeffs};
pub use error::ServiceError;
pub use profile::{QueryProfile, SlowQueryEntry, SlowQueryLog, SlowReason, TrajectoryPoint};
pub use qos::{SchedulerPolicy, Tier};
pub use server::Server;
pub use service::{QosStats, QueryService, ServiceConfig};
pub use session::{Outcome, Polled, QuerySpec, Refinement, SessionHandle, Update};
pub use tiered::{TieredAnswer, TieredPlanner, TieredPlannerConfig};
pub use wire::{Frame, ProgressKind};
