//! Observability substrate for the AIMS reproduction.
//!
//! The paper's claims are quantitative — sampling-rate savings in
//! acquisition (§3.1), the `< 1 + lg B` needed-items-per-block bound in
//! storage (§3.2), progressive-error-vs-I/O curves in ProPolyne (§3.3)
//! and recognition latency in the online component (§3.4) — so every
//! subsystem needs a uniform way to *measure itself*. This crate is that
//! layer: std-only (the build environment is offline), thread-safe, and
//! cheap enough to leave compiled into the hot paths.
//!
//! The pieces:
//!
//! - [`registry`]: a global + instantiable [`MetricsRegistry`] of atomic
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s and log-bucketed
//!   [`metrics::Histogram`]s (p50/p95/p99/max).
//! - The one way code reaches a [`global`] metric: [`counter!`],
//!   [`gauge!`], [`histogram!`] and [`histogram_f64!`] return a handle
//!   registered once per call site, so recording is one atomic operation
//!   with no registry probe; [`span!`] — `let _g = span!("storage.alloc");`
//!   — is an `Instant` plus that call site's `storage.alloc.ns` histogram.
//! - [`snapshot`]: a point-in-time [`snapshot::Snapshot`] of a registry,
//!   renderable as an aligned text table or as JSON lines for machine
//!   diffing across runs (and parseable back via
//!   [`snapshot::Snapshot::from_json_lines`]).
//! - [`trace`]: request-scoped tracing — a [`trace::TraceContext`]
//!   passed explicitly down the serving path stamps events with a
//!   [`trace::TraceId`] into a lock-sharded bounded
//!   [`trace::FlightRecorder`], exportable as Chrome trace-event JSON.
//!   Zero-cost when disabled.
//! - [`json`]: a minimal std-only JSON value parser shared by the tools
//!   that read the JSON this workspace writes.
//!
//! Metric names follow `component.subsystem.metric`
//! (e.g. `storage.pool.hits`, `dsp.dwt.forward.ns`); duration histograms
//! end in `.ns`.
//!
//! ```
//! use aims_telemetry::{counter, global, span};
//!
//! counter!("doc.example.calls").inc();
//! {
//!     let _g = span!("doc.example.work");
//!     // ... timed region ...
//! }
//! let snap = global().snapshot();
//! assert!(snap.counter("doc.example.calls") >= 1);
//! assert!(snap.histogram("doc.example.work.ns").is_some());
//! ```

pub mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, SpanGuard};
pub use registry::{global, MetricsRegistry};
pub use snapshot::{HistogramSummary, Snapshot};
pub use trace::{
    global_recorder, AttrValue, FlightRecorder, TraceContext, TraceEvent, TraceId, TraceSpan,
    MAX_EVENT_ATTRS,
};

/// A [`global`] metric handle cached in a `static` at the call site: the
/// first pass registers (or finds) the name, every later pass is one
/// atomic load.
#[doc(hidden)]
#[macro_export]
macro_rules! __call_site {
    ($register:ident, $ty:ty, $name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$ty>> = ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::global().$register($name))
    }};
}

/// `&'static Counter` for the global counter `$name`, registered once per
/// call site. The name must be a literal, so a call site always means one
/// metric; a name built at run time goes through [`global`] directly.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::__call_site!(counter, $crate::Counter, $name)
    };
}

/// `&'static Gauge` for the global gauge `$name`; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {
        $crate::__call_site!(gauge, $crate::Gauge, $name)
    };
}

/// `&'static Histogram` for the global integer histogram `$name`; see
/// [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {
        $crate::__call_site!(histogram, $crate::Histogram, $name)
    };
}

/// `&'static Histogram` for the global fractional histogram `$name`
/// (stored at scale 1e6, see [`MetricsRegistry::histogram_f64`]); see
/// [`counter!`].
#[macro_export]
macro_rules! histogram_f64 {
    ($name:literal) => {
        $crate::__call_site!(histogram_f64, $crate::Histogram, $name)
    };
}

/// Opens an RAII span timer on the global histogram `<name>.ns` (cached
/// at the call site, like [`histogram!`]); see [`Histogram::time`].
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::__call_site!(histogram, $crate::Histogram, concat!($name, ".ns")).time()
    };
}
