//! Request-scoped tracing: trace contexts, a lock-sharded flight
//! recorder, and Chrome trace-event export.
//!
//! The [`span!`](crate::span!) timer times *code regions* into
//! process-global histograms; it cannot say which of 32 concurrent
//! sessions paid for a block fetch. This module adds the other axis:
//! a [`TraceContext`] is minted per request, passed explicitly down the
//! serving path, and stamps every event with the request's [`TraceId`]
//! so one query's admission wait, scan rounds, block fetches, and
//! delivery can be read back as a single timeline.
//!
//! Tracing is strictly opt-in and zero-cost when off: a disabled
//! context is a `None` — cloning it copies a word, and
//! [`TraceContext::event`] returns before touching any of its
//! arguments, so the untraced hot path performs no allocation and no
//! locking (verified by an allocation-counting test and by the E28
//! bit-identity gate).
//!
//! Completed events land in a [`FlightRecorder`]: a bounded ring buffer
//! sharded by trace id so concurrent writers rarely contend and one
//! trace's events stay in emission order within their shard. The
//! recorder exports Chrome trace-event JSON ([`FlightRecorder::export_chrome_trace`])
//! that loads directly in `about:tracing` or [Perfetto](https://ui.perfetto.dev),
//! with one row (tid) per trace.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape;

/// Number of independent ring shards. Writers hash by trace id, so two
/// concurrent queries almost never contend on the same lock.
const SHARDS: usize = 8;

/// Default total event capacity across all shards.
pub const DEFAULT_RECORDER_CAPACITY: usize = 8192;

/// Identifier of one traced request, unique within a process run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One attribute value on a trace event.
///
/// Only `Copy` payloads (and `&'static str`) are accepted so that
/// building the attribute slice on the *untraced* path costs nothing:
/// callers pass `&[(&str, AttrValue)]` stack arrays, which are copied
/// into owned storage only when the context is enabled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned quantity (counts, block ids, bytes).
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Measurement (error bounds, ratios).
    F64(f64),
    /// Static label (outcome names, policies).
    Str(&'static str),
}

impl AttrValue {
    fn to_json(self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            }
            AttrValue::Str(s) => format!("\"{}\"", escape(s)),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Str(if v { "true" } else { "false" })
    }
}

/// Maximum attributes one event retains; extras are silently dropped.
/// Fixed so a [`TraceEvent`] is `Copy` — recording is a memcpy into a
/// preallocated ring slot, never a heap allocation.
pub const MAX_EVENT_ATTRS: usize = 4;

/// One recorded event: an instant (`dur_ns == 0`) or a completed span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Which request emitted this event.
    pub trace_id: TraceId,
    /// Event name (convention: `component.op`, e.g. `service.round`).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch at which the event
    /// occurred (for spans: when the span *started*).
    pub ts_ns: u64,
    /// Span duration; 0 for instant events.
    pub dur_ns: u64,
    attr_buf: [(&'static str, AttrValue); MAX_EVENT_ATTRS],
    attr_len: u8,
}

impl TraceEvent {
    /// Builds an event, keeping the first [`MAX_EVENT_ATTRS`] attributes.
    pub fn new(
        trace_id: TraceId,
        name: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        attrs: &[(&'static str, AttrValue)],
    ) -> TraceEvent {
        let mut attr_buf = [("", AttrValue::U64(0)); MAX_EVENT_ATTRS];
        let attr_len = attrs.len().min(MAX_EVENT_ATTRS);
        attr_buf[..attr_len].copy_from_slice(&attrs[..attr_len]);
        TraceEvent { trace_id, name, ts_ns, dur_ns, attr_buf, attr_len: attr_len as u8 }
    }

    /// The event's key/value attributes.
    pub fn attrs(&self) -> &[(&'static str, AttrValue)] {
        &self.attr_buf[..self.attr_len as usize]
    }
}

struct Shard {
    ring: Mutex<ShardRing>,
}

struct ShardRing {
    /// Fixed-capacity circular buffer; `head` is the next write slot.
    events: Vec<TraceEvent>,
    head: usize,
    /// Total events ever written to this shard (so `dropped` is
    /// derivable: `written - retained`).
    written: u64,
}

/// A bounded, lock-sharded ring buffer of recent trace events.
///
/// Memory is bounded by construction: each shard holds at most
/// `capacity / SHARDS` events and overwrites its oldest entry when
/// full. `written()` vs `len()` tells you how much history scrolled
/// away.
pub struct FlightRecorder {
    shards: Vec<Shard>,
    per_shard_capacity: usize,
    epoch: Instant,
    next_trace_id: AtomicU64,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &(self.per_shard_capacity * SHARDS))
            .field("len", &self.len())
            .field("written", &self.written())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `capacity` events in total.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let per_shard_capacity = capacity.div_ceil(SHARDS).max(1);
        FlightRecorder {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    ring: Mutex::new(ShardRing {
                        events: Vec::with_capacity(per_shard_capacity),
                        head: 0,
                        written: 0,
                    }),
                })
                .collect(),
            per_shard_capacity,
            epoch: Instant::now(),
            next_trace_id: AtomicU64::new(1),
        }
    }

    /// Creates a recorder with [`DEFAULT_RECORDER_CAPACITY`].
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// Maximum retained events across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARDS
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Mints a fresh trace id (unique per recorder).
    pub fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    fn shard_for(&self, id: TraceId) -> &Shard {
        // Multiplicative hash so sequential ids spread across shards.
        let h = id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % SHARDS]
    }

    /// Records one event (called via [`TraceContext`]; public so tests
    /// and tools can inject events directly).
    pub fn record(&self, event: TraceEvent) {
        let shard = self.shard_for(event.trace_id);
        let mut ring = shard.ring.lock().unwrap();
        ring.written += 1;
        if ring.events.len() < self.per_shard_capacity {
            ring.events.push(event);
            ring.head = ring.events.len() % self.per_shard_capacity;
        } else {
            let head = ring.head;
            ring.events[head] = event;
            ring.head = (head + 1) % self.per_shard_capacity;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.ring.lock().unwrap().events.len()).sum()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including ones that scrolled away).
    pub fn written(&self) -> u64 {
        self.shards.iter().map(|s| s.ring.lock().unwrap().written).sum()
    }

    /// Copies out all retained events, ordered by timestamp (ties keep
    /// shard order, which within one trace is emission order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let ring = shard.ring.lock().unwrap();
            // Oldest-first: from head to end, then start to head.
            if ring.events.len() == self.per_shard_capacity {
                all.extend_from_slice(&ring.events[ring.head..]);
                all.extend_from_slice(&ring.events[..ring.head]);
            } else {
                all.extend_from_slice(&ring.events);
            }
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Copies out retained events for one trace, oldest first.
    pub fn events_for(&self, id: TraceId) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> =
            self.events().into_iter().filter(|e| e.trace_id == id).collect();
        out.sort_by_key(|e| e.ts_ns);
        out
    }

    /// Clears all retained events (the `written` total keeps counting).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut ring = shard.ring.lock().unwrap();
            ring.events.clear();
            ring.head = 0;
        }
    }

    /// Exports all retained events as Chrome trace-event JSON.
    ///
    /// The output is an object `{"traceEvents":[...]}` loadable in
    /// `about:tracing` or Perfetto. Spans become `"ph":"X"` complete
    /// events, instants become `"ph":"i"`. All events share
    /// `"pid":1`; `"tid"` is the trace id, so each request renders as
    /// its own row. Timestamps are microseconds (fractional, to keep
    /// nanosecond precision) since the recorder epoch.
    pub fn export_chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = e.ts_ns as f64 / 1e3;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us}",
                escape(e.name),
                if e.dur_ns == 0 { "i" } else { "X" },
                e.trace_id.0,
            ));
            if e.dur_ns > 0 {
                out.push_str(&format!(",\"dur\":{}", e.dur_ns as f64 / 1e3));
            } else {
                // Instant events need a scope; "t" = this thread/row.
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.attrs().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape(k), v.to_json()));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

/// The process-wide flight recorder (what `aims-cli trace` dumps).
pub fn global_recorder() -> &'static Arc<FlightRecorder> {
    static RECORDER: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    RECORDER.get_or_init(|| Arc::new(FlightRecorder::new()))
}

struct TraceInner {
    id: TraceId,
    recorder: Arc<FlightRecorder>,
}

/// A per-request tracing handle, passed explicitly down the call path.
///
/// Disabled contexts (the default) are a single `None` word: cloning is
/// free and every recording method returns immediately without reading
/// its arguments, so code can emit events unconditionally and pay only
/// a branch when tracing is off.
#[derive(Clone)]
pub struct TraceContext {
    inner: Option<Arc<TraceInner>>,
}

impl fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "TraceContext({})", inner.id),
            None => write!(f, "TraceContext(disabled)"),
        }
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::disabled()
    }
}

impl TraceContext {
    /// The no-op context: free to clone, records nothing.
    pub const fn disabled() -> TraceContext {
        TraceContext { inner: None }
    }

    /// Starts a new trace on `recorder` with a freshly minted id.
    pub fn start(recorder: &Arc<FlightRecorder>) -> TraceContext {
        let id = recorder.next_trace_id();
        TraceContext::with_id(recorder, id)
    }

    /// Starts a trace with a caller-chosen id (e.g. derived from a wire
    /// request id so client and server logs correlate).
    pub fn with_id(recorder: &Arc<FlightRecorder>, id: TraceId) -> TraceContext {
        TraceContext { inner: Some(Arc::new(TraceInner { id, recorder: Arc::clone(recorder) })) }
    }

    /// Starts a trace on the [`global_recorder`].
    pub fn start_global() -> TraceContext {
        TraceContext::start(global_recorder())
    }

    /// True when events will actually be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This trace's id, if enabled.
    #[inline]
    pub fn id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Records an instant event. On a disabled context this returns
    /// before reading `attrs` — build the slice inline at the call
    /// site so the compiler can elide it entirely.
    #[inline]
    pub fn event(&self, name: &'static str, attrs: &[(&'static str, AttrValue)]) {
        let Some(inner) = &self.inner else { return };
        let ts_ns = inner.recorder.now_ns();
        inner.recorder.record(TraceEvent::new(inner.id, name, ts_ns, 0, attrs));
    }

    /// Records an instant event with an explicit timestamp (nanoseconds
    /// since the recorder epoch, as returned by
    /// [`TraceContext::now_ns`]). Lets tight loops take one clock
    /// reading and stamp a whole batch of events with it — e.g. one
    /// block fetch fanned out to many consumer sessions.
    #[inline]
    pub fn event_at(&self, ts_ns: u64, name: &'static str, attrs: &[(&'static str, AttrValue)]) {
        let Some(inner) = &self.inner else { return };
        inner.recorder.record(TraceEvent::new(inner.id, name, ts_ns, 0, attrs));
    }

    /// Opens a span; the returned guard records a `"ph":"X"` event when
    /// finished. Returns `None` (no allocation) when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> Option<TraceSpan> {
        let inner = self.inner.as_ref()?;
        Some(TraceSpan {
            ctx: Arc::clone(inner),
            name,
            start_ns: inner.recorder.now_ns(),
            attr_buf: [("", AttrValue::U64(0)); MAX_EVENT_ATTRS],
            attr_len: 0,
        })
    }

    /// Current recorder time, or 0 when disabled. Useful for computing
    /// queue-wait style durations without a second clock source.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.recorder.now_ns(),
            None => 0,
        }
    }
}

/// An open traced span; finishing (or dropping) it records a complete
/// event spanning from creation to finish.
pub struct TraceSpan {
    ctx: Arc<TraceInner>,
    name: &'static str,
    start_ns: u64,
    attr_buf: [(&'static str, AttrValue); MAX_EVENT_ATTRS],
    attr_len: u8,
}

impl TraceSpan {
    /// Attaches an attribute to the eventual event (the first
    /// [`MAX_EVENT_ATTRS`] stick; extras are dropped).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if (self.attr_len as usize) < MAX_EVENT_ATTRS {
            self.attr_buf[self.attr_len as usize] = (key, value.into());
            self.attr_len += 1;
        }
    }

    /// Finishes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let end = self.ctx.recorder.now_ns();
        self.ctx.recorder.record(TraceEvent::new(
            self.ctx.id,
            self.name,
            self.start_ns,
            end.saturating_sub(self.start_ns).max(1),
            &self.attr_buf[..self.attr_len as usize],
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_context_records_nothing_and_is_cheap() {
        let ctx = TraceContext::disabled();
        assert!(!ctx.is_enabled());
        assert_eq!(ctx.id(), None);
        ctx.event("x", &[("k", AttrValue::U64(1))]);
        assert!(ctx.span("y").is_none());
        assert_eq!(ctx.now_ns(), 0);
        // Clone is a word copy of None.
        let _c2 = ctx.clone();
    }

    #[test]
    fn events_round_trip_through_recorder() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let ctx = TraceContext::start(&rec);
        let id = ctx.id().unwrap();
        ctx.event("service.admit", &[("queue_depth", AttrValue::U64(3))]);
        {
            let mut span = ctx.span("service.round").unwrap();
            span.attr("round", 0u32);
            span.attr("blocks", 12usize);
        }
        let events = rec.events_for(id);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "service.admit");
        assert_eq!(events[0].dur_ns, 0);
        assert_eq!(events[1].name, "service.round");
        assert!(events[1].dur_ns > 0);
        assert_eq!(events[1].attrs()[0], ("round", AttrValue::U64(0)));
    }

    #[test]
    fn ring_is_bounded_and_overwrites_oldest() {
        let rec = Arc::new(FlightRecorder::with_capacity(16));
        let ctx = TraceContext::start(&rec);
        for i in 0..1000u64 {
            ctx.event("flood", &[("i", AttrValue::U64(i))]);
        }
        assert!(rec.len() <= rec.capacity());
        assert_eq!(rec.written(), 1000);
        // The survivors are the newest events of that trace's shard.
        let events = rec.events_for(ctx.id().unwrap());
        let last = events.last().unwrap();
        assert_eq!(last.attrs()[0].1, AttrValue::U64(999));
    }

    #[test]
    fn distinct_traces_get_distinct_ids() {
        let rec = Arc::new(FlightRecorder::new());
        let a = TraceContext::start(&rec);
        let b = TraceContext::start(&rec);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_shape() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let ctx = TraceContext::start(&rec);
        ctx.event(
            "storage.fetch",
            &[
                ("block", AttrValue::U64(7)),
                ("outcome", AttrValue::Str("hit")),
                ("bound", AttrValue::F64(0.25)),
            ],
        );
        {
            let _span = ctx.span("service.round");
        }
        let out = rec.export_chrome_trace();
        let v = json::parse(&out).expect("chrome trace must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let instant = &events[0];
        assert_eq!(instant.str("ph"), Some("i"));
        assert_eq!(instant.str("name"), Some("storage.fetch"));
        assert_eq!(instant.get("args").unwrap().num("block"), Some(7.0));
        assert_eq!(instant.get("args").unwrap().str("outcome"), Some("hit"));
        let span = &events[1];
        assert_eq!(span.str("ph"), Some("X"));
        assert!(span.num("dur").unwrap() > 0.0);
        assert_eq!(span.num("tid"), Some(ctx.id().unwrap().0 as f64));
    }

    #[test]
    fn concurrent_writers_lose_nothing_under_capacity() {
        let rec = Arc::new(FlightRecorder::with_capacity(100_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                let ctx = TraceContext::start(&rec);
                for i in 0..500u64 {
                    ctx.event("w", &[("i", AttrValue::U64(i))]);
                }
                ctx.id().unwrap()
            }));
        }
        let ids: Vec<TraceId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(rec.written(), 8 * 500);
        for id in ids {
            let events = rec.events_for(id);
            assert_eq!(events.len(), 500);
            // Emission order survives within one trace.
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.attrs()[0].1, AttrValue::U64(i as u64));
            }
        }
    }
}
