//! RAII span timers with per-thread parent/child nesting.
//!
//! `SpanGuard::enter("storage.alloc")` (or the `span!` macro) starts a
//! timer; when the guard drops, the elapsed nanoseconds are recorded into
//! the global histogram `storage.alloc.ns` and a [`SpanRecord`] carrying
//! the full `parent/child` path is pushed onto a bounded in-memory trace
//! buffer. Nesting is tracked per thread, so a query can be traced
//! end-to-end: a `propolyne.query.evaluate` span opened while
//! `system.query` is active records the path
//! `system.query/propolyne.query.evaluate`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::registry::global;

/// Upper bound on retained finished spans; older records are dropped
/// first (the histograms keep the aggregate view forever).
const TRACE_CAPACITY: usize = 4096;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// `parent/.../name` path at the time the span was entered.
    pub path: String,
    /// Nesting depth (0 = root span on its thread).
    pub depth: usize,
    /// Elapsed wall time in nanoseconds.
    pub duration_ns: u64,
}

fn trace_buffer() -> &'static Mutex<VecDeque<SpanRecord>> {
    static BUF: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());
    &BUF
}

thread_local! {
    /// Stack of active span names on this thread.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An active timed region; see the module docs.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    path: String,
    depth: usize,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name` (convention: `component.subsystem.op`).
    pub fn enter(name: &'static str) -> SpanGuard {
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let depth = stack.len();
            stack.push(name);
            let path = stack.join("/");
            (path, depth)
        });
        SpanGuard { name, path, depth, start: Instant::now() }
    }

    /// The span's own name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The full nesting path (`parent/child/...`).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own entry; tolerate out-of-order drops by searching
            // from the top.
            if let Some(pos) = stack.iter().rposition(|n| *n == self.name) {
                stack.remove(pos);
            }
        });
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        global().histogram(&format!("{}.ns", self.name)).record(ns);
        let mut buf = trace_buffer().lock().unwrap();
        if buf.len() >= TRACE_CAPACITY {
            buf.pop_front();
        }
        buf.push_back(SpanRecord { path: self.path.clone(), depth: self.depth, duration_ns: ns });
    }
}

/// Copies out the most recent `limit` finished spans (newest last).
pub fn recent_spans(limit: usize) -> Vec<SpanRecord> {
    let buf = trace_buffer().lock().unwrap();
    buf.iter().rev().take(limit).rev().cloned().collect()
}

/// Clears the trace buffer (histograms are untouched).
pub fn clear_spans() {
    trace_buffer().lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests read the one process-wide trace buffer, and the flood
    /// evicts whatever the other just recorded: they take turns.
    static TRACE_BUFFER_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_record_into_global_histograms_and_trace() {
        let _turn = TRACE_BUFFER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        clear_spans();
        {
            let _outer = SpanGuard::enter("test.span.outer");
            let inner = SpanGuard::enter("test.span.inner");
            assert_eq!(inner.path(), "test.span.outer/test.span.inner");
            assert_eq!(inner.depth, 1);
        }
        let snap = global().snapshot();
        assert!(snap.histogram("test.span.outer.ns").unwrap().count >= 1);
        assert!(snap.histogram("test.span.inner.ns").unwrap().count >= 1);
        let spans = recent_spans(16);
        let inner = spans.iter().find(|s| s.path.ends_with("test.span.inner")).unwrap();
        assert_eq!(inner.depth, 1);
        // Inner drops before outer.
        let outer = spans.iter().find(|s| s.path == "test.span.outer").unwrap();
        assert!(outer.duration_ns >= inner.duration_ns);
    }

    #[test]
    fn trace_buffer_is_bounded() {
        let _turn = TRACE_BUFFER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..TRACE_CAPACITY + 10 {
            let _g = SpanGuard::enter("test.span.flood");
        }
        assert!(recent_spans(usize::MAX).len() <= TRACE_CAPACITY);
    }
}
