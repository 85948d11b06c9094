//! Proves the "zero-cost when disabled" tracing contract, and that the
//! metric macros are free to leave on hot paths, at the allocator level:
//! a counting global allocator wraps the system one (counting per thread —
//! the libtest harness thread allocates beside the test), and the
//! disabled-context hot path and steady-state `span!`/`counter!`/
//! `histogram!` records must perform exactly zero allocations. This is
//! the same property the E28 bit-identity gate checks end-to-end; here it
//! is pinned down to the API itself.

use aims_telemetry::{counter, histogram, span, AttrValue, TraceContext};

#[path = "support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::allocations_during;

#[test]
fn disabled_trace_context_allocates_nothing() {
    let ctx = TraceContext::disabled();
    let count = allocations_during(|| {
        for i in 0..10_000u64 {
            // The exact call shape the serving path uses: a stack-array
            // attribute slice passed to event(), plus clone, span, and
            // now_ns on the untraced path.
            ctx.event(
                "storage.fetch",
                &[
                    ("block", AttrValue::U64(i)),
                    ("outcome", AttrValue::Str("hit")),
                    ("retries", AttrValue::U64(0)),
                ],
            );
            let cloned = ctx.clone();
            assert!(cloned.span("service.round").is_none());
            assert_eq!(cloned.now_ns(), 0);
        }
    });
    assert_eq!(count, 0, "disabled tracing must not allocate");

    // Sanity check that the counter itself works: setting up an enabled
    // trace allocates (the Arc and the preallocated ring shards) ...
    let mut state = None;
    let count = allocations_during(|| {
        let recorder = std::sync::Arc::new(aims_telemetry::FlightRecorder::with_capacity(256));
        let ctx = TraceContext::start(&recorder);
        state = Some((recorder, ctx));
    });
    assert!(count > 0, "recorder/context setup allocates (counter sanity check)");

    // ... but steady-state recording does not: events are `Copy` values
    // memcpy'd into preallocated ring slots, so even the *traced* hot
    // path is allocation-free once the trace exists.
    let (recorder, ctx) = state.unwrap();
    let count = allocations_during(|| {
        for i in 0..10_000u64 {
            ctx.event(
                "storage.fetch",
                &[
                    ("block", AttrValue::U64(i)),
                    ("outcome", AttrValue::Str("hit")),
                    ("retries", AttrValue::U64(0)),
                ],
            );
        }
    });
    assert_eq!(count, 0, "enabled steady-state recording must not allocate");
    assert_eq!(recorder.written(), 10_000);
}

#[test]
fn steady_state_metric_macros_allocate_nothing() {
    // One pass first: registering a call site's handle allocates once.
    let record = |i: u64| {
        let _g = span!("test.alloc.span");
        counter!("test.alloc.count").inc();
        histogram!("test.alloc.hist").record(i);
    };
    record(0);
    let count = allocations_during(|| (0..10_000).for_each(record));
    assert_eq!(count, 0, "steady-state spans and metric records must not allocate");
}
