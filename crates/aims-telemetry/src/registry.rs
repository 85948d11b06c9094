//! Get-or-register metric storage, plus the process-wide global registry.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSummary, Snapshot};

/// A named collection of metrics.
///
/// Handles are `Arc`s; a lookup is a read lock plus a `BTreeMap` probe.
/// Code recording into [`global`] under a literal name goes through the
/// call-site-cached `counter!`/`gauge!`/`histogram!`/`histogram_f64!`
/// macros instead. Names follow the `component.subsystem.metric`
/// convention; duration histograms end in `.ns`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(m) = map.read().unwrap().get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(make())))
}

impl MetricsRegistry {
    /// An empty, standalone registry (tests, per-run scopes).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// Gets or registers a raw integer histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, Histogram::new)
    }

    /// Gets or registers a fractional histogram storing `value * 1e6`
    /// (summaries divide the scale back out).
    pub fn histogram_f64(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::with_scale(1e6))
    }

    /// Point-in-time snapshot of every registered metric.
    ///
    /// The maps are re-enumerated on every call — metrics registered
    /// *after* an earlier snapshot (a service's late-bound gauges, say)
    /// always appear in later ones. Snapshots must never memoize the
    /// name set; `aims-cli metrics` and the service's METRICS frame rely
    /// on this.
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            self.counters.read().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges =
            self.gauges.read().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, h)| HistogramSummary::of(k, h))
            .collect();
        Snapshot { counters, gauges, histograms }
    }

    /// Zeroes every counter and histogram (gauges keep their level).
    /// Registrations survive, so held handles stay valid.
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.reset();
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
    }
}

/// The process-wide registry that the metric macros and all AIMS
/// components record into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_metric() {
        let r = MetricsRegistry::new();
        r.counter("a.b.c").add(3);
        r.counter("a.b.c").add(4);
        assert_eq!(r.counter("a.b.c").get(), 7);
    }

    #[test]
    fn snapshot_sees_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("x.count").inc();
        r.gauge("x.level").set(2.5);
        r.histogram("x.lat.ns").record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("x.count"), 1);
        assert_eq!(s.gauge("x.level"), Some(2.5));
        assert_eq!(s.histogram("x.lat.ns").unwrap().count, 1);
    }

    #[test]
    fn gauges_registered_after_a_snapshot_appear_in_later_snapshots() {
        // Regression: a snapshot must re-enumerate the registry, not
        // memoize the name set it saw first. (This once bit `aims-cli
        // metrics`, which takes a snapshot at startup and again after
        // running work that registers new gauges.)
        let r = MetricsRegistry::new();
        r.gauge("early.level").set(1.0);
        let first = r.snapshot();
        assert_eq!(first.gauge("early.level"), Some(1.0));
        assert_eq!(first.gauge("late.level"), None);

        r.gauge("late.level").set(7.5);
        r.counter("late.count").inc();
        r.histogram("late.lat.ns").record(42);
        let second = r.snapshot();
        assert_eq!(second.gauge("late.level"), Some(7.5));
        assert_eq!(second.counter("late.count"), 1);
        assert_eq!(second.histogram("late.lat.ns").unwrap().count, 1);
        // And the earlier snapshot is a true point-in-time value object:
        // registering more metrics must not mutate it retroactively.
        assert_eq!(first.gauge("late.level"), None);
    }

    #[test]
    fn global_registry_snapshots_reenumerate_too() {
        let name = "telemetry.test.late_gauge_reenumeration";
        let before = crate::global().snapshot();
        assert_eq!(before.gauge(name), None, "test gauge unexpectedly pre-registered");
        crate::global().gauge(name).set(3.25);
        assert_eq!(crate::global().snapshot().gauge(name), Some(3.25));
    }

    #[test]
    fn reset_keeps_registrations() {
        let r = MetricsRegistry::new();
        let c = r.counter("y.count");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("y.count").get(), 1);
    }
}
