//! The harness's own spans, recorded in memory around calls into each
//! layer during the traced pass and written out once at the end.
//!
//! A span is `(name, start, end, parent, request id)`. A layer's *self
//! time* is its spans' duration minus the part their child spans cover,
//! so nested spans split one request's wall time between layers without
//! double counting.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub req: u64,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// An append-only span log. Each measuring thread owns one (no locking
/// on the timed path); logs are merged when the threads join.
#[derive(Clone, Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans { epoch, spans: Vec::new() }
    }

    /// The instant timestamps count from; per-thread logs of one run
    /// share it so they merge onto one time line.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its index (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        self.spans.len() - 1
    }

    /// Appends another thread's log, keeping its parent links valid.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name totals and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Self time summed per layer (the span name up to its first dot).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.self_times() {
            *out.entry(name.split('.').next().unwrap_or(name)).or_insert(0) += t.self_ns;
        }
        out
    }

    /// The trace file: per-layer and per-name self time, then the spans
    /// themselves (at most `max_spans`, so a long run stays a readable
    /// file; the totals always cover every span).
    pub fn to_json(&self, workload: &str, seed: u64, max_spans: usize) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\n\"layer_self_ns\":{{",
            self.spans.len()
        );
        let layers: Vec<String> =
            self.layer_self_ns().iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        out.push_str(&layers.join(","));
        out.push_str("},\n\"span_totals\":{");
        let totals: Vec<String> = self
            .self_times()
            .iter()
            .map(|(k, t)| {
                format!(
                    "\"{k}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        out.push_str(&totals.join(","));
        out.push_str("},\n\"spans\":[\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_survives_merge() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        let q = a.push("client.query", 0, 1000, None, 1);
        let s = a.push("service.query", 100, 900, Some(q), 1);
        a.push("service.queue_wait", 100, 300, Some(s), 1);
        let mut b = Spans::new(epoch);
        let q2 = b.push("client.query", 0, 500, None, 2);
        b.push("service.query", 50, 450, Some(q2), 2);
        a.merge(b);
        assert_eq!(a.spans.len(), 5);
        let t = a.self_times();
        assert_eq!(t["client.query"], SelfTime { count: 2, total_ns: 1500, self_ns: 300 });
        assert_eq!(t["service.query"], SelfTime { count: 2, total_ns: 1200, self_ns: 1000 });
        assert_eq!(t["service.queue_wait"].self_ns, 200);
        let layers = a.layer_self_ns();
        assert_eq!(layers["client"], 300);
        assert_eq!(layers["service"], 1200);
        // Self times partition the roots' wall time.
        assert_eq!(layers.values().sum::<u64>(), 1500);
        let json = a.to_json("w", 7, 2);
        assert!(aims_telemetry::json::parse(&json).is_ok(), "{json}");
    }
}
