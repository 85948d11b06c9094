//! The three metric primitives: counter, gauge, log-bucketed histogram,
//! plus the histogram's RAII timer behind `span!`.
//!
//! All three are lock-free (plain atomics) so they can sit on hot paths —
//! a counter increment is one `fetch_add`, a histogram record is two
//! `fetch_add`s plus a `fetch_max`/`fetch_min` pair.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time level (buffer residency, progressive error, ...).
/// Stores an `f64` in atomic bits.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per power-of-two octave. Four gives a worst-case quantile
/// resolution of ~12.5% of the value, plenty for p50/p95/p99 reporting.
const SUB: usize = 4;
/// Bucket 0 holds exact zeros; then 64 octaves × `SUB` sub-buckets.
const BUCKETS: usize = 1 + 64 * SUB;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds or
/// item counts).
///
/// Values are assigned to one of 257 buckets: exact zero, then four
/// linearly spaced sub-buckets inside every power-of-two octave. Memory
/// is a flat `[AtomicU64; 257]`, so recording never allocates and
/// concurrent recording never blocks. An optional `scale` lets fractional
/// quantities (relative errors, ratios) ride the same integer machinery:
/// `record_f64(x)` stores `x * scale` and the summary divides back.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Multiplier applied by [`Histogram::record_f64`]; 1.0 for raw
    /// integer histograms.
    scale: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Raw integer-valued histogram.
    pub fn new() -> Self {
        Histogram::with_scale(1.0)
    }

    /// Histogram recording `f64` samples at a fixed scale (stored value
    /// is `sample * scale`, summaries divide it back out).
    pub fn with_scale(scale: f64) -> Self {
        assert!(scale > 0.0);
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            scale,
        }
    }

    /// The f64 scale (1.0 for raw histograms).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let octave = 63 - v.leading_zeros() as usize;
        let base = 1u64 << octave;
        // Linear position of v inside [2^o, 2^(o+1)), in SUB steps.
        let sub = if octave == 0 { 0 } else { ((v - base) * SUB as u64 / base) as usize };
        1 + octave * SUB + sub.min(SUB - 1)
    }

    /// Lower and upper value edges of a bucket — the exact inverse of
    /// `bucket_index`'s sub mapping, including octaves narrower than
    /// `SUB` where the sub steps are fractional (e.g. v=3 lands in
    /// octave 1, sub 2, whose true edges are [3, 4)).
    fn bucket_bounds(index: usize) -> (u64, u64) {
        if index == 0 {
            return (0, 0);
        }
        let octave = (index - 1) / SUB;
        let sub = ((index - 1) % SUB) as u128;
        let base = 1u64 << octave;
        let edge = |s: u128| base + (s * base as u128).div_ceil(SUB as u128) as u64;
        let lo = edge(sub);
        let hi = if sub as usize == SUB - 1 { base.saturating_mul(2) } else { edge(sub + 1) };
        (lo, hi.max(lo + 1))
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a fractional sample through the configured scale.
    pub fn record_f64(&self, v: f64) {
        self.record((v.max(0.0) * self.scale).round() as u64);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Starts a timer that records its elapsed nanoseconds here when it
    /// drops: one `Instant`, no allocation, no lock.
    pub fn time(&self) -> SpanGuard<'_> {
        SpanGuard { hist: self, start: Instant::now() }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded raw values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean raw value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Largest recorded raw value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Smallest recorded raw value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) of the raw values.
    ///
    /// Walks the cumulative bucket counts and returns the midpoint of the
    /// bucket containing the target rank, clamped to the observed
    /// min/max so the tails stay exact.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Clears all samples.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An active timed region (see [`Histogram::time`]).
#[derive(Debug)]
#[must_use = "the region ends, and is recorded, when the guard drops"]
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_their_call_site_histogram() {
        for _ in 0..3 {
            let _outer = crate::span!("test.span.outer");
            let _inner = crate::span!("test.span.inner");
        }
        let snap = crate::global().snapshot();
        assert_eq!(snap.histogram("test.span.outer.ns").unwrap().count, 3);
        assert_eq!(snap.histogram("test.span.inner.ns").unwrap().count, 3);
    }

    #[test]
    fn bucket_bounds_cover_bucket_index() {
        for v in [0u64, 1, 2, 3, 5, 16, 17, 100, 1000, 1 << 20, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(v >= lo && (v < hi || v == 0), "v={v} idx={idx} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn quantiles_on_uniform_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Log-bucketing with 4 sub-buckets: ≤ 12.5% relative error.
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.15, "p50={p50}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.15, "p99={p99}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn scaled_histograms_round_trip() {
        let h = Histogram::with_scale(1e6);
        h.record_f64(0.25);
        assert_eq!(h.count(), 1);
        let raw = h.quantile(0.5) as f64 / h.scale();
        assert!((raw - 0.25).abs() < 0.05, "raw={raw}");
    }
}
