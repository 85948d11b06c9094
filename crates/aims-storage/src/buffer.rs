//! LRU buffer pool over the block device.
//!
//! "Thanks to the principle of locality of reference, we often find that
//! when an application needs to access one datum on a disk block, it is
//! likely to need to access other data on the same block" (§3.2.1). The
//! buffer pool is where that locality pays off: repeated touches of a
//! cached block cost no device read. Hit/miss counters let experiments
//! attribute I/O savings to the allocation strategy rather than to cache
//! size.
//!
//! The pool is also a fault-tolerant read path:
//! [`BufferPool::get_with_retry`] goes to the device through
//! [`read_with_retry`] (transient failures retried under a
//! [`RetryPolicy`] with exponential backoff, `storage.retries` and
//! `storage.corrupt` recorded). Only verified (checksum-clean) payloads
//! ever enter the cache.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use aims_telemetry::{global, Counter, Gauge};

use crate::device::{read_with_retry, BlockDevice, ReadError, RetryPolicy};

/// Cached handles to the global `storage.pool.*` metrics. Every pool in
/// the process records into the same counters; the gauge tracks the
/// process-wide hit ratio derived from them.
struct PoolTelemetry {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    hit_ratio: Arc<Gauge>,
}

fn pool_telemetry() -> &'static PoolTelemetry {
    static T: OnceLock<PoolTelemetry> = OnceLock::new();
    T.get_or_init(|| {
        let r = global();
        PoolTelemetry {
            hits: r.counter("storage.pool.hits"),
            misses: r.counter("storage.pool.misses"),
            evictions: r.counter("storage.pool.evictions"),
            hit_ratio: r.gauge("storage.pool.hit_ratio"),
        }
    })
}

/// Cache statistics.
///
/// The counting now lives on the telemetry registry (counters
/// `storage.pool.{hits,misses,evictions}` and gauge
/// `storage.pool.hit_ratio`); this struct remains as the per-pool view
/// returned by [`BufferPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that had to read the device.
    pub misses: u64,
    /// Cached blocks evicted.
    pub evictions: u64,
}

/// Refreshes the process-wide hit-ratio gauge from the global counters
/// (so it stays coherent even with several pools alive).
fn publish_hit_ratio(telemetry: &PoolTelemetry) {
    telemetry.hit_ratio.set(ratio(telemetry.hits.get(), telemetry.misses.get()));
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// A fixed-capacity LRU cache of device blocks.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// block id → (data, last-use tick)
    cache: HashMap<usize, (Vec<f64>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` blocks.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        BufferPool { capacity, cache: HashMap::new(), tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Fetches a block through the cache with no retries (a single device
    /// attempt). Returns a borrow of the cached payload, valid until the
    /// next `&mut self` call.
    pub fn get<'p, D: BlockDevice + ?Sized>(
        &'p mut self,
        device: &D,
        id: usize,
    ) -> Result<&'p [f64], ReadError> {
        self.get_with_retry(device, id, &RetryPolicy::none())
    }

    /// Fetches a block through the cache, retrying transient device
    /// failures under `policy`. Each retry increments `storage.retries`;
    /// checksum mismatches increment `storage.corrupt`. Dead blocks fail
    /// immediately (no retry can help them).
    pub fn get_with_retry<'p, D: BlockDevice + ?Sized>(
        &'p mut self,
        device: &D,
        id: usize,
        policy: &RetryPolicy,
    ) -> Result<&'p [f64], ReadError> {
        let telemetry = pool_telemetry();
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, last)) = self.cache.get_mut(&id) {
            *last = tick;
            self.hits += 1;
            telemetry.hits.inc();
            publish_hit_ratio(telemetry);
            return Ok(&self.cache[&id].0);
        }
        self.misses += 1;
        telemetry.misses.inc();
        publish_hit_ratio(telemetry);

        let (data, _) = read_with_retry(device, id, policy)?;
        self.admit(id, data, tick, telemetry);
        Ok(&self.cache[&id].0)
    }

    /// Admits a verified payload into the local LRU map, evicting the
    /// least recently used entry at capacity.
    fn admit(&mut self, id: usize, data: Vec<f64>, tick: u64, telemetry: &PoolTelemetry) {
        if self.cache.len() >= self.capacity {
            if let Some((&victim, _)) = self.cache.iter().min_by_key(|(_, (_, last))| *last) {
                self.cache.remove(&victim);
                self.evictions += 1;
                telemetry.evictions.inc();
            }
        }
        self.cache.insert(id, (data, tick));
    }

    /// Drops all cached blocks (keeps statistics).
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// This pool's lifetime hit ratio in `[0, 1]`; `1.0` when nothing was
    /// requested yet.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.misses)
    }

    /// Snapshot of this pool's counters (the global registry keeps the
    /// process-wide aggregate).
    pub fn stats(&self) -> PoolStats {
        PoolStats { hits: self.hits, misses: self.misses, evictions: self.evictions }
    }

    /// Resets this pool's counters (global `storage.pool.*` counters are
    /// cumulative and unaffected).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Blocks currently cached.
    pub fn resident(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MemDevice, ReadErrorKind};
    use crate::faults::{FaultKind, FaultPlan, FaultyDevice};

    fn device() -> MemDevice {
        let mut d = MemDevice::new(2, 4);
        for i in 0..4 {
            d.write_block(i, &[i as f64, i as f64 + 0.5]);
        }
        d.reset_stats();
        d
    }

    #[test]
    fn hits_avoid_device_reads() {
        let d = device();
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.get(&d, 0).unwrap(), &[0.0, 0.5]);
        assert_eq!(pool.get(&d, 0).unwrap(), &[0.0, 0.5]);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(pool.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let d = device();
        let mut pool = BufferPool::new(2);
        pool.get(&d, 0).unwrap();
        pool.get(&d, 1).unwrap();
        pool.get(&d, 0).unwrap(); // 0 is now most recent
        pool.get(&d, 2).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        pool.get(&d, 0).unwrap(); // hit
        pool.get(&d, 1).unwrap(); // miss again
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 4);
    }

    #[test]
    fn clear_keeps_stats() {
        let d = device();
        let mut pool = BufferPool::new(4);
        pool.get(&d, 0).unwrap();
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats().misses, 1);
        pool.get(&d, 0).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn empty_pool_hit_ratio_is_one() {
        assert_eq!(BufferPool::new(1).hit_ratio(), 1.0);
    }

    #[test]
    fn pool_counts_flow_into_global_registry() {
        let d = device();
        let before = aims_telemetry::global().snapshot();
        let mut pool = BufferPool::new(2);
        pool.get(&d, 0).unwrap();
        pool.get(&d, 0).unwrap();
        let after = aims_telemetry::global().snapshot();
        assert!(after.counter("storage.pool.hits") > before.counter("storage.pool.hits"));
        assert!(after.counter("storage.pool.misses") > before.counter("storage.pool.misses"));
        assert!(after.gauge("storage.pool.hit_ratio").is_some());
    }

    #[test]
    fn retry_recovers_transient_faults_within_budget() {
        let seed = 21u64;
        let mut faulty =
            FaultyDevice::with_plan(2, 4, FaultPlan::uniform(seed, FaultKind::ReadError, 0.7));
        for i in 0..4 {
            faulty.write_block(i, &[i as f64, i as f64 + 0.5]);
        }
        for id in 0..4 {
            let planned = faulty.planned_read_failures(id);
            assert!(planned < 4096);
            let mut pool = BufferPool::new(4);
            let policy = RetryPolicy { retries: planned, ..RetryPolicy::none() };
            let got = pool.get_with_retry(&faulty, id, &policy).unwrap().to_vec();
            assert_eq!(got, vec![id as f64, id as f64 + 0.5]);
        }
    }

    #[test]
    fn exhausted_budget_surfaces_the_error() {
        let mut faulty =
            FaultyDevice::with_plan(2, 2, FaultPlan::uniform(5, FaultKind::BitFlip, 1.0));
        faulty.write_block(0, &[1.0, 2.0]);
        let mut pool = BufferPool::new(2);
        let err = pool.get_with_retry(&faulty, 0, &RetryPolicy::with_retries(2)).unwrap_err();
        assert_eq!(err.kind, ReadErrorKind::Corrupt);
        assert_eq!(err.block, 0);
        assert_eq!(pool.resident(), 0, "corrupt payloads must never enter the cache");
    }

    #[test]
    fn dead_blocks_fail_fast_without_retries() {
        let faulty =
            FaultyDevice::with_plan(2, 4, FaultPlan::uniform(5, FaultKind::DeadBlock, 1.0));
        let before = aims_telemetry::global().counter("storage.retries").get();
        let mut pool = BufferPool::new(2);
        let err = pool.get_with_retry(&faulty, 1, &RetryPolicy::with_retries(50)).unwrap_err();
        assert_eq!(err.kind, ReadErrorKind::Dead);
        let after = aims_telemetry::global().counter("storage.retries").get();
        assert_eq!(after, before, "dead blocks must not burn the retry budget");
    }
}
