//! The block cache: a sharded LRU of verified device blocks.
//!
//! "Thanks to the principle of locality of reference, we often find that
//! when an application needs to access one datum on a disk block, it is
//! likely to need to access other data on the same block" (§3.2.1). The
//! cache is where that locality pays off: repeated touches of a cached
//! block cost no device read, and the hit/miss counters let experiments
//! attribute I/O savings to the allocation strategy rather than to cache
//! size. Every read path goes through one [`SharedBlockCache`] — one per
//! store on the serving layer and the historical tier (shared by every
//! session), one per caller on the library path — holding `Arc` payloads
//! so a cached block is handed out without copying and stays alive for
//! exactly as long as some reader still uses it.
//!
//! Concurrency model: the key space is split across `S` shards (block
//! `id` lives in shard `id % S`), each a small LRU map behind its own
//! mutex, so concurrent sessions touching different blocks rarely contend
//! on the same lock; the statistics are atomics. Only verified
//! (checksum-clean) payloads ever enter the cache — a failed read caches
//! nothing.
//!
//! Eviction is LRU *per shard*. [`SharedBlockCache::new`] uses up to 8
//! shards, so a capacity below 8 means one-block shards: direct-mapped,
//! two blocks `S` apart evict each other however recently the rest were
//! used. A single owner that reasons about exact read counts or hit
//! ratios wants [`SharedBlockCache::with_shards`]`(capacity, 1)`, the
//! exact global LRU.
//!
//! Telemetry: `storage.cache.hits`, `storage.cache.misses` and
//! `storage.cache.evictions` count process-wide across all shared caches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use aims_telemetry::counter;

use crate::device::{read_with_retry, BlockDevice, ReadError, RetryPolicy};

/// One shard: an LRU map `block id → (payload, last-use tick)`.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<usize, (Arc<Vec<f64>>, u64)>,
    tick: u64,
}

impl Shard {
    /// Touches and returns a cached payload.
    fn lookup(&mut self, id: usize) -> Option<Arc<Vec<f64>>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&id).map(|(data, last)| {
            *last = tick;
            Arc::clone(data)
        })
    }

    /// Inserts a payload, evicting the least recently used entry when the
    /// shard is at capacity. Returns whether an eviction happened.
    fn insert(&mut self, id: usize, data: Arc<Vec<f64>>, capacity: usize) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&id) && self.entries.len() >= capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, last))| *last) {
                self.entries.remove(&victim);
                evicted = true;
            }
        }
        self.entries.insert(id, (data, self.tick));
        evicted
    }
}

/// How one block fetch was satisfied — the attribution record consumers
/// (e.g. the query service) fold into per-request profiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockFetch {
    /// The payload came straight from the cache (no device I/O).
    pub cache_hit: bool,
    /// Failed device attempts that were retried before success.
    pub retries: usize,
}

/// Aggregate statistics of a [`SharedBlockCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to read the device.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

/// A sharded, capacity-bounded LRU cache of verified device blocks,
/// shared by reference (`&self` everywhere) across threads.
#[derive(Debug)]
pub struct SharedBlockCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    // Statistics only: nothing is published through them.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SharedBlockCache {
    /// A cache holding at most `capacity` blocks total, split over a
    /// default shard count (8, or `capacity` one-block shards below that —
    /// see the module docs).
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        SharedBlockCache::with_shards(capacity, 8)
    }

    /// A cache with an explicit shard count. Capacity is split evenly;
    /// each shard holds at least one block, so the effective total is
    /// `max(capacity, shards)` rounded up to a multiple of the shard
    /// count.
    ///
    /// # Panics
    /// If `capacity == 0` or `shards == 0`.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        let shards = shards.min(capacity);
        SharedBlockCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total block capacity (per-shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard_of(&self, id: usize) -> &Mutex<Shard> {
        &self.shards[id % self.shards.len()]
    }

    /// Looks a block up without touching the device.
    pub fn lookup(&self, id: usize) -> Option<Arc<Vec<f64>>> {
        let hit = self.shard_of(id).lock().unwrap().lookup(id);
        // Both bound before the branch, so a snapshot shows each (at zero)
        // from the first lookup on; `insert` does the same for evictions.
        let (hits, misses) = (counter!("storage.cache.hits"), counter!("storage.cache.misses"));
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hits.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            misses.inc();
        }
        hit
    }

    /// Whether a block is currently resident, without counting a
    /// hit/miss or refreshing its LRU position. A pure probe for
    /// schedulers that plan around residence (e.g. charging a round
    /// budget only for blocks that would cost a device read) — using
    /// [`SharedBlockCache::lookup`] for that would distort both the
    /// hit-ratio statistics and the eviction order.
    pub fn contains(&self, id: usize) -> bool {
        self.shard_of(id).lock().unwrap().entries.contains_key(&id)
    }

    /// Inserts an already-verified payload.
    pub fn insert(&self, id: usize, data: Arc<Vec<f64>>) {
        let evictions = counter!("storage.cache.evictions");
        if self.shard_of(id).lock().unwrap().insert(id, data, self.per_shard_capacity) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evictions.inc();
        }
    }

    /// Fetches a block through the cache with a single device attempt on
    /// miss.
    pub fn get_or_read<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        id: usize,
    ) -> Result<Arc<Vec<f64>>, ReadError> {
        self.get_or_read_outcome(device, id, &RetryPolicy::none()).map(|(data, _)| data)
    }

    /// Fetches a block through the cache, retrying transient device
    /// failures under `policy` on miss ([`read_with_retry`]), and reports
    /// *how* the fetch was satisfied (hit vs device read, and how many
    /// transient failures were retried) so callers can attribute I/O cost
    /// to the requesting session.
    pub fn get_or_read_outcome<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        id: usize,
        policy: &RetryPolicy,
    ) -> Result<(Arc<Vec<f64>>, BlockFetch), ReadError> {
        if let Some(data) = self.lookup(id) {
            return Ok((data, BlockFetch { cache_hit: true, retries: 0 }));
        }
        self.read_and_insert(device, id, policy)
    }

    /// The miss half of [`SharedBlockCache::get_or_read_outcome`]: reads
    /// the device (retrying under `policy`) and caches the verified
    /// payload, without looking the block up first. For callers that did
    /// their own [`SharedBlockCache::lookup`] — e.g. because reaching the
    /// device means taking a lock a cache hit should not wait for.
    pub fn read_and_insert<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        id: usize,
        policy: &RetryPolicy,
    ) -> Result<(Arc<Vec<f64>>, BlockFetch), ReadError> {
        let (data, retries) = read_with_retry(device, id, policy)?;
        let data = Arc::new(data);
        self.insert(id, Arc::clone(&data));
        Ok((data, BlockFetch { cache_hit: false, retries }))
    }

    /// Drops every cached block (keeps statistics).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().entries.clear();
        }
    }

    /// Blocks currently resident across all shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().entries.len()).sum()
    }

    /// Snapshot of this cache's counters (the global `storage.cache.*`
    /// counters keep the process-wide aggregate).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Lifetime hit ratio in `[0, 1]`; `1.0` when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let s = self.stats();
        let total = s.hits + s.misses;
        if total == 0 {
            1.0
        } else {
            s.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MemDevice, ReadErrorKind};
    use crate::faults::{FaultKind, FaultPlan, FaultyDevice};

    fn device(blocks: usize) -> MemDevice {
        let mut d = MemDevice::new(2, blocks);
        for i in 0..blocks {
            d.write_block(i, &[i as f64, i as f64 + 0.5]);
        }
        d.reset_stats();
        d
    }

    #[test]
    fn repeat_reads_hit_the_cache_not_the_device() {
        let d = device(4);
        let cache = SharedBlockCache::new(4);
        for _ in 0..3 {
            assert_eq!(*cache.get_or_read(&d, 1).unwrap(), vec![1.0, 1.5]);
        }
        assert_eq!(d.stats().reads, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!(cache.hit_ratio() > 0.6);
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        let d = device(16);
        let cache = SharedBlockCache::with_shards(4, 2);
        for id in 0..16 {
            cache.get_or_read(&d, id).unwrap();
        }
        assert!(cache.resident() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn shards_keep_lru_per_shard() {
        let d = device(8);
        // One shard: global LRU semantics for a deterministic check.
        let cache = SharedBlockCache::with_shards(2, 1);
        cache.get_or_read(&d, 0).unwrap();
        cache.get_or_read(&d, 1).unwrap();
        cache.get_or_read(&d, 0).unwrap(); // 0 most recent
        cache.get_or_read(&d, 2).unwrap(); // evicts 1
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(1).is_none());
    }

    #[test]
    fn small_default_caches_are_direct_mapped() {
        let d = device(8);
        // new(2) is two one-block shards: 0 and 2 share shard 0, so 2
        // evicts 0 although 1 is the least recently used.
        let cache = SharedBlockCache::new(2);
        assert_eq!((cache.shards(), cache.capacity()), (2, 2));
        cache.get_or_read(&d, 1).unwrap();
        cache.get_or_read(&d, 0).unwrap();
        cache.get_or_read(&d, 2).unwrap();
        assert!(cache.contains(1) && cache.contains(2) && !cache.contains(0));
    }

    #[test]
    fn clear_keeps_stats() {
        let d = device(4);
        let cache = SharedBlockCache::new(4);
        cache.get_or_read(&d, 0).unwrap();
        cache.clear();
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.stats().misses, 1);
        cache.get_or_read(&d, 0).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn empty_cache_hit_ratio_is_one() {
        assert_eq!(SharedBlockCache::new(1).hit_ratio(), 1.0);
    }

    #[test]
    fn failed_reads_cache_nothing() {
        let faulty =
            FaultyDevice::with_plan(2, 2, FaultPlan::uniform(5, FaultKind::DeadBlock, 1.0));
        let cache = SharedBlockCache::new(2);
        let err = cache.get_or_read(&faulty, 0).unwrap_err();
        assert_eq!(err.kind, ReadErrorKind::Dead);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn retry_recovers_transient_faults_within_budget() {
        let mut faulty =
            FaultyDevice::with_plan(2, 4, FaultPlan::uniform(21, FaultKind::ReadError, 0.7));
        for i in 0..4 {
            faulty.write_block(i, &[i as f64, i as f64 + 0.5]);
        }
        let cache = SharedBlockCache::new(4);
        for id in 0..4 {
            let planned = faulty.planned_read_failures(id);
            let policy = RetryPolicy::with_retries(planned);
            let (got, _) = cache.get_or_read_outcome(&faulty, id, &policy).unwrap();
            assert_eq!(*got, vec![id as f64, id as f64 + 0.5]);
        }
        // All four now resident: a second pass costs no device reads.
        let before = faulty.stats().reads;
        for id in 0..4 {
            cache.get_or_read(&faulty, id).unwrap();
        }
        assert_eq!(faulty.stats().reads, before);
    }

    #[test]
    fn fetch_outcomes_attribute_hits_and_retries() {
        let mut faulty =
            FaultyDevice::with_plan(2, 4, FaultPlan::uniform(21, FaultKind::ReadError, 0.7));
        for i in 0..4 {
            faulty.write_block(i, &[i as f64, i as f64 + 0.5]);
        }
        let cache = SharedBlockCache::new(4);
        for id in 0..4 {
            let planned = faulty.planned_read_failures(id);
            let policy = RetryPolicy::with_retries(planned);
            let (_, outcome) = cache.get_or_read_outcome(&faulty, id, &policy).unwrap();
            assert!(!outcome.cache_hit);
            assert_eq!(outcome.retries, planned, "block {id}");
            // Re-fetch: a hit with no device work.
            let (_, again) = cache.get_or_read_outcome(&faulty, id, &policy).unwrap();
            assert_eq!(again, BlockFetch { cache_hit: true, retries: 0 });
        }
    }

    #[test]
    fn concurrent_readers_agree_and_stay_bounded() {
        let d = std::sync::Arc::new(device(32));
        let cache = std::sync::Arc::new(SharedBlockCache::with_shards(16, 4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let d = std::sync::Arc::clone(&d);
            let cache = std::sync::Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for k in 0..200 {
                    let id = (t * 7 + k * 3) % 32;
                    let got = cache.get_or_read(&*d, id).unwrap();
                    assert_eq!(got[0], id as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.resident() <= cache.capacity());
    }

    #[test]
    fn counts_flow_into_global_registry() {
        let before = aims_telemetry::global().snapshot();
        let d = device(2);
        let cache = SharedBlockCache::new(2);
        cache.get_or_read(&d, 0).unwrap();
        cache.get_or_read(&d, 0).unwrap();
        let after = aims_telemetry::global().snapshot();
        assert!(after.counter("storage.cache.hits") > before.counter("storage.cache.hits"));
        assert!(after.counter("storage.cache.misses") > before.counter("storage.cache.misses"));
    }
}
