//! The memory bound: what the tiered store keeps resident is the hot tier
//! plus one bounded cache, not the data.
//!
//! 64 MiB of samples stream through a file-backed store with the
//! background compactor running. Once a segment is installed it lives on
//! the historical device only, so neither the store's own accounting
//! (`resident_bytes`, the `tier.resident_bytes` gauge) nor the process's
//! resident set may grow with what was ingested. This is the only test in
//! this binary: `VmRSS` belongs to it alone.

use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_storage::{DurabilityMode, FileDeviceOptions};
use aims_telemetry::global;
use aims_tier::{
    range_sum_on, Compactor, CompactorConfig, TierConfig, TieredStore, HIST_CACHE_BYTES,
};

const SEG: usize = 4096;
const BLOCK: usize = 256;
const SEGMENTS: usize = 2048; // × 32 KiB = 64 MiB
/// The producer stalls while this many sealed segments await compaction.
const MAX_BACKLOG: usize = 32;

fn vm_rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    let kib: usize = line.split_whitespace().nth(1).expect("VmRSS value").parse().expect("KiB");
    kib * 1024
}

#[test]
fn resident_memory_is_hot_tier_plus_cache_not_data() {
    let cfg = TierConfig {
        segment_len: SEG,
        block_size: BLOCK,
        max_segments: SEGMENTS + 2,
        filter: FilterKind::Haar,
    };
    let dir = std::env::temp_dir().join(format!("aims-tier-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = FileDeviceOptions { mode: DurabilityMode::Periodic(64), ..Default::default() };
    let store = TieredStore::create_durable(&dir, cfg, opts).unwrap();
    let compactor = Compactor::spawn(store.clone(), CompactorConfig::default());
    let catalog_bytes = |segments: usize| segments * (SEG / BLOCK) * 8;
    let rss_before = vm_rss_bytes();

    let mut state = 0x3E3Du64;
    let mut chunk = vec![0.0; SEG];
    let mut truth = 0.0;
    for seg in 0..SEGMENTS {
        for v in chunk.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 2048) as f64 - 1024.0;
            truth += *v;
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while store.stats().sealed_raw >= MAX_BACKLOG {
            assert!(Instant::now() < deadline, "compactor stopped making progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        store.push_slice(&chunk);
        if seg % 64 == 63 {
            let allowed = (MAX_BACKLOG + 1) * SEG * 8 + HIST_CACHE_BYTES + catalog_bytes(seg + 1);
            assert!(store.resident_bytes() <= allowed, "resident bytes grew with the data");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while store.stats().sealed_raw > 0 {
        assert!(Instant::now() < deadline, "compactor failed to drain the backlog");
        std::thread::sleep(Duration::from_millis(1));
    }
    compactor.stop();

    // Read everything back — twice, so the cache is as full as this
    // store's queries can make it — and the bound still holds.
    let snap = store.snapshot();
    assert!(snap.segments().iter().all(|s| s.historical));
    let pool = ThreadPool::new(1);
    for _ in 0..2 {
        let total = range_sum_on(&snap, 0, SEGMENTS * SEG - 1, &pool);
        assert!((total - truth).abs() <= 1e-9 * truth.abs().max(1.0), "{total} vs {truth}");
        assert!(range_sum_on(&snap, SEG / 3, SEGMENTS * SEG - SEG / 3, &pool).is_finite());
    }
    let resident = store.resident_bytes();
    assert!(resident > 0 && resident <= HIST_CACHE_BYTES + catalog_bytes(SEGMENTS));
    assert_eq!(global().snapshot().gauge("tier.resident_bytes"), Some(resident as f64));
    let grew = vm_rss_bytes().saturating_sub(rss_before);
    assert!(grew < 24 << 20, "VmRSS grew by {} MiB over a 64 MiB ingest", grew >> 20);

    drop((snap, store));
    std::fs::remove_dir_all(&dir).ok();
}
