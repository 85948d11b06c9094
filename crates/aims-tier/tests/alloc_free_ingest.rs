//! The tiered store's ingest ack at the allocator level: once one
//! checkpoint cycle has warmed the hot device, `push_slice` of whole blocks
//! between two seals performs zero heap allocations — the open segment's
//! buffer was sized at the last seal, and each block is held there alone
//! until the ack whose pending run holds the write that checkpoints (about
//! every 32nd block here) stages the run into the hot device's record
//! arena, which keeps its capacity across a WAL sync and a checkpoint. The
//! counted window holds at least one such staging ack.

use aims_dsp::filters::FilterKind;
use aims_storage::{DurabilityMode, FileDeviceOptions};
use aims_tier::{TierConfig, TieredStore};

#[path = "../../aims-telemetry/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::allocations_during;

const BLOCK: usize = 256;
const SEG: usize = 64 * BLOCK;

#[test]
fn warm_push_slice_of_whole_blocks_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("aims-tier-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = TierConfig {
        segment_len: SEG,
        block_size: BLOCK,
        max_segments: 4,
        filter: FilterKind::Haar,
    };
    // The benchmark's flush policy: a WAL fsync every 64 appends, a
    // checkpoint every 64 KiB of WAL (31 records of 256 items).
    let opts = FileDeviceOptions { mode: DurabilityMode::Periodic(64), ..Default::default() };
    let store = TieredStore::create_durable(&dir, cfg, opts).unwrap();
    let block =
        |k: usize| -> Vec<f64> { (0..BLOCK).map(|i| (k * BLOCK + i) as f64 * 0.5).collect() };

    // Warm: one whole segment, sealed — two checkpoint cycles and a seal.
    for k in 0..SEG / BLOCK {
        store.push_slice(&block(k));
    }
    assert_eq!(store.stats().sealed_raw, 1);
    // Counted: all but the last block of the next segment — more than one
    // checkpoint's worth of records, so a checkpoint and a sync fall inside.
    let blocks: Vec<Vec<f64>> = (0..SEG / BLOCK - 1).map(block).collect();
    let pushes = allocations_during(|| {
        for b in &blocks {
            store.push_slice(b);
        }
    });
    assert_eq!(pushes, 0, "push_slice of whole blocks between seals must not allocate");
    assert_eq!(store.stats().open_len, SEG - BLOCK);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
