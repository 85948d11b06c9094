//! The coefficient layout against its definition: within each block,
//! coefficients take the slots in ascending index order; what a store
//! loads under each allocation is pinned image for image; and a tiled
//! store holds nothing per coefficient.

use aims_storage::alloc::Layout;
use aims_storage::store::{AllocKind, CoefficientStore};
use aims_storage::{block_digest, BlockDevice, MemDevice};

#[path = "../../aims-telemetry/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::{alloc_stats_during, allocations_during};

/// The fill-order table a layout is defined by: coefficient `i`'s block
/// is `block_of(i)`, its offset the number of lower indices in that block.
fn fill_order_table(layout: &Layout) -> Vec<(usize, usize)> {
    let mut fill = vec![0usize; layout.num_blocks()];
    (0..layout.len())
        .map(|i| {
            let b = layout.block_of(i);
            fill[b] += 1;
            (b, fill[b] - 1)
        })
        .collect()
}

#[test]
fn every_offset_is_the_fill_order_rank_in_its_block() {
    for e in 0..=14 {
        let n = 1usize << e;
        for b in [2usize, 4, 8, 16, 32, 64, 256] {
            for kind in [AllocKind::TreeTiling, AllocKind::Random(9)] {
                let layout = Layout::new(n, b, kind);
                for (i, (block, off)) in fill_order_table(&layout).into_iter().enumerate() {
                    assert!(off < b, "{kind:?} n={n} B={b}: {i} at offset {off}");
                    assert_eq!(layout.offset_in(i, block), Some(off), "{kind:?} n={n} B={b}: {i}");
                    let other = (block + 1) % layout.num_blocks();
                    if other != block {
                        assert_eq!(layout.offset_in(i, other), None, "{kind:?} n={n} B={b}: {i}");
                    }
                }
            }
        }
    }
}

/// `n` seeded coefficients.
fn seeded(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000_001) as f64 / 1000.0 - 1000.0
        })
        .collect()
}

#[test]
fn loaded_images_are_pinned_under_every_allocation() {
    // (n, B, kind, blocks, digest of the per-block `block_digest`s).
    let pins = [
        (256, 16, AllocKind::Sequential, 16, 0x3b4a_2851_6b9a_93c1),
        (256, 16, AllocKind::Random(3), 16, 0x10da_b45c_1a02_a66a),
        (256, 16, AllocKind::TreeTiling, 17, 0x7d35_9844_da75_4ff3),
        (2048, 32, AllocKind::Sequential, 64, 0x1fb9_7652_88bf_0388),
        (2048, 32, AllocKind::Random(3), 64, 0xaf3c_5286_8ade_e189),
        (2048, 32, AllocKind::TreeTiling, 67, 0x0db1_8f2f_9c30_295e),
    ];
    for (n, b, kind, blocks, digest) in pins {
        let store = CoefficientStore::load(&seeded(n, 7), b, kind, MemDevice::new);
        let per_block: Vec<f64> = (0..store.num_blocks())
            .map(|k| f64::from_bits(block_digest(store.device().raw_block(k))))
            .collect();
        assert_eq!(store.num_blocks(), blocks, "{kind:?} n={n} B={b}");
        assert_eq!(block_digest(&per_block), digest, "{kind:?} n={n} B={b}");
    }
}

#[test]
fn reopening_a_tiled_store_materialises_no_table() {
    let (n, b) = (1usize << 16, 16);
    let loaded = CoefficientStore::load(&seeded(n, 1), b, AllocKind::TreeTiling, MemDevice::new);
    let mut device = MemDevice::new(b, loaded.num_blocks());
    for k in 0..loaded.num_blocks() {
        device.write_block(k, loaded.device().raw_block(k));
    }
    let catalog = loaded.block_energies().to_vec();
    let mut reopened = None;
    let stats = alloc_stats_during(|| {
        reopened = Some(CoefficientStore::reopen(device, AllocKind::TreeTiling, n, catalog));
    });
    let reopened = reopened.unwrap().unwrap();
    assert!(stats.largest < n * 8, "reopen asked for {} bytes at once", stats.largest);
    assert_eq!(reopened.num_blocks(), loaded.num_blocks());

    // Each slot is computed from the index, with no allocation either.
    let layout = Layout::new(n, b, AllocKind::TreeTiling);
    let mut slots = 0usize;
    let lookups = allocations_during(|| {
        for i in 0..n {
            let block = layout.block_of(i);
            slots += layout.offset_in(i, block).map_or(0, |off| off + 1);
        }
    });
    assert_eq!(lookups, 0, "a tiled slot lookup allocated");
    assert!(slots >= n);
}
