//! The durable block path at the allocator level: once one checkpoint
//! cycle has warmed a [`FileDevice`], `write_block` between checkpoints
//! (a block rewritten inside one batch included), the `sync` that encodes
//! the batch, verified reads of dirty and main-file blocks, and a warm
//! checkpoint perform zero heap allocations — each write's one staged copy
//! lives in a record arena that keeps its capacity across checkpoints —
//! and a read shows each block's latest payload, never another block's,
//! before or after a checkpoint and a reopen.

use aims_storage::{BlockDevice, DurabilityMode, FileDevice, FileDeviceOptions};

#[path = "../../aims-telemetry/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::allocations_during;

const BLOCK: usize = 256;
const BLOCKS: usize = 8;

/// A payload no other `(block, generation)` shares in any item.
fn payload(block: usize, generation: u64) -> Vec<f64> {
    (0..BLOCK)
        .map(|i| f64::from_bits((generation << 48) | ((block as u64) << 32) | i as u64))
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn warm_block_path_allocates_nothing_and_reads_each_blocks_latest_payload() {
    let dir = std::env::temp_dir().join(format!("aims-alloc-free-{}", std::process::id()));
    // Checkpoints happen only where the test calls them.
    let opts = FileDeviceOptions {
        mode: DurabilityMode::Periodic(4),
        checkpoint_bytes: 1 << 30,
        ..Default::default()
    };
    let mut device = FileDevice::create(&dir, BLOCK, BLOCKS, opts.clone()).unwrap();
    let generations: Vec<Vec<Vec<f64>>> =
        (0..3).map(|g| (0..BLOCKS).map(|b| payload(b, g)).collect()).collect();
    let mut buf = vec![0.0; BLOCK];

    // Warm cycle: every block dirty once, one checkpoint, one main read.
    for (b, data) in generations[0].iter().enumerate() {
        device.write_block(b, data);
    }
    device.checkpoint();
    device.read_into(0, &mut buf).unwrap();

    // Between checkpoints: five blocks rewritten. The fourth write syncs
    // (`periodic:4`); the last three are one batch.
    let rewritten = [7usize, 5, 4, 2, 1];
    let writes = allocations_during(|| {
        for &b in &rewritten {
            device.write_block(b, &generations[1][b]);
        }
        // Two more writes of a dirty block: its three records share the
        // arena with block 1's.
        device.write_block(4, &generations[2][4]);
        device.write_block(4, &generations[1][4]);
        device.sync();
    });
    assert_eq!(writes, 0, "write_block and sync between checkpoints must not allocate");

    // Dirty blocks serve the new payload, the rest the main-file one.
    let expected = |b: usize| &generations[usize::from(rewritten.contains(&b))][b];
    let mut exact = true;
    let reads = allocations_during(|| {
        for b in 0..BLOCKS {
            device.read_into(b, &mut buf).unwrap();
            exact &= same_bits(&buf, expected(b));
        }
    });
    assert_eq!(reads, 0, "verified reads (dirty and main-file) must not allocate");
    assert!(exact, "a read before the checkpoint returned another write's payload");

    let fold = allocations_during(|| device.checkpoint());
    assert_eq!(fold, 0, "a warm checkpoint must not allocate");
    for b in 0..BLOCKS {
        assert!(same_bits(&device.read_block(b).unwrap(), expected(b)), "block {b}");
    }

    // A third generation through the emptied arena, left to the WAL.
    for (b, data) in generations[2].iter().enumerate().rev() {
        device.write_block(b, data);
    }
    device.sync();
    drop(device);
    let device = FileDevice::open(&dir, opts).unwrap();
    assert_eq!(device.recovery().replayed_records, BLOCKS as u64);
    for (b, data) in generations[2].iter().enumerate() {
        assert!(same_bits(&device.read_block(b).unwrap(), data), "block {b} after reopen");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
