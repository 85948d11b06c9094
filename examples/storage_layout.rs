//! Storage subsystem demo (paper §3.2): how the error-tree tiling
//! allocation changes query I/O, how the cache sees the locality it
//! creates, and persistence on a durable block device.
//!
//! Run with: `cargo run --release --example storage_layout`

use aims::dsp::dwt::dwt_full;
use aims::dsp::filters::WaveletFilter;
use aims::range_sum;
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::noise::NoiseSource;
use aims::storage::alloc::needed_items_upper_bound;
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::{BlockDevice, MemDevice, RetryPolicy};
use aims::storage::store::{AllocKind, CoefficientStore};
use aims::storage::{FileDevice, FileDeviceOptions};

/// `Σ_{t=a}^{b} x[t]` from a store of `x`'s Haar coefficients; a point
/// value is the range `[t, t]`.
fn sum<D: BlockDevice>(
    store: &CoefficientStore<D>,
    a: usize,
    b: usize,
    pool: &SharedBlockCache,
) -> f64 {
    range_sum(store, a, b, pool, &RetryPolicy::none()).estimate
}

fn main() {
    // A real signal: one glove channel, padded to a power of two.
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(8);
    let session = rig.record_session(41.0, 0.6, &mut noise);
    let mut signal = session.channel(4);
    signal.resize(4096, *signal.last().unwrap());
    let coeffs = dwt_full(&signal, &WaveletFilter::haar());
    let block = 32;
    println!(
        "signal: {} samples, block size {} (needed-items bound: {:.1})",
        signal.len(),
        block,
        needed_items_upper_bound(block)
    );

    // The same queries under three allocations.
    println!("\nblock reads for 64 cold point queries + 16 range sums:");
    for (name, kind) in [
        ("error-tree tiling", AllocKind::TreeTiling),
        ("sequential", AllocKind::Sequential),
        ("random", AllocKind::Random(5)),
    ] {
        let store = CoefficientStore::load(&coeffs, block, kind, MemDevice::new);
        for t in (0..4096).step_by(64) {
            let pool = SharedBlockCache::new(1); // cold cache per query
            sum(&store, t, t, &pool);
        }
        for k in 0..16 {
            let a = k * 150;
            let pool = SharedBlockCache::new(1);
            sum(&store, a, a + 1500, &pool);
        }
        println!("  {name:>18}: {:>5} reads", store.device_stats().reads);
    }

    // Warm cache: the locality the tiling creates pays off in the pool too.
    let store = CoefficientStore::load(&coeffs, block, AllocKind::TreeTiling, MemDevice::new);
    let pool = SharedBlockCache::with_shards(16, 1); // one shard: exact LRU
    for t in 0..512 {
        sum(&store, t, t, &pool);
    }
    println!(
        "\nwarm sequential scan of 512 points: {:.1}% buffer hit ratio ({} device reads)",
        pool.hit_ratio() * 100.0,
        store.device_stats().reads
    );

    // Persistence (§4's plan: BLOBs first, raw disk blocks next): the
    // same store on a durable file device, checkpointed, dropped, and
    // reopened from its blocks and the energy catalog kept when they were
    // written (no block is read to reopen).
    let dir = std::env::temp_dir().join(format!("aims-storage-layout-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut durable = CoefficientStore::load(&coeffs, block, AllocKind::TreeTiling, |bs, nb| {
        FileDevice::create(&dir, bs, nb, FileDeviceOptions::default()).expect("create device")
    });
    durable.device_mut().checkpoint();
    let catalog = durable.block_energies().to_vec();
    drop(durable);
    let device = FileDevice::open(&dir, FileDeviceOptions::default()).expect("reopen device");
    let reopened = CoefficientStore::reopen(device, AllocKind::TreeTiling, signal.len(), catalog)
        .expect("catalog");
    let p1 = SharedBlockCache::new(4);
    let p2 = SharedBlockCache::new(4);
    assert_eq!(sum(&store, 777, 777, &p1).to_bits(), sum(&reopened, 777, 777, &p2).to_bits());
    println!(
        "\npersistence: {} blocks on a FileDevice, reopened store answers bit-identically \
         (checked point 777)",
        reopened.num_blocks()
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
