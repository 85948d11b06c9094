//! Acquisition → hot tier, end to end.
//!
//! Drives the supervised faulty-rig ingest path into a [`TieredStore`]
//! and checks that a fed store holds every repaired sample and compacts
//! and queries just like one built from the same samples directly.

use aims_acquisition::ingest::{IngestConfig, SupervisedIngest};
use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_sensors::types::{MultiStream, StreamSpec};
use aims_sensors::{FaultySensorRig, SensorFaultPlan};
use aims_tier::{compact, feed_outcome, range_sum, TierConfig, TieredStore};

const SEG: usize = 64;
const FRAMES: usize = 5 * SEG + 13;

fn cfg() -> TierConfig {
    TierConfig { segment_len: SEG, block_size: 16, max_segments: 32, filter: FilterKind::Haar }
}

/// A seeded two-channel source.
fn source() -> MultiStream {
    let mut state = 0xFEEDu64;
    let mut stream = MultiStream::new(StreamSpec::anonymous(2, 100.0));
    for _ in 0..FRAMES {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let a = (state % 997) as f64 / 5.0 + 1.0;
        stream.push(&[a, -a]);
    }
    stream
}

#[test]
fn supervised_rig_to_tiered_store_end_to_end() {
    // Clean signal → faulty wire → supervised repair → tiered store →
    // compaction → progressive query, the whole pipeline.
    let src = source();
    let rig = FaultySensorRig::new(SensorFaultPlan::dropout(0x51EA, 0.05));
    let wire = rig.transmit(&src);
    let ingest = SupervisedIngest::new(IngestConfig::default());
    let outcome = ingest.ingest(src.spec(), &wire);

    let store = TieredStore::new_mem(cfg());
    let report = feed_outcome(&store, &outcome, 0);
    assert_eq!(report.samples, FRAMES, "the repaired grid holds every source frame");
    assert_eq!(store.len(), FRAMES);

    // Compact everything; queries must stay bit-identical to a store fed
    // the same channel directly and compacted the same way.
    let direct = TieredStore::new_mem(cfg());
    direct.push_slice(&outcome.stream.channel(0));
    let serial = ThreadPool::new(1);
    store.seal_open();
    direct.seal_open();
    compact::drain(&store, &serial);
    compact::drain(&direct, &serial);
    let (snap, dsnap) = (store.snapshot(), direct.snapshot());
    assert!(snap.segments().iter().all(|s| s.historical));
    let n = store.len();
    for (a, b) in [(0, n - 1), (0, 0), (n / 3, 2 * n / 3), (SEG - 1, SEG)] {
        let got = range_sum(&snap, a, b);
        let want = range_sum(&dsnap, a, b);
        assert_eq!(got.to_bits(), want.to_bits(), "range [{a}, {b}]");
    }
}
