//! Acquisition → hot tier, end to end.
//!
//! Drives the real ingest pipelines — the double-buffered recorder and
//! the supervised faulty-rig path — into a [`TieredStore`] and checks
//! the feed invariants: every source position lands in the store exactly
//! once (stored frames bit-identical, dropped frames as counted
//! zero-filled holes), and a fed store compacts and queries just like
//! one built from the same samples directly.

use aims_acquisition::ingest::{IngestConfig, SupervisedIngest};
use aims_acquisition::recorder::{DoubleBufferRecorder, QueuePolicy, RecorderConfig};
use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_sensors::types::{MultiStream, StreamSpec};
use aims_sensors::{FaultySensorRig, SensorFaultPlan};
use aims_tier::{
    compact, feed_outcome, feed_recording, range_sum, record_into_store, TierConfig, TieredStore,
};

const SEG: usize = 64;
const FRAMES: usize = 5 * SEG + 13;

fn cfg() -> TierConfig {
    TierConfig { segment_len: SEG, block_size: 16, max_segments: 32, filter: FilterKind::Haar }
}

/// A strictly nonzero seeded source so a zero in the store can only be a
/// fill value, never a sample.
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
fn record_into_store_is_lossless_with_ample_buffer() {
    let src = source();
    let store = TieredStore::new_mem(cfg());
    let recorder = DoubleBufferRecorder::new(RecorderConfig {
        buffer_frames: 4 * FRAMES,
        batch_size: 32,
        store_latency_us: 0,
    });
    let (stats, report) = record_into_store(&recorder, &src, QueuePolicy::DropNewest, 0, &store);
    assert_eq!(stats.dropped_frames, 0, "ample buffer must not drop");
    assert_eq!(report.samples, FRAMES);
    assert_eq!(report.holes, 0);
    assert_eq!(store.len(), FRAMES);
    let snap = store.snapshot();
    for t in (0..FRAMES).step_by(17).chain([FRAMES - 1]) {
        let got = range_sum(&snap, t, t);
        assert_eq!(got.to_bits(), src.frame(t)[0].to_bits(), "point {t}");
    }
}

#[test]
fn record_into_store_zero_fills_dropped_frames() {
    let src = source();
    let store = TieredStore::new_mem(cfg());
    // A tiny buffer and slow storage thread invite interrupt-side drops;
    // whether any happen is scheduling-dependent, so assert the
    // invariants that must hold either way.
    let recorder = DoubleBufferRecorder::new(RecorderConfig {
        buffer_frames: 4,
        batch_size: 4,
        store_latency_us: 40,
    });
    let (stats, report) = record_into_store(&recorder, &src, QueuePolicy::DropNewest, 0, &store);
    assert_eq!(report.samples, FRAMES);
    assert_eq!(report.holes, stats.dropped_frames);
    assert_eq!(store.len(), FRAMES, "every source position occupied exactly once");
    let snap = store.snapshot();
    let mut stored = 0usize;
    let mut holes = 0usize;
    for t in 0..FRAMES {
        let got = range_sum(&snap, t, t);
        if got == 0.0 {
            holes += 1;
        } else {
            assert_eq!(got.to_bits(), src.frame(t)[0].to_bits(), "point {t}");
            stored += 1;
        }
    }
    assert_eq!(stored, stats.stored_frames);
    assert_eq!(holes, stats.dropped_frames);
}

#[test]
fn feed_recording_places_frames_at_source_indices() {
    let src = source();
    let recorder = DoubleBufferRecorder::new(RecorderConfig {
        buffer_frames: 8,
        batch_size: 8,
        store_latency_us: 20,
    });
    let (stored, indices, _) = recorder.record_with(&src, QueuePolicy::DropOldest);
    let store = TieredStore::new_mem(cfg());
    let report = feed_recording(&store, &stored, &indices, FRAMES, 1);
    assert_eq!(report.samples, FRAMES);
    assert_eq!(report.holes, FRAMES - indices.len());
    assert_eq!(store.len(), FRAMES);
    let snap = store.snapshot();
    for (k, &idx) in indices.iter().enumerate().step_by(7) {
        let got = range_sum(&snap, idx, idx);
        assert_eq!(got.to_bits(), stored.frame(k)[1].to_bits(), "stored frame {k} at {idx}");
    }
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
    assert_eq!(report.samples, outcome.stream.len());
    assert_eq!(store.len(), outcome.stream.len());

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
