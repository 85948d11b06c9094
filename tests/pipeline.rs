//! End-to-end integration: acquisition → transform → blocked storage →
//! offline queries, across crates (the Fig. 1 data path).

use aims::acquisition::sampling::{sample_stream, SamplingParams, Strategy};
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::noise::NoiseSource;
use aims::storage::cache::SharedBlockCache;
use aims::storage::store::{AllocKind, WaveletStore};
use aims::{AimsConfig, AimsSystem};

#[test]
fn full_pipeline_preserves_queryable_signal() {
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(77);
    let session = rig.record_session(4.0, 0.4, &mut noise);

    let mut system = AimsSystem::new(AimsConfig::default());
    let report = system.ingest(&session);
    assert!(report.sampling_rmse < 0.2, "sampling degraded: {}", report.sampling_rmse);

    // Every channel's stored average matches the source within the
    // sampling tolerance.
    for c in [0usize, 7, 21, 27] {
        let direct: f64 = session.channel(c).iter().sum::<f64>() / session.len() as f64;
        let stored = system.channel_average(c, 0.0, 4.0).unwrap();
        assert!(
            (stored - direct).abs() < 0.25 * direct.abs().max(5.0),
            "channel {c}: {stored} vs {direct}"
        );
    }
}

#[test]
fn sampling_then_storage_is_cheaper_than_raw_and_still_accurate() {
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(5);
    let mut session = rig.record_session(3.0, 0.05, &mut noise);
    session.extend(&rig.record_session(3.0, 0.9, &mut noise));

    let sampled = sample_stream(&session, Strategy::Adaptive, &SamplingParams::default());
    assert!(sampled.bytes * 2 < session.device_size_bytes(), "adaptive saved too little");
    assert!(sampled.relative_rmse(&session) < 0.15);

    // Store one sampled channel and verify point access end to end.
    let mut signal = sampled.reconstructed.channel(3);
    signal.resize(1024, *signal.last().unwrap());
    let store = WaveletStore::from_signal(&signal, 16, AllocKind::TreeTiling);
    let pool = SharedBlockCache::new(8);
    for t in (0..600).step_by(97) {
        let v = store.point_value(t, &pool);
        assert!((v - signal[t]).abs() < 1e-8, "t={t}");
    }
}

#[test]
fn tiling_storage_beats_sequential_through_whole_stack() {
    // The claim must survive the full pipeline, not just the allocator
    // unit tests: same session, same queries, only the allocation differs.
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(12);
    let session = rig.record_session(11.0, 0.5, &mut noise);

    let reads_with = |alloc: AllocKind| -> u64 {
        let mut signal = session.channel(0);
        signal.resize(2048, *signal.last().unwrap());
        let store = WaveletStore::from_signal(&signal, 16, alloc);
        for t in (0..1024).step_by(13) {
            let pool = SharedBlockCache::new(1); // cold cache per query
            store.point_value(t, &pool);
        }
        store.device_stats().reads
    };
    let tiling = reads_with(AllocKind::TreeTiling);
    let sequential = reads_with(AllocKind::Sequential);
    assert!(tiling < sequential, "tiling {tiling} !< sequential {sequential}");
}
