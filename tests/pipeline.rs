//! End-to-end integration: acquisition → transform → blocked storage →
//! offline queries, across crates (the Fig. 1 data path).

use aims::acquisition::sampling::{sample_stream, SamplingParams, Strategy};
use aims::dsp::dwt::dwt_full;
use aims::dsp::filters::FilterKind;
use aims::propolyne::{BlockedCoefficients, DataCube, Propolyne, RangeSumQuery};
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::noise::NoiseSource;
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::RetryPolicy;
use aims::storage::faults::{FaultKind, FaultPlan, FaultyDevice};
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

#[test]
fn the_two_fronts_are_one_store() {
    // The same 1-D signal behind both fronts of the blocked coefficient
    // store: `WaveletStore` and a 1-D Haar cube in `BlockedCoefficients`.
    // Under Haar the two transforms give the same coefficients in the same
    // flat layout, and both fronts plan a range sum with the lazy
    // transform's COUNT entries, so the same range must plan the same
    // blocks at the same prices, lose the same blocks to the same
    // dead-block schedule and answer with the same bits.
    const N: usize = 1 << 12;
    let signal: Vec<f64> =
        (0..N).map(|i| ((i * 37 + 11) % 101) as f64 - 50.0 + (i as f64 * 0.003).sin()).collect();
    let mut cube = DataCube::zeros(&[N]);
    cube.values_mut().copy_from_slice(&signal);
    let engine = Propolyne::new(cube.transform(&FilterKind::Haar.filter()));
    let coeffs = engine.cube().coeffs();
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(coeffs), bits(&dwt_full(&signal, &FilterKind::Haar.filter())));
    let dead = |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(29, FaultKind::DeadBlock, 0.15))
    };

    let line = WaveletStore::from_signal(&signal, 16, AllocKind::Sequential);
    let line_faulty = WaveletStore::from_signal_on(&signal, 16, AllocKind::Sequential, dead);
    let blocked = BlockedCoefficients::new(coeffs, 16);
    let blocked_faulty = BlockedCoefficients::on_device(coeffs, 16, dead);

    let policy = RetryPolicy::none();
    let mut lost = 0usize;
    for (a, b) in [(0, N - 1), (5, 9), (100, 3000), (1234, 1234), (2047, 2048), (17, 4000)] {
        let truth: f64 = signal[a..=b].iter().sum();
        let prepared = engine.prepare(&RangeSumQuery::count(vec![(a, b)]));
        let pool = || SharedBlockCache::new(64);

        let one = line.range_sum(a, b, &pool());
        let two = blocked.evaluate_degraded(&prepared, &pool(), &policy).estimate;
        assert!((one - truth).abs() <= 1e-9 * truth.abs().max(1.0), "[{a},{b}]: {one} vs {truth}");
        assert_eq!(one.to_bits(), two.to_bits(), "[{a},{b}]: {one} / {two}");

        let (indices, weights) = line.range_entries(a, b);
        assert_eq!(line.plan(&indices, &weights), blocked.plan(&prepared), "[{a},{b}]");

        let one = line_faulty.range_sum_outcome(a, b, &pool(), &policy);
        let two = blocked_faulty.evaluate_degraded(&prepared, &pool(), &policy);
        assert_eq!(one.lost_blocks, two.lost_blocks, "[{a},{b}]");
        assert_eq!(one.estimate.to_bits(), two.estimate.to_bits(), "[{a},{b}] estimate");
        assert_eq!(one.error_bound.to_bits(), two.error_bound.to_bits(), "[{a},{b}] bound");
        assert!((one.estimate - truth).abs() <= one.error_bound + 1e-9, "[{a},{b}] bound");
        lost += two.lost_blocks.len();
    }
    assert!(lost > 0, "seed 29 at 15% dead should cost the cube path a block");
}
