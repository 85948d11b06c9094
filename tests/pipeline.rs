//! End-to-end integration: acquisition → transform → blocked storage →
//! offline queries, across crates (the Fig. 1 data path).

use aims::acquisition::sampling::{sample_stream, Strategy};
use aims::dsp::dwt::dwt_full;
use aims::dsp::filters::FilterKind;
use aims::propolyne::{DataCube, Propolyne, RangeSumQuery};
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::noise::NoiseSource;
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::{MemDevice, RetryPolicy};
use aims::storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims::storage::store::{AllocKind, CoefficientStore};
use aims::{range_entries, range_sum, AimsConfig, AimsSystem};

/// `signal`'s Haar coefficients in a fresh in-memory store.
fn haar_store(signal: &[f64], kind: AllocKind) -> CoefficientStore {
    let coeffs = dwt_full(signal, &FilterKind::Haar.filter());
    CoefficientStore::load(&coeffs, 16, kind, MemDevice::new)
}

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
fn a_negative_or_non_finite_query_time_has_no_answer() {
    let session = CyberGloveRig::default().record_session(2.0, 0.4, &mut NoiseSource::seeded(5));
    let mut system = AimsSystem::new(AimsConfig::default());
    system.ingest(&session);
    for bad in [-1.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(system.channel_value(0, bad), None, "point at {bad}");
        for (from, to) in [(bad, 1.0), (0.5, bad), (bad, bad)] {
            assert_eq!(system.channel_range_sum(0, from, to), None, "sum {from}..{to}");
            assert_eq!(system.channel_average(0, from, to), None, "avg {from}..{to}");
        }
    }
    // The same queries over valid times still answer.
    assert!(system.channel_value(0, 0.0).is_some());
    assert!(system.channel_range_sum(0, 0.0, 1.0).is_some());
    assert!(system.channel_average(0, 0.5, 2.0).is_some());
}

#[test]
fn short_recordings_ingest_and_answer_whole_range_sums() {
    // Fewer frames than a sampling window (16) and fewer coefficients than
    // a block (16, under the default tiling): every one still ingests, and
    // the stored range sum over the whole stream is the sum of what the
    // sampling stage reconstructed.
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(21);
    let session = rig.record_session(1.0, 0.5, &mut noise);
    let rate = session.spec().sample_rate;
    for frames in [1usize, 5, 10, 15] {
        let stream = session.slice(0, frames);
        let mut system = AimsSystem::new(AimsConfig::default());
        assert_eq!(system.ingest(&stream).frames, frames);
        let sampled = sample_stream(&stream, Strategy::Adaptive);
        for c in [0usize, 13, 27] {
            let expect: f64 = sampled.reconstructed.channel(c).iter().sum();
            let got = system.channel_range_sum(c, 0.0, (frames + 1) as f64 / rate).unwrap();
            assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0), "{frames} frames, {c}");
        }
    }
}

#[test]
fn sampling_then_storage_is_cheaper_than_raw_and_still_accurate() {
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(5);
    let mut session = rig.record_session(3.0, 0.05, &mut noise);
    session.extend(&rig.record_session(3.0, 0.9, &mut noise));

    let sampled = sample_stream(&session, Strategy::Adaptive);
    assert!(sampled.bytes * 2 < session.device_size_bytes(), "adaptive saved too little");
    assert!(sampled.relative_rmse(&session) < 0.15);

    // Store one sampled channel and verify point access end to end.
    let mut signal = sampled.reconstructed.channel(3);
    signal.resize(1024, *signal.last().unwrap());
    let store = haar_store(&signal, AllocKind::TreeTiling);
    let pool = SharedBlockCache::new(8);
    for t in (0..600).step_by(97) {
        let v = range_sum(&store, t, t, &pool, &RetryPolicy::none()).estimate;
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
        let store = haar_store(&signal, alloc);
        for t in (0..1024).step_by(13) {
            let pool = SharedBlockCache::new(1); // cold cache per query
            range_sum(&store, t, t, &pool, &RetryPolicy::none());
        }
        store.device_stats().reads
    };
    let tiling = reads_with(AllocKind::TreeTiling);
    let sequential = reads_with(AllocKind::Sequential);
    assert!(tiling < sequential, "tiling {tiling} !< sequential {sequential}");
}

#[test]
fn one_store_answers_1d_range_sums_exactly_or_within_the_bound() {
    // A 1-D signal is a one-dimensional cube: under Haar, `dwt_full` and
    // the cube transform give the same coefficients in the same flat
    // layout, so a range sum is the cube's COUNT over the range, planned
    // by `prepare`, on the signal's store under any layout. Clean, the
    // answer is exact — on a sequential store it is the in-memory
    // engine's, bit for bit. Under a dead-block schedule it loses exactly
    // the dead blocks of its plan, prices them at their summed gains, and
    // the truth stays inside that bound.
    const N: usize = 1 << 12;
    let signal: Vec<f64> =
        (0..N).map(|i| ((i * 37 + 11) % 101) as f64 - 50.0 + (i as f64 * 0.003).sin()).collect();
    let mut cube = DataCube::zeros(&[N]);
    cube.values_mut().copy_from_slice(&signal);
    let engine = Propolyne::new(cube.transform(&FilterKind::Haar.filter()));
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    let coeffs = dwt_full(&signal, &FilterKind::Haar.filter());
    assert_eq!(bits(engine.cube().coeffs()), bits(&coeffs));
    let dead = |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(29, FaultKind::DeadBlock, 0.15))
    };

    let policy = RetryPolicy::none();
    let pool = || SharedBlockCache::new(64);
    for kind in [AllocKind::Sequential, AllocKind::TreeTiling] {
        let clean = CoefficientStore::load(&coeffs, 16, kind, MemDevice::new);
        let faulty = CoefficientStore::load(&coeffs, 16, kind, dead);
        let mut lost = 0usize;
        for (a, b) in [(0, N - 1), (5, 9), (100, 3000), (1234, 1234), (2047, 2048), (17, 4000)] {
            let truth: f64 = signal[a..=b].iter().sum();
            let one = range_sum(&clean, a, b, &pool(), &policy);
            let close = (one.estimate - truth).abs() <= 1e-9 * truth.abs().max(1.0);
            assert!(close && !one.degraded(), "{kind:?} [{a},{b}]: {} vs {truth}", one.estimate);
            if kind == AllocKind::Sequential {
                let expect = engine.evaluate(&RangeSumQuery::count(vec![(a, b)]));
                assert_eq!(one.estimate.to_bits(), expect.to_bits(), "[{a},{b}]");
            }

            let (indices, weights) = range_entries(&clean, a, b);
            let plan = clean.plan(&indices, &weights);
            let is_dead = |(b, _): &(&usize, &f64)| faulty.device().is_dead(**b);
            let dead_part: Vec<(&usize, &f64)> =
                plan.blocks.iter().zip(&plan.gains).filter(is_dead).collect();
            let two = range_sum(&faulty, a, b, &pool(), &policy);
            let want: Vec<usize> = dead_part.iter().map(|(b, _)| **b).collect();
            assert_eq!(two.lost_blocks, want, "{kind:?} [{a},{b}]");
            let lost_gain = dead_part.iter().fold(0.0, |acc, (_, g)| acc + *g);
            assert_eq!(two.error_bound.to_bits(), lost_gain.to_bits(), "{kind:?} [{a},{b}]");
            assert!((two.estimate - truth).abs() <= two.error_bound + 1e-9, "{kind:?} [{a},{b}]");
            lost += two.lost_blocks.len();
        }
        assert!(lost > 0, "{kind:?}: seed 29 at 15% dead should cost a block");
    }
}
