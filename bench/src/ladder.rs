//! The per-layer ladder: the workload's own seeded inputs replayed at
//! each layer boundary, every call wrapped in a harness span.
//!
//! The ladder runs on the harness's own `FileDevice` copy of the mirrored
//! demo cube, not on the server under test, so a rung is the cost of one
//! public call with nothing else contending. Rungs of layers a workload
//! does not touch still run (on the small hot-store geometry) so that
//! every traced run reports every layer.

use std::path::Path;
use std::time::Instant;

use aims_acquisition::ingest::{IngestConfig, IngestOutcome, SupervisedIngest};
use aims_dsp::dwt::dwt_full_inplace;
use aims_dsp::filters::FilterKind;
use aims_dsp::kernel::DwtScratch;
use aims_exec::ThreadPool;
use aims_propolyne::{BlockedCoefficients, DataCube, Propolyne, RangeSumQuery};
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::{FaultySensorRig, SensorFaultPlan};
use aims_service::{Frame, Outcome, ProgressKind, QueryService, QuerySpec, ServiceConfig};
use aims_storage::{
    BlockDevice, BufferPool, DurabilityMode, FileDevice, FileDeviceOptions, RetryPolicy,
    SharedBlockCache,
};
use aims_tier::{feed_outcome, transform_segment, TierConfig, TieredStore};

use crate::child::ServeConfig;
use crate::oracle::{close, demo_cube, Rng, Stream, SummedArea, CHUNK};
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::median;
use crate::tier::SEGMENT;

/// Runs `f`, records it as a span, and returns its result with the
/// elapsed nanoseconds.
fn timed<R>(spans: &mut Spans, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    let (a, b) = (spans.at(start), spans.at(end));
    spans.push(name, a, b, None, req);
    (r, (b - a) as f64)
}

/// The seeded faulty glove session, repaired by the supervised ingest
/// path — the acquisition wiring in front of the tier. Returns the
/// outcome, the frames on the wire, and the seconds `ingest` took.
pub fn acquire(seed: u64) -> (IngestOutcome, usize, f64) {
    let mut noise = NoiseSource::seeded(seed ^ 0xAC41);
    let session = CyberGloveRig::default().record_session(40.0, 0.7, &mut noise);
    let plan = SensorFaultPlan {
        spike_rate: 0.002,
        duplicate_rate: 0.01,
        reorder_rate: 0.01,
        ..SensorFaultPlan::dropout(seed ^ 0xFA17, 0.03)
    };
    let wire = FaultySensorRig::new(plan).transmit(&session);
    let t0 = Instant::now();
    let outcome = SupervisedIngest::new(IngestConfig::default()).ingest(session.spec(), &wire);
    (outcome, wire.len(), t0.elapsed().as_secs_f64())
}

/// Channel 0 of a repaired session: the samples `feed_outcome` pushes.
pub fn channel0(outcome: &IngestOutcome) -> Vec<f64> {
    (0..outcome.stream.len()).map(|t| outcome.stream.frame(t)[0]).collect()
}

/// The service configuration `aims-serve` builds from its flags.
fn service_config(cache: usize) -> ServiceConfig {
    ServiceConfig { queue_capacity: 64, cache_blocks: cache, ..Default::default() }
}

/// Storage, ProPolyne and in-process service rungs over `queries`.
/// Returns false when an in-process answer missed the oracle.
pub fn serve_rungs(
    dir: &Path,
    cfg: ServeConfig,
    queries: &[Vec<(usize, usize)>],
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<bool, String> {
    let cells = demo_cube(cfg.side, cfg.seed);
    let sat = SummedArea::new(cfg.side, &cells);
    let mut cube = DataCube::zeros(&[cfg.side, cfg.side]);
    cube.values_mut().copy_from_slice(&cells);
    let (wavelet, ns) =
        timed(spans, "dsp.cube_transform", 0, || cube.transform(&FilterKind::Db4.filter()));
    m.set("dsp.cube_transform_s", ns / 1e9);

    let blocks = wavelet.coeffs().len().div_ceil(cfg.block);
    let device = FileDevice::create(dir, cfg.block, blocks, FileDeviceOptions::default())
        .map_err(|e| format!("ladder device {}: {e}", dir.display()))?;
    let mut blocked =
        BlockedCoefficients::on_device(wavelet.coeffs(), cfg.block, move |_, _| device);
    blocked.device_mut().checkpoint();
    let engine = Propolyne::new(wavelet.clone());

    // ProPolyne: prepare, exact plan sizes, evaluation through a warm pool.
    let mut prepare_ns = Vec::new();
    let mut prepared = Vec::new();
    for (k, q) in queries.iter().enumerate() {
        let (p, ns) = timed(spans, "propolyne.prepare", k as u64, || {
            engine.prepare(&RangeSumQuery::count(q.clone()))
        });
        prepare_ns.push(ns);
        prepared.push(p);
    }
    m.set("propolyne.prepare_us", median(&prepare_ns) / 1e3);
    let plans: Vec<Vec<usize>> = prepared.iter().map(|p| blocked.plan_blocks(p)).collect();
    let n = queries.len() as f64;
    m.set("propolyne.query_nnz", prepared.iter().map(|p| p.nnz()).sum::<usize>() as f64 / n);
    m.set("propolyne.plan_blocks_per_query", plans.iter().map(Vec::len).sum::<usize>() as f64 / n);

    let mut pool = BufferPool::new(blocked.num_blocks());
    for p in &prepared {
        blocked.evaluate_degraded(p, &mut pool, &RetryPolicy::none());
    }
    let mut evaluate_ns = Vec::new();
    let mut all_correct = true;
    for (k, (p, q)) in prepared.iter().zip(queries).enumerate() {
        let (ans, ns) = timed(spans, "propolyne.evaluate", k as u64, || {
            blocked.evaluate_degraded(p, &mut pool, &RetryPolicy::none())
        });
        evaluate_ns.push(ns);
        all_correct &= close(ans.estimate, sat.sum(q));
    }
    m.set("propolyne.evaluate_us", median(&evaluate_ns) / 1e3);

    // Storage: device reads (checksum verify included) over the plans'
    // blocks, and hits on a cache that holds them all.
    let mut read_ns = Vec::new();
    for (k, plan) in plans.iter().enumerate() {
        for &b in plan {
            let (r, ns) =
                timed(spans, "storage.read_block", k as u64, || blocked.device().read_block(b));
            r.map_err(|e| format!("ladder read of block {b}: {e}"))?;
            read_ns.push(ns);
        }
    }
    m.set("storage.read_block_us", median(&read_ns) / 1e3);
    let cache = SharedBlockCache::new(blocked.num_blocks());
    let resident: Vec<usize> = plans.iter().flatten().copied().collect();
    for &b in &resident {
        cache.get_or_read(blocked.device(), b).map_err(|e| format!("ladder cache fill: {e}"))?;
    }
    let mut hit_ns = Vec::new();
    for (k, &b) in resident.iter().enumerate() {
        let (r, ns) =
            timed(spans, "storage.cache_hit", k as u64, || cache.get_or_read(blocked.device(), b));
        r.map_err(|e| format!("ladder cache hit: {e}"))?;
        hit_ns.push(ns);
    }
    m.set("storage.cache_hit_ns", median(&hit_ns));

    // Service, in process: the same queries through submit → wait, no wire.
    let service = QueryService::with_blocked(wavelet, blocked, service_config(cfg.cache));
    let mut inproc_ns = Vec::new();
    for pass in 0..2 {
        for (k, q) in queries.iter().enumerate() {
            let (outcome, ns) = timed(spans, "service.inproc_query", k as u64, || {
                service.submit(QuerySpec::interactive(q.clone())).map(|s| s.wait())
            });
            match outcome {
                Ok(Outcome::Done(r)) => all_correct &= close(r.estimate, sat.sum(q)),
                other => return Err(format!("in-process query ended as {other:?}")),
            }
            // The first pass fills the service's cache like the server's
            // warm-up does.
            if pass == 1 {
                inproc_ns.push(ns);
            }
        }
    }
    service.shutdown();
    m.set("service.inproc_p50_ms", median(&inproc_ns) / 1e6);
    Ok(all_correct)
}

/// Rungs that need no cube: the frame codec, the WAL in each durability
/// mode, the tier's transform and snapshot, the DWT kernel, acquisition,
/// and pool dispatch.
pub fn fixed_rungs(
    dir: &Path,
    seed: u64,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    // Wire: one PROGRESS frame through encode + decode.
    let frame = Frame::Progress {
        req_id: 7,
        kind: ProgressKind::Progress,
        round: 3,
        used: 120,
        total: 400,
        estimate: 1234.5,
        bound: 0.25,
        tier: aims_service::Tier::Normal,
    };
    let mut codec_ns = Vec::new();
    for k in 0..2000 {
        let (ok, ns) = timed(spans, "service.frame_codec", k, || {
            Frame::decode_body(std::hint::black_box(&frame.encode_body())).is_ok()
        });
        if !ok {
            return Err("PROGRESS frame did not round-trip".into());
        }
        codec_ns.push(ns);
    }
    m.set("service.frame_codec_ns", median(&codec_ns));

    // Storage: 2048 block writes per durability mode, then a checkpoint.
    const WRITES: usize = 2048;
    let mut rng = Rng::new(seed, 0x1ADD);
    let payload: Vec<f64> = (0..CHUNK).map(|_| rng.below(361) as f64 - 180.0).collect();
    for (label, mode) in [
        ("none", DurabilityMode::None),
        ("periodic64", DurabilityMode::Periodic(64)),
        ("always", DurabilityMode::Always),
    ] {
        let path = dir.join(format!("wal-{label}"));
        let mut dev = FileDevice::create(
            &path,
            CHUNK,
            WRITES,
            FileDeviceOptions { mode, ..Default::default() },
        )
        .map_err(|e| format!("ladder device {}: {e}", path.display()))?;
        let ((), ns) = timed(spans, "storage.write_blocks", WRITES as u64, || {
            for b in 0..WRITES {
                dev.write_block(b, &payload);
            }
        });
        m.set(&format!("storage.write_block_us.{label}"), ns / 1e3 / WRITES as f64);
        if mode == DurabilityMode::None {
            let ((), ns) = timed(spans, "storage.checkpoint", 0, || dev.checkpoint());
            m.set("storage.checkpoint_ms", ns / 1e6);
        }
    }

    // Tier and DSP: one segment through the compactor's transform and
    // through the bare lifting kernel; snapshot cost as segments pile up.
    let stream = Stream::new(seed, &[]);
    let segment: Vec<f64> =
        (0..(SEGMENT / CHUNK) as u64).flat_map(|k| stream.chunk(k).to_vec()).collect();
    let cfg = TierConfig {
        segment_len: SEGMENT,
        block_size: CHUNK,
        max_segments: 3002,
        filter: FilterKind::Haar,
    };
    let mut transform_ns = Vec::new();
    let mut dwt_ns = Vec::new();
    let (haar, mut scratch) = (FilterKind::Haar.filter(), DwtScratch::new());
    for k in 0..200 {
        let (c, ns) =
            timed(spans, "tier.transform_segment", k, || transform_segment(&segment, &cfg));
        std::hint::black_box(c);
        transform_ns.push(ns);
        let mut buf = segment.clone();
        let ((), ns) =
            timed(spans, "dsp.dwt_fwd_4096", k, || dwt_full_inplace(&mut buf, &haar, &mut scratch));
        std::hint::black_box(buf);
        dwt_ns.push(ns);
    }
    m.set("tier.transform_segment_us", median(&transform_ns) / 1e3);
    m.set("dsp.dwt_fwd_4096_us", median(&dwt_ns) / 1e3);

    let store = TieredStore::new_mem(cfg);
    for segments in [1000usize, 3000] {
        while store.len() < segments * SEGMENT {
            store.push_slice(&segment);
        }
        let mut snap_ns = Vec::new();
        for k in 0..50 {
            let (snap, ns) = timed(spans, "tier.snapshot", k, || store.snapshot());
            std::hint::black_box(snap.len());
            snap_ns.push(ns);
        }
        m.set(&format!("tier.snapshot_us.{segments}"), median(&snap_ns) / 1e3);
    }
    drop(store);

    // Acquisition: the supervised path on the seeded faulty session, and
    // the bridge into a store.
    let (outcome, frames, ingest_s) = acquire(seed);
    m.set("acquisition.ingest_frames_per_s", frames as f64 / ingest_s);
    let sink = TieredStore::new_mem(TierConfig { max_segments: 8, ..cfg });
    let (report, ns) = timed(spans, "tier.feed_outcome", 0, || feed_outcome(&sink, &outcome, 0));
    if report.samples != outcome.stream.len() {
        return Err("feed_outcome dropped samples".into());
    }
    m.set("tier.feed_outcome_us", ns / 1e3);

    // Exec: what fanning two items out on the configured pool costs.
    let threads = aims_exec::configured_threads();
    m.set("exec.threads", threads as f64);
    let pool = ThreadPool::new(threads);
    let mut dispatch_ns = Vec::new();
    for k in 0..2000 {
        let (v, ns) = timed(spans, "exec.pool_dispatch", k, || pool.par_map(&[1u64, 2], |&x| x));
        std::hint::black_box(v);
        dispatch_ns.push(ns);
    }
    m.set("exec.pool_dispatch_us", median(&dispatch_ns) / 1e3);
    Ok(())
}
