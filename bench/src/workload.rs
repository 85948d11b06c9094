//! The four workloads. Each runs on one node — an `aims-serve` child over
//! a cube on disk, and a durable tiered store in the harness process — and
//! has two sides, because every workload reports every end-to-end metric:
//! closed-loop analysts over TCP, and an open-loop producer into the
//! tiered store. The side a workload is about gets the measured window;
//! the other gets a third as long, as a control. They take turns
//! ([`TURNS`]), so nothing ingests while an analyst waits and no analyst
//! reads while the burst is written; only `mixed_ingest_query` has a
//! reader beside its writer, the planner thread on the store itself.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aims_telemetry::global;
use aims_tier::feed_outcome;

use crate::child::{peak_rss_mb, ServeChild, ServeConfig};
use crate::ladder;
use crate::oracle::{cube_seed, demo_cube, Rng, Stream, SummedArea, CHUNK};
use crate::report::Outcome;
use crate::serve::{delta, whole_cube_matches, Node, ServeShape, Window, POINT_HOT, RANGE_COLD};
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::tier::{
    self, produce, Engine, Produced, Queried, Shared, TierShape, TierSide, BURST, MIXED, RECORDING,
    SEGMENT,
};
use crate::{Ctx, TURNS};

/// One workload: the shape of each side, and which side it is about.
pub struct Workload {
    serve: ServeShape,
    tier: TierShape,
    about_serve: bool,
}

/// The workload called `name` in `report::WORKLOADS`. The reference
/// analysts of the tier workloads are the hot store's: the cheapest server
/// to set up and the quietest beside the store under test.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    const ALL: [(&str, Workload); 4] = [
        ("serve_point_hot", Workload { serve: POINT_HOT, tier: RECORDING, about_serve: true }),
        ("serve_range_cold", Workload { serve: RANGE_COLD, tier: RECORDING, about_serve: true }),
        ("ingest_burst", Workload { serve: POINT_HOT, tier: BURST, about_serve: false }),
        ("mixed_ingest_query", Workload { serve: POINT_HOT, tier: MIXED, about_serve: false }),
    ];
    ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| w)
}

/// Runs one workload and returns its metrics.
pub fn run(ctx: &Ctx, w: &Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = ServeConfig {
        side: w.serve.side,
        block: w.serve.block,
        cache: w.serve.cache,
        seed: cube_seed(ctx.seed),
    };
    let sat = SummedArea::new(cfg.side, &demo_cube(cfg.side, cfg.seed));
    let session = w.tier.acquisition_head.then(|| ladder::acquire(ctx.seed).0);
    let head = session.as_ref().map(ladder::channel0).unwrap_or_default();
    let stream = Stream::new(ctx.seed, &head);
    let (cube_dir, tier_dir) = (ctx.work.join("cube"), ctx.work.join("tier"));
    let (serve_slice, tier_slice) = match w.about_serve {
        true => (ctx.slice(), ctx.side_slice()),
        false => (ctx.side_slice(), ctx.slice()),
    };
    let capacity = head.len() + w.tier.capacity(ctx.warmup() + tier_slice * TURNS as u32);

    // Set-up: a fresh data directory loaded by the server (cube build,
    // transform, block load, checkpoint); both tier devices created and
    // the acquisition head run through `feed_outcome`.
    let shared = Shared::default();
    let mut setup_s = Vec::new();
    let (server, engine) = loop {
        shared.acked.store(0, Ordering::Release);
        let t0 = Instant::now();
        let server = ServeChild::spawn(&ctx.serve_bin, &cube_dir, cfg, ctx.threads)?;
        let engine = Engine::create(&tier_dir, capacity)?;
        if let Some(outcome) = &session {
            let fed = feed_outcome(&engine.store, outcome, 0);
            shared.acked.fetch_add(fed.samples, Ordering::Release);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == ctx.reps {
            break (server, engine);
        }
        server.shutdown()?;
        engine.close();
        remove_dirs(&[&cube_dir, &tier_dir])?;
    };
    out.metrics.set("setup_s", median(&setup_s));
    out.count(1, u64::from(!whole_cube_matches(&server, cfg.side, &sat)?));

    // The preload is warm-up, not set-up: it goes in flat out, and what
    // the store absorbs flat out follows the disk's fsync latency, which
    // on the sandbox steps threefold with its burst allowance.
    produce(&engine.store, &stream, 0, None, &shared, (w.tier.preload / CHUNK) as u64, None);
    engine.drain()?;

    let node = Node { shape: &w.serve, server: &server, sat: &sat, stop: AtomicBool::new(false) };
    let mut tier_side = TierSide {
        shape: &w.tier,
        engine: &engine,
        stream: &stream,
        shared: &shared,
        rng: Rng::new(ctx.seed, 0x71E4),
        next_chunk: (w.tier.preload / CHUNK) as u64,
    };
    node.window(ctx.seed, 0, ctx.warmup(), false, None)?;
    tier_side.slice(ctx.warmup(), None)?;

    // The window, in turns. In the traced pass the analysts' first turn
    // stays untraced: it is the base the traced turns are compared with.
    let mut spans = ctx.trace.then(|| Spans::new(Instant::now()));
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let (mut produced, mut queried) = (Produced::default(), Queried::default());
    let (mut drain, mut backlog_max) = (Duration::ZERO, 0);
    let own0 = global().snapshot();
    let mut srv0 = None;
    for turn in 0..TURNS {
        let tracing = ctx.trace && turn > 0;
        if tracing && srv0.is_none() {
            srv0 = Some(server.metrics()?);
        }
        let log = if tracing { spans.as_mut() } else { None };
        let answered = node.window(ctx.seed, 1 + turn as u64, serve_slice, tracing, log)?;
        out.count(answered.queries(), answered.failed());
        if tracing { &mut traced } else { &mut plain }.merge(answered);

        let taken = tier_side.slice(tier_slice, spans.as_mut())?;
        out.count(taken.produced.chunks, 0);
        produced.merge(taken.produced);
        if let Some(q) = taken.queried {
            out.count(q.latency_ms.len() as u64, q.wrong);
            queried.merge(q);
        }
        backlog_max = backlog_max.max(taken.backlog_max);
        drain += engine.drain()?;
    }
    let (own1, srv1) = (global().snapshot(), server.metrics()?);

    // Stop the node cleanly — seal the tail, let the compactor finish,
    // fold the WALs — then bring it back: the server recovers its data
    // directory, the tiered store replays its WALs, and both must still
    // hold everything they acknowledged.
    engine.store.seal_open();
    drain += engine.drain()?;
    let acked = shared.acked.load(Ordering::Acquire);
    let peak_rss = server.peak_rss_mb() + peak_rss_mb("self");
    server.shutdown()?;
    let cfg_tier = engine.cfg;
    engine.close();
    let disk = tier::dir_bytes(&tier_dir) as f64 / (8 * cfg_tier.max_segments * SEGMENT) as f64;
    let own2 = global().snapshot();
    let mut reopen_s = Vec::new();
    let mut server_replayed = 0.0;
    for _ in 0..ctx.reopen_reps {
        let server = ServeChild::spawn(&ctx.serve_bin, &cube_dir, cfg, ctx.threads)?;
        let back =
            tier::reopen(&tier_dir, cfg_tier, acked, &stream, &mut Rng::new(ctx.seed, 0x0BE1))?;
        reopen_s.push((server.startup + back.took).as_secs_f64());
        out.count(
            back.checks + 1,
            back.failed + u64::from(!whole_cube_matches(&server, cfg.side, &sat)?),
        );
        server_replayed = server.metrics()?.counter("storage.wal.replayed") as f64;
        server.shutdown()?;
    }

    let m = &mut out.metrics;
    let Some(srv0) = srv0 else {
        m.set("query_p50_ms", median(&plain.pooled(|c| &c.latency_ms)));
        m.set("query_qps", plain.qps());
        m.set("first_answer_p50_ms", median(&plain.pooled(|c| &c.first_answer_ms)));
        m.set("ingest_samples_per_s", tier::sustained_rate(&produced, drain));
        m.set("ingest_ack_p50_us", median(&produced.call_us));
        m.set("peak_rss_mb", peak_rss);
        return Ok(out);
    };

    // Per-layer figures of the traced turns.
    let answers = traced.queries() as f64;
    let plain_p50 = median(&plain.pooled(|c| &c.latency_ms));
    let wire = median(&traced.pooled(|c| &c.wire_ms));
    let server_p50 = median(&traced.pooled(|c| &c.server_ms));
    let waits = traced.pooled(|c| &c.queue_wait_us);
    let mut every_latency = traced.pooled(|c| &c.latency_ms);
    every_latency.extend(plain.pooled(|c| &c.latency_ms));
    let counted = |name: &str| delta(&srv1, &srv0, name);
    let (hits, misses) = (counted("storage.cache.hits"), counted("storage.cache.misses"));
    m.set("service.wire_overhead_ms", wire);
    m.set("service.queue_wait_us.p50", median(&waits));
    m.set("service.queue_wait_us.p99", tail(&waits));
    m.set(
        "service.rounds_per_query",
        traced.clients.iter().map(|c| c.rounds).sum::<u64>() as f64 / answers,
    );
    m.set(
        "service.frames_per_query",
        traced.clients.iter().map(|c| c.frames).sum::<u64>() as f64 / answers,
    );
    m.set(
        "service.fanout_ratio",
        counted("service.blocks.fanout") / counted("service.blocks.requested").max(1.0),
    );
    m.set("service.rejected", counted("service.rejected"));
    m.set("service.shed", counted("service.qos.shed"));
    m.set("service.dropped_progress", counted("service.backpressure.dropped_progress"));
    m.set("storage.device_reads_per_query", counted("storage.device.reads") / answers);
    m.set("storage.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.set("storage.cache_evictions_per_query", counted("storage.cache.evictions") / answers);
    m.set("telemetry.trace_overhead_frac", 1.0 - traced.qps() / plain.qps());
    m.set("bench.unattributed_frac", (plain_p50 - wire - server_p50) / plain_p50);
    m.set("query_p99_ms", tail(&every_latency));
    m.set("traced.query_p50_ms", median(&traced.pooled(|c| &c.latency_ms)));
    m.set("traced.query_qps", traced.qps());
    m.set("traced.first_answer_p50_ms", median(&traced.pooled(|c| &c.first_answer_ms)));
    m.set("traced.server_latency_p50_ms", server_p50);
    m.set("traced.samples.queries", answers);

    tier::set_ingest_layers(m, &own0, &own1, &produced, backlog_max);
    tier::set_planner_layers(m, &queried);
    m.set("tier.compaction_drain_ms", drain.as_secs_f64() * 1e3);
    m.set(
        "storage.wal_replayed",
        server_replayed + delta(&global().snapshot(), &own2, "storage.wal.replayed"),
    );
    m.set("disk_bytes_per_sample_byte", disk);
    m.set("reopen_s", median(&reopen_s));

    // The ladder: the analysts' own seeded queries replayed layer by layer.
    let log = spans.as_mut().expect("traced run records spans");
    let mut rng = Rng::new(ctx.seed, 0xA0);
    let queries: Vec<_> =
        (0..w.serve.ladder_queries).map(|_| (w.serve.query)(&mut rng, cfg.side)).collect();
    let inproc_ok = ladder::serve_rungs(&ctx.work.join("ladder-cube"), cfg, &queries, log, m)?;
    out.count(queries.len() as u64, u64::from(!inproc_ok));
    ladder::fixed_rungs(&ctx.work.join("ladder"), ctx.seed, log, &mut out.metrics)?;
    out.metrics.set("error_rate", out.failed as f64 / out.attempted as f64);
    out.spans = spans;
    Ok(out)
}

fn remove_dirs(dirs: &[&Path]) -> Result<(), String> {
    for d in dirs {
        std::fs::remove_dir_all(d).map_err(|e| format!("remove {}: {e}", d.display()))?;
    }
    Ok(())
}
