//! `aims-cli` — drive the AIMS pipeline from the command line.
//!
//! Subcommands:
//!
//! ```text
//! aims-cli generate  --seconds 10 --activity 0.6 --seed 7 --out session.csv
//! aims-cli ingest    --input session.csv [--strategy adaptive|fixed|modified-fixed|grouped]
//! aims-cli query     --input session.csv --channel 0 --from 1.0 --to 4.0 [--op avg|sum|point]
//! aims-cli serve     [--port 0] [--side 64] [--block 32] [--cache 256] [--queue 64] [--seed 41]
//! aims-cli query     --connect 127.0.0.1:PORT --ranges 0:31,0:31 \
//!                    [--priority interactive|batch] [--deadline-ms N]
//! aims-cli recognize --signs 8 --sentence 12 --seed 3
//! aims-cli metrics   --seconds 2 --seed 7 [--format table|json]
//! aims-cli faults    --seed 41378 --rate 0.3 --kind read|flip|torn|dead \
//!                    [--budget 3] [--format table|json]
//! aims-cli ingest-faults --seed 2003 --dropout 0.1 [--stuck 0.0] [--spike 0.0] \
//!                    [--dup 0.0] [--reorder 0.0] [--dead 0.0] \
//!                    [--policy hold|interpolate] [--seconds 4] [--format table|json]
//! aims-cli trace     [--side 64] [--block 32] [--seed 41] [--queries 4] \
//!                    [--format table|chrome] [--out FILE]
//! aims-cli trace     --connect 127.0.0.1:PORT --ranges 0:31,0:31
//! aims-cli top       --connect 127.0.0.1:PORT [--interval-ms 1000] [--iterations 0] \
//!                    [--format table|json]
//! aims-cli chaos     [--seed 4242] [--format table|json]
//! aims-cli kernels   [--side 256]
//! aims-cli durability [--mode always|periodic:K|none] [--seed 52417] [--blocks 32] \
//!                    [--block-size 16] [--writes 96] [--dir DIR] [--format table|json]
//! aims-cli tiers     [--seed 7153] [--samples 200000] [--segment 4096] [--block 256] \
//!                    [--dir DIR] [--format table|json]
//! ```
//!
//! `generate` simulates a CyberGlove session to CSV; `ingest` runs the
//! acquisition + storage pipeline over a CSV and reports compression and
//! fidelity; `query` serves offline aggregates from blocked wavelet
//! storage; `recognize` runs the online isolation + recognition loop over
//! a synthetic signing stream; `metrics` runs the quickstart pipeline and
//! dumps the telemetry registry (counters, gauges, latency histograms);
//! `faults` runs a fault drill — range queries against a seeded
//! fault-injected store with a bounded retry budget — and reports how
//! many queries recovered exactly vs. degraded with a bound, plus the
//! `storage.retries`/`storage.corrupt`/`storage.degraded` counters;
//! `ingest-faults` is the acquisition-side twin — it replays a glove
//! session through a seeded faulty sensor link into the supervised ingest
//! stage and reports repairs, reordering, health transitions and the
//! `ingest.*` telemetry; `serve` runs the concurrent query service over a
//! demo cube behind the `aims-serve` TCP protocol, and `query --connect`
//! drives a progressive range sum against a running server, printing the
//! refinement trace; `trace` runs a traced drill — locally against a demo
//! service (printing each query's `QueryProfile` and dumping the flight
//! recorder, or exporting Chrome trace-event JSON for `about:tracing`),
//! or remotely via `--connect` (the profile comes back over the wire);
//! `top` polls a running server's METRICS_REQ and renders the telemetry
//! snapshot as a live table (the reply is structured JSON; rendering is
//! client-side), including each live session's degradation tier;
//! `chaos` runs the composed seeded chaos drill (storage faults ×
//! sensor faults × query-flood overload) locally and exits non-zero if
//! any drill invariant is violated; `kernels` prints the wavelet kernel
//! dispatch table and
//! the execution layer's autotuned tile/threshold, then times one serial
//! 2-D transform per filter on this host; `durability` runs a local crash
//! drill — a seeded write workload against a temp-dir (or `--dir`)
//! file-backed store is killed at a seeded crash point, reopened, and the
//! recovered image checked bit-identical to a committed write prefix,
//! with the recovery report and `storage.wal.*` telemetry printed;
//! `tiers` runs the tiered-ingest drill — concurrent ingest, background
//! wavelet compaction and progressive queries over one file-backed
//! [`TieredStore`](aims::tier::TieredStore) — and exits non-zero unless
//! the drained store answers bit-identically to a serial single-store
//! oracle with monotone bounds throughout.

use std::collections::HashMap;
use std::process::exit;

use aims::acquisition::sampling::Strategy;
use aims::sensors::asl::AslVocabulary;
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::io::{from_csv, to_csv};
use aims::sensors::noise::NoiseSource;
use aims::stream::isolation::{evaluate_isolation, IsolationConfig};
use aims::{AimsConfig, AimsSystem};

fn usage() -> ! {
    eprintln!(
        "usage: aims-cli \
<generate|ingest|query|serve|recognize|metrics|faults|ingest-faults|trace|top|chaos\
|kernels|durability|tiers> [--key value]...\n\
         \n\
         generate  --seconds <f> --activity <0..1> --seed <n> --out <file>\n\
         ingest    --input <file> [--strategy adaptive|fixed|modified-fixed|grouped]\n\
         query     --input <file> --channel <n> --from <s> --to <s> [--op avg|sum|point]\n\
         query     --connect <host:port> --ranges <lo:hi,lo:hi> \
[--priority interactive|batch] [--deadline-ms <n>]\n\
         serve     [--port <n>] [--side <n>] [--block <n>] [--cache <n>] [--queue <n>] \
[--seed <n>]\n\
         recognize --signs <n> --sentence <n> --seed <n>\n\
         metrics   --seconds <f> --seed <n> [--format table|json]\n\
         faults    --seed <n> --rate <0..1> --kind read|flip|torn|dead \
[--budget <n>] [--format table|json]\n\
         ingest-faults --seed <n> [--dropout <0..1>] [--stuck <0..1>] [--spike <0..1>]\n\
                   [--dup <0..1>] [--reorder <0..1>] [--dead <0..1>]\n\
                   [--policy hold|interpolate] [--seconds <f>] [--format table|json]\n\
         trace     [--side <n>] [--block <n>] [--seed <n>] [--queries <n>]\n\
                   [--format table|chrome] [--out <file>]\n\
         trace     --connect <host:port> --ranges <lo:hi,lo:hi>\n\
         top       --connect <host:port> [--interval-ms <n>] [--iterations <n>] \
[--format table|json]\n\
         chaos     [--seed <n>] [--format table|json]\n\
         kernels   [--side <n>]\n\
         durability [--mode always|periodic:K|none] [--seed <n>] [--blocks <n>]\n\
                   [--block-size <n>] [--writes <n>] [--dir <path>] [--format table|json]\n\
         tiers     [--seed <n>] [--samples <n>] [--segment <n>] [--block <n>]\n\
                   [--dir <path>] [--format table|json]"
    );
    exit(2);
}

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            eprintln!("unexpected argument '{key}'");
            usage();
        };
        let Some(value) = it.next() else {
            eprintln!("flag --{name} needs a value");
            usage();
        };
        flags.insert(name.to_string(), value.clone());
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{name}: cannot parse '{v}'");
            usage();
        }),
    }
}

fn required(flags: &HashMap<String, String>, name: &str) -> String {
    flags.get(name).cloned().unwrap_or_else(|| {
        eprintln!("missing required flag --{name}");
        usage();
    })
}

fn cmd_generate(flags: &HashMap<String, String>) {
    let seconds: f64 = flag(flags, "seconds", 10.0);
    let activity: f64 = flag(flags, "activity", 0.6);
    let seed: u64 = flag(flags, "seed", 7);
    let out = required(flags, "out");

    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let session = rig.record_session(seconds, activity, &mut noise);
    std::fs::write(&out, to_csv(&session)).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "wrote {out}: {} frames x {} channels ({:.1}s at {:.0} Hz)",
        session.len(),
        session.channels(),
        session.duration(),
        session.spec().sample_rate
    );
}

fn load_stream(flags: &HashMap<String, String>) -> aims::sensors::types::MultiStream {
    let input = required(flags, "input");
    let text = std::fs::read_to_string(&input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1);
    });
    from_csv(&text).unwrap_or_else(|e| {
        eprintln!("{input}: {e}");
        exit(1);
    })
}

fn parse_strategy(name: &str) -> Strategy {
    match name {
        "adaptive" => Strategy::Adaptive,
        "fixed" => Strategy::Fixed,
        "modified-fixed" => Strategy::ModifiedFixed,
        "grouped" => Strategy::Grouped,
        _ => {
            eprintln!("unknown strategy '{name}'");
            usage();
        }
    }
}

fn cmd_ingest(flags: &HashMap<String, String>) {
    let session = load_stream(flags);
    let strategy = parse_strategy(&flag::<String>(flags, "strategy", "adaptive".into()));
    let config = AimsConfig { sampling: strategy, ..AimsConfig::default() };
    let mut system = AimsSystem::new(config);
    let report = system.ingest(&session);
    let raw = session.device_size_bytes();
    println!(
        "ingested {} frames x {} channels with {} sampling",
        report.frames,
        report.channels,
        strategy.name()
    );
    println!(
        "  acquired bytes : {} ({:.1}x vs {} raw device bytes)",
        report.sampled_bytes,
        raw as f64 / report.sampled_bytes as f64,
        raw
    );
    println!("  reconstruction : {:.2}% relative RMSE", report.sampling_rmse * 100.0);
}

/// The seeded square demo cube `serve` and `trace` drill against:
/// xorshift-filled small integers, wavelet-transformed with Db4.
fn demo_cube(side: usize, seed: u64) -> aims::propolyne::WaveletCube {
    use aims::dsp::filters::FilterKind;
    use aims::propolyne::DataCube;

    let mut cube = DataCube::zeros(&[side, side]);
    let mut state = seed.max(1);
    for v in cube.values_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state % 9) as f64;
    }
    cube.transform(&FilterKind::Db4.filter())
}

/// Parses a `--ranges lo:hi,lo:hi` flag value.
fn parse_ranges(ranges_text: &str) -> Vec<(usize, usize)> {
    ranges_text
        .split(',')
        .map(|pair| {
            let Some((lo, hi)) = pair.split_once(':') else {
                eprintln!("--ranges: expected lo:hi, got '{pair}'");
                usage();
            };
            match (lo.parse(), hi.parse()) {
                (Ok(lo), Ok(hi)) => (lo, hi),
                _ => {
                    eprintln!("--ranges: cannot parse '{pair}'");
                    usage();
                }
            }
        })
        .collect()
}

/// Spins up the concurrent query service over the workspace's demo cube
/// and serves the `aims-serve` wire protocol until a client SHUTDOWN.
fn cmd_serve(flags: &HashMap<String, String>) {
    use aims::service::{QueryService, Server, ServiceConfig};
    use std::io::Write as _;
    use std::sync::Arc;

    let port: u16 = flag(flags, "port", 0);
    let side: usize = flag(flags, "side", 64);
    let block: usize = flag(flags, "block", 32);
    let cache: usize = flag(flags, "cache", 256);
    let queue: usize = flag(flags, "queue", 64);
    let seed: u64 = flag(flags, "seed", 41);

    let cube = demo_cube(side, seed);
    let config =
        ServiceConfig { queue_capacity: queue, cache_blocks: cache, ..ServiceConfig::default() };
    let service = Arc::new(QueryService::new(cube, block, config));
    let server =
        Server::spawn(Arc::clone(&service), &format!("127.0.0.1:{port}")).unwrap_or_else(|e| {
            eprintln!("serve: bind failed: {e}");
            exit(1);
        });
    println!("aims-serve listening on 127.0.0.1:{}", server.port());
    std::io::stdout().flush().ok();
    server.join();
    service.shutdown();
    println!("aims-serve: clean shutdown");
}

/// Drives one progressive range sum against a running server and prints
/// the refinement trace.
fn cmd_query_remote(flags: &HashMap<String, String>, connect: &str) {
    use aims::service::{ProgressKind, QuerySpec, TcpClient, Tier};

    let ranges_text = required(flags, "ranges");
    let ranges = parse_ranges(&ranges_text);
    let priority: String = flag(flags, "priority", "interactive".into());
    let deadline_ms: u64 = flag(flags, "deadline-ms", 0);
    let mut spec = match priority.as_str() {
        "interactive" => QuerySpec::interactive(ranges),
        "batch" => QuerySpec::batch(ranges),
        _ => {
            eprintln!("unknown priority '{priority}' (interactive|batch)");
            usage();
        }
    };
    if deadline_ms > 0 {
        spec = spec.with_deadline(std::time::Duration::from_millis(deadline_ms));
    }

    let mut client = TcpClient::connect(connect).unwrap_or_else(|e| {
        eprintln!("query: cannot connect to {connect}: {e}");
        exit(1);
    });
    let out = client.run_query(1, &spec).unwrap_or_else(|e| {
        eprintln!("query: {e}");
        exit(1);
    });
    for r in &out.trace {
        let tier =
            if r.tier == Tier::Normal { String::new() } else { format!(" [{}]", r.tier.label()) };
        println!(
            "  round {:>3}: {:>6}/{:<6} coefficients, estimate {:.4} (bound {:.4}){tier}",
            r.round, r.coefficients_used, r.total_coefficients, r.estimate, r.error_bound
        );
    }
    match (out.kind, out.last) {
        (ProgressKind::Done, Some(r)) => {
            println!("done: {} = {:.4} (exact)", ranges_text, r.estimate);
        }
        (ProgressKind::DeadlineExpired, Some(r)) => {
            println!(
                "deadline expired: {} = {:.4} +/- {:.4}",
                ranges_text, r.estimate, r.error_bound
            );
        }
        (ProgressKind::Shed, Some(r)) => {
            println!(
                "shed under load: {} = {:.4} +/- {:.4} (best-so-far)",
                ranges_text, r.estimate, r.error_bound
            );
        }
        (kind, _) => {
            eprintln!("query ended without an answer: {kind:?}");
            exit(1);
        }
    }
}

fn cmd_query(flags: &HashMap<String, String>) {
    if let Some(connect) = flags.get("connect") {
        let connect = connect.clone();
        return cmd_query_remote(flags, &connect);
    }
    let session = load_stream(flags);
    let channel: usize = flag(flags, "channel", 0);
    let from: f64 = flag(flags, "from", 0.0);
    let to: f64 = flag(flags, "to", session.duration());
    let op: String = flag(flags, "op", "avg".into());

    let mut system = AimsSystem::new(AimsConfig::default());
    system.ingest(&session);
    let result = match op.as_str() {
        "avg" => system.channel_average(channel, from, to),
        "sum" => system.channel_range_sum(channel, from, to),
        "point" => system.channel_value(channel, from),
        _ => {
            eprintln!("unknown op '{op}' (avg|sum|point)");
            usage();
        }
    };
    match result {
        Some(v) => {
            let name = &session.spec().channel_names[channel.min(session.channels() - 1)];
            println!(
                "{op}({name}, {from}s..{to}s) = {v:.4}  [{} block reads]",
                system.total_block_reads()
            );
        }
        None => {
            eprintln!("query out of range (channel {channel}, {from}s..{to}s)");
            exit(1);
        }
    }
}

fn cmd_recognize(flags: &HashMap<String, String>) {
    let signs: usize = flag(flags, "signs", 8);
    let sentence: usize = flag(flags, "sentence", 12);
    let seed: u64 = flag(flags, "seed", 3);

    let vocab = AslVocabulary::synthetic(signs, seed, CyberGloveRig::default());
    let mut noise = NoiseSource::seeded(seed.wrapping_add(1));
    let templates: Vec<(usize, _)> = (0..vocab.len())
        .flat_map(|l| (0..2).map(move |_| l))
        .map(|l| (l, vocab.instance(l, &mut noise).stream))
        .collect();
    let mut recognizer =
        AimsSystem::online_recognizer(&templates, vocab.rig.spec(), IsolationConfig::default());

    let labels: Vec<usize> = (0..sentence).map(|i| (i * 5 + 2) % vocab.len()).collect();
    let (stream, truth) = vocab.sentence(&labels, &mut noise);
    println!("stream: {} frames, {} signs performed", stream.len(), truth.len());
    let detections = recognizer.process_stream(&stream);
    for d in &detections {
        println!(
            "  {:>6} frames {:>5}..{:<5} (evidence {:.2})",
            vocab.signs[d.label].name, d.start, d.end, d.peak_evidence
        );
    }
    let truth_tuples: Vec<(usize, usize, usize)> =
        truth.iter().map(|t| (t.label, t.start, t.end)).collect();
    let report = evaluate_isolation(&detections, &truth_tuples, 0.3);
    println!(
        "F1 {:.2}, label accuracy {:.2} over {} detections",
        report.f1,
        report.label_accuracy,
        detections.len()
    );
}

/// Runs the quickstart pipeline end to end (capture → ingest → offline and
/// online queries), then dumps everything the components recorded into the
/// global telemetry registry.
fn cmd_metrics(flags: &HashMap<String, String>) {
    use aims::dsp::filters::FilterKind;
    use aims::dsp::poly::Polynomial;
    use aims::propolyne::cube::AttributeSpace;
    use aims::propolyne::query::RangeSumQuery;

    let seconds: f64 = flag(flags, "seconds", 2.0);
    let seed: u64 = flag(flags, "seed", 7);
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }
    if seconds <= 0.0 || seconds.is_nan() {
        eprintln!("--seconds must be positive, got {seconds}");
        exit(2);
    }

    // Acquisition + storage: capture a session and serve point/range
    // queries from blocked wavelet storage through the buffer pools.
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let session = rig.record_session(seconds, 0.6, &mut noise);
    let mut system = AimsSystem::new(AimsConfig::default());
    system.ingest(&session);
    for c in 0..session.channels().min(4) {
        system.channel_value(c, seconds / 2.0);
        system.channel_average(c, 0.0, seconds);
    }

    // Offline analysis: a small ProPolyne cube over two channels, one
    // exact COUNT and one progressive SUM.
    let space = AttributeSpace::new(vec![(-120.0, 120.0); 2], vec![32; 2]);
    let tuples: Vec<Vec<f64>> =
        (0..session.len()).map(|t| vec![session.value(t, 0), session.value(t, 1)]).collect();
    let engine = AimsSystem::offline_engine(&space, tuples, &FilterKind::Db4.filter());
    engine.evaluate(&RangeSumQuery::count(vec![(0, 31), (0, 31)]));
    engine.progressive(&RangeSumQuery::sum_poly(
        vec![(0, 31), (0, 31)],
        0,
        Polynomial::monomial(1),
    ));

    let snap = aims::telemetry::global().snapshot();
    if format == "json" {
        print!("{}", snap.to_json_lines());
    } else {
        print!("{}", snap.render_table());
    }
}

/// Runs a reproducible fault drill: a blocked wavelet store on a seeded
/// `FaultyDevice`, queried with a bounded retry budget; reports per-query
/// recovery/degradation and the storage fault telemetry.
fn cmd_faults(flags: &HashMap<String, String>) {
    use aims::storage::buffer::BufferPool;
    use aims::storage::device::{BlockDevice, RetryPolicy};
    use aims::storage::faults::{FaultKind, FaultPlan, FaultyDevice};
    use aims::storage::store::{AllocKind, WaveletStore};

    let seed: u64 = flag(flags, "seed", 41378);
    let rate: f64 = flag(flags, "rate", 0.3);
    let budget: usize = flag(flags, "budget", 3);
    let kind_name: String = flag(flags, "kind", "read".into());
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }
    if !(0.0..=1.0).contains(&rate) {
        eprintln!("--rate must be in [0, 1], got {rate}");
        exit(2);
    }
    let kind = match kind_name.as_str() {
        "read" => FaultKind::ReadError,
        "flip" => FaultKind::BitFlip,
        "torn" => FaultKind::TornWrite,
        "dead" => FaultKind::DeadBlock,
        _ => {
            eprintln!("unknown fault kind '{kind_name}' (read|flip|torn|dead)");
            usage();
        }
    };

    let n = 1024usize;
    let block = 16usize;
    let signal: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 23) as f64 - 11.0).collect();
    let exact = WaveletStore::from_signal(&signal, block, AllocKind::TreeTiling);
    let store = WaveletStore::from_signal_on(&signal, block, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(seed, kind, rate))
    });
    let policy = RetryPolicy::with_retries(budget);

    let queries: Vec<(usize, usize)> =
        (0..32).map(|k| ((k * 97) % 512, 512 + (k * 31) % 512)).collect();
    let mut pool = BufferPool::new(128);
    let mut exact_pool = BufferPool::new(128);
    let mut recovered = 0usize;
    let mut degraded = 0usize;
    let mut worst_bound = 0.0f64;
    let mut rows = Vec::new();
    for &(a, b) in &queries {
        let truth = exact.range_sum(a, b, &mut exact_pool);
        let got = store.range_sum_outcome(a, b, &mut pool, &policy);
        if got.degraded() {
            degraded += 1;
            worst_bound = worst_bound.max(got.error_bound);
        } else {
            recovered += 1;
            assert_eq!(got.value.to_bits(), truth.to_bits(), "recovered query diverged");
        }
        rows.push((a, b, got));
    }

    let device = store.device();
    let dead = (0..device.num_blocks()).filter(|&b| device.is_dead(b)).count();
    let torn = device.torn_blocks().len();
    let snap = aims::telemetry::global().snapshot();
    if format == "json" {
        let body: Vec<String> = rows
            .iter()
            .map(|(a, b, o)| {
                format!(
                    "{{\"range\":[{a},{b}],\"value\":{},\"error_bound\":{},\
                     \"lost_blocks\":{}}}",
                    o.value,
                    o.error_bound,
                    o.lost_blocks.len()
                )
            })
            .collect();
        println!(
            "{{\"seed\":{seed},\"kind\":\"{kind_name}\",\"rate\":{rate},\"budget\":{budget},\
             \"recovered\":{recovered},\"degraded\":{degraded},\"dead_blocks\":{dead},\
             \"torn_blocks\":{torn},\"queries\":[{}]}}",
            body.join(",")
        );
    } else {
        println!(
            "fault drill: kind={kind_name} rate={rate} budget={budget} seed={seed} \
             (n={n}, B={block})"
        );
        println!("  recovered exactly : {recovered}/{}", queries.len());
        println!(
            "  degraded w/ bound : {degraded}/{} (worst bound {worst_bound:.3})",
            queries.len()
        );
        println!("  dead blocks       : {dead}, torn blocks: {torn}");
        println!("\n-- storage telemetry --");
        for name in [
            "storage.retries",
            "storage.corrupt",
            "storage.degraded",
            "storage.fault.read_errors",
            "storage.fault.bit_flips",
            "storage.fault.torn_writes",
            "storage.fault.dead_reads",
        ] {
            println!("  {name:<28} {}", snap.counter(name));
        }
    }
}

/// Runs a reproducible *sensor* fault drill: a clean glove session is
/// replayed through a seeded faulty wire into the supervised ingest stage,
/// which reorders, deduplicates, repairs and health-tracks it; reports the
/// supervisor's counters, health transitions and the `ingest.*` telemetry.
/// With every rate at zero the repaired stream is asserted bit-identical
/// to the clean session (the supervised path costs nothing on good input).
fn cmd_ingest_faults(flags: &HashMap<String, String>) {
    use aims::acquisition::ingest::{IngestConfig, RepairPolicy, SupervisedIngest};
    use aims::acquisition::recorder::RecorderConfig;
    use aims::sensors::faulty::{FaultySensorRig, SensorFaultPlan};
    use aims::sensors::types::SampleQuality;

    let seed: u64 = flag(flags, "seed", 2003);
    let seconds: f64 = flag(flags, "seconds", 4.0);
    let dropout: f64 = flag(flags, "dropout", 0.1);
    let stuck: f64 = flag(flags, "stuck", 0.0);
    let spike: f64 = flag(flags, "spike", 0.0);
    let dup: f64 = flag(flags, "dup", 0.0);
    let reorder: f64 = flag(flags, "reorder", 0.0);
    let dead: f64 = flag(flags, "dead", 0.0);
    let policy_name: String = flag(flags, "policy", "interpolate".into());
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }
    for (name, rate) in [
        ("dropout", dropout),
        ("stuck", stuck),
        ("spike", spike),
        ("dup", dup),
        ("reorder", reorder),
        ("dead", dead),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            eprintln!("--{name} must be in [0, 1], got {rate}");
            exit(2);
        }
    }
    if seconds <= 0.0 || seconds.is_nan() {
        eprintln!("--seconds must be positive, got {seconds}");
        exit(2);
    }
    let policy = match policy_name.as_str() {
        "hold" => RepairPolicy::Hold,
        "interpolate" => RepairPolicy::Interpolate,
        _ => {
            eprintln!("unknown repair policy '{policy_name}' (hold|interpolate)");
            usage();
        }
    };

    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let clean = rig.record_session(seconds, 0.6, &mut noise);

    let plan = SensorFaultPlan {
        dropout_rate: dropout,
        stuck_rate: stuck,
        spike_rate: spike,
        duplicate_rate: dup,
        reorder_rate: reorder,
        dead_channel_fraction: dead,
        ..SensorFaultPlan::none(seed)
    };
    let faulty = FaultySensorRig::new(plan.clone());
    let wire = faulty.transmit(&clean);

    // A buffer the recorder cannot overrun, so the drill's numbers reflect
    // the injected wire faults alone, not scheduling luck.
    let config = IngestConfig {
        repair: policy,
        recorder: RecorderConfig { buffer_frames: 1 << 16, batch_size: 64, store_latency_us: 0 },
        ..IngestConfig::default()
    };
    let out = SupervisedIngest::new(config).ingest(clean.spec(), &wire);

    if plan.is_none() {
        assert_eq!(out.stream.len(), clean.len(), "zero-fault ingest changed the frame count");
        for t in 0..clean.len() {
            for c in 0..clean.channels() {
                assert_eq!(
                    out.stream.value(t, c).to_bits(),
                    clean.value(t, c).to_bits(),
                    "zero-fault ingest must be bit-identical (frame {t} ch {c})"
                );
            }
        }
    }

    // Repair fidelity over frames both streams share (degrade may decimate).
    let mut err = 0.0f64;
    let mut norm = 0.0f64;
    if out.degrade_factor == 1 && out.stream.len() == clean.len() {
        for t in 0..clean.len() {
            for c in 0..clean.channels() {
                let d = out.stream.value(t, c) - clean.value(t, c);
                err += d * d;
                norm += clean.value(t, c) * clean.value(t, c);
            }
        }
    }
    let rmse = if norm > 0.0 { (err / norm).sqrt() } else { 0.0 };

    let total = out.quality.len() * out.quality.channels();
    let counts: Vec<(SampleQuality, usize)> = [
        SampleQuality::Clean,
        SampleQuality::Repaired,
        SampleQuality::Suspect,
        SampleQuality::Dead,
    ]
    .into_iter()
    .map(|q| (q, out.quality.count(q)))
    .collect();
    let dead_channels = out.dead_channels();
    let snap = aims::telemetry::global().snapshot();

    if format == "json" {
        let quality: Vec<String> =
            counts.iter().map(|(q, n)| format!("\"{}\":{n}", q.name())).collect();
        let events: Vec<String> = out
            .health_events
            .iter()
            .map(|e| {
                format!(
                    "{{\"frame\":{},\"channel\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                    e.frame,
                    e.channel,
                    e.from.name(),
                    e.to.name()
                )
            })
            .collect();
        println!(
            "{{\"seed\":{seed},\"policy\":\"{policy_name}\",\"dropout\":{dropout},\
             \"stuck\":{stuck},\"spike\":{spike},\"dup\":{dup},\"reorder\":{reorder},\
             \"dead\":{dead},\"frames\":{},\"channels\":{},\"degrade_factor\":{},\
             \"repaired_samples\":{},\"reordered_frames\":{},\"duplicate_frames\":{},\
             \"dropped_frames\":{},\"relative_rmse\":{rmse},\"quality\":{{{}}},\
             \"dead_channels\":{:?},\"health_events\":[{}]}}",
            out.stream.len(),
            out.stream.channels(),
            out.degrade_factor,
            out.stats.repaired_samples,
            out.stats.reordered_frames,
            out.stats.duplicate_frames,
            out.stats.dropped_frames,
            quality.join(","),
            dead_channels,
            events.join(",")
        );
    } else {
        println!(
            "ingest drill: seed={seed} policy={policy_name} dropout={dropout} stuck={stuck} \
             spike={spike} dup={dup} reorder={reorder} dead={dead}"
        );
        println!(
            "  wire → stored     : {} wire frames → {} frames x {} channels (degrade x{})",
            wire.len(),
            out.stream.len(),
            out.stream.channels(),
            out.degrade_factor
        );
        println!(
            "  supervisor        : {} repaired samples, {} reordered, {} duplicates, \
             {} dropped frames",
            out.stats.repaired_samples,
            out.stats.reordered_frames,
            out.stats.duplicate_frames,
            out.stats.dropped_frames
        );
        let quality: Vec<String> = counts
            .iter()
            .map(|(q, n)| format!("{} {:.1}%", q.name(), 100.0 * *n as f64 / total.max(1) as f64))
            .collect();
        println!("  sample quality    : {}", quality.join(", "));
        if plan.is_none() {
            println!("  fidelity          : bit-identical to the clean session (verified)");
        } else if out.degrade_factor == 1 {
            println!("  fidelity          : {:.2}% relative RMSE vs clean session", rmse * 100.0);
        }
        println!(
            "  sensor health     : {} transitions, dead channels {:?}",
            out.health_events.len(),
            dead_channels
        );
        for e in out.health_events.iter().take(12) {
            println!(
                "    frame {:>5} ch {:>2}: {} -> {}",
                e.frame,
                e.channel,
                e.from.name(),
                e.to.name()
            );
        }
        if out.health_events.len() > 12 {
            println!("    ... {} more", out.health_events.len() - 12);
        }
        println!("\n-- ingest telemetry --");
        for name in [
            "ingest.repaired",
            "ingest.reordered",
            "ingest.duplicates",
            "ingest.dropped",
            "ingest.sensor.dead",
        ] {
            println!("  {name:<28} {}", snap.counter(name));
        }
    }
}

/// Prints one query's cost attribution as an aligned table.
fn print_profile(profile: &aims::service::QueryProfile) {
    println!("  trace id          : {:#018x}", profile.trace_id);
    println!("  queue wait        : {:.3} ms", profile.queue_wait_ns as f64 / 1e6);
    println!("  latency           : {:.3} ms", profile.latency_ms());
    println!("  rounds            : {}", profile.rounds);
    println!(
        "  blocks            : {} read, {} shared, {} degraded",
        profile.blocks_read, profile.blocks_shared, profile.degraded_blocks
    );
    println!(
        "  cache             : {} hits / {} misses ({:.0}% hit ratio)",
        profile.cache_hits,
        profile.cache_misses,
        profile.cache_hit_ratio() * 100.0
    );
    println!("  retries           : {}", profile.retries);
    for p in &profile.trajectory {
        println!(
            "    round {:>3}: {:>6} coefficients, bound {:.4}",
            p.round, p.coefficients_used, p.error_bound
        );
    }
}

/// Runs a traced drill and dumps the flight recorder.
///
/// Locally (default): a demo service answers a few overlapping traced
/// range sums; each query's `QueryProfile` is printed, then the flight
/// recorder's events — as a table, or as Chrome trace-event JSON
/// (`--format chrome`, loadable in `about:tracing`/Perfetto) to stdout
/// or `--out FILE`. With `--connect`, one traced query runs against a
/// live server instead and its wire-returned profile is printed (the
/// recorder lives server-side).
fn cmd_trace(flags: &HashMap<String, String>) {
    use aims::service::{Outcome, ProgressKind, QueryService, QuerySpec, ServiceConfig, TcpClient};
    use aims::telemetry::global_recorder;

    if let Some(connect) = flags.get("connect") {
        let ranges = parse_ranges(&required(flags, "ranges"));
        let mut client = TcpClient::connect(connect.as_str()).unwrap_or_else(|e| {
            eprintln!("trace: cannot connect to {connect}: {e}");
            exit(1);
        });
        let out =
            client.run_query(1, &QuerySpec::interactive(ranges).traced()).unwrap_or_else(|e| {
                eprintln!("trace: {e}");
                exit(1);
            });
        match (out.kind, out.last) {
            (ProgressKind::Done, Some(r)) => println!("done: estimate {:.4} (exact)", r.estimate),
            (ProgressKind::DeadlineExpired, Some(r)) => {
                println!("deadline expired: estimate {:.4} +/- {:.4}", r.estimate, r.error_bound);
            }
            (ProgressKind::Shed, Some(r)) => {
                println!(
                    "shed under load: estimate {:.4} +/- {:.4} (best-so-far)",
                    r.estimate, r.error_bound
                );
            }
            (kind, _) => {
                eprintln!("trace: query ended without an answer: {kind:?}");
                exit(1);
            }
        }
        match out.profile {
            Some(p) => print_profile(&p),
            None => eprintln!("trace: server returned no profile (pre-tracing server?)"),
        }
        return;
    }

    let side: usize = flag(flags, "side", 64);
    let block: usize = flag(flags, "block", 32);
    let seed: u64 = flag(flags, "seed", 41);
    let queries: usize = flag(flags, "queries", 4);
    let format: String = flag(flags, "format", "table".into());
    let out_path = flags.get("out").cloned();
    if format != "table" && format != "chrome" {
        eprintln!("unknown format '{format}' (table|chrome)");
        usage();
    }

    let service = QueryService::new(demo_cube(side, seed), block, ServiceConfig::default());
    for k in 0..queries {
        let lo = (k * 7) % (side / 2);
        let hi = (lo + side / 2).min(side - 1);
        let spec = QuerySpec::interactive(vec![(lo, hi), (0, side - 1)]).traced();
        let handle = service.submit(spec).unwrap_or_else(|e| {
            eprintln!("trace: submit failed: {e}");
            exit(1);
        });
        let (_, outcome, profile) = handle.collect_profiled();
        match outcome {
            Outcome::Done(r) => println!("query {k} [{lo}:{hi}] = {:.4}", r.estimate),
            other => {
                eprintln!("trace: query {k} did not complete: {other:?}");
                exit(1);
            }
        }
        match profile {
            Some(p) => print_profile(&p),
            None => {
                eprintln!("trace: traced query {k} yielded no profile");
                exit(1);
            }
        }
    }
    service.shutdown();

    let recorder = global_recorder();
    if format == "chrome" {
        let json = recorder.export_chrome_trace();
        match out_path {
            Some(path) => {
                std::fs::write(&path, &json).unwrap_or_else(|e| {
                    eprintln!("trace: cannot write {path}: {e}");
                    exit(1);
                });
                println!(
                    "wrote {path}: {} events (open in about:tracing or Perfetto)",
                    recorder.events().len()
                );
            }
            None => println!("{json}"),
        }
    } else {
        use aims::telemetry::AttrValue;
        let fmt_attr = |v: &AttrValue| match *v {
            AttrValue::U64(x) => x.to_string(),
            AttrValue::I64(x) => x.to_string(),
            AttrValue::F64(x) => format!("{x:.4}"),
            AttrValue::Str(s) => s.to_string(),
        };
        let events = recorder.events();
        println!("\n-- flight recorder ({} events) --", events.len());
        for e in &events {
            let attrs: Vec<String> =
                e.attrs().iter().map(|(k, v)| format!("{k}={}", fmt_attr(v))).collect();
            println!(
                "  [{}] {:>10.3} ms  {:<16} {}",
                e.trace_id,
                e.ts_ns as f64 / 1e6,
                e.name,
                attrs.join(" ")
            );
        }
    }
}

/// Renders the `"kind":"session"` rows the server interleaves into its
/// METRICS_REPLY: one line per live (queued or active) session.
fn print_session_rows(json_lines: &str) {
    use aims::telemetry::json;

    let sessions: Vec<json::JsonValue> = json_lines
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| v.str("kind") == Some("session"))
        .collect();
    if sessions.is_empty() {
        println!("no live sessions\n");
        return;
    }
    println!(
        "{:>6} {:<7} {:<12} {:<8} {:<7} {:>6} {:>10} {:>12} {:>9} {:>8}",
        "id",
        "state",
        "priority",
        "tier",
        "traced",
        "rounds",
        "used/total",
        "bound",
        "wait ms",
        "age ms"
    );
    for s in &sessions {
        let num = |k: &str| s.num(k).unwrap_or(0.0);
        let bound = match s.get("bound").and_then(json::JsonValue::as_f64) {
            Some(b) => format!("{b:.4}"),
            None => "inf".to_string(),
        };
        println!(
            "{:>6} {:<7} {:<12} {:<8} {:<7} {:>6} {:>10} {:>12} {:>9.3} {:>8}",
            num("id") as u64,
            s.str("state").unwrap_or("?"),
            s.str("priority").unwrap_or("?"),
            s.str("tier").unwrap_or("?"),
            match s.get("traced") {
                Some(json::JsonValue::Bool(true)) => "yes",
                Some(json::JsonValue::Bool(false)) => "no",
                _ => "?",
            },
            num("rounds") as u64,
            format!("{}/{}", num("used") as u64, num("total") as u64),
            bound,
            num("queue_wait_ns") / 1e6,
            num("age_ms") as u64,
        );
    }
    println!();
}

/// Polls a running server's METRICS_REQ and renders the telemetry
/// snapshot — a live `top`-style view. The wire carries structured JSON
/// lines (metric and session rows); the tables are rendered client-side.
/// One compact line summarizing the tiered ingest engine, shown by `top`
/// when the server's snapshot carries `tier.*` counters (servers without
/// a tiered store print nothing).
fn print_tier_row(snap: &aims::telemetry::Snapshot) {
    let opened = snap.counter("tier.segments.open");
    let sealed = snap.counter("tier.segments.sealed");
    let compacted = snap.counter("tier.segments.compacted");
    if opened + sealed + compacted == 0 {
        return;
    }
    let pending = snap.gauge("tier.segments.raw_pending").unwrap_or(0.0);
    let runs = snap.counter("tier.compaction.runs");
    let ms = snap.counter("tier.compaction.ns") as f64 / 1e6;
    let resident_mib = snap.gauge("tier.resident_bytes").unwrap_or(0.0) / (1 << 20) as f64;
    println!(
        "tiers: {opened} opened / {sealed} sealed / {compacted} compacted \
         ({pending:.0} raw pending), {runs} compaction runs ({ms:.1} ms), \
         {} hot rows / {} merged queries, {resident_mib:.1} MiB resident, \
         hist blocks: {} read / {} cache hits / {} misses\n",
        snap.counter("tier.query.hot_rows"),
        snap.counter("tier.query.merged"),
        snap.counter("tier.hist.block_reads"),
        snap.counter("tier.hist.cache_hits"),
        snap.counter("tier.hist.cache_misses"),
    );
}

fn cmd_top(flags: &HashMap<String, String>) {
    use aims::service::TcpClient;
    use aims::telemetry::Snapshot;

    let connect = required(flags, "connect");
    let interval_ms: u64 = flag(flags, "interval-ms", 1000);
    let iterations: usize = flag(flags, "iterations", 0);
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }

    let mut client = TcpClient::connect(connect.as_str()).unwrap_or_else(|e| {
        eprintln!("top: cannot connect to {connect}: {e}");
        exit(1);
    });
    let mut tick = 0usize;
    loop {
        let json = client.metrics().unwrap_or_else(|e| {
            eprintln!("top: {e}");
            exit(1);
        });
        tick += 1;
        if format == "json" {
            print!("{json}");
        } else {
            let snap = Snapshot::from_json_lines(&json).unwrap_or_else(|e| {
                eprintln!("top: server sent unparseable metrics: {e:?}");
                exit(1);
            });
            println!("-- {connect} tick {tick} --");
            print_session_rows(&json);
            print_tier_row(&snap);
            print!("{}", snap.render_table());
        }
        if iterations > 0 && tick >= iterations {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `aims-cli kernels` — report the kernel dispatch table and the
/// autotuner's resolved tile/threshold, then time one serial 2-D
/// transform per filter so a host's actual kernel speed is one command
/// away (the numbers are the single-core side of experiment E29).
fn cmd_kernels(flags: &HashMap<String, String>) {
    use aims::dsp::dwt::{dwt_standard_md_with, idwt_standard_md_with};
    use aims::dsp::filters::FilterKind;

    let side: usize = flag(flags, "side", 256);
    if !side.is_power_of_two() || side < 2 {
        eprintln!("--side must be a power of two >= 2, got {side}");
        exit(2);
    }

    let tune = aims::exec::tuning();
    println!("autotuner ({}):", if tune.from_env { "AIMS_TILE override" } else { "calibrated" });
    println!("  strided tile width:     {}", tune.tile);
    println!("  serial-below threshold: {} elements", tune.par_threshold);

    println!("\nkernel dispatch:");
    for kind in FilterKind::ALL {
        let f = kind.filter();
        println!("  {:6} -> {}", f.name(), aims::dsp::kernel::kernel_name(&f));
    }

    let serial = aims::exec::ThreadPool::new(1);
    let dims = [side, side];
    let data: Vec<f64> =
        (0..side * side).map(|i| ((i % 613) as f64 * 0.25).sin() + i as f64 * 1e-6).collect();
    println!("\nserial 2-D DWT {side}x{side} (forward + inverse):");
    let before = aims::telemetry::global().snapshot();
    for kind in FilterKind::ALL {
        let f = kind.filter();
        let start = std::time::Instant::now();
        let fwd = dwt_standard_md_with(&serial, &data, &dims, &f);
        let inv = idwt_standard_md_with(&serial, &fwd, &dims, &f);
        let elapsed = start.elapsed();
        let worst = inv.iter().zip(&data).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max);
        println!("  {:6} {:>9.1?}  roundtrip max err {worst:.2e}", f.name(), elapsed);
    }
    let delta = aims::telemetry::global().snapshot().delta_since(&before);
    println!(
        "\nscratch reuse (dsp.kernel.scratch_reuse): {}",
        delta.counter("dsp.kernel.scratch_reuse")
    );
}

/// Runs the composed chaos drill locally: the six-phase schedule
/// (baseline → overload → storage faults → sensor faults → all three →
/// drain) with every injector derived from one master seed
/// (`--seed`, or `AIMS_CHAOS_SEED`). Prints the per-phase table and
/// exits non-zero if any drill invariant was violated — no panics, no
/// lost admitted queries, shed sessions get best-so-far answers, and
/// the drain returns the service to zero degradation.
fn cmd_chaos(flags: &HashMap<String, String>) {
    use aims::chaos::{run_drill, ChaosConfig};

    let env_seed =
        std::env::var("AIMS_CHAOS_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(4242);
    let seed: u64 = flag(flags, "seed", env_seed);
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }

    let report = run_drill(&ChaosConfig { seed, ..ChaosConfig::default() });
    if format == "json" {
        println!("{}", report.to_json());
    } else {
        println!("composed chaos drill (seed {}):", report.seed);
        println!(
            "{:>16} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>9} {:>9}",
            "phase",
            "submit",
            "accept",
            "reject",
            "done",
            "shed",
            "expire",
            "degr",
            "p99 ms",
            "wall ms"
        );
        for p in &report.phases {
            println!(
                "{:>16} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>9.2} {:>9.0}",
                p.name,
                p.submitted,
                p.accepted,
                p.rejected,
                p.done,
                p.shed,
                p.expired,
                p.degraded,
                p.p99_ms,
                p.elapsed_ms
            );
        }
        println!(
            "recovery {:.1} ms | shed fraction {:.3} | p99 overload {:.2} ms",
            report.recovery_ms, report.shed_fraction, report.p99_overload_ms
        );
    }
    let violations = report.violations();
    if violations.is_empty() {
        if format == "table" {
            println!("all drill invariants held");
        }
    } else {
        eprintln!("chaos: {} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        exit(1);
    }
}

/// Runs a local crash drill against a temp-dir (or `--dir`) durable
/// store: a seeded write workload is killed at a seeded crash point, the
/// store is reopened, and recovery must be bit-identical to a committed
/// prefix of the write log. Prints the recovery report plus the
/// `storage.wal.*` telemetry deltas.
fn cmd_durability(flags: &HashMap<String, String>) {
    use aims::storage::device::{BlockDevice, MemDevice, RawMedia};
    use aims::storage::file::{CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions};

    let seed: u64 = flag(flags, "seed", 52417);
    let blocks: usize = flag(flags, "blocks", 32);
    let block_size: usize = flag(flags, "block-size", 16);
    let writes: usize = flag(flags, "writes", 96);
    let mode_name: String = flag(flags, "mode", "always".into());
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }
    let Some(mode) = DurabilityMode::parse(&mode_name) else {
        eprintln!("unknown durability mode '{mode_name}' (always|periodic[:K]|none)");
        usage();
    };
    let (dir, keep) = match flags.get("dir") {
        Some(d) => (std::path::PathBuf::from(d), true),
        None => {
            (std::env::temp_dir().join(format!("aims-durability-{}", std::process::id())), false)
        }
    };
    std::fs::remove_dir_all(&dir).ok();

    // Seeded write log: a load pass then pseudo-random updates.
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let log: Vec<(usize, Vec<f64>)> = (0..writes)
        .map(|k| {
            let b = if k < blocks { k } else { rng() as usize % blocks };
            let payload: Vec<f64> =
                (0..block_size).map(|i| (rng() % 2001) as f64 / 10.0 - 100.0 + i as f64).collect();
            (b, payload)
        })
        .collect();

    // Crash somewhere past the load pass, seeded.
    let crash_step = blocks as u64 + rng() % (writes as u64);
    let opts = |crash| FileDeviceOptions { mode, crash, ..Default::default() };
    let mut device =
        FileDevice::create(&dir, block_size, blocks, opts(CrashPlan::at(seed, crash_step)))
            .unwrap_or_else(|e| {
                eprintln!("create {}: {e}", dir.display());
                exit(1);
            });
    let mut completed = 0usize;
    for (b, p) in &log {
        device.write_block(*b, p);
        if device.is_crashed() {
            break;
        }
        completed += 1;
    }
    let crashed = device.is_crashed();
    let durable_at_crash = device.durable_lsn();
    let stats = device.wal_stats();
    drop(device);

    let before = aims::telemetry::global().snapshot();
    let t = std::time::Instant::now();
    let device = FileDevice::open(&dir, opts(CrashPlan::none())).unwrap_or_else(|e| {
        eprintln!("open {}: {e}", dir.display());
        exit(1);
    });
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let r = device.recovery();
    let delta = aims::telemetry::global().snapshot().delta_since(&before);

    // Exactness gate: the recovered image equals some committed prefix
    // covering every acknowledged write.
    let got: Vec<Vec<u64>> =
        (0..blocks).map(|b| device.raw_payload(b).iter().map(|v| v.to_bits()).collect()).collect();
    let floor =
        if r.recovered_lsn > 0 { r.recovered_lsn as usize } else { durable_at_crash as usize };
    let exact = (floor..=(completed + 1).min(log.len())).any(|k| {
        let mut mem = MemDevice::new(block_size, blocks);
        for (b, p) in &log[..k] {
            mem.write_block(*b, p);
        }
        (0..blocks)
            .map(|b| mem.raw_payload(b).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect::<Vec<_>>()
            == got
    });
    drop(device);
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }

    if format == "json" {
        println!(
            "{{\"seed\":{seed},\"mode\":\"{}\",\"crash_step\":{crash_step},\"crashed\":{crashed},\
             \"completed_writes\":{completed},\"durable_lsn\":{durable_at_crash},\
             \"fsyncs\":{},\"checkpoints\":{},\"recovered_lsn\":{},\"replayed_records\":{},\
             \"truncated_bytes\":{},\"recovery_ms\":{recovery_ms:.3},\"exact\":{exact}}}",
            mode.label(),
            stats.fsyncs,
            stats.checkpoints,
            r.recovered_lsn,
            r.replayed_records,
            r.truncated_bytes,
        );
    } else {
        println!(
            "durability drill: mode={} seed={seed} (blocks={blocks}, B={block_size}, \
             {writes} writes, crash step {crash_step})",
            mode.label()
        );
        println!("  crashed            : {crashed} after {completed} completed writes");
        println!("  acked frontier     : lsn {durable_at_crash}");
        println!("  fsyncs/checkpoints : {}/{}", stats.fsyncs, stats.checkpoints);
        println!(
            "  recovery           : lsn {} ({} records replayed, {} torn bytes dropped) \
             in {recovery_ms:.3} ms",
            r.recovered_lsn, r.replayed_records, r.truncated_bytes
        );
        println!("  bit-identical      : {exact} (vs committed write prefix)");
        println!("\n-- storage.wal telemetry (this drill) --");
        for name in [
            "storage.wal.appends",
            "storage.wal.fsyncs",
            "storage.wal.checkpoints",
            "storage.wal.replayed",
            "storage.wal.truncated_bytes",
        ] {
            println!("  {name:<28} {}", delta.counter(name));
        }
    }
    if !exact {
        eprintln!("durability drill FAILED: recovered state matches no committed prefix");
        exit(1);
    }
}

/// Runs the tiered-ingest drill locally: a file-backed [`TieredStore`]
/// in a temp dir (or `--dir`) absorbs a seeded signal on one thread
/// while the background compactor swaps sealed segments into wavelet
/// form and a planner runs progressive range sums against live
/// snapshots. Prints ingest rate, compaction lag, query latency and the
/// `tier.*` telemetry, then exits non-zero unless every live trajectory
/// kept monotone bounds, the drained store answered bit-identically to a
/// serial single-store oracle, and what it keeps resident fits the cache
/// budget plus its energy catalogs.
fn cmd_tiers(flags: &HashMap<String, String>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use aims::service::{TieredPlanner, TieredPlannerConfig};
    use aims::storage::file::{CrashPlan, DurabilityMode, FileDeviceOptions};
    use aims::tier::{compact, range_sum_on, Compactor, CompactorConfig, TierConfig, TieredStore};

    let seed: u64 = flag(flags, "seed", 7153);
    let samples: usize = flag(flags, "samples", 200_000);
    let segment: usize = flag(flags, "segment", 4096);
    let block: usize = flag(flags, "block", 256);
    let format: String = flag(flags, "format", "table".into());
    if format != "table" && format != "json" {
        eprintln!("unknown format '{format}' (table|json)");
        usage();
    }
    if samples == 0 || !segment.is_power_of_two() || !block.is_power_of_two() || block > segment {
        eprintln!("need --samples > 0 and power-of-two --block <= --segment");
        exit(2);
    }
    let (dir, keep) = match flags.get("dir") {
        Some(d) => (std::path::PathBuf::from(d), true),
        None => (std::env::temp_dir().join(format!("aims-tiers-{}", std::process::id())), false),
    };
    std::fs::remove_dir_all(&dir).ok();

    let cfg = TierConfig {
        segment_len: segment,
        block_size: block,
        max_segments: samples.div_ceil(segment) + 4,
        filter: aims::dsp::filters::FilterKind::Haar,
    };
    let mut state = seed | 1;
    let data: Vec<f64> = (0..samples)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 3203) as f64 / 9.0 - 170.0
        })
        .collect();

    let before = aims::telemetry::global().snapshot();
    let opts = FileDeviceOptions {
        mode: DurabilityMode::Periodic(64),
        crash: CrashPlan::none(),
        ..Default::default()
    };
    let store = TieredStore::create_durable(&dir, cfg, opts).unwrap_or_else(|e| {
        eprintln!("create {}: {e}", dir.display());
        exit(1);
    });
    let compactor = Compactor::spawn(store.clone(), CompactorConfig::default());
    let ingesting = Arc::new(AtomicBool::new(true));
    let mut violations = 0usize;

    let (ingest_wall, latencies_ms, bound_violations) = std::thread::scope(|scope| {
        let ingest = {
            let store = store.clone();
            let ingesting = Arc::clone(&ingesting);
            let data = &data;
            scope.spawn(move || {
                let t = Instant::now();
                for chunk in data.chunks(segment) {
                    store.push_slice(chunk);
                }
                store.seal_open();
                let wall = t.elapsed();
                ingesting.store(false, Ordering::Release);
                wall
            })
        };
        let queries = {
            let store = store.clone();
            let ingesting = Arc::clone(&ingesting);
            scope.spawn(move || {
                let planner = TieredPlanner::new(store, TieredPlannerConfig::default());
                let mut lat = Vec::new();
                let mut bad = 0usize;
                let mut k = 0usize;
                while ingesting.load(Ordering::Acquire) {
                    let n = planner.store().len();
                    if n == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let (a, b) = if k.is_multiple_of(2) {
                        (0, n - 1)
                    } else {
                        (n.saturating_sub(segment), n - 1)
                    };
                    let t = Instant::now();
                    let ans = planner.range_sum(a, b);
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                    let mut prev = f64::INFINITY;
                    for s in &ans.steps {
                        if s.bound > prev {
                            bad += 1;
                        }
                        prev = s.bound;
                    }
                    k += 1;
                }
                (lat, bad)
            })
        };
        let wall = ingest.join().expect("ingest thread");
        let (lat, bad) = queries.join().expect("query thread");
        (wall, lat, bad)
    });
    violations += bound_violations;

    // Compaction lag: drain time once ingest stops.
    let t = Instant::now();
    let deadline = t + Duration::from_secs(60);
    while store.stats().sealed_raw > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drained = store.stats().sealed_raw == 0;
    if !drained {
        violations += 1;
    }
    let lag_ms = t.elapsed().as_secs_f64() * 1e3;
    let compacted = compactor.stop();

    // Oracle gate: bit-identical to a serial single-pass store.
    let serial = aims::exec::ThreadPool::new(1);
    let oracle = TieredStore::new_mem(cfg);
    oracle.push_slice(&data);
    oracle.seal_open();
    compact::drain(&oracle, &serial);
    let (snap, osnap) = (store.snapshot(), oracle.snapshot());
    if snap.len() != samples {
        violations += 1;
    }
    let mut oracle_ok = true;
    let last = samples - 1;
    for (a, b) in [(0, last), (0, 0), (last / 2, last), (last / 3, 2 * last / 3)] {
        let got = range_sum_on(&snap, a, b, &serial);
        let want = range_sum_on(&osnap, a, b, &serial);
        if got.to_bits() != want.to_bits() {
            oracle_ok = false;
            violations += 1;
        }
    }
    // Fully drained, the store holds its cache and its catalogs: memory
    // is bounded by the budget, not by what was ingested.
    let resident_bytes = store.resident_bytes();
    let catalogs = 8 * (segment / block) * snap.segments().len();
    if resident_bytes > aims::tier::HIST_CACHE_BYTES + catalogs {
        violations += 1;
    }
    store.checkpoint();
    drop((snap, store));
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }

    let rate = samples as f64 / ingest_wall.as_secs_f64();
    let mut sorted = latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() - 1) as f64 * p).round() as usize]
        }
    };
    let delta = aims::telemetry::global().snapshot().delta_since(&before);

    if format == "json" {
        println!(
            "{{\"seed\":{seed},\"samples\":{samples},\"segment\":{segment},\"block\":{block},\
             \"threads\":{},\"ingest_samples_per_sec\":{rate:.1},\
             \"compaction_lag_ms\":{lag_ms:.3},\"segments_compacted\":{compacted},\
             \"queries\":{},\"query_p50_ms\":{:.4},\"query_p99_ms\":{:.4},\
             \"resident_bytes\":{resident_bytes},\
             \"drained\":{drained},\"oracle_identical\":{oracle_ok},\"violations\":{violations}}}",
            aims::exec::configured_threads(),
            latencies_ms.len(),
            pct(0.50),
            pct(0.99),
        );
    } else {
        println!(
            "tier drill: seed={seed} samples={samples} segment={segment} block={block} \
             threads={}",
            aims::exec::configured_threads()
        );
        println!("  ingest             : {rate:.0} samples/s ({:.1?} wall)", ingest_wall);
        println!("  compaction         : {compacted} segments, {lag_ms:.1} ms lag after ingest");
        println!(
            "  queries (live)     : {} runs, p50 {:.3} ms, p99 {:.3} ms",
            latencies_ms.len(),
            pct(0.50),
            pct(0.99),
        );
        println!("  backlog drained    : {drained}");
        println!("  oracle bit-identity: {oracle_ok}");
        println!("\n-- tier telemetry (this drill) --");
        for name in [
            "tier.segments.open",
            "tier.segments.sealed",
            "tier.segments.compacted",
            "tier.compaction.runs",
            "tier.compaction.ns",
            "tier.compaction.bytes",
            "tier.query.hot_rows",
            "tier.query.merged",
            "tier.hist.block_reads",
            "tier.hist.cache_hits",
            "tier.hist.cache_misses",
        ] {
            println!("  {name:<26} {}", delta.counter(name));
        }
        println!("  {:<26} {resident_bytes}", "tier.resident_bytes");
    }
    if violations > 0 {
        eprintln!("tier drill FAILED: {violations} invariant violation(s)");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "ingest" => cmd_ingest(&flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "recognize" => cmd_recognize(&flags),
        "metrics" => cmd_metrics(&flags),
        "faults" => cmd_faults(&flags),
        "ingest-faults" => cmd_ingest_faults(&flags),
        "trace" => cmd_trace(&flags),
        "top" => cmd_top(&flags),
        "chaos" => cmd_chaos(&flags),
        "kernels" => cmd_kernels(&flags),
        "durability" => cmd_durability(&flags),
        "tiers" => cmd_tiers(&flags),
        _ => usage(),
    }
}
