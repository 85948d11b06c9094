//! `aims-cli` — drive the AIMS pipeline from the command line.
//!
//! Subcommands:
//!
//! ```text
//! aims-cli generate  --seconds 10 --activity 0.6 --seed 7 --out session.csv
//! aims-cli ingest    --input session.csv [--strategy adaptive|fixed|modified-fixed|grouped]
//! aims-cli query     --input session.csv --channel 0 --from 1.0 --to 4.0 [--op avg|sum|point]
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
//! `ingest.*` telemetry; `query --connect` drives a progressive range sum
//! against a running server (the `aims-serve` binary, which serves a demo
//! cube in memory or from a durable `--data` directory), printing the
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
//! the tiled transform's fixed tile/threshold, then times one serial
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
<generate|ingest|query|recognize|metrics|faults|ingest-faults|trace|top|chaos\
|kernels|durability|tiers> [--key value]...\n\
         \n\
         generate  --seconds <f> --activity <0..1> --seed <n> --out <file>\n\
         ingest    --input <file> [--strategy adaptive|fixed|modified-fixed|grouped]\n\
         query     --input <file> --channel <n> --from <s> --to <s> [--op avg|sum|point]\n\
         query     --connect <host:port> --ranges <lo:hi,lo:hi> \
[--priority interactive|batch] [--deadline-ms <n>]\n\
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
                   [--dir <path>] [--format table|json]\n\
         \n\
         the server is its own binary: aims-serve [--port <n>] [--side <n>] [--block <n>]\n\
                   [--cache <n>] [--queue <n>] [--seed <n>] [--data <dir>] [--durability <mode>]"
    );
    exit(2);
}

/// Parses `--key value` pairs after the subcommand; a flag not in
/// `accepted` is a usage error, so a misspelt flag never runs a default.
fn parse_flags(args: &[String], accepted: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            eprintln!("unexpected argument '{key}'");
            usage();
        };
        if !accepted.contains(&name) {
            eprintln!("unknown flag --{name} (this verb takes --{})", accepted.join(", --"));
            usage();
        }
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

/// The `--format` flag, which must be one of `allowed` (first = default).
fn format_flag(flags: &HashMap<String, String>, allowed: &[&str]) -> String {
    let format: String = flag(flags, "format", allowed[0].into());
    if !allowed.contains(&format.as_str()) {
        eprintln!("unknown format '{format}' ({})", allowed.join("|"));
        usage();
    }
    format
}

/// Prints a drill's invariant violations and exits 1 if there are any.
fn exit_on_violations(drill: &str, violations: &[String]) {
    if !violations.is_empty() {
        eprintln!("{drill} drill FAILED: {} invariant violation(s):", violations.len());
        for v in violations {
            eprintln!("  {v}");
        }
        exit(1);
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
    let config = AimsConfig { sampling: strategy };
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

/// Prints a remote query's terminal answer as `<how>: <subject> <value>`,
/// or exits 1 if it ended without one.
fn print_answer(cmd: &str, subject: &str, out: &aims::service::RemoteOutcome) {
    use aims::service::ProgressKind;

    match (out.kind, &out.last) {
        (ProgressKind::Done, Some(r)) => println!("done: {subject} {:.4} (exact)", r.estimate),
        (ProgressKind::DeadlineExpired, Some(r)) => {
            println!("deadline expired: {subject} {:.4} +/- {:.4}", r.estimate, r.error_bound);
        }
        (ProgressKind::Shed, Some(r)) => println!(
            "shed under load: {subject} {:.4} +/- {:.4} (best-so-far)",
            r.estimate, r.error_bound
        ),
        (kind, _) => {
            eprintln!("{cmd}: query ended without an answer: {kind:?}");
            exit(1);
        }
    }
}

/// Drives one progressive range sum against a running server and prints
/// the refinement trace.
fn cmd_query_remote(flags: &HashMap<String, String>, connect: &str) {
    use aims::service::{QuerySpec, TcpClient, Tier};

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
    print_answer("query", &format!("{ranges_text} ="), &out);
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
    let format = format_flag(flags, &["table", "json"]);
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
    // exact COUNT and one exact SUM.
    let space = AttributeSpace::new(vec![(-120.0, 120.0); 2], vec![32; 2]);
    let tuples: Vec<Vec<f64>> =
        (0..session.len()).map(|t| vec![session.value(t, 0), session.value(t, 1)]).collect();
    let engine = AimsSystem::offline_engine(&space, tuples, &FilterKind::Db4.filter());
    engine.evaluate(&RangeSumQuery::count(vec![(0, 31), (0, 31)]));
    engine.evaluate(&RangeSumQuery::sum_poly(vec![(0, 31), (0, 31)], 0, Polynomial::monomial(1)));

    let snap = aims::telemetry::global().snapshot();
    if format == "json" {
        print!("{}", snap.to_json_lines());
    } else {
        print!("{}", snap.render_table());
    }
}

/// Runs the storage-fault drill ([`aims::drill::faults`]) on its CLI
/// workload: reports per-query recovery/degradation and the storage fault
/// telemetry, and exits non-zero if a recovered query was not
/// bit-identical or a degraded one broke its bound.
fn cmd_faults(flags: &HashMap<String, String>) {
    use aims::drill::faults::{run, Config};
    use aims::storage::faults::FaultKind;

    let seed: u64 = flag(flags, "seed", 41378);
    let rate: f64 = flag(flags, "rate", 0.3);
    let budget: usize = flag(flags, "budget", 3);
    let kind_name: String = flag(flags, "kind", "read".into());
    let format = format_flag(flags, &["table", "json"]);
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

    let cfg = Config::cli(seed, kind, rate, budget);
    let report = run(&cfg);
    let (queries, degraded) = (report.rows.len(), report.degraded().count());
    let (dead, torn) = (report.dead_blocks, report.torn_blocks);
    if format == "json" {
        let body: Vec<String> = report
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"range\":[{},{}],\"value\":{},\"error_bound\":{},\"lost_blocks\":{}}}",
                    r.range.0,
                    r.range.1,
                    r.got.estimate,
                    r.got.error_bound,
                    r.got.lost_blocks.len()
                )
            })
            .collect();
        println!(
            "{{\"seed\":{seed},\"kind\":\"{kind_name}\",\"rate\":{rate},\"budget\":{budget},\
             \"recovered\":{},\"degraded\":{degraded},\"dead_blocks\":{dead},\
             \"torn_blocks\":{torn},\"queries\":[{}]}}",
            queries - degraded,
            body.join(",")
        );
    } else {
        println!(
            "fault drill: kind={kind_name} rate={rate} budget={budget} seed={seed} \
             (n={}, B={})",
            cfg.signal.len(),
            cfg.block
        );
        println!("  recovered exactly : {}/{queries}", queries - degraded);
        println!(
            "  degraded w/ bound : {degraded}/{queries} (worst bound {:.3})",
            report.worst_bound()
        );
        println!("  dead blocks       : {dead}, torn blocks: {torn}");
        println!("\n-- storage telemetry --");
        let snap = aims::telemetry::global().snapshot();
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
    exit_on_violations("fault", &report.violations());
}

/// Runs the sensor-fault ingest drill ([`aims::drill::ingest`]): reports
/// the supervisor's counters, health transitions and the `ingest.*`
/// telemetry, and exits non-zero if the stored stream is empty or
/// non-finite, or a zero-fault replay is not bit-identical to the clean
/// session (the supervised path costs nothing on good input).
fn cmd_ingest_faults(flags: &HashMap<String, String>) {
    use aims::acquisition::ingest::RepairPolicy;
    use aims::drill::ingest::{run, Config};
    use aims::sensors::faulty::SensorFaultPlan;
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
    let format = format_flag(flags, &["table", "json"]);
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

    let plan = SensorFaultPlan {
        dropout_rate: dropout,
        stuck_rate: stuck,
        spike_rate: spike,
        duplicate_rate: dup,
        reorder_rate: reorder,
        dead_channel_fraction: dead,
        ..SensorFaultPlan::none(seed)
    };
    let report = run(&Config { seed, seconds, plan: plan.clone(), repair: policy });
    let (out, rmse) = (&report.outcome, report.relative_rmse);

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
             \"dead\":{dead},\"frames\":{},\"channels\":{},\
             \"repaired_samples\":{},\"reordered_frames\":{},\"duplicate_frames\":{},\
             \"dropped_frames\":{},\"relative_rmse\":{rmse},\"quality\":{{{}}},\
             \"dead_channels\":{:?},\"health_events\":[{}]}}",
            out.stream.len(),
            out.stream.channels(),
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
            "  wire → stored     : {} wire frames → {} frames x {} channels",
            report.wire_frames,
            out.stream.len(),
            out.stream.channels()
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
        } else {
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
    exit_on_violations("ingest", &report.violations());
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
    use aims::service::{demo_cube, Outcome, QueryService, QuerySpec, ServiceConfig, TcpClient};
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
        print_answer("trace", "estimate", &out);
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
    let format = format_flag(flags, &["table", "chrome"]);
    let out_path = flags.get("out").cloned();

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
    let format = format_flag(flags, &["table", "json"]);

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

/// `aims-cli kernels` — report the kernel dispatch table and the tiled
/// transform's fixed tile/threshold, then time one serial 2-D
/// transform per filter so a host's actual kernel speed is one command
/// away. Exits 1 if a filter's round trip misses by more than 1e-9.
fn cmd_kernels(flags: &HashMap<String, String>) {
    use aims::dsp::dwt::{dwt_standard_md_with, idwt_standard_md_with};
    use aims::dsp::filters::FilterKind;

    let side: usize = flag(flags, "side", 256);
    if !side.is_power_of_two() || side < 2 {
        eprintln!("--side must be a power of two >= 2, got {side}");
        exit(2);
    }

    println!("tiled transform constants:");
    println!("  strided tile width:     {}", aims::dsp::dwt::TILE);
    println!("  serial-below threshold: {} elements", aims::dsp::dwt::PAR_THRESHOLD);

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
        if worst > 1e-9 {
            eprintln!("{} does not invert: max error {worst:.2e} on unit-scale data", f.name());
            exit(1);
        }
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
    use aims::drill::chaos::{run, Config};

    let seed: u64 = flag(flags, "seed", aims::drill::env_seed("AIMS_CHAOS_SEED", 4242));
    let format = format_flag(flags, &["table", "json"]);

    let report = run(&Config { seed, ..Config::default() });
    if format == "json" {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.render_table());
    }
    exit_on_violations("chaos", &report.violations());
    if format == "table" {
        println!("all drill invariants held");
    }
}

/// Runs the crash-recovery drill ([`aims::drill::crash`]) against a
/// temp-dir (or `--dir`) durable store: a seeded write workload is killed
/// at a seeded crash point, the store is reopened, and recovery must be
/// bit-identical to a committed prefix of the write log. Prints the
/// recovery report plus the `storage.wal.*` telemetry deltas.
fn cmd_durability(flags: &HashMap<String, String>) {
    use aims::drill::crash::{run, Config};
    use aims::storage::file::DurabilityMode;

    let seed: u64 = flag(flags, "seed", 52417);
    let blocks: usize = flag(flags, "blocks", 32);
    let block_size: usize = flag(flags, "block-size", 16);
    let writes: usize = flag(flags, "writes", 96);
    let mode_name: String = flag(flags, "mode", "always".into());
    let format = format_flag(flags, &["table", "json"]);
    let Some(mode) = DurabilityMode::parse(&mode_name) else {
        eprintln!("unknown durability mode '{mode_name}' (always|periodic[:K]|none)");
        usage();
    };

    let cfg = Config {
        dir: flags.get("dir").map(std::path::PathBuf::from),
        ..Config::seeded(seed, mode, blocks, block_size, writes)
    };
    let crash_step = cfg.crash_step.expect("the seeded workload always arms a crash");
    let before = aims::telemetry::global().snapshot();
    let r = run(&cfg);
    let delta = aims::telemetry::global().snapshot().delta_since(&before);
    let (exact, recovery_ms) = (r.matched_prefix.is_some(), r.recovery_ms);

    if format == "json" {
        println!(
            "{{\"seed\":{seed},\"mode\":\"{}\",\"crash_step\":{crash_step},\"crashed\":{},\
             \"completed_writes\":{},\"durable_lsn\":{},\
             \"fsyncs\":{},\"checkpoints\":{},\"recovered_lsn\":{},\"replayed_records\":{},\
             \"truncated_bytes\":{},\"recovery_ms\":{recovery_ms:.3},\"exact\":{exact}}}",
            mode.label(),
            r.crashed,
            r.completed,
            r.durable_lsn,
            r.wal.fsyncs,
            r.wal.checkpoints,
            r.recovery.recovered_lsn,
            r.recovery.replayed_records,
            r.recovery.truncated_bytes,
        );
    } else {
        println!(
            "durability drill: mode={} seed={seed} (blocks={blocks}, B={block_size}, \
             {writes} writes, crash step {crash_step})",
            mode.label()
        );
        println!("  crashed            : {} after {} completed writes", r.crashed, r.completed);
        println!("  acked frontier     : lsn {}", r.durable_lsn);
        println!("  fsyncs/checkpoints : {}/{}", r.wal.fsyncs, r.wal.checkpoints);
        println!(
            "  recovery           : lsn {} ({} records replayed, {} torn bytes dropped) \
             in {recovery_ms:.3} ms",
            r.recovery.recovered_lsn, r.recovery.replayed_records, r.recovery.truncated_bytes
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
    exit_on_violations("durability", &r.violations());
}

/// Runs the tiered-ingest drill ([`aims::drill::tiers`]) in a temp dir
/// (or `--dir`). Prints ingest rate, compaction lag, query latency and
/// the `tier.*` telemetry, then exits non-zero unless every live
/// trajectory kept monotone bounds, the drained store answered
/// bit-identically to a serial single-store oracle, and what it keeps
/// resident fits the cache budget plus its energy catalogs.
fn cmd_tiers(flags: &HashMap<String, String>) {
    use aims::drill::tiers::{run, Config};

    let seed: u64 = flag(flags, "seed", 7153);
    let samples: usize = flag(flags, "samples", 200_000);
    let segment: usize = flag(flags, "segment", 4096);
    let block: usize = flag(flags, "block", 256);
    let format = format_flag(flags, &["table", "json"]);
    if samples == 0 || !segment.is_power_of_two() || !block.is_power_of_two() || block > segment {
        eprintln!("need --samples > 0 and power-of-two --block <= --segment");
        exit(2);
    }

    let before = aims::telemetry::global().snapshot();
    let r = run(&Config {
        seed,
        samples,
        segment,
        block,
        planner: Default::default(),
        dir: flags.get("dir").map(std::path::PathBuf::from),
    });
    let delta = aims::telemetry::global().snapshot().delta_since(&before);
    let violations = r.violations();
    let threads = aims::exec::configured_threads();

    if format == "json" {
        println!(
            "{{\"seed\":{seed},\"samples\":{samples},\"segment\":{segment},\"block\":{block},\
             \"threads\":{threads},\"ingest_samples_per_sec\":{:.1},\
             \"compaction_lag_ms\":{:.3},\"segments_compacted\":{},\
             \"queries\":{},\"query_p50_ms\":{:.4},\"query_p99_ms\":{:.4},\
             \"resident_bytes\":{},\
             \"drained\":{},\"oracle_identical\":{},\"answers\":[{}],\"violations\":{}}}",
            r.ingest_samples_per_sec,
            r.compaction_lag_ms,
            r.segments_compacted,
            r.queries,
            r.query_p50_ms,
            r.query_p99_ms,
            r.resident_bytes,
            r.drained,
            r.oracle_identical,
            r.answers.iter().map(|a| format!("\"{a:016x}\"")).collect::<Vec<_>>().join(","),
            violations.len(),
        );
    } else {
        println!(
            "tier drill: seed={seed} samples={samples} segment={segment} block={block} \
             threads={threads}"
        );
        println!(
            "  ingest             : {:.0} samples/s ({:.1?} wall)",
            r.ingest_samples_per_sec, r.ingest_wall
        );
        println!(
            "  compaction         : {} segments, {:.1} ms lag after ingest",
            r.segments_compacted, r.compaction_lag_ms
        );
        println!(
            "  queries (live)     : {} runs, p50 {:.3} ms, p99 {:.3} ms",
            r.queries, r.query_p50_ms, r.query_p99_ms
        );
        println!("  backlog drained    : {}", r.drained);
        println!("  oracle bit-identity: {}", r.oracle_identical);
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
        println!("  {:<26} {}", "tier.resident_bytes", r.resident_bytes);
    }
    exit_on_violations("tier", &violations);
}

/// A verb's entry point.
type Verb = fn(&HashMap<String, String>);

/// Every verb, its entry point and the flags it accepts.
const VERBS: &[(&str, Verb, &[&str])] = &[
    ("generate", cmd_generate, &["seconds", "activity", "seed", "out"]),
    ("ingest", cmd_ingest, &["input", "strategy"]),
    (
        "query",
        cmd_query,
        &["input", "channel", "from", "to", "op", "connect", "ranges", "priority", "deadline-ms"],
    ),
    ("recognize", cmd_recognize, &["signs", "sentence", "seed"]),
    ("metrics", cmd_metrics, &["seconds", "seed", "format"]),
    ("faults", cmd_faults, &["seed", "rate", "budget", "kind", "format"]),
    (
        "ingest-faults",
        cmd_ingest_faults,
        &[
            "seed", "seconds", "dropout", "stuck", "spike", "dup", "reorder", "dead", "policy",
            "format",
        ],
    ),
    (
        "trace",
        cmd_trace,
        &["connect", "ranges", "side", "block", "seed", "queries", "format", "out"],
    ),
    ("top", cmd_top, &["connect", "interval-ms", "iterations", "format"]),
    ("chaos", cmd_chaos, &["seed", "format"]),
    ("kernels", cmd_kernels, &["side"]),
    (
        "durability",
        cmd_durability,
        &["mode", "seed", "blocks", "block-size", "writes", "dir", "format"],
    ),
    ("tiers", cmd_tiers, &["seed", "samples", "segment", "block", "dir", "format"]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let Some(&(_, run, accepted)) = VERBS.iter().find(|(name, ..)| name == cmd) else {
        usage();
    };
    run(&parse_flags(rest, accepted));
}
