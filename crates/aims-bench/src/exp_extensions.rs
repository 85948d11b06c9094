//! Experiments E20–E22: the paper's proposed refinements ("future work"
//! it sketches in §3.3.1 and §3.4.1), implemented and measured.

use aims_dsp::filters::FilterKind;
use aims_linalg::RandomProjection;
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;
use aims_sensors::asl::AslVocabulary;
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::types::MultiStream;
use aims_service::{Outcome, QueryService, QuerySpec, Refinement, SchedulerPolicy, ServiceConfig};
use aims_stream::isolation::{evaluate_isolation, IsolationConfig, StreamRecognizer};
use aims_stream::signature::SvdSignature;

use crate::workloads::gaussian_mixture_cube;

/// E20 — §3.3.1: "for some applications it is important to minimize the
/// standard L² norm of the errors. For other applications it may be more
/// important to ensure that any large differences between results for
/// related ranges are captured early" — a 16-bucket drill-down as
/// co-admitted sessions of one query service, under each scheduler policy,
/// with the batch's L² and worst-query true errors taken per round from
/// the sessions' refinements.
pub fn e20_batch_error_norms() {
    crate::header(
        "E20",
        "progressive drill-down batch: L2 and worst-query error per round (§3.3.1)",
    );
    let cube = gaussian_mixture_cube(128).transform(&FilterKind::Db4.filter());
    let engine = Propolyne::new(cube.clone());
    let base = RangeSumQuery::count(vec![(0, 127), (8, 119)]);
    let queries = base.drill_down(0, 16);
    let exact: Vec<f64> = queries.iter().map(|q| engine.evaluate(q)).collect();

    println!("16-bucket drill-down on a store of one coefficient per block; true errors:");
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "policy", "rounds", "L2 err @25%", "max err @25%", "L2 AUC", "max AUC"
    );
    for policy in [SchedulerPolicy::Utility, SchedulerPolicy::Fifo] {
        let svc = QueryService::new(
            cube.clone(),
            1,
            ServiceConfig {
                cache_blocks: cube.coeffs().len(),
                round_blocks: 32,
                policy,
                ..ServiceConfig::default()
            },
        );
        // One admission: every bucket refines from the first round.
        let specs = queries.iter().map(|q| QuerySpec::interactive(q.ranges.clone())).collect();
        let handles = svc.submit_all(specs).expect("queue fits");
        let traces: Vec<Vec<Refinement>> = handles
            .into_iter()
            .zip(&exact)
            .enumerate()
            .map(|(k, (h, x))| match h.collect() {
                (trace, Outcome::Done(r)) => {
                    assert_eq!(r.estimate.to_bits(), x.to_bits(), "{policy:?}: bucket {k}");
                    trace
                }
                (_, other) => panic!("{policy:?}: bucket {k} did not complete: {other:?}"),
            })
            .collect();
        assert_eq!(svc.qos_stats().dropped_progress, 0, "{policy:?} dropped refinements");
        svc.shutdown();

        // Per scheduler round: each session's latest estimate (0 before
        // its first refinement) against its exact answer.
        let rounds = traces.iter().filter_map(|t| t.last()).map(|r| r.round).max().unwrap_or(0);
        let mut seen = vec![0usize; traces.len()];
        let per_round: Vec<(f64, f64)> = (1..=rounds)
            .map(|round| {
                let (mut l2, mut max) = (0.0f64, 0.0f64);
                for ((trace, at), x) in traces.iter().zip(&mut seen).zip(&exact) {
                    while trace.get(*at).is_some_and(|r| r.round <= round) {
                        *at += 1;
                    }
                    let estimate = at.checked_sub(1).map_or(0.0, |i| trace[i].estimate);
                    let error = (estimate - x).abs();
                    (l2, max) = (l2 + error * error, max.max(error));
                }
                (l2.sqrt(), max)
            })
            .collect();
        let quarter = per_round[per_round.len() / 4];
        println!(
            "{:>10} {:>8} {:>14.1} {:>14.1} {:>12.0} {:>12.0}",
            format!("{policy:?}"),
            rounds,
            quarter.0,
            quarter.1,
            per_round.iter().map(|e| e.0).sum::<f64>(),
            per_round.iter().map(|e| e.1).sum::<f64>()
        );
    }
    println!("\nshape check: both policies end bit-identical to serial evaluation with");
    println!("no refinement dropped; the table shows which order tightens the batch's");
    println!("L2 and its worst bucket sooner, as the service can run it (no oracle).");
}

/// E21 — §3.4.1: incremental SVD inside the recognizer — quality and cost
/// against the batch-per-window mode on the same stream.
pub fn e21_incremental_recognizer() {
    crate::header("E21", "streaming recognizer: batch vs incremental SVD mode (§3.4.1)");
    let vocab = AslVocabulary::synthetic(8, 31, CyberGloveRig::default());
    let mut train = NoiseSource::seeded(6);
    let templates: Vec<(usize, MultiStream)> = (0..vocab.len())
        .flat_map(|l| (0..2).map(move |_| l))
        .map(|l| (l, vocab.instance(l, &mut train).stream))
        .collect();
    let mut stream_noise = NoiseSource::seeded(14);
    let labels: Vec<usize> = (0..30).map(|i| (i * 5 + 2) % vocab.len()).collect();
    let (stream, truth) = vocab.sentence(&labels, &mut stream_noise);
    let truth_tuples: Vec<(usize, usize, usize)> =
        truth.iter().map(|t| (t.label, t.start, t.end)).collect();

    println!("{:>14} {:>8} {:>12} {:>14}", "mode", "F1", "label acc", "µs/frame");
    for incremental in [false, true] {
        let config = IsolationConfig { incremental };
        let mut rec = StreamRecognizer::new(&templates, vocab.rig.spec(), config);
        let (detections, elapsed) = crate::timed(
            if incremental { "bench.e21.incremental" } else { "bench.e21.batch" },
            || rec.process_stream(&stream),
        );
        let report = evaluate_isolation(&detections, &truth_tuples, 0.3);
        println!(
            "{:>14} {:>8.2} {:>12.2} {:>14.1}",
            if incremental { "incremental" } else { "batch" },
            report.f1,
            report.label_accuracy,
            elapsed.as_secs_f64() * 1e6 / stream.len() as f64
        );
    }
    println!("\nshape check: the incremental mode is ~5x cheaper per frame, at a");
    println!("recognition cost: its exponentially-forgetting subspace lags the hard");
    println!("window, and the accumulation heuristic is sensitive to that lag. E18");
    println!("shows the SVD primitive itself matches batch results — the gap here is");
    println!("window semantics, the cost/quality dial the paper's refinement opens.");
}

/// E22 — §3.3.1 refinements list "dimension reduction techniques such as
/// random projections": sketching the 28-channel windows before the SVD
/// signature — accuracy and cost vs sketch dimension.
pub fn e22_random_projection() {
    crate::header("E22", "random-projection sketches before SVD signatures (§3.3.1)");
    let rig = CyberGloveRig { noise_sigma: 2.0, tremor_amplitude: 1.5, ..Default::default() };
    let vocab = AslVocabulary::synthetic_with_separation(16, 53, rig, 30.0);
    let mut train = NoiseSource::seeded(3);
    let mut test = NoiseSource::seeded(4);
    let templates: Vec<(usize, MultiStream)> =
        (0..vocab.len()).map(|l| (l, vocab.instance(l, &mut train).stream)).collect();
    let instances: Vec<(usize, MultiStream)> = (0..vocab.len())
        .flat_map(|l| (0..10).map(move |_| l))
        .map(|l| (l, vocab.instance(l, &mut test).stream))
        .collect();

    let accuracy_at = |sketch_dim: Option<usize>| -> (f64, std::time::Duration) {
        let projection = sketch_dim.map(|k| RandomProjection::new(28, k, 99));
        let signature = |s: &MultiStream| -> SvdSignature {
            let m = s.to_sensor_matrix();
            match &projection {
                Some(p) => SvdSignature::from_matrix(&p.project_columns(&m), 5),
                None => SvdSignature::from_matrix(&m, 5),
            }
        };
        let template_sigs: Vec<(usize, SvdSignature)> =
            templates.iter().map(|(l, s)| (*l, signature(s))).collect();
        let (hits, elapsed) = crate::timed("bench.e22.classify", || {
            let mut hits = 0;
            for (label, stream) in &instances {
                let sig = signature(stream);
                let best = template_sigs
                    .iter()
                    .max_by(|a, b| a.1.similarity(&sig).partial_cmp(&b.1.similarity(&sig)).unwrap())
                    .unwrap()
                    .0;
                if best == *label {
                    hits += 1;
                }
            }
            hits
        });
        (hits as f64 / instances.len() as f64, elapsed)
    };

    println!("{:>12} {:>12} {:>14}", "sketch dim", "accuracy", "classify time");
    let (full_acc, full_time) = accuracy_at(None);
    println!("{:>12} {:>11.1}% {:>14.2?}", "28 (none)", full_acc * 100.0, full_time);
    for k in [16usize, 8, 4, 2] {
        let (acc, time) = accuracy_at(Some(k));
        println!("{:>12} {:>11.1}% {:>14.2?}", k, acc * 100.0, time);
        assert!(k < 4 || acc >= full_acc - 0.05, "sketch dim {k}: {acc} vs unsketched {full_acc}");
        assert!(acc <= full_acc, "sketch dim {k} beat the unsketched signature");
    }
    println!("\nshape check: sketches down to dimension 4 keep recognition within 5");
    println!("points of the unsketched signature while shrinking the SVD problem, and");
    println!("none beats it (asserted above); very aggressive sketches degrade it —");
    println!("the accuracy/cost dial the paper's refinement list anticipates.");
}

/// E23 — §3.3.1's basis-library generalization: ProPolyne over per-axis
/// best wavelet-packet bases — exactness, and the data-compaction edge on
/// oscillatory data that motivates looking "beyond pure wavelets".
pub fn e23_packet_basis() {
    crate::header("E23", "ProPolyne over best wavelet-packet bases (§3.3.1)");
    use aims_propolyne::cube::DataCube;
    use aims_propolyne::packet::PacketCube;

    // Oscillatory-along-one-axis data: the regime where the DWT cascade is
    // a poor basis and a packet basis shines.
    let n = 128;
    let mut cube = DataCube::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            *cube.at_mut(&[i, j]) =
                (std::f64::consts::PI * 0.9 * i as f64).sin() * (2.0 + (j as f64 * 0.05).cos());
        }
    }
    let filter = aims_dsp::filters::FilterKind::Db4.filter();
    let pc = PacketCube::build(&cube, &filter, 5);
    let wc = cube.transform(&filter);

    // Exactness spot-check.
    let q = RangeSumQuery::count(vec![(10, 100), (20, 110)]);
    let exact = q.eval_scan(&cube);
    let got = pc.evaluate(&q);
    println!("exactness: packet {got:.3} vs scan {exact:.3}");
    assert!((got - exact).abs() < 1e-6 * exact.abs().max(1.0));

    // Compaction: energy captured by the top-k coefficients.
    println!("\n{:>8} {:>16} {:>16}", "top-k", "dwt basis", "best packet basis");
    for k in [64usize, 256, 1024] {
        let dwt = {
            let mut mags: Vec<f64> = wc.coeffs().iter().map(|c| c * c).collect();
            let total: f64 = mags.iter().sum();
            mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
            mags.iter().take(k).sum::<f64>() / total
        };
        println!("{:>8} {:>15.1}% {:>15.1}%", k, dwt * 100.0, pc.compaction(k) * 100.0);
    }
    println!("\nshape check: the per-axis best packet basis concentrates oscillatory");
    println!("energy in far fewer coefficients than the pure-wavelet cascade, while");
    println!("query answers stay exact — the §3.3.1 basis-library generalization.");
}
