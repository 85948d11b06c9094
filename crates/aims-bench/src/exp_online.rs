//! Experiments E15–E18: the online query-and-analysis subsystem (paper
//! §3.4, §3.4.1, §3.4.2).

use aims_linalg::{IncrementalSvd, Matrix, Svd};
use aims_propolyne::cube::{AttributeSpace, DataCube};
use aims_propolyne::engine::Propolyne;
use aims_propolyne::query::RangeSumQuery;
use aims_sensors::asl::AslVocabulary;
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::types::MultiStream;
use aims_stream::baselines::SimilarityMeasure;
use aims_stream::isolation::{evaluate_isolation, IsolationConfig, StreamRecognizer};
use aims_stream::signature::SvdSignature;
use aims_stream::vocabulary::VocabularyMatcher;

/// E15's vocabulary: *motion-defined* signs. All signs share one hand
/// posture and differ only in their wrist-motion structure; within each
/// pair, the two signs have identical per-channel amplitudes and
/// frequencies and differ only in the *relative phase* between two
/// channels (in-phase vs anti-phase). This is precisely the regime the
/// paper argues for the SVD measure (§3.4.2): the information lives in the
/// correlation across sensors — per-channel DFT magnitudes cannot see it,
/// and time-domain distances are scrambled by the random onset phase of
/// each performance.
struct MotionSign {
    motion: aims_sensors::glove::WristMotion,
    base_duration_s: f64,
}

fn motion_vocabulary(pairs: usize, seed: u64) -> Vec<MotionSign> {
    let mut noise = NoiseSource::seeded(seed);
    let mut signs = Vec::with_capacity(pairs * 2);
    for p in 0..pairs {
        // Two coupled tracker channels + per-pair distinct frequency.
        let c1 = p % 6;
        let c2 = (p + 1 + p / 6) % 6;
        let freq = 1.0 + 0.45 * p as f64;
        let amp = 18.0;
        for anti in [false, true] {
            let mut m = aims_sensors::glove::WristMotion::still();
            m.amplitude[c1] = amp;
            m.frequency[c1] = freq;
            m.amplitude[c2] = amp;
            m.frequency[c2] = freq;
            m.phase[c2] = if anti { std::f64::consts::PI } else { 0.0 };
            signs.push(MotionSign { motion: m, base_duration_s: noise.uniform(0.9, 1.3) });
        }
    }
    signs
}

/// One performance of a motion sign: random global onset phase, random
/// duration, sensor noise — relative phase between channels is the only
/// reliable signature.
fn motion_instance(rig: &CyberGloveRig, sign: &MotionSign, noise: &mut NoiseSource) -> MultiStream {
    let shape = aims_sensors::glove::HandShape::neutral();
    let mut motion = sign.motion.clone();
    let global_phase = noise.uniform(0.0, std::f64::consts::TAU);
    for c in 0..motion.phase.len() {
        motion.phase[c] += global_phase;
    }
    let frames = ((sign.base_duration_s * noise.uniform(0.7, 1.4)) * rig.sample_rate) as usize;
    rig.record_motion(&shape, &shape, &motion, frames.max(16), noise)
}

/// Rank-1 accuracy of every similarity measure, in
/// [`SimilarityMeasure::ALL`] order, on `pairs` in/anti-phase motion-sign
/// pairs: one template and `per_sign` test performances per sign.
fn accuracy_by_measure(pairs: usize, per_sign: usize) -> Vec<(SimilarityMeasure, f64)> {
    let rig = CyberGloveRig { noise_sigma: 0.8, tremor_amplitude: 0.8, ..Default::default() };
    let signs = motion_vocabulary(pairs, 42);
    let mut train_noise = NoiseSource::seeded(1);
    let mut test_noise = NoiseSource::seeded(2);

    let templates: Vec<(usize, MultiStream)> = signs
        .iter()
        .enumerate()
        .map(|(l, s)| (l, motion_instance(&rig, s, &mut train_noise)))
        .collect();
    let test: Vec<(usize, MultiStream)> = signs
        .iter()
        .enumerate()
        .flat_map(|(l, s)| (0..per_sign).map(move |_| (l, s)))
        .map(|(l, s)| (l, motion_instance(&rig, s, &mut test_noise)))
        .collect();
    SimilarityMeasure::ALL
        .into_iter()
        .map(|measure| {
            let mut matcher = VocabularyMatcher::new(measure);
            for (l, t) in &templates {
                matcher.add_template(*l, t.clone());
            }
            (measure, matcher.accuracy(&test))
        })
        .collect()
}

/// E15 — "our choice of weighted SVD for similarity measure is justified"
/// (§3.4.2): rank-1 recognition across measures on motion-defined signs
/// whose identity lives in cross-sensor correlation.
pub fn e15_similarity_measures() {
    crate::header("E15", "weighted-SVD vs Euclidean/DFT/DWT similarity (§3.4, §3.4.2)");
    let (pairs, per_sign) = (10, 25);
    println!(
        "vocabulary: {} motion-defined signs ({} in/anti-phase pairs), {} test instances",
        2 * pairs,
        pairs,
        2 * pairs * per_sign
    );
    println!("each instance: random onset phase, ±40% duration, sensor noise");
    println!("\n{:>14} {:>12}", "measure", "accuracy");
    for (measure, accuracy) in accuracy_by_measure(pairs, per_sign) {
        println!("{:>14} {:>11.1}%", measure.name(), accuracy * 100.0);
    }
    println!("\nshape check: weighted-SVD dominates — the in/anti-phase distinction is");
    println!("a cross-sensor covariance sign, invisible to per-channel DFT magnitudes");
    println!("and washed out of time-domain distances by the random onset phase.");
}

/// E16 — the accumulation heuristic "in real-time investigates the
/// accumulated values and simultaneously recognizes and isolates the input
/// patterns" (§3.4): segmentation F1, label accuracy and per-frame cost on
/// a long continuous stream.
pub fn e16_isolation() {
    crate::header("E16", "simultaneous isolation + recognition on a continuous stream (§3.4)");
    let vocab = AslVocabulary::synthetic(10, 17, CyberGloveRig::default());
    let mut train_noise = NoiseSource::seeded(4);
    let templates: Vec<(usize, MultiStream)> = (0..vocab.len())
        .flat_map(|l| (0..2).map(move |_| l))
        .map(|l| (l, vocab.instance(l, &mut train_noise).stream))
        .collect();

    let mut stream_noise = NoiseSource::seeded(8);
    let labels: Vec<usize> = (0..60).map(|i| (i * 7 + 3) % vocab.len()).collect();
    let (stream, truth) = vocab.sentence(&labels, &mut stream_noise);
    println!("stream: {} frames ({:.0}s), {} signs", stream.len(), stream.duration(), truth.len());

    let mut recognizer =
        StreamRecognizer::new(&templates, vocab.rig.spec(), IsolationConfig::default());
    let (detections, elapsed) =
        crate::timed("bench.e16.process_stream", || recognizer.process_stream(&stream));

    let truth_tuples: Vec<(usize, usize, usize)> =
        truth.iter().map(|t| (t.label, t.start, t.end)).collect();
    let report = evaluate_isolation(&detections, &truth_tuples, 0.3);
    let per_frame = elapsed.as_secs_f64() / stream.len() as f64;
    println!("\ndetections: {}", detections.len());
    println!("precision {:.2}  recall {:.2}  F1 {:.2}", report.precision, report.recall, report.f1);
    println!("label accuracy among matched segments: {:.2}", report.label_accuracy);
    println!(
        "processing: {elapsed:.2?} total, {:.1} µs/frame ({}x faster than the 100 Hz real-time budget)",
        per_frame * 1e6,
        (0.01 / per_frame) as u64
    );
    println!("\nshape check: F1 and label accuracy well above chance (chance label");
    println!(
        "accuracy = {:.2}), per-frame cost far under the 10 ms real-time budget.",
        1.0 / vocab.len() as f64
    );
}

/// E17 — "ProPolyne's class of polynomial range-sum aggregates can be used
/// directly to compute our SVD-based similarity function" (§3.4.1): the
/// Gram matrix from SUM(xᵢxⱼ)/COUNT range-sums matches the direct one, and
/// the signatures agree.
pub fn e17_svd_from_propolyne() {
    crate::header("E17", "SVD similarity computed from ProPolyne range-sums (§3.4.1)");
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(23);
    let d = 4;
    println!("{:>8} {:>18} {:>22}", "window", "gram max dev", "signature similarity");
    for window_s in [0.5f64, 1.0, 2.0] {
        let window = rig.record_session(window_s, 0.7, &mut noise);
        let n = window.len();
        let channels: Vec<Vec<f64>> = (0..d).map(|c| window.channel(c)).collect();
        let direct = Matrix::from_fn(d, d, |a, b| {
            channels[a].iter().zip(&channels[b]).map(|(x, y)| x * y).sum::<f64>() / n as f64
        });

        let space = AttributeSpace::new(vec![(-120.0, 120.0); d], vec![128; d]);
        let tuples: Vec<Vec<f64>> =
            (0..n).map(|t| (0..d).map(|c| channels[c][t]).collect()).collect();
        let cube = DataCube::from_tuples(&space, tuples);
        let engine = Propolyne::new(cube.transform(&aims_dsp::filters::FilterKind::Db6.filter()));
        let full: Vec<(usize, usize)> = vec![(0, 127); d];
        let count = engine.evaluate(&RangeSumQuery::count(full.clone()));
        let gram = Matrix::from_fn(d, d, |a, b| {
            let q = if a == b {
                let v = space.value_poly(a);
                RangeSumQuery::sum_poly(full.clone(), a, v.mul(&v))
            } else {
                RangeSumQuery::sum_product(
                    full.clone(),
                    a,
                    space.value_poly(a),
                    b,
                    space.value_poly(b),
                )
            };
            engine.evaluate(&q) / count
        });

        let dev = {
            let diff = &direct - &gram;
            diff.max_abs() / direct.max_abs()
        };
        let sim =
            SvdSignature::from_gram(&direct, 3).similarity(&SvdSignature::from_gram(&gram, 3));
        println!("{:>7.1}s {:>18.4} {:>22.6}", window_s, dev, sim);
    }
    println!("\nshape check: the range-sum Gram matrix matches the direct one to");
    println!("binning resolution, and the SVD signatures are interchangeable —");
    println!("the online similarity can run on wavelet-stored data.");
}

/// E18 — "computing SVD incrementally … reducing the overall computation
/// cost considerably" (§3.4.1): per-window cost and subspace agreement of
/// incremental vs batch SVD on a sliding 28-D stream.
pub fn e18_incremental_svd() {
    crate::header("E18", "incremental vs batch SVD over sliding windows (§3.4.1)");
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(6);
    let stream = rig.record_session(20.0, 0.7, &mut noise);
    let sensors = stream.channels();
    let window = 64usize;
    let step = 4usize;

    // Batch: full Jacobi SVD per window. Incremental: one rank update per
    // new column (amortized over `step` columns per window move).
    let mut batch_time = std::time::Duration::ZERO;
    let mut inc_time = std::time::Duration::ZERO;
    let mut agreement = 0.0;
    let mut windows = 0usize;

    let mut inc = IncrementalSvd::new(sensors, 8);
    // Prime with the first window.
    for t in 0..window {
        let col: aims_linalg::Vector = stream.frame(t).iter().copied().collect();
        inc.append_column(&col);
    }
    let mut t = window;
    while t + step <= stream.len() {
        // Incremental: absorb the new frames (no downdating — the window
        // grows; the dominant subspace tracking is what matters for
        // similarity).
        let (sig_inc, dt_inc) = crate::timed("bench.e18.incremental_step", || {
            for dt in 0..step {
                let col: aims_linalg::Vector = stream.frame(t + dt).iter().copied().collect();
                inc.append_column(&col);
            }
            SvdSignature::from_incremental(&inc, 5)
        });
        inc_time += dt_inc;

        // Batch: full SVD of the whole prefix seen so far (what a
        // non-incremental implementation would recompute).
        let (sig_batch, dt_batch) = crate::timed("bench.e18.batch_svd", || {
            let m = Matrix::from_fn(sensors, t + step, |c, tt| stream.value(tt, c));
            let svd = Svd::compute(&m);
            let total: f64 = svd.singular_values.iter().map(|s| s * s).sum();
            SvdSignature {
                basis: svd.u.submatrix(0, sensors, 0, 5),
                shares: svd.singular_values.iter().take(5).map(|s| s * s / total).collect(),
            }
        });
        batch_time += dt_batch;

        agreement += sig_inc.similarity(&sig_batch);
        windows += 1;
        t += step;
        if windows >= 40 {
            break;
        }
    }

    println!("{windows} window updates of {step} frames each (28 sensors)");
    println!(
        "batch recomputation: {batch_time:.2?} total ({:.2?}/update)",
        batch_time / windows as u32
    );
    println!(
        "incremental update : {inc_time:.2?} total ({:.2?}/update)",
        inc_time / windows as u32
    );
    let agreement = agreement / windows as f64;
    println!(
        "speedup {:.1}x, mean signature agreement {agreement:.4}",
        batch_time.as_secs_f64() / inc_time.as_secs_f64(),
    );
    assert!(agreement >= 0.85, "incremental signatures drifted from batch: {agreement:.4}");
    println!("\nshape check: the incremental path is much cheaper per update (printed) and");
    println!("its signature stays interchangeable with the batch one (asserted above).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E15's claim on a vocabulary small enough for the test suite (the
    /// experiment's 10 pairs × 25 performances are too slow for it):
    /// weighted SVD out-recognizes every baseline.
    #[test]
    fn weighted_svd_beats_every_baseline_on_motion_defined_signs() {
        let accuracies = accuracy_by_measure(2, 4);
        let (svd, baselines) = accuracies.split_first().expect("four measures");
        assert_eq!(svd.0.name(), "weighted-svd");
        for (measure, accuracy) in baselines {
            assert!(svd.1 > *accuracy, "weighted-svd {} !> {} {accuracy}", svd.1, measure.name());
        }
    }
}
