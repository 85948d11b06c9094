//! Integration of the offline and online analysis paths (paper §3.4.1):
//! the SVD-based similarity must be computable from ProPolyne second-order
//! range-sums, and the ADHD study must classify at the paper's level.

use aims::dsp::filters::FilterKind;
use aims::learn::{cross_validate, Dataset, Label, LinearSvm};
use aims::linalg::Matrix;
use aims::propolyne::cube::{AttributeSpace, DataCube};
use aims::propolyne::engine::Propolyne;
use aims::propolyne::query::RangeSumQuery;
use aims::sensors::adhd::{generate_cohort, SessionConfig, SubjectKind};
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::noise::NoiseSource;
use aims::stream::signature::SvdSignature;

/// §3.4.1: "ProPolyne's class of polynomial range-sum aggregates can be
/// used directly to compute our SVD-based similarity function". Build the
/// Gram matrix of a sensor window two ways — directly, and from SUM(xᵢ·xⱼ)
/// range sums against a ProPolyne cube of the same samples — and check the
/// resulting SVD signatures agree.
#[test]
fn svd_similarity_from_propolyne_range_sums() {
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(31);
    let window = rig.record_session(1.5, 0.7, &mut noise);
    let d = 4; // use 4 channels to keep the cube's arity manageable
    let n = window.len();

    // Direct Gram matrix of the (truncated) sensor matrix.
    let channels: Vec<Vec<f64>> = (0..d).map(|c| window.channel(c)).collect();
    let direct_gram = Matrix::from_fn(d, d, |a, b| {
        channels[a].iter().zip(&channels[b]).map(|(x, y)| x * y).sum::<f64>() / n as f64
    });

    // ProPolyne path: load samples as tuples of the 4 channel values and
    // ask for SUM(x_a·x_b) / COUNT. Bin the value domain finely enough
    // that quantization noise is small.
    let lo = -120.0;
    let hi = 120.0;
    let space = AttributeSpace::new(vec![(lo, hi); d], vec![128; d]);
    let tuples: Vec<Vec<f64>> = (0..n).map(|t| (0..d).map(|c| channels[c][t]).collect()).collect();
    let cube = DataCube::from_tuples(&space, tuples);
    let engine = Propolyne::new(cube.transform(&FilterKind::Db6.filter()));
    let full: Vec<(usize, usize)> = vec![(0, 127); d];
    let count = engine.evaluate(&RangeSumQuery::count(full.clone()));
    assert!((count - n as f64).abs() < 1e-6 * n as f64);

    let propolyne_gram = Matrix::from_fn(d, d, |a, b| {
        let q = if a == b {
            let v = space.value_poly(a);
            RangeSumQuery::sum_poly(full.clone(), a, v.mul(&v))
        } else {
            RangeSumQuery::sum_product(full.clone(), a, space.value_poly(a), b, space.value_poly(b))
        };
        engine.evaluate(&q) / count
    });

    // The two Gram matrices agree to within binning resolution. With 128
    // bins over [-120, 120] the per-sample quantization error is ±Δ/2 ≈
    // 0.94, so products of channel values (|x| up to ~40, nonzero means)
    // can drift by a few percent of the Gram scale; 5% covers the bound
    // without masking real disagreement.
    let scale = direct_gram.max_abs();
    assert!(
        direct_gram.approx_eq(&propolyne_gram, 0.05 * scale),
        "gram mismatch:\n{direct_gram:?}\nvs\n{propolyne_gram:?}"
    );

    // …and so do the SVD signatures (hence the similarity measure).
    let sig_direct = SvdSignature::from_gram(&direct_gram, 3);
    let sig_propolyne = SvdSignature::from_gram(&propolyne_gram, 3);
    let sim = sig_direct.similarity(&sig_propolyne);
    assert!(sim > 0.99, "signatures diverge: similarity {sim}");
}

/// §2.1: SVM on motion-speed features separates ADHD from normal subjects
/// at roughly the paper's 86% level (the simulated cohorts overlap by
/// design, so accuracy must be high but below ceiling).
#[test]
fn adhd_svm_accuracy_matches_paper_band() {
    let config = SessionConfig { duration_s: 60.0 };
    let sessions = generate_cohort(25, &config, 404);
    let dataset = Dataset::new(
        sessions.iter().map(|s| s.motion_speed_features()).collect(),
        sessions
            .iter()
            .map(|s| match s.profile.kind {
                SubjectKind::Normal => Label::Negative,
                SubjectKind::Adhd => Label::Positive,
            })
            .collect(),
    );
    let report = cross_validate::<LinearSvm>(&dataset, 5, 11);
    let acc = report.mean_accuracy();
    assert!(acc > 0.75, "accuracy too low: {acc}");
    assert!(acc <= 1.0);
}
