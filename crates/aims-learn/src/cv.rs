//! k-fold cross-validation.

use crate::dataset::Dataset;
use crate::metrics::{accuracy, confusion, ConfusionMatrix};
use crate::Classifier;

/// Aggregate result of a cross-validation run.
#[derive(Clone, Debug)]
pub struct CvReport {
    /// Per-fold accuracies.
    pub fold_accuracies: Vec<f64>,
    /// Pooled confusion matrix across folds.
    pub confusion: ConfusionMatrix,
}

impl CvReport {
    /// Mean accuracy over folds.
    pub fn mean_accuracy(&self) -> f64 {
        self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len() as f64
    }

    /// Standard deviation of fold accuracies.
    pub fn std_accuracy(&self) -> f64 {
        let m = self.mean_accuracy();
        (self.fold_accuracies.iter().map(|a| (a - m) * (a - m)).sum::<f64>()
            / self.fold_accuracies.len() as f64)
            .sqrt()
    }
}

/// Runs seeded k-fold cross-validation for any [`Classifier`].
///
/// # Panics
/// If `k` is invalid for the dataset size.
pub fn cross_validate<C: Classifier>(dataset: &Dataset, k: usize, seed: u64) -> CvReport {
    let _span = aims_telemetry::span!("learn.cv.cross_validate");
    aims_telemetry::counter!("learn.cv.folds").add(k as u64);
    let folds = dataset.folds(k, seed);
    let mut fold_accuracies = Vec::with_capacity(k);
    let mut pooled = ConfusionMatrix::default();
    for test_idx in &folds {
        let train_idx: Vec<usize> = (0..dataset.len()).filter(|i| !test_idx.contains(i)).collect();
        let train = dataset.subset(&train_idx);
        let test = dataset.subset(test_idx);
        let model = C::fit(&train);
        let preds = model.predict_all(&test.features);
        fold_accuracies.push(accuracy(&preds, &test.labels));
        let m = confusion(&preds, &test.labels);
        pooled.tp += m.tp;
        pooled.fp += m.fp;
        pooled.fn_ += m.fn_;
        pooled.tn += m.tn;
    }
    CvReport { fold_accuracies, confusion: pooled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Label;
    use crate::svm::LinearSvm;

    fn separable(n: usize) -> Dataset {
        Dataset::new(
            (0..n)
                .map(|i| {
                    let pos = i % 2 == 0;
                    let c = if pos { 5.0 } else { -5.0 };
                    vec![c + (i as f64 * 0.7).sin(), c + (i as f64 * 1.3).cos()]
                })
                .collect(),
            (0..n).map(|i| if i % 2 == 0 { Label::Positive } else { Label::Negative }).collect(),
        )
    }

    #[test]
    fn cv_on_separable_data_is_near_perfect() {
        let ds = separable(120);
        let report = cross_validate::<LinearSvm>(&ds, 5, 3);
        assert_eq!(report.fold_accuracies.len(), 5);
        assert!(report.mean_accuracy() > 0.97, "{}", report.mean_accuracy());
        // Pooled confusion covers every example exactly once.
        let total =
            report.confusion.tp + report.confusion.fp + report.confusion.fn_ + report.confusion.tn;
        assert_eq!(total, 120);
    }

    #[test]
    fn cv_is_deterministic_per_seed() {
        let ds = separable(60);
        let a = cross_validate::<LinearSvm>(&ds, 4, 11);
        let b = cross_validate::<LinearSvm>(&ds, 4, 11);
        assert_eq!(a.fold_accuracies, b.fold_accuracies);
    }

    #[test]
    fn std_accuracy_is_finite_and_small_on_easy_data() {
        let ds = separable(100);
        let report = cross_validate::<LinearSvm>(&ds, 5, 2);
        assert!(report.std_accuracy() < 0.1);
    }
}
