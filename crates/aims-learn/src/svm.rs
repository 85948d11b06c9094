//! Linear support vector machine trained by Pegasos-style stochastic
//! sub-gradient descent.
//!
//! The paper's ADHD experiment (§2.1) used "a Support Vector Machine (SVM)
//! on the motion speed of different trackers" and reached 86% accuracy.
//! Pegasos (primal stochastic sub-gradient on the hinge loss with
//! `λ/2·‖w‖²` regularization) converges to the same linear max-margin
//! solution and needs no QP solver — ideal for a self-contained
//! reproduction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, Label, Standardizer};
use crate::Classifier;

/// Regularization strength λ.
pub const LAMBDA: f64 = 1e-2;
/// Training epochs (passes over the data).
pub const EPOCHS: usize = 60;
/// RNG seed for example sampling.
pub const SEED: u64 = 0x5EED;

/// A trained linear SVM (standardizes features internally).
#[derive(Clone, Debug)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    scaler: Standardizer,
}

impl LinearSvm {
    /// Decision value `w·x + b` (after standardization).
    pub fn decision(&self, features: &[f64]) -> f64 {
        let x = self.scaler.apply(features);
        dot(&self.weights, &x) + self.bias
    }

    /// The learned weight vector (in standardized feature space).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Classifier for LinearSvm {
    /// Trains with [`LAMBDA`], [`EPOCHS`] and [`SEED`].
    ///
    /// # Panics
    /// If the training set is empty.
    fn fit(train: &Dataset) -> Self {
        let _span = aims_telemetry::span!("learn.svm.fit");
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let (std_ds, scaler) = train.standardized();
        let n = std_ds.len();
        let d = std_ds.dim();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut rng = SmallRng::seed_from_u64(SEED);

        let mut t = 1usize;
        for _epoch in 0..EPOCHS {
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let x = &std_ds.features[i];
                let y = std_ds.labels[i].signum();
                let eta = 1.0 / (LAMBDA * t as f64);
                let margin = y * (dot(&w, x) + b);
                // Sub-gradient step.
                for wj in w.iter_mut() {
                    *wj *= 1.0 - eta * LAMBDA;
                }
                if margin < 1.0 {
                    for (wj, &xj) in w.iter_mut().zip(x) {
                        *wj += eta * y * xj;
                    }
                    b += eta * y;
                }
                t += 1;
            }
        }
        LinearSvm { weights: w, bias: b, scaler }
    }

    fn predict(&self, features: &[f64]) -> Label {
        Label::from_score(self.decision(features))
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    /// Linearly separable blobs.
    fn blobs(n: usize, gap: f64, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let positive = i % 2 == 0;
            let center = if positive { gap } else { -gap };
            features.push(vec![
                center + rng.gen_range(-1.0..1.0),
                center * 0.5 + rng.gen_range(-1.0..1.0),
            ]);
            labels.push(if positive { Label::Positive } else { Label::Negative });
        }
        Dataset::new(features, labels)
    }

    #[test]
    fn separable_data_is_learned_perfectly() {
        let train = blobs(200, 3.0, 1);
        let svm = LinearSvm::fit(&train);
        let preds = svm.predict_all(&train.features);
        assert!(accuracy(&preds, &train.labels) > 0.99);
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let ds = blobs(400, 2.5, 2);
        let (train, test) = ds.split(0.25, 9);
        let svm = LinearSvm::fit(&train);
        let preds = svm.predict_all(&test.features);
        assert!(accuracy(&preds, &test.labels) > 0.95);
    }

    #[test]
    fn overlapping_classes_yield_intermediate_accuracy() {
        let ds = blobs(400, 0.6, 3); // heavy overlap
        let (train, test) = ds.split(0.25, 4);
        let svm = LinearSvm::fit(&train);
        let preds = svm.predict_all(&test.features);
        let acc = accuracy(&preds, &test.labels);
        assert!(acc > 0.6 && acc < 1.0, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let train = blobs(100, 2.0, 5);
        let a = LinearSvm::fit(&train);
        let b = LinearSvm::fit(&train);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let train = blobs(100, 3.0, 7);
        let svm = LinearSvm::fit(&train);
        for f in &train.features {
            let d = svm.decision(f);
            assert_eq!(Label::from_score(d), svm.predict(f));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_panics() {
        LinearSvm::fit(&Dataset::new(vec![], vec![]));
    }
}
