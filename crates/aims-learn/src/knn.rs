//! k-nearest-neighbors classifier (Euclidean), the simplest instance-based
//! baseline for the ADHD feature-vector experiments.

use crate::dataset::{Dataset, Label, Standardizer};
use crate::Classifier;

/// A fitted (memorized) k-NN model with standardized features.
#[derive(Clone, Debug)]
pub struct KNearestNeighbors {
    /// [`Self::K`], clamped to the training-set size.
    k: usize,
    features: Vec<Vec<f64>>,
    labels: Vec<Label>,
    scaler: Standardizer,
}

impl KNearestNeighbors {
    /// Neighborhood size.
    pub const K: usize = 5;
}

impl Classifier for KNearestNeighbors {
    /// Memorizes the standardized training set.
    ///
    /// # Panics
    /// If the training set is empty.
    fn fit(train: &Dataset) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let (std_ds, scaler) = train.standardized();
        KNearestNeighbors {
            k: Self::K.min(train.len()),
            features: std_ds.features,
            labels: std_ds.labels,
            scaler,
        }
    }

    fn predict(&self, features: &[f64]) -> Label {
        let x = self.scaler.apply(features);
        let mut dists: Vec<(f64, Label)> = self
            .features
            .iter()
            .zip(&self.labels)
            .map(|(f, &l)| {
                let d: f64 = f.iter().zip(&x).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, l)
            })
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let pos = dists.iter().take(self.k).filter(|(_, l)| *l == Label::Positive).count();
        if pos * 2 > self.k.min(dists.len()) {
            Label::Positive
        } else if pos * 2 < self.k.min(dists.len()) {
            Label::Negative
        } else {
            // Tie: nearest neighbor decides.
            dists[0].1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn clusters() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let t = i as f64 * 0.2;
            features.push(vec![5.0 + t.sin(), 5.0 + t.cos()]);
            labels.push(Label::Positive);
            features.push(vec![-5.0 + t.cos(), -5.0 + t.sin()]);
            labels.push(Label::Negative);
        }
        Dataset::new(features, labels)
    }

    #[test]
    fn clusters_classified_perfectly() {
        let ds = clusters();
        let knn = KNearestNeighbors::fit(&ds);
        assert_eq!(accuracy(&knn.predict_all(&ds.features), &ds.labels), 1.0);
        assert_eq!(knn.predict(&[4.0, 4.0]), Label::Positive);
        assert_eq!(knn.predict(&[-4.0, -4.0]), Label::Negative);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let ds = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![10.0]],
            vec![Label::Negative, Label::Negative, Label::Positive],
        );
        let knn = KNearestNeighbors::fit(&ds);
        // Majority of all 3 = Negative.
        assert_eq!(knn.predict(&[0.5]), Label::Negative);
    }

    #[test]
    fn tie_broken_by_nearest() {
        let ds = Dataset::new(vec![vec![0.0], vec![2.0]], vec![Label::Negative, Label::Positive]);
        let knn = KNearestNeighbors::fit(&ds);
        assert_eq!(knn.predict(&[0.4]), Label::Negative);
        assert_eq!(knn.predict(&[1.6]), Label::Positive);
    }
}
