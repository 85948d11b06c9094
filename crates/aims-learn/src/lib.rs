//! Learning substrate for AIMS' offline analysis.
//!
//! §2.1 of the paper: "in our preliminary experiments, we successfully
//! (with 86% accuracy) distinguished hyperactive kids from normal ones by
//! using a Support Vector Machine (SVM) on the motion speed of different
//! trackers", with earlier work [28, 5] using "conventional learning
//! techniques such as Bayesian Classifiers, Decision Trees and Neural
//! Nets". This crate provides those classifiers from scratch — a linear
//! SVM trained by Pegasos-style stochastic sub-gradient descent, Gaussian
//! naive Bayes, a CART-style decision tree, and k-nearest-neighbors —
//! plus dataset handling, k-fold cross-validation and metrics.

pub mod bayes;
pub mod cv;
pub mod dataset;
pub mod knn;
pub mod metrics;
pub mod svm;
pub mod tree;

pub use bayes::GaussianNaiveBayes;
pub use cv::{cross_validate, CvReport};
pub use dataset::{Dataset, Label};
pub use knn::KNearestNeighbors;
pub use metrics::{accuracy, confusion, ConfusionMatrix};
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// A trainable binary classifier.
pub trait Classifier: Sized {
    /// Fits the model to a training set.
    fn fit(train: &Dataset) -> Self;

    /// Predicts the label of one feature vector.
    fn predict(&self, features: &[f64]) -> Label;

    /// Predicts a whole feature matrix.
    fn predict_all(&self, features: &[Vec<f64>]) -> Vec<Label> {
        features.iter().map(|f| self.predict(f)).collect()
    }
}
