//! CART-style binary decision tree (Gini impurity) — another of the
//! "conventional learning techniques" (Decision Trees) from the group's
//! earlier sign-language work \[28\].

use crate::dataset::{Dataset, Label};
use crate::Classifier;

/// Maximum depth (root = depth 0).
pub const MAX_DEPTH: usize = 6;
/// Minimum examples to attempt a split.
pub const MIN_SPLIT: usize = 4;

#[derive(Clone, Debug)]
enum Node {
    Leaf(Label),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A trained decision tree.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    root: Node,
}

fn majority(labels: &[Label]) -> Label {
    let pos = labels.iter().filter(|&&l| l == Label::Positive).count();
    if pos * 2 >= labels.len() {
        Label::Positive
    } else {
        Label::Negative
    }
}

fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

/// Best (feature, threshold, weighted impurity) over all midpoint splits.
fn best_split(ds: &Dataset, indices: &[usize]) -> Option<(usize, f64, f64)> {
    let d = ds.dim();
    let total = indices.len();
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in 0..d {
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| {
            ds.features[a][feature].partial_cmp(&ds.features[b][feature]).unwrap()
        });
        let pos_total = order.iter().filter(|&&i| ds.labels[i] == Label::Positive).count();
        let mut pos_left = 0usize;
        for (k, &i) in order.iter().enumerate().take(total - 1) {
            if ds.labels[i] == Label::Positive {
                pos_left += 1;
            }
            let left_n = k + 1;
            let right_n = total - left_n;
            let a = ds.features[i][feature];
            let b = ds.features[order[k + 1]][feature];
            if a == b {
                continue; // can't split between equal values
            }
            let impurity = (left_n as f64 * gini(pos_left, left_n)
                + right_n as f64 * gini(pos_total - pos_left, right_n))
                / total as f64;
            if best.is_none_or(|(_, _, bi)| impurity < bi) {
                best = Some((feature, (a + b) / 2.0, impurity));
            }
        }
    }
    best
}

fn grow(ds: &Dataset, indices: &[usize], depth: usize) -> Node {
    let labels: Vec<Label> = indices.iter().map(|&i| ds.labels[i]).collect();
    let pos = labels.iter().filter(|&&l| l == Label::Positive).count();
    if pos == 0 || pos == labels.len() || depth >= MAX_DEPTH || labels.len() < MIN_SPLIT {
        return Node::Leaf(majority(&labels));
    }
    match best_split(ds, indices) {
        None => Node::Leaf(majority(&labels)),
        Some((feature, threshold, _)) => {
            let (left, right): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| ds.features[i][feature] <= threshold);
            if left.is_empty() || right.is_empty() {
                return Node::Leaf(majority(&labels));
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow(ds, &left, depth + 1)),
                right: Box::new(grow(ds, &right, depth + 1)),
            }
        }
    }
}

impl DecisionTree {
    /// Tree depth (leaves at the root = 0).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

impl Classifier for DecisionTree {
    /// Grows a tree to at most [`MAX_DEPTH`], splitting nodes of at least
    /// [`MIN_SPLIT`] examples.
    ///
    /// # Panics
    /// If the training set is empty.
    fn fit(train: &Dataset) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let indices: Vec<usize> = (0..train.len()).collect();
        DecisionTree { root: grow(train, &indices, 0) }
    }

    fn predict(&self, features: &[f64]) -> Label {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(l) => return *l,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    #[test]
    fn axis_aligned_split_learned_exactly() {
        let ds = Dataset::new(
            (0..40).map(|i| vec![i as f64, (i * 3 % 7) as f64]).collect(),
            (0..40).map(|i| if i < 20 { Label::Negative } else { Label::Positive }).collect(),
        );
        let tree = DecisionTree::fit(&ds);
        assert_eq!(accuracy(&tree.predict_all(&ds.features), &ds.labels), 1.0);
        assert_eq!(tree.depth(), 1); // a single split suffices
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            features.push(vec![x, y]);
            labels.push(if (x > 0.45) ^ (y > 0.45) { Label::Positive } else { Label::Negative });
        }
        let ds = Dataset::new(features, labels);
        let tree = DecisionTree::fit(&ds);
        let acc = accuracy(&tree.predict_all(&ds.features), &ds.labels);
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        // Alternating labels need a split between every pair of points:
        // only the depth limit stops the tree.
        let ds = Dataset::new(
            (0..256).map(|i| vec![i as f64]).collect(),
            (0..256).map(|i| if i % 2 == 0 { Label::Positive } else { Label::Negative }).collect(),
        );
        let tree = DecisionTree::fit(&ds);
        assert_eq!(tree.depth(), MAX_DEPTH);
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let ds = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![Label::Positive; 3]);
        let tree = DecisionTree::fit(&ds);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[99.0]), Label::Positive);
    }

    #[test]
    fn constant_features_fall_back_to_majority() {
        let ds = Dataset::new(
            vec![vec![1.0]; 5],
            vec![
                Label::Positive,
                Label::Positive,
                Label::Positive,
                Label::Negative,
                Label::Negative,
            ],
        );
        let tree = DecisionTree::fit(&ds);
        assert_eq!(tree.predict(&[1.0]), Label::Positive);
    }
}
