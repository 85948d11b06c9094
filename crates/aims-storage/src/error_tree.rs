//! The wavelet error tree and its query access sets.
//!
//! In the flat full-DWT layout (`aims_dsp::dwt::dwt_full`): index 0 holds
//! the approximation root, index 1 the coarsest detail, and detail node
//! `i ≥ 1` has children `2i` and `2i + 1`. Reconstructing the data value at
//! position `t` needs exactly one node per level — the root-to-leaf path —
//! and a (Haar) range *sum* needs only the nodes whose support straddles a
//! range boundary. Both sets are **ancestor-closed**: "if a wavelet
//! coefficient is retrieved, we are guaranteed that all of its dependent
//! coefficients will also be retrieved" (§3.2.1). That closure is the
//! locality principle the storage allocation exploits.

/// Structural view of the error tree of an `n`-coefficient (power-of-two)
/// transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErrorTree {
    n: usize,
}

impl ErrorTree {
    /// Creates the tree view for a transform of length `n`.
    ///
    /// # Panics
    /// If `n` is not a power of two or is less than 2.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n.is_power_of_two(), "error tree needs power-of-two n ≥ 2, got {n}");
        ErrorTree { n }
    }

    /// Number of coefficients.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Trees are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of levels (`log2 n`).
    pub fn levels(&self) -> usize {
        self.n.trailing_zeros() as usize
    }

    /// Parent of a node; `None` for the approximation root 0.
    pub fn parent(&self, i: usize) -> Option<usize> {
        assert!(i < self.n, "node {i} out of range");
        match i {
            0 => None,
            1 => Some(0),
            _ => Some(i / 2),
        }
    }

    /// Children of a node, if any. Node 0's only dependent is node 1; a
    /// detail node `i` has children `2i, 2i+1` while they exist.
    pub fn children(&self, i: usize) -> Vec<usize> {
        assert!(i < self.n, "node {i} out of range");
        if i == 0 {
            if self.n > 1 {
                vec![1]
            } else {
                vec![]
            }
        } else {
            let mut c = Vec::new();
            if 2 * i < self.n {
                c.push(2 * i);
                if 2 * i + 1 < self.n {
                    c.push(2 * i + 1);
                }
            }
            c
        }
    }

    /// Detail level of a node: 0 for the root, 1 for the coarsest band, …,
    /// `log2 n` for the finest.
    pub fn level(&self, i: usize) -> usize {
        assert!(i < self.n, "node {i} out of range");
        if i == 0 {
            0
        } else {
            (usize::BITS - 1 - i.leading_zeros()) as usize + 1
        }
    }

    /// Data-index support `[start, end)` of a node: the range of signal
    /// positions its coefficient influences.
    pub fn support(&self, i: usize) -> (usize, usize) {
        assert!(i < self.n, "node {i} out of range");
        if i == 0 {
            return (0, self.n);
        }
        let level = self.level(i);
        let width = self.n >> (level - 1); // support of a level-l node
        let k = i - (1 << (level - 1));
        (k * width, (k + 1) * width)
    }

    /// True when `set` is closed under taking parents.
    pub fn is_ancestor_closed(&self, set: &[usize]) -> bool {
        let lookup: std::collections::HashSet<usize> = set.iter().copied().collect();
        set.iter().all(|&i| self.parent(i).is_none_or(|p| lookup.contains(&p)))
    }
}

/// Coefficients needed to reconstruct the data value at position `t` of an
/// `n`-point signal: the root plus one detail node per level.
///
/// # Panics
/// If `t >= n` or `n` is not a power of two.
pub fn point_query_set(t: usize, n: usize) -> Vec<usize> {
    let tree = ErrorTree::new(n);
    assert!(t < n, "position {t} out of range");
    let mut set = vec![0];
    if n >= 2 {
        // Finest-level node covering t, then walk up.
        let mut j = n / 2 + t / 2;
        while j >= 1 {
            set.push(j);
            if j == 1 {
                break;
            }
            j /= 2;
        }
    }
    debug_assert!(tree.is_ancestor_closed(&set));
    set
}

/// Coefficients needed for a (Haar) range-sum over `[a, b]` (inclusive):
/// nodes whose support straddles a range boundary, plus the root. Nodes
/// fully inside contribute zero to the sum; nodes fully outside contribute
/// nothing.
///
/// # Panics
/// If the range is empty/reversed or out of bounds.
pub fn range_query_set(a: usize, b: usize, n: usize) -> Vec<usize> {
    assert!(a <= b && b < n, "bad range [{a},{b}] for n={n}");
    let mut set = point_query_set(a, n);
    set.extend(point_query_set(b, n));
    set.sort_unstable();
    set.dedup();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_of_small_tree() {
        let t = ErrorTree::new(8);
        assert_eq!(t.levels(), 3);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(5), Some(2));
        assert_eq!(t.children(0), vec![1]);
        assert_eq!(t.children(1), vec![2, 3]);
        assert_eq!(t.children(3), vec![6, 7]);
        assert_eq!(t.children(4), Vec::<usize>::new());
    }

    #[test]
    fn levels_and_supports() {
        let t = ErrorTree::new(8);
        assert_eq!(t.level(0), 0);
        assert_eq!(t.level(1), 1);
        assert_eq!(t.level(2), 2);
        assert_eq!(t.level(4), 3);
        assert_eq!(t.support(0), (0, 8));
        assert_eq!(t.support(1), (0, 8));
        assert_eq!(t.support(2), (0, 4));
        assert_eq!(t.support(3), (4, 8));
        assert_eq!(t.support(6), (4, 6));
        assert_eq!(t.support(7), (6, 8));
    }

    #[test]
    fn point_query_is_one_node_per_level() {
        let n = 64;
        for t in [0usize, 17, 31, 63] {
            let set = point_query_set(t, n);
            assert_eq!(set.len(), 7, "t={t}: {set:?}"); // root + 6 details
            let tree = ErrorTree::new(n);
            assert!(tree.is_ancestor_closed(&set));
            // Every node's support contains t.
            for &i in &set {
                let (s, e) = tree.support(i);
                assert!(s <= t && t < e, "node {i} support ({s},{e}) misses {t}");
            }
        }
    }

    #[test]
    fn point_query_minimal_n() {
        assert_eq!(point_query_set(0, 2), vec![0, 1]);
        assert_eq!(point_query_set(1, 2), vec![0, 1]);
    }

    #[test]
    fn range_query_is_two_boundary_paths() {
        let n = 256;
        let set = range_query_set(37, 200, n);
        let tree = ErrorTree::new(n);
        assert!(tree.is_ancestor_closed(&set));
        // At most 2 paths worth of nodes.
        assert!(set.len() <= 2 * (tree.levels() + 1), "{}", set.len());
        // Every selected detail node straddles a boundary or is an
        // ancestor on the boundary path.
        for &i in &set {
            let (s, e) = tree.support(i);
            assert!(
                (s <= 37 && 37 < e) || (s <= 200 && 200 < e),
                "node {i} ({s},{e}) touches no boundary"
            );
        }
    }

    #[test]
    fn degenerate_range_equals_point() {
        assert_eq!(range_query_set(5, 5, 32), {
            let mut p = point_query_set(5, 32);
            p.sort_unstable();
            p
        });
    }

    #[test]
    fn ancestor_closure_detects_violations() {
        let t = ErrorTree::new(16);
        assert!(t.is_ancestor_closed(&[0, 1, 2, 4]));
        assert!(!t.is_ancestor_closed(&[4])); // missing parents 2, 1, 0
        assert!(t.is_ancestor_closed(&[]));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_panics() {
        ErrorTree::new(12);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn reversed_range_panics() {
        range_query_set(5, 3, 16);
    }
}
