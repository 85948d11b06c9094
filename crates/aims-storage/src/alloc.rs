//! The coefficient → (block, offset) rule.
//!
//! The heart of §3.2.1: pack wavelet coefficients into size-`B` disk blocks
//! so that the ancestor-closed access sets of point/range queries touch as
//! few blocks as possible — equivalently, so that every retrieved block
//! carries as many *needed* items as possible. The paper's theoretical
//! ceiling is `1 + lg B` expected needed items per retrieved block; its
//! proposed allocation is an *optimal tiling of the one-dimensional wavelet
//! error tree*, extended to multivariate data by taking Cartesian products
//! of the per-dimension virtual blocks.
//!
//! One [`Layout`] per `(n, B, AllocKind)` is that rule for every store:
//! `Sequential` and `TreeTiling` are arithmetic over the coefficient index
//! (nothing resident per coefficient), `Random` — a baseline only — keeps
//! its permutation. [`TensorAlloc`] is the Cartesian product of
//! per-dimension tiling layouts, and [`evaluate_allocation`] scores any
//! `block_of` rule against a query workload.

use std::borrow::Cow;

/// Which allocation strategy a store uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocKind {
    /// Flat-layout order.
    Sequential,
    /// Seeded random placement.
    Random(u64),
    /// Error-tree tiling (the paper's allocation).
    TreeTiling,
}

/// Where each of `n` coefficients lives: its block and its offset in that
/// block. Inside a block, coefficients sit in ascending index order.
#[derive(Clone, Debug)]
pub struct Layout {
    n: usize,
    block_size: usize,
    blocks: usize,
    rule: Rule,
}

#[derive(Clone, Debug)]
enum Rule {
    /// `i → (i / B, i % B)`. The flat layout is level-major, so an
    /// error-tree path scatters across blocks.
    Sequential,
    /// Optimal tiling of the error tree into height-`tile` subtrees.
    ///
    /// Block 0 packs the approximation root together with the top
    /// `top` levels of the detail tree (nodes `0..2^top`, at offset `i`).
    /// Every other block is one complete subtree of height `tile = lg B`
    /// rooted at detail depth `top + k·tile` (`B − 1` nodes, one slot
    /// spare); full tiles are aligned to the leaves, so `top` is the
    /// remainder `lg n mod lg B` (or `lg B`) and at most one block is
    /// partial. A root-to-leaf path crosses one block per `lg B` levels, so
    /// each retrieved block supplies ~`lg B` needed coefficients — right
    /// at the `1 + lg B` bound. When `B > n` the whole tree is block 0.
    TreeTiling { tile: u32, top: u32 },
    /// A seeded pseudo-random permutation chopped into blocks — the "no
    /// locality at all" floor — materialised as `(block, offset)` per
    /// coefficient.
    Random(Vec<(usize, usize)>),
}

impl Layout {
    /// The layout of `n` coefficients in blocks of `block_size` under
    /// `kind`.
    ///
    /// # Panics
    /// If `n` or `block_size` is zero, or, for `TreeTiling`, if `n` is
    /// not a power of two or `block_size` is not a power of two ≥ 2.
    pub fn new(n: usize, block_size: usize, kind: AllocKind) -> Layout {
        assert!(block_size > 0 && n > 0, "need positive n and block size");
        let (blocks, rule) = match kind {
            AllocKind::Sequential => (n.div_ceil(block_size), Rule::Sequential),
            AllocKind::TreeTiling => {
                assert!(n.is_power_of_two(), "n must be a power of two, got {n}");
                assert!(
                    block_size.is_power_of_two() && block_size >= 2,
                    "block size must be a power of two ≥ 2, got {block_size}"
                );
                let (depths, tile) = (n.trailing_zeros(), block_size.trailing_zeros());
                let top = match depths % tile {
                    0 => tile,
                    rem => rem,
                };
                let rule = Rule::TreeTiling { tile, top };
                (tiling_layer_start(tile, top, depths.saturating_sub(top) / tile), rule)
            }
            AllocKind::Random(seed) => {
                let mut perm: Vec<usize> = (0..n).collect();
                // Fisher–Yates with an xorshift generator (deterministic, no deps).
                let mut state = seed.wrapping_mul(6364136223846793005).max(1);
                for i in (1..n).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let j = (state % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
                // Each block takes a chunk of the permutation, in ascending
                // index order.
                let mut table = vec![(0, 0); n];
                for (b, chunk) in perm.chunks_mut(block_size).enumerate() {
                    chunk.sort_unstable();
                    for (off, &coeff) in chunk.iter().enumerate() {
                        table[coeff] = (b, off);
                    }
                }
                (n.div_ceil(block_size), Rule::Random(table))
            }
        };
        Layout { n, block_size, blocks, rule }
    }

    /// Coefficients mapped.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Layouts are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of blocks the coefficients occupy.
    pub fn num_blocks(&self) -> usize {
        self.blocks
    }

    /// Whether block-major order is plain ascending index order
    /// (`Sequential`).
    #[inline]
    pub(crate) fn is_sequential(&self) -> bool {
        matches!(self.rule, Rule::Sequential)
    }

    /// `(block, offset)` of coefficient `i` (`i < n`).
    #[inline]
    fn slot(&self, i: usize) -> (usize, usize) {
        match &self.rule {
            Rule::Sequential => (i / self.block_size, i % self.block_size),
            Rule::Random(table) => table[i],
            &Rule::TreeTiling { tile, top } => {
                if i < 1 << top {
                    return (0, i);
                }
                // Detail node i sits at depth ⌊lg i⌋ (node 1 is depth 0);
                // its tile's root r is its ancestor `l` levels up.
                let depth = i.ilog2();
                let layer = (depth - top) / tile;
                let root_depth = top + layer * tile;
                let l = depth - root_depth;
                let root = i >> l;
                let block = tiling_layer_start(tile, top, layer) + root - (1 << root_depth);
                (block, (1 << l) - 1 + i - (root << l))
            }
        }
    }

    /// The block coefficient `i` lives in.
    #[inline]
    pub fn block_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "coefficient {i} out of range");
        self.slot(i).0
    }

    /// Offset of coefficient `i` inside `block`; `None` when it lives in
    /// another block. Division-free under `Sequential`: this is the fold's
    /// inner loop.
    #[inline]
    pub fn offset_in(&self, i: usize, block: usize) -> Option<usize> {
        debug_assert!(i < self.n, "coefficient {i} out of range");
        match self.rule {
            Rule::Sequential => {
                i.checked_sub(block * self.block_size).filter(|&off| off < self.block_size)
            }
            _ => {
                let (b, off) = self.slot(i);
                (b == block).then_some(off)
            }
        }
    }

    /// `coeffs` (one per coefficient) in device order: block `b` is
    /// `image[b·B .. (b+1)·B]`, the last block possibly short; a slot no
    /// coefficient fills is `0.0`.
    ///
    /// # Panics
    /// If `coeffs` does not hold one value per coefficient.
    pub fn image<'a>(&self, coeffs: &'a [f64]) -> Cow<'a, [f64]> {
        assert_eq!(coeffs.len(), self.n, "one value per coefficient");
        if self.is_sequential() {
            return Cow::Borrowed(coeffs);
        }
        let mut image = vec![0.0; self.blocks * self.block_size];
        for (i, &c) in coeffs.iter().enumerate() {
            let (b, off) = self.slot(i);
            image[b * self.block_size + off] = c;
        }
        Cow::Owned(image)
    }
}

/// First block of tiling layer `k` (the tiles rooted at detail depth
/// `top + k·tile`): block 0 is the top tile, and each layer holds one tile
/// per node at its root depth, so layer `k` starts after
/// `Σ_{j<k} 2^(top + j·tile) = 2^top · (2^(k·tile) − 1) / (2^tile − 1)`
/// blocks. At `k` = the layer count this is the number of blocks.
fn tiling_layer_start(tile: u32, top: u32, k: u32) -> usize {
    1 + ((1usize << top) * ((1usize << (k * tile)) - 1)) / ((1usize << tile) - 1)
}

/// Tensor-product allocation for a row-major multidimensional coefficient
/// grid: "decompose each dimension into optimal virtual blocks, and take
/// the Cartesian products of these virtual blocks to be our actual
/// blocks" (§3.2.1).
#[derive(Clone, Debug)]
pub struct TensorAlloc {
    /// Per dimension, its tiling layout (its `len` is the extent).
    per_dim: Vec<Layout>,
    blocks: usize,
}

impl TensorAlloc {
    /// Creates a tensor allocation over a grid with the given power-of-two
    /// `dims`, tiling dimension `k` into virtual blocks of `b_k` (so the
    /// real block size is `∏ b_k`).
    ///
    /// # Panics
    /// If the lengths differ, `dims` is empty, or a `(dims[k], b_k)` pair
    /// is invalid for a `TreeTiling` [`Layout`].
    pub fn new(dims: &[usize], virtual_block: &[usize]) -> Self {
        assert_eq!(dims.len(), virtual_block.len(), "dims/virtual_block length mismatch");
        assert!(!dims.is_empty(), "need at least one dimension");
        let per_dim: Vec<Layout> = dims
            .iter()
            .zip(virtual_block)
            .map(|(&n, &b)| Layout::new(n, b, AllocKind::TreeTiling))
            .collect();
        let blocks = per_dim.iter().map(Layout::num_blocks).product();
        TensorAlloc { per_dim, blocks }
    }

    /// Block of the coefficient at row-major flat index `i`: the per-
    /// dimension blocks of its multi-index, themselves taken row-major.
    pub fn block_of(&self, i: usize) -> usize {
        let (mut rem, mut block, mut stride) = (i, 0, 1);
        for layout in self.per_dim.iter().rev() {
            block += layout.block_of(rem % layout.len()) * stride;
            rem /= layout.len();
            stride *= layout.num_blocks();
        }
        block
    }

    /// Number of blocks used.
    pub fn num_blocks(&self) -> usize {
        self.blocks
    }
}

/// Evaluates the allocation `block_of` against a query workload: returns
/// `(avg blocks touched per query, avg needed items per retrieved block)`.
///
/// The second number is the paper's success metric; the tiling allocation
/// should push it toward `1 + lg B` while naive layouts sit near 1.
pub fn evaluate_allocation(
    block_of: impl Fn(usize) -> usize,
    queries: &[Vec<usize>],
) -> (f64, f64) {
    assert!(!queries.is_empty(), "need at least one query");
    let mut total_blocks = 0usize;
    let mut total_needed_per_block = 0.0;
    for q in queries {
        assert!(!q.is_empty(), "empty query set");
        let mut blocks: Vec<usize> = q.iter().map(|&i| block_of(i)).collect();
        blocks.sort_unstable();
        blocks.dedup();
        total_blocks += blocks.len();
        total_needed_per_block += q.len() as f64 / blocks.len() as f64;
    }
    (total_blocks as f64 / queries.len() as f64, total_needed_per_block / queries.len() as f64)
}

/// The paper's theoretical upper bound on expected needed items per
/// retrieved block: `1 + lg B`.
pub fn needed_items_upper_bound(block_size: usize) -> f64 {
    1.0 + (block_size as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_tree::{point_query_set, range_query_set, ErrorTree};

    fn tiling(n: usize, b: usize) -> Layout {
        Layout::new(n, b, AllocKind::TreeTiling)
    }

    /// The coefficients of block `b`, ascending.
    fn contents(layout: &Layout, b: usize) -> Vec<usize> {
        (0..layout.len()).filter(|&i| layout.block_of(i) == b).collect()
    }

    #[test]
    fn sequential_mapping() {
        let a = Layout::new(16, 4, AllocKind::Sequential);
        assert_eq!(a.block_of(0), 0);
        assert_eq!(a.block_of(5), 1);
        assert_eq!(a.block_of(15), 3);
        assert_eq!(
            (a.offset_in(5, 1), a.offset_in(5, 0), a.offset_in(5, 2)),
            (Some(1), None, None)
        );
        assert_eq!(a.num_blocks(), 4);
        assert_eq!(contents(&a, 1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn random_layout_is_deterministic_per_seed() {
        let (a, b) =
            (Layout::new(64, 8, AllocKind::Random(5)), Layout::new(64, 8, AllocKind::Random(5)));
        for i in 0..64 {
            assert_eq!(a.block_of(i), b.block_of(i));
        }
        assert!((0..8).all(|blk| contents(&a, blk).len() == 8));
        let c = Layout::new(64, 8, AllocKind::Random(6));
        assert!((0..64).any(|i| a.block_of(i) != c.block_of(i)));
    }

    #[test]
    fn tiling_top_block_packs_root_subtree() {
        let a = tiling(64, 8);
        assert_eq!(contents(&a, 0), (0..8).collect::<Vec<_>>());
        assert!((0..8).all(|i| a.offset_in(i, 0) == Some(i)));
        // Node 8 roots the first full tile: offset 0, its children 1 and 2.
        let b = a.block_of(8);
        assert_eq!(
            [8, 16, 17, 32].map(|i| a.offset_in(i, b)),
            [Some(0), Some(1), Some(2), Some(3)]
        );
        assert_eq!(a.num_blocks(), 9);
    }

    #[test]
    fn tiling_takes_a_block_larger_than_the_signal_as_one_block() {
        for n in [1usize, 2, 8] {
            let a = tiling(n, 16);
            assert_eq!(a.num_blocks(), 1, "n = {n}");
            assert!((0..n).all(|i| a.offset_in(i, 0) == Some(i)), "n = {n}");
        }
    }

    #[test]
    fn tiling_blocks_are_subtrees() {
        let a = tiling(256, 16); // h = 4, depths 0..=7
        let tree = ErrorTree::new(256);
        // Within any non-root block, the nodes form one subtree: they share
        // a unique minimum element whose descendants they all are.
        for b in 1..a.num_blocks() {
            let contents = contents(&a, b);
            assert!(!contents.is_empty(), "block {b} empty");
            assert!(contents.len() <= 16);
            let root = contents[0];
            for &i in &contents {
                // Walk ancestors of i; must reach `root` within the tile.
                let mut j = i;
                let mut found = j == root;
                while let Some(p) = tree.parent(j) {
                    if p < root {
                        break;
                    }
                    j = p;
                    if j == root {
                        found = true;
                        break;
                    }
                }
                assert!(found, "block {b}: node {i} not under subtree root {root}");
            }
        }
    }

    #[test]
    fn tiling_point_queries_approach_the_bound() {
        let n = 1 << 14;
        let b = 32; // h = 5
        let tiling = tiling(n, b);
        let sequential = Layout::new(n, b, AllocKind::Sequential);
        let random = Layout::new(n, b, AllocKind::Random(9));
        let queries: Vec<Vec<usize>> = (0..200).map(|k| point_query_set((k * 71) % n, n)).collect();

        let (_, needed_tiling) = evaluate_allocation(|i| tiling.block_of(i), &queries);
        let (_, needed_seq) = evaluate_allocation(|i| sequential.block_of(i), &queries);
        let (_, needed_rand) = evaluate_allocation(|i| random.block_of(i), &queries);
        let bound = needed_items_upper_bound(b);

        assert!(needed_tiling <= bound, "tiling {needed_tiling} exceeds bound {bound}");
        assert!(needed_tiling > bound * 0.55, "tiling {needed_tiling} far from bound {bound}");
        assert!(needed_tiling > 1.8 * needed_seq, "tiling {needed_tiling} vs seq {needed_seq}");
        assert!(needed_rand < needed_tiling, "random should be worst");
    }

    #[test]
    fn tiling_range_queries_beat_sequential() {
        let n = 1 << 12;
        let b = 16;
        let tiling = tiling(n, b);
        let sequential = Layout::new(n, b, AllocKind::Sequential);
        let queries: Vec<Vec<usize>> = (0..100)
            .map(|k| {
                let a = (k * 37) % (n / 2);
                range_query_set(a, a + n / 3, n)
            })
            .collect();
        let (blocks_tiling, _) = evaluate_allocation(|i| tiling.block_of(i), &queries);
        let (blocks_seq, _) = evaluate_allocation(|i| sequential.block_of(i), &queries);
        assert!(
            blocks_tiling < blocks_seq,
            "tiling touches {blocks_tiling} blocks vs sequential {blocks_seq}"
        );
    }

    #[test]
    fn tiling_block_count_is_near_minimal() {
        let n = 1 << 10;
        let b = 8;
        let a = tiling(n, b);
        // Minimum possible blocks = n/b; tiling wastes ≤1 slot per block.
        let min_blocks = n / b;
        assert!(a.num_blocks() >= min_blocks);
        assert!(
            a.num_blocks() <= min_blocks + min_blocks / (b - 1) + 2,
            "too many blocks: {} vs min {min_blocks}",
            a.num_blocks()
        );
    }

    #[test]
    fn tensor_alloc_combines_dimensions() {
        let t = TensorAlloc::new(&[16, 16], &[4, 4]);
        let a1 = tiling(16, 4);
        assert_eq!(t.num_blocks(), a1.num_blocks() * a1.num_blocks());
        let mut fill = vec![0usize; t.num_blocks()];
        for i in 0..256 {
            fill[t.block_of(i)] += 1;
        }
        assert!(fill.iter().all(|&f| f <= 16), "a real block holds at most 4 × 4");
        // Block of (i,j) = per-dim blocks combined.
        for i in [0usize, 3, 7, 15] {
            for j in [0usize, 5, 12] {
                let expect = a1.block_of(i) * a1.num_blocks() + a1.block_of(j);
                assert_eq!(t.block_of(i * 16 + j), expect);
            }
        }
    }

    #[test]
    fn tensor_point_queries_beat_row_major() {
        // 2-D grid 64×64, block 16 (4×4 virtual).
        let dims = [64usize, 64];
        let tensor = TensorAlloc::new(&dims, &[4, 4]);
        let seq = Layout::new(64 * 64, 16, AllocKind::Sequential);
        // Point query in 2-D standard decomposition: path(i) × path(j).
        let mut queries = Vec::new();
        for k in 0..50 {
            let (ti, tj) = ((k * 13) % 64, (k * 29) % 64);
            let pi = point_query_set(ti, 64);
            let pj = point_query_set(tj, 64);
            let mut q = Vec::new();
            for &a in &pi {
                for &b in &pj {
                    q.push(a * 64 + b);
                }
            }
            queries.push(q);
        }
        let (blocks_tensor, needed_tensor) = evaluate_allocation(|i| tensor.block_of(i), &queries);
        let (blocks_seq, needed_seq) = evaluate_allocation(|i| seq.block_of(i), &queries);
        assert!(blocks_tensor < blocks_seq, "{blocks_tensor} !< {blocks_seq}");
        assert!(needed_tensor > needed_seq, "{needed_tensor} !> {needed_seq}");
    }

    #[test]
    fn bound_formula() {
        assert_eq!(needed_items_upper_bound(8), 4.0);
        assert_eq!(needed_items_upper_bound(64), 7.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tiling_rejects_bad_block_size() {
        tiling(64, 6);
    }
}
