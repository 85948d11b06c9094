//! Property-based tests of the storage subsystem's invariants.

use proptest::prelude::*;

use aims_storage::alloc::{Layout, TensorAlloc};
use aims_storage::cache::SharedBlockCache;
use aims_storage::device::{MemDevice, RetryPolicy};
use aims_storage::error_tree::{point_query_set, range_query_set, ErrorTree};
use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims_storage::progressive::{BlockPlan, BoundLedger};
use aims_storage::store::{AllocKind, CoefficientStore};

fn pow2(lo: u32, hi: u32) -> impl Strategy<Value = usize> {
    (lo..=hi).prop_map(|e| 1usize << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every layout gives every coefficient its own in-range slot: a
    /// block below `num_blocks` and an offset below `B`, no two alike.
    #[test]
    fn allocations_are_valid(
        n in pow2(0, 12),
        b_exp in 1u32..=6,
        seed in 0u64..100,
    ) {
        let b = 1usize << b_exp;
        for kind in [AllocKind::Sequential, AllocKind::Random(seed), AllocKind::TreeTiling] {
            let layout = Layout::new(n, b, kind);
            let mut taken = vec![false; layout.num_blocks() * b];
            for i in 0..n {
                let block = layout.block_of(i);
                prop_assert!(block < layout.num_blocks(), "{:?}: {} in block {}", kind, i, block);
                let off = layout.offset_in(i, block).unwrap();
                prop_assert!(off < b && !taken[block * b + off], "{:?}: {} at {}", kind, i, off);
                taken[block * b + off] = true;
            }
        }
    }

    /// Tiling blocks are connected subtrees: every non-root block's
    /// contents are descendants of its minimum element.
    #[test]
    fn tiling_blocks_are_subtrees(n in pow2(4, 10), b_exp in 1u32..=5) {
        let alloc = Layout::new(n, 1 << b_exp, AllocKind::TreeTiling);
        let tree = ErrorTree::new(n);
        for blk in 1..alloc.num_blocks() {
            let contents: Vec<usize> = (0..n).filter(|&i| alloc.block_of(i) == blk).collect();
            prop_assert!(!contents.is_empty());
            let root = *contents.iter().min().unwrap();
            for &i in &contents {
                let mut j = i;
                let mut ok = j == root;
                while let Some(p) = tree.parent(j) {
                    if p < root {
                        break;
                    }
                    j = p;
                    if j == root {
                        ok = true;
                        break;
                    }
                }
                prop_assert!(ok, "block {} node {} not under {}", blk, i, root);
            }
        }
    }

    /// Point-query sets are ancestor-closed, one node per level, and every
    /// node's support contains the point.
    #[test]
    fn point_sets_are_paths(n in pow2(1, 14), t_seed in 0usize..1_000_000) {
        let t = t_seed % n;
        let set = point_query_set(t, n);
        let tree = ErrorTree::new(n);
        prop_assert!(tree.is_ancestor_closed(&set));
        prop_assert_eq!(set.len(), tree.levels() + 1);
        for &i in &set {
            let (s, e) = tree.support(i);
            prop_assert!(s <= t && t < e);
        }
    }

    /// Range-sum sets are ancestor-closed unions of two boundary paths.
    #[test]
    fn range_sets_are_closed(n in pow2(2, 12), a_seed in 0usize..1_000_000, b_seed in 0usize..1_000_000) {
        let a = a_seed % n;
        let b = a + (b_seed % (n - a));
        let set = range_query_set(a, b, n);
        let tree = ErrorTree::new(n);
        prop_assert!(tree.is_ancestor_closed(&set));
        prop_assert!(set.len() <= 2 * (tree.levels() + 1));
    }

    /// One store, every layout: the same plan → fetch → accumulate → bound
    /// under each allocation. Clean, it is exact, bit-stable across cache
    /// sizes and repeats, and costs exactly its plan in cold reads; with
    /// dead blocks it loses exactly the dead part of its plan and reports
    /// their summed gains, which cover the true error.
    #[test]
    fn one_evaluation_for_every_layout(
        n in pow2(4, 9),
        b_exp in 1u32..=5,
        kind_pick in 0usize..3,
        seed in 0u64..1000,
        picks in prop::collection::vec((0usize..1_000_000, -10.0_f64..10.0), 1..40),
    ) {
        let block = (1usize << b_exp).min(n);
        let kind = [AllocKind::Sequential, AllocKind::Random(seed), AllocKind::TreeTiling][kind_pick];
        let coeffs: Vec<f64> =
            (0..n as u64).map(|i| ((i * 2654435761 + seed) % 201) as f64 / 10.0 - 10.0).collect();
        let clean = CoefficientStore::load(&coeffs, block, kind, MemDevice::new);

        // Sparse entries over distinct coefficients, in the store's order.
        let weight_of: std::collections::BTreeMap<usize, f64> =
            picks.into_iter().map(|(i, w)| (i % n, w)).collect();
        let (indices, weights) = weight_of.into_iter().unzip();
        let (indices, weights) = clean.block_major(indices, weights);
        let exact: f64 = indices.iter().zip(&weights).map(|(&i, w)| w * coeffs[i]).sum();
        let plan = clean.plan(&indices, &weights);
        prop_assert!(plan.blocks.windows(2).all(|w| w[0] < w[1]));

        let mut bits = None;
        for cache in [1, 8, clean.num_blocks()] {
            let pool = SharedBlockCache::new(cache);
            clean.reset_stats();
            for pass in 0..2 {
                let got = clean.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
                prop_assert!((got.estimate - exact).abs() < 1e-9, "{:?}", kind);
                prop_assert!(!got.degraded() && got.error_bound == 0.0);
                prop_assert_eq!(*bits.get_or_insert(got.estimate.to_bits()), got.estimate.to_bits());
                if pass == 0 {
                    prop_assert_eq!(clean.device_stats().reads as usize, plan.blocks.len());
                }
            }
        }

        let faulty = CoefficientStore::load(&coeffs, block, kind, |bs, nb| {
            FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(seed, FaultKind::DeadBlock, 0.3))
        });
        let pool = SharedBlockCache::new(8);
        let got = faulty.evaluate(&indices, &weights, &pool, &RetryPolicy::default());
        let dead = |b: &usize| faulty.device().is_dead(*b);
        let lost: Vec<usize> = plan.blocks.iter().copied().filter(dead).collect();
        let lost_gain = plan
            .blocks
            .iter()
            .zip(&plan.gains)
            .filter(|(b, _)| dead(b))
            .fold(0.0, |acc, (_, g)| acc + g);
        prop_assert_eq!(&got.lost_blocks, &lost);
        prop_assert_eq!(got.error_bound.to_bits(), lost_gain.to_bits());
        prop_assert!((got.estimate - exact).abs() <= got.error_bound + 1e-9);
    }

    /// The gain-ordered evaluation, under every layout and B ∈ {1, 4, 16}:
    /// it consumes each plan block exactly once, its bound never rises and
    /// always contains the truth, and drained it is exactly `evaluate`'s
    /// answer — the estimate bits, and the lost gains summed in plan order
    /// (`0.0` on a clean device).
    #[test]
    fn progressive_bound_falls_contains_the_truth_and_drains_to_the_lost_gains(
        n in pow2(4, 9),
        b_pick in 0usize..3,
        kind_pick in 0usize..3,
        seed in 0u64..1000,
        picks in prop::collection::vec((0usize..1_000_000, -10.0_f64..10.0), 1..40),
    ) {
        let block = [1usize, 4, 16][b_pick].min(n);
        let kind = [AllocKind::Sequential, AllocKind::Random(seed), AllocKind::TreeTiling][kind_pick];
        prop_assume!(block > 1 || kind != AllocKind::TreeTiling);
        let coeffs: Vec<f64> =
            (0..n as u64).map(|i| ((i * 2654435761 + seed) % 201) as f64 / 10.0 - 10.0).collect();
        let clean = CoefficientStore::load(&coeffs, block, kind, MemDevice::new);
        let weight_of: std::collections::BTreeMap<usize, f64> =
            picks.into_iter().map(|(i, w)| (i % n, w)).collect();
        let (indices, weights) = weight_of.into_iter().unzip();
        let (indices, weights) = clean.block_major(indices, weights);
        let exact: f64 = indices.iter().zip(&weights).map(|(&i, w)| w * coeffs[i]).sum();
        let plan = clean.plan(&indices, &weights);

        let faulty = CoefficientStore::load(&coeffs, block, kind, |bs, nb| {
            FaultyDevice::with_plan(bs, nb, FaultPlan::uniform(seed, FaultKind::DeadBlock, 0.3))
        });
        let dead = |(b, _): &(&usize, &f64)| faulty.device().is_dead(**b);
        let lost_gain = plan.blocks.iter().zip(&plan.gains).filter(dead).fold(0.0, |acc, (_, g)| acc + g);
        clean.reset_stats();
        let pool = SharedBlockCache::new(4);
        let clean_run = clean.progressive(&indices, &weights, &pool, &RetryPolicy::none());
        prop_assert_eq!(clean.device_stats().reads as usize, plan.blocks.len());
        let pool = SharedBlockCache::new(4);
        let faulty_run = faulty.progressive(&indices, &weights, &pool, &RetryPolicy::default());
        let policy = RetryPolicy::default();
        let clean_answer = clean.evaluate(&indices, &weights, &SharedBlockCache::new(4), &policy);
        let faulty_answer = faulty.evaluate(&indices, &weights, &SharedBlockCache::new(4), &policy);
        let runs = [(clean_run, 0.0, clean_answer), (faulty_run, lost_gain, faulty_answer)];
        for (run, drained, answer) in runs {
            prop_assert_eq!(run.len(), plan.blocks.len());
            let mut prev = f64::INFINITY;
            for (k, p) in run.iter().enumerate() {
                prop_assert_eq!(p.blocks_consumed, k + 1);
                prop_assert!(p.bound <= prev);
                prop_assert!((p.estimate - exact).abs() <= p.bound + 1e-9);
                prev = p.bound;
            }
            let last = run.last().unwrap();
            prop_assert_eq!(last.bound.to_bits(), drained.to_bits());
            prop_assert_eq!(last.estimate.to_bits(), answer.estimate.to_bits());
            prop_assert_eq!(last.bound.to_bits(), answer.error_bound.to_bits());
        }
    }

    /// Tensor allocation equals the product of its per-dimension
    /// allocations.
    #[test]
    fn tensor_is_product(
        d0 in pow2(2, 5),
        d1 in pow2(2, 5),
        i_seed in 0usize..1_000_000,
        j_seed in 0usize..1_000_000,
    ) {
        let tensor = TensorAlloc::new(&[d0, d1], &[4, 4]);
        let a0 = Layout::new(d0, 4, AllocKind::TreeTiling);
        let a1 = Layout::new(d1, 4, AllocKind::TreeTiling);
        let (i, j) = (i_seed % d0, j_seed % d1);
        let expect = a0.block_of(i) * a1.num_blocks() + a1.block_of(j);
        prop_assert_eq!(tensor.num_blocks(), a0.num_blocks() * a1.num_blocks());
        prop_assert_eq!(tensor.block_of(i * d1 + j), expect);
    }

    /// The buffer pool never exceeds its capacity and never changes query
    /// answers.
    #[test]
    fn pool_is_transparent(
        coeffs in prop::collection::vec(-50.0_f64..50.0, 64),
        accesses in prop::collection::vec(prop::collection::vec(0usize..64, 1..6), 1..40),
        cap in 1usize..6,
    ) {
        let store = CoefficientStore::load(&coeffs, 8, AllocKind::TreeTiling, MemDevice::new);
        let pool = SharedBlockCache::new(cap);
        for picks in &accesses {
            let mut indices = picks.clone();
            indices.sort_unstable();
            indices.dedup();
            let exact = indices.iter().fold(0.0, |acc, &i| acc + coeffs[i]);
            let weights = vec![1.0; indices.len()];
            let (indices, weights) = store.block_major(indices, weights);
            let got = store.evaluate(&indices, &weights, &pool, &RetryPolicy::none());
            prop_assert!((got.estimate - exact).abs() < 1e-9);
            prop_assert!(pool.resident() <= cap);
        }
        // Hits + misses = total fetches issued through the pool.
        let stats = pool.stats();
        prop_assert!(stats.hits + stats.misses >= accesses.len() as u64);
    }

    /// The bound contract, on the ledger alone: whatever is delivered or
    /// lost, in whatever order, the bound starts at the plan's initial
    /// bound, never rises on a delivery, stays bit for bit where it was on
    /// a loss, always covers the lost gains, and drains to exactly their
    /// sum in plan order — `0.0` when nothing was lost.
    #[test]
    fn ledger_bound_is_monotone_and_keeps_lost_gains(
        terms in prop::collection::vec((0.0_f64..1e6, 0.0_f64..1e6, any::<bool>()), 0..40),
        keys in prop::collection::vec(any::<u64>(), 40),
    ) {
        // One entry per block: Σw² = t.0 against catalog energy t.1.
        let plan = std::sync::Arc::new(BlockPlan {
            blocks: (0..terms.len()).collect(),
            gains: terms.iter().map(|t| (t.0 * t.1).sqrt()).collect(),
            spans: (0..terms.len()).map(|b| b..b + 1).collect(),
        });
        let mut ledger = BoundLedger::new(plan.clone());
        prop_assert_eq!(ledger.bound().to_bits(), plan.initial_bound().to_bits());
        // Any consumption order: positions sorted by a random key each.
        let mut order: Vec<usize> = (0..terms.len()).collect();
        order.sort_by_key(|&k| keys[k]);
        let mut lost = vec![false; terms.len()];
        let lost_gain = |lost: &[bool]| {
            plan.gains.iter().zip(lost).filter(|(_, l)| **l).fold(0.0, |acc: f64, (g, _)| acc + g)
        };
        let mut lost_blocks = Vec::new();
        for k in order {
            prop_assert!(ledger.pending(k));
            let before = ledger.bound();
            if terms[k].2 {
                lost[k] = true;
                lost_blocks.push(plan.blocks[k]);
                ledger.lose(k);
                prop_assert_eq!(ledger.bound().to_bits(), before.to_bits());
            } else {
                ledger.deliver(k);
                prop_assert!(ledger.bound() <= before);
            }
            prop_assert!(!ledger.pending(k));
            prop_assert!(ledger.bound() >= lost_gain(&lost));
        }
        prop_assert!(ledger.done());
        prop_assert_eq!(ledger.consumed(), terms.len());
        prop_assert_eq!(ledger.bound().to_bits(), lost_gain(&lost).to_bits());
        prop_assert_eq!(ledger.lost_blocks(), &lost_blocks[..]);
    }
}
