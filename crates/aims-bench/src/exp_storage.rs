//! Experiments E4–E6: disk-level storage of wavelet data (paper §3.2.1).

use std::sync::Arc;

use aims_storage::alloc::{evaluate_allocation, needed_items_upper_bound, Layout, TensorAlloc};
use aims_storage::error_tree::{point_query_set, range_query_set};
use aims_storage::store::{AllocKind, CoefficientStore};
use aims_storage::{Evaluation, MemDevice, RetryPolicy, SharedBlockCache};

/// E4 — "for all disk blocks of size B, if a block must be retrieved to
/// answer a query, the expected number of needed items on the block is
/// less than 1 + lg B", and the error-tree tiling approaches that bound
/// while naive layouts do not (§3.2.1).
pub fn e4_needed_items_bound() {
    crate::header("E4", "needed items per retrieved block vs the 1+lg B bound (§3.2.1)");
    let n = 1 << 16;
    let point_queries: Vec<Vec<usize>> =
        (0..300).map(|k| point_query_set((k * 397) % n, n)).collect();
    let range_queries: Vec<Vec<usize>> = (0..300)
        .map(|k| {
            let a = (k * 431) % (n / 2);
            range_query_set(a, a + n / 3, n)
        })
        .collect();

    println!("-- point queries (the bound's setting) --");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "B", "bound", "tiling", "sequential", "random", "tiling blocks/q"
    );
    for b in [4usize, 8, 16, 32, 64, 128, 256] {
        let [tiling, sequential, random] = layouts(n, b);
        let (blocks_t, needed_t) = evaluate_allocation(|i| tiling.block_of(i), &point_queries);
        let (_, needed_s) = evaluate_allocation(|i| sequential.block_of(i), &point_queries);
        let (_, needed_r) = evaluate_allocation(|i| random.block_of(i), &point_queries);
        println!(
            "{:>6} {:>10.2} {:>12.2} {:>12.2} {:>12.2} {:>14.1}",
            b,
            needed_items_upper_bound(b),
            needed_t,
            needed_s,
            needed_r,
            blocks_t
        );
    }

    println!("\n-- range-sum queries (two boundary paths; paths share coarse blocks,");
    println!("   so needed items per block can exceed the point-query bound) --");
    println!("{:>6} {:>14} {:>14} {:>14}", "B", "tiling blk/q", "seq blk/q", "random blk/q");
    for b in [16usize, 64, 256] {
        let [tiling, sequential, random] = layouts(n, b);
        let (bt, _) = evaluate_allocation(|i| tiling.block_of(i), &range_queries);
        let (bs, _) = evaluate_allocation(|i| sequential.block_of(i), &range_queries);
        let (br, _) = evaluate_allocation(|i| random.block_of(i), &range_queries);
        println!("{b:>6} {bt:>14.1} {bs:>14.1} {br:>14.1}");
    }
    println!("\nshape check: on point queries the tiling column tracks the 1+lg B");
    println!("bound while naive layouts sit near 1-2; on range queries the tiling");
    println!("touches the fewest blocks.");
}

/// E4's three layouts of `n` coefficients in blocks of `b`: tiling,
/// sequential, random.
fn layouts(n: usize, b: usize) -> [Layout; 3] {
    [AllocKind::TreeTiling, AllocKind::Sequential, AllocKind::Random(5)]
        .map(|kind| Layout::new(n, b, kind))
}

/// E5 — "decompose each dimension into optimal virtual blocks, and take
/// the Cartesian products … to be our actual blocks" (§3.2.1): the tensor
/// allocation on a 2-D cube vs row-major blocks of equal size.
pub fn e5_tensor_allocation() {
    crate::header("E5", "tensor-product allocation for multivariate wavelets (§3.2.1)");
    let side = 256usize;
    let vb = 8usize; // virtual block per dimension → real block 64
    let tensor = TensorAlloc::new(&[side, side], &[vb, vb]);
    let rowmajor = Layout::new(side * side, vb * vb, AllocKind::Sequential);
    let random = Layout::new(side * side, vb * vb, AllocKind::Random(17));

    // 2-D point queries: tensor products of per-dimension paths.
    let mut queries = Vec::new();
    for k in 0..200 {
        let (ti, tj) = ((k * 97) % side, (k * 61) % side);
        let pi = point_query_set(ti, side);
        let pj = point_query_set(tj, side);
        let mut q = Vec::with_capacity(pi.len() * pj.len());
        for &a in &pi {
            for &b in &pj {
                q.push(a * side + b);
            }
        }
        queries.push(q);
    }

    println!("{:>14} {:>14} {:>18}", "allocation", "blocks/query", "needed items/block");
    for (name, (blocks, needed)) in [
        ("tensor tiling", evaluate_allocation(|i| tensor.block_of(i), &queries)),
        ("row-major", evaluate_allocation(|i| rowmajor.block_of(i), &queries)),
        ("random", evaluate_allocation(|i| random.block_of(i), &queries)),
    ] {
        println!("{name:>14} {blocks:>14.1} {needed:>18.2}");
    }
    println!("\nshape check: tensor tiling touches several-fold fewer blocks per 2-D");
    println!("point query, with correspondingly more needed items per block.");
}

/// E6 — "perform the most valuable I/O's first and deliver approximate
/// results progressively" (§3.2.1): error-vs-blocks-read curves for the
/// store's gain-ordered evaluation and for the same plan in plan order.
pub fn e6_progressive_retrieval() {
    crate::header("E6", "importance-ordered progressive block retrieval (§3.2.1)");
    let n = 1 << 14;
    // A skewed coefficient vector: realistic wavelet data (most energy in
    // few coefficients).
    let signal: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            50.0 * (2.0 * std::f64::consts::PI * 1.5 * t).sin()
                + 20.0 * (2.0 * std::f64::consts::PI * 5.0 * t).sin()
                + ((i * 2654435761) % 97) as f64 * 0.05
        })
        .collect();
    let coeffs = aims_dsp::dwt::dwt_full(&signal, &aims_dsp::filters::WaveletFilter::haar());
    // Place coefficients randomly: under the tiling layout, block 0 holds
    // the coarse (most important) coefficients, so a plain fold-order scan
    // is accidentally near-optimal. A random placement isolates the value
    // of the importance function itself.
    let store = CoefficientStore::load(&coeffs, 32, AllocKind::Random(11), MemDevice::new);

    // A range-sum query in the wavelet domain (boundary paths + root).
    let indices = range_query_set(1000, 12000, n);
    let weights = vec![1.0; indices.len()];
    let (indices, weights) = store.block_major(indices, weights);
    let pool = SharedBlockCache::new(store.num_blocks());
    let exact = store.evaluate(&indices, &weights, &pool, &RetryPolicy::none()).estimate;

    // Importance: the plan consumed gain-first. Sequential: the same plan
    // in plan order, the order `evaluate` fetches in.
    let run = store.progressive(&indices, &weights, &pool, &RetryPolicy::none());
    let importance: Vec<(f64, f64)> = run.iter().map(|p| (p.estimate, p.bound)).collect();
    let mut eval = Evaluation::new(Arc::new(store.plan(&indices, &weights)));
    let mut sequential = Vec::new();
    for k in 0..eval.plan().blocks.len() {
        let b = eval.plan().blocks[k];
        let data = pool.get_or_read(store.device(), b).expect("an in-memory device never fails");
        store.fold(&mut eval, &indices, &weights, k, Some(&data));
        sequential.push((eval.estimate(), eval.ledger().bound()));
    }

    println!(
        "{:>12} {:>8} {:>14} {:>22} {:>14}",
        "order", "blocks", "error AUC", "err after 25% blocks", "bound AUC"
    );
    let mut aucs = Vec::new();
    for (name, curve) in [("importance", &importance), ("sequential", &sequential)] {
        let auc: f64 = curve.iter().map(|&(e, _)| (e - exact).abs()).sum();
        let quarter = (curve[curve.len() / 4].0 - exact).abs();
        let bound_auc: f64 = curve.iter().map(|&(_, b)| b).sum();
        println!("{name:>12} {:>8} {auc:>14.1} {quarter:>22.2} {bound_auc:>14.1}", curve.len());
        aucs.push(auc);
    }
    assert!(aucs[0] < aucs[1], "importance AUC {} !< sequential AUC {}", aucs[0], aucs[1]);
    println!("\nshape check: importance order has the smaller error AUC — the most");
    println!("valuable blocks arrive first and the estimate converges fastest.");
}
