//! Blocked/parallel linalg kernels must be bit-identical across pool sizes.

use proptest::prelude::*;

use aims_exec::ThreadPool;
use aims_linalg::{Matrix, QrDecomposition, Svd};

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim)
        .prop_flat_map(|(m, n)| (Just((m, n)), prop::collection::vec(-10.0_f64..10.0, m * n)))
        .prop_map(|((m, n), data)| Matrix::from_fn(m, n, |i, j| data[i * n + j]))
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked parallel matmul equals the serial result bit for bit, for
    /// every compatible shape and pool size.
    #[test]
    fn matmul_bit_identical_across_pools(
        (a, b) in (1usize..=40, 1usize..=40, 1usize..=40).prop_flat_map(|(m, k, n)| {
            (
                prop::collection::vec(-10.0_f64..10.0, m * k)
                    .prop_map(move |d| Matrix::from_fn(m, k, |i, j| d[i * k + j])),
                prop::collection::vec(-10.0_f64..10.0, k * n)
                    .prop_map(move |d| Matrix::from_fn(k, n, |i, j| d[i * n + j])),
            )
        }),
    ) {
        let reference = a.matmul_with(&ThreadPool::new(1), &b);
        for threads in [2, 8] {
            let got = a.matmul_with(&ThreadPool::new(threads), &b);
            prop_assert_eq!(bits(&got), bits(&reference), "threads={}", threads);
        }
    }

    /// One-sided Jacobi SVD is bit-identical across pool sizes: the column
    /// moments use a fixed block decomposition and the rotations are
    /// elementwise.
    #[test]
    fn svd_bit_identical_across_pools(a in matrix_strategy(12)) {
        let reference = Svd::compute_on(&ThreadPool::new(1), &a);
        for threads in [2, 8] {
            let got = Svd::compute_on(&ThreadPool::new(threads), &a);
            let rb: Vec<u64> = reference.singular_values.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u64> = got.singular_values.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(gb, rb, "singular values, threads={}", threads);
            prop_assert_eq!(bits(&got.u), bits(&reference.u), "U, threads={}", threads);
            prop_assert_eq!(bits(&got.v), bits(&reference.v), "V, threads={}", threads);
        }
    }

    /// Householder QR with the blocked two-pass rank-1 update is
    /// bit-identical across pool sizes.
    #[test]
    fn qr_bit_identical_across_pools(
        a in (1usize..=16, 1usize..=16)
            .prop_map(|(x, y)| (x.max(y), x.min(y)))
            .prop_flat_map(|(m, n)| {
                (Just((m, n)), prop::collection::vec(-10.0_f64..10.0, m * n))
            })
            .prop_map(|((m, n), d)| Matrix::from_fn(m, n, |i, j| d[i * n + j])),
    ) {
        let reference = QrDecomposition::new_with(&ThreadPool::new(1), &a);
        for threads in [2, 8] {
            let got = QrDecomposition::new_with(&ThreadPool::new(threads), &a);
            prop_assert_eq!(bits(&got.q), bits(&reference.q), "Q, threads={}", threads);
            prop_assert_eq!(bits(&got.r), bits(&reference.r), "R, threads={}", threads);
        }
    }
}
