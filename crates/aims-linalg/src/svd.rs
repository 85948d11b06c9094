//! One-sided Jacobi singular value decomposition.
//!
//! The weighted-sum SVD similarity measure of the AIMS paper (§3.4) compares
//! the singular structure of two sensor-stream matrices. One-sided Jacobi is
//! the classic choice for small dense matrices: it is simple, numerically
//! robust, and computes small singular values to high relative accuracy.

use crate::matrix::Matrix;

/// Off-diagonal orthogonality tolerance, relative to the column norms.
pub const TOLERANCE: f64 = 1e-12;
/// Maximum number of Jacobi sweeps before giving up.
pub const MAX_SWEEPS: usize = 60;

/// A (thin) singular value decomposition `A = U Σ Vᵀ`.
///
/// ```
/// use aims_linalg::{Matrix, Svd};
///
/// let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0], vec![0.0, 0.0]]);
/// let svd = Svd::compute(&a);
/// assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
/// assert!(svd.reconstruct().approx_eq(&a, 1e-10));
/// ```
///
/// For an `m × n` input with `k = min(m, n)`:
/// `u` is `m × k` with orthonormal columns, `singular_values` holds the `k`
/// singular values in non-increasing order, and `v` is `n × k` with
/// orthonormal columns.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × k`.
    pub u: Matrix,
    /// Singular values, non-increasing, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Computes the SVD of `a` on the process-wide [`aims_exec`] pool.
    pub fn compute(a: &Matrix) -> Self {
        Self::compute_on(aims_exec::global_pool(), a)
    }

    /// Computes the SVD of `a` on an explicit thread pool.
    ///
    /// Internally runs one-sided Jacobi on the tall orientation (transposing
    /// a wide input and swapping `U`/`V` back at the end), so the cost is
    /// `O(max(m,n) · min(m,n)² · sweeps)`. The working copy is stored
    /// column-major so each rotation streams two contiguous vectors; the
    /// column inner products use the fixed-block decomposition of
    /// [`aims_exec::ThreadPool::par_map_blocks`] and the rotation itself is
    /// elementwise, so results are bit-identical for every pool size.
    pub fn compute_on(pool: &aims_exec::ThreadPool, a: &Matrix) -> Self {
        let _span = aims_telemetry::span!("linalg.svd.compute");
        let (m, n) = a.shape();
        if m < n {
            let t = Self::compute_on(pool, &a.transpose());
            return Svd { u: t.v, singular_values: t.singular_values, v: t.u };
        }
        if n == 0 {
            return Svd { u: Matrix::zeros(m, 0), singular_values: vec![], v: Matrix::zeros(0, 0) };
        }

        // One-sided Jacobi: orthogonalize the columns of a working copy of A
        // by right-multiplying plane rotations; the accumulated rotations
        // form V, the column norms form Σ, and the normalized columns form U.
        // Both working arrays are transposed (row j = column j of the
        // mathematical matrix) so rotations touch contiguous memory.
        let mut wt = vec![0.0; n * m];
        for i in 0..m {
            for (j, &x) in a.row(i).iter().enumerate() {
                wt[j * m + i] = x;
            }
        }
        let mut vt = vec![0.0; n * n];
        for j in 0..n {
            vt[j * n + j] = 1.0;
        }

        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (alpha, beta, gamma) =
                        column_moments(pool, &wt[p * m..(p + 1) * m], &wt[q * m..(q + 1) * m]);
                    if gamma.abs() <= TOLERANCE * (alpha * beta).sqrt() || gamma == 0.0 {
                        continue;
                    }
                    rotated = true;

                    // Jacobi rotation annihilating the (p,q) off-diagonal of
                    // WᵀW (Golub & Van Loan §8.6.3).
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;

                    let (wp, wq) = two_rows_mut(&mut wt, m, p, q);
                    rotate_pair(pool, wp, wq, c, s);
                    let (vp, vq) = two_rows_mut(&mut vt, n, p, q);
                    rotate_pair(pool, vp, vq, c, s);
                }
            }
            if !rotated {
                break;
            }
        }

        // Extract singular values (column norms) and left vectors.
        let mut sigma: Vec<f64> = (0..n)
            .map(|j| wt[j * m..(j + 1) * m].iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();

        // Sort by descending singular value, permuting U's and V's columns.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).unwrap());

        let mut u = Matrix::zeros(m, n);
        let mut v_sorted = Matrix::zeros(n, n);
        let mut sigma_sorted = vec![0.0; n];
        for (dst, &src) in order.iter().enumerate() {
            sigma_sorted[dst] = sigma[src];
            let s = sigma[src];
            for (i, &x) in wt[src * m..(src + 1) * m].iter().enumerate() {
                u[(i, dst)] = if s > crate::EPS { x / s } else { 0.0 };
            }
            for (i, &x) in vt[src * n..(src + 1) * n].iter().enumerate() {
                v_sorted[(i, dst)] = x;
            }
        }
        sigma = sigma_sorted;

        // For zero singular values the corresponding U column is left zero;
        // this keeps A = UΣVᵀ exact, and callers that need a full basis can
        // re-orthonormalize. (Immersidata similarity only uses non-null
        // directions.)
        Svd { u, singular_values: sigma, v: v_sorted }
    }

    /// Number of singular values `k = min(m, n)`.
    pub fn len(&self) -> usize {
        self.singular_values.len()
    }

    /// True when the decomposition carries no singular values.
    pub fn is_empty(&self) -> bool {
        self.singular_values.is_empty()
    }

    /// Numerical rank: the number of singular values above
    /// `tol * max singular value`.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        if max <= 0.0 {
            return 0;
        }
        self.singular_values.iter().filter(|&&s| s > tol * max).count()
    }

    /// Reconstructs `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let us = {
            let mut us = self.u.clone();
            for j in 0..self.singular_values.len() {
                for i in 0..us.rows() {
                    us[(i, j)] *= self.singular_values[j];
                }
            }
            us
        };
        us.matmul(&self.v.transpose())
    }

    /// Reconstructs the best rank-`k` approximation `U_k Σ_k V_kᵀ`
    /// (Eckart–Young optimal in Frobenius and spectral norm).
    pub fn reconstruct_rank(&self, k: usize) -> Matrix {
        let k = k.min(self.len());
        let (m, n) = (self.u.rows(), self.v.rows());
        let mut out = Matrix::zeros(m, n);
        for r in 0..k {
            let s = self.singular_values[r];
            for i in 0..m {
                let uis = self.u[(i, r)] * s;
                if uis == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += uis * self.v[(j, r)];
                }
            }
        }
        out
    }

    /// Fraction of the total squared energy captured by the top `k`
    /// singular values.
    pub fn energy_fraction(&self, k: usize) -> f64 {
        let total: f64 = self.singular_values.iter().map(|s| s * s).sum();
        if total <= 0.0 {
            return 1.0;
        }
        let kept: f64 = self.singular_values.iter().take(k).map(|s| s * s).sum();
        kept / total
    }
}

/// Fixed block length for the deterministic parallel column moments: the
/// decomposition depends only on the vector length, never the pool size.
const MOMENT_BLOCK: usize = 4096;

/// Minimum rotation length worth fanning out; below this the spawn overhead
/// dwarfs the arithmetic.
const MIN_PAR_ROTATE: usize = 8192;

/// Returns `(Σ wp², Σ wq², Σ wp·wq)` for two equal-length columns, reduced
/// over fixed `MOMENT_BLOCK`-sized blocks folded in block order so the
/// result is bit-identical for every pool size.
fn column_moments(pool: &aims_exec::ThreadPool, wp: &[f64], wq: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(wp.len(), wq.len());
    let partials = pool.par_map_blocks(wp.len(), MOMENT_BLOCK, |r| {
        let mut alpha = 0.0;
        let mut beta = 0.0;
        let mut gamma = 0.0;
        for (&x, &y) in wp[r.clone()].iter().zip(&wq[r]) {
            alpha += x * x;
            beta += y * y;
            gamma += x * y;
        }
        (alpha, beta, gamma)
    });
    partials.into_iter().fold((0.0, 0.0, 0.0), |(a, b, g), (pa, pb, pg)| (a + pa, b + pb, g + pg))
}

/// Disjoint mutable views of rows `p < q` of a row-major `len`-wide array.
fn two_rows_mut(data: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let (head, tail) = data.split_at_mut(q * len);
    (&mut head[p * len..(p + 1) * len], &mut tail[..len])
}

/// Applies the plane rotation `[c -s; s c]` to the column pair in place.
/// Purely elementwise, so the parallel split cannot change any result bit.
fn rotate_pair(pool: &aims_exec::ThreadPool, wp: &mut [f64], wq: &mut [f64], c: f64, s: f64) {
    debug_assert_eq!(wp.len(), wq.len());
    let rotate = |cp: &mut [f64], cq: &mut [f64]| {
        // 4-way unrolled over independent elements: the rotation of each
        // (xp, xq) pair touches no other element, so the unroll cannot
        // change a single bit — it only hands the compiler four disjoint
        // multiply-add chains to vectorize.
        let mut ps = cp.chunks_exact_mut(4);
        let mut qs = cq.chunks_exact_mut(4);
        for (p4, q4) in ps.by_ref().zip(qs.by_ref()) {
            for (xp, xq) in p4.iter_mut().zip(q4.iter_mut()) {
                let a = *xp;
                let b = *xq;
                *xp = c * a - s * b;
                *xq = s * a + c * b;
            }
        }
        for (xp, xq) in ps.into_remainder().iter_mut().zip(qs.into_remainder()) {
            let a = *xp;
            let b = *xq;
            *xp = c * a - s * b;
            *xq = s * a + c * b;
        }
    };
    if pool.is_serial() || wp.len() < MIN_PAR_ROTATE {
        rotate(wp, wq);
        return;
    }
    pool.run(|scope| {
        for (cp, cq) in wp.chunks_mut(MOMENT_BLOCK).zip(wq.chunks_mut(MOMENT_BLOCK)) {
            let rotate = &rotate;
            scope.spawn(move || rotate(cp, cq));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        // Tiny xorshift so the tests need no external RNG.
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        Matrix::from_fn(m, n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn diagonal_matrix_svd_is_its_diagonal() {
        let a = Matrix::diagonal(&[3.0, 1.0, 2.0]);
        let svd = Svd::compute(&a);
        assert_eq!(svd.singular_values.len(), 3);
        assert!(crate::approx_eq(svd.singular_values[0], 3.0, 1e-10));
        assert!(crate::approx_eq(svd.singular_values[1], 2.0, 1e-10));
        assert!(crate::approx_eq(svd.singular_values[2], 1.0, 1e-10));
        assert!(svd.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn singular_values_are_sorted_descending() {
        let a = random_matrix(10, 6, 42);
        let svd = Svd::compute(&a);
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn reconstruction_tall_and_wide() {
        for (m, n, seed) in [(8, 5, 1), (5, 8, 2), (6, 6, 3)] {
            let a = random_matrix(m, n, seed);
            let svd = Svd::compute(&a);
            assert!(svd.reconstruct().approx_eq(&a, 1e-9), "reconstruction failed for {m}x{n}");
            assert!(svd.u.has_orthonormal_columns(1e-9));
            assert!(svd.v.has_orthonormal_columns(1e-9));
        }
    }

    #[test]
    fn rank_detection_on_rank_one_matrix() {
        // Outer product => rank 1.
        let a = Matrix::from_fn(6, 4, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0));
        let svd = Svd::compute(&a);
        assert_eq!(svd.rank(1e-9), 1);
        assert!(svd.reconstruct_rank(1).approx_eq(&a, 1e-9));
    }

    #[test]
    fn frobenius_norm_equals_singular_value_energy() {
        let a = random_matrix(7, 7, 9);
        let svd = Svd::compute(&a);
        let sv_energy: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        assert!(crate::approx_eq(sv_energy, a.energy(), 1e-9));
    }

    #[test]
    fn eckart_young_rank_k_error() {
        let a = random_matrix(9, 6, 17);
        let svd = Svd::compute(&a);
        for k in 0..=6 {
            let err = (&a - &svd.reconstruct_rank(k)).energy();
            let expect: f64 = svd.singular_values.iter().skip(k).map(|s| s * s).sum();
            assert!(crate::approx_eq(err, expect, 1e-8), "k={k}: {err} vs {expect}");
        }
    }

    #[test]
    fn energy_fraction_monotone_to_one() {
        let a = random_matrix(8, 4, 5);
        let svd = Svd::compute(&a);
        let mut prev = 0.0;
        for k in 0..=4 {
            let f = svd.energy_fraction(k);
            assert!(f >= prev - 1e-15);
            prev = f;
        }
        assert!(crate::approx_eq(prev, 1.0, 1e-12));
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Matrix::zeros(4, 3);
        let svd = Svd::compute(&a);
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank(1e-12), 0);
        assert!(svd.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn empty_matrix_svd() {
        let a = Matrix::zeros(3, 0);
        let svd = Svd::compute(&a);
        assert!(svd.is_empty());
    }

    #[test]
    fn orthogonal_input_has_unit_singular_values() {
        let r2 = std::f64::consts::FRAC_1_SQRT_2;
        let a = Matrix::from_rows(&[vec![r2, -r2], vec![r2, r2]]);
        let svd = Svd::compute(&a);
        for s in &svd.singular_values {
            assert!(crate::approx_eq(*s, 1.0, 1e-12));
        }
    }
}
