//! Dense linear algebra for AIMS.
//!
//! The AIMS paper (CIDR 2003, §3.4) builds its online query-and-analysis
//! component on the singular value decomposition of aggregated sensor
//! streams, and §3.4.1 calls for *incremental* SVD so that sliding-window
//! similarity can reuse work between windows. This crate provides the small,
//! self-contained dense linear-algebra kernel those components need:
//!
//! - [`Matrix`] / [`Vector`]: row-major dense storage with the usual
//!   arithmetic, products and norms.
//! - [`qr`]: Householder QR factorization and least-squares solves.
//! - [`svd`]: one-sided Jacobi SVD (numerically robust, no external deps).
//! - [`eigen`]: symmetric eigendecomposition via cyclic Jacobi rotations.
//! - [`incremental`]: rank-1 incremental SVD updates (Brand-style) for
//!   streaming windows.
//! - [`stats`]: mean centering, covariance and Gram matrices — the bridge to
//!   ProPolyne's second-order polynomial range sums (paper §3.4.1).
//! - [`projection`]: Johnson–Lindenstrauss random projections (the
//!   dimension-reduction refinement of paper §3.3.1).
//!
//! Everything is `f64`; immersidata matrices are small (tens of sensors by
//! hundreds of samples), so clarity and robustness beat blocked performance
//! tricks here.

pub mod eigen;
pub mod incremental;
pub mod matrix;
pub mod projection;
pub mod qr;
pub mod stats;
pub mod svd;
pub mod vector;

pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use incremental::IncrementalSvd;
pub use matrix::Matrix;
pub use projection::RandomProjection;
pub use qr::{least_squares, QrDecomposition};
pub use stats::{column_means, covariance_matrix, gram_matrix};
pub use svd::Svd;
pub use vector::Vector;

/// Comparison tolerance used throughout the crate for "effectively zero"
/// decisions (rank determination, convergence checks).
pub const EPS: f64 = 1e-12;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relatively, whichever is looser. Useful in tests of iterative routines.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12));
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-13), 1e-12));
        assert!(!approx_eq(1.0, 1.1, 1e-12));
        assert!(approx_eq(0.0, 0.0, 1e-12));
    }
}
