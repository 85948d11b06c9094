//! SVD signatures of sensor-stream windows.
//!
//! The weighted-sum SVD measure (§3.4) compares "corresponding eigenvectors
//! weighted by their respective eigenvalues". A *signature* is that
//! distilled object: the top-k left singular vectors (directions in sensor
//! space — their dimension is the sensor count, independent of sequence
//! length, which is what defeats the variable-length problem) plus each
//! direction's share of the total energy.
//!
//! Signatures can be built three ways, which §3.4.1 requires to agree:
//! directly from the raw window matrix, incrementally as frames stream in,
//! or from the Gram matrix assembled out of ProPolyne SUM(xᵢ·xⱼ) range
//! sums — "ProPolyne's class of polynomial range-sum aggregates can be
//! used directly to compute our SVD-based similarity function".

use aims_linalg::{symmetric_eigen, IncrementalSvd, Matrix, Svd};

/// An SVD signature: orthonormal sensor-space directions and their energy
/// shares (non-increasing, summing to ≤ 1).
#[derive(Clone, Debug)]
pub struct SvdSignature {
    /// `sensors × k` orthonormal basis (left singular vectors).
    pub basis: Matrix,
    /// Energy share of each direction (`σᵢ² / Σσ²`).
    pub shares: Vec<f64>,
}

impl SvdSignature {
    /// Builds from a `sensors × time` window matrix, keeping at most `k`
    /// directions.
    ///
    /// # Panics
    /// If the matrix is empty or `k == 0`.
    pub fn from_matrix(window: &Matrix, k: usize) -> Self {
        let _span = aims_telemetry::span!("stream.signature.from_matrix");
        assert!(k > 0, "need at least one direction");
        assert!(window.rows() > 0 && window.cols() > 0, "empty window");
        let svd = Svd::compute(window);
        let total: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        let keep = k.min(svd.singular_values.len());
        let shares = svd
            .singular_values
            .iter()
            .take(keep)
            .map(|s| if total > 0.0 { s * s / total } else { 0.0 })
            .collect();
        SvdSignature { basis: svd.u.submatrix(0, window.rows(), 0, keep), shares }
    }

    /// Builds from a running [`IncrementalSvd`] (the streaming path of
    /// §3.4.1).
    pub fn from_incremental(inc: &IncrementalSvd, k: usize) -> Self {
        assert!(k > 0, "need at least one direction");
        let sigma = inc.singular_values();
        let total: f64 = sigma.iter().map(|s| s * s).sum();
        let keep = k.min(sigma.len()).max(1).min(sigma.len());
        if keep == 0 {
            // No data yet: a degenerate single-direction signature.
            return SvdSignature { basis: Matrix::zeros(inc.u().rows(), 1), shares: vec![0.0] };
        }
        let shares = sigma
            .iter()
            .take(keep)
            .map(|s| if total > 0.0 { s * s / total } else { 0.0 })
            .collect();
        SvdSignature { basis: inc.u().submatrix(0, inc.u().rows(), 0, keep), shares }
    }

    /// Builds from an uncentered second-moment (Gram) matrix
    /// `G = (1/n)·X·Xᵀ` — the quantity ProPolyne delivers via second-order
    /// range sums. Eigenvectors of `G` are the left singular vectors of
    /// `X`, so this signature matches [`Self::from_matrix`] exactly.
    ///
    /// # Panics
    /// If `gram` is not square or `k == 0`.
    pub fn from_gram(gram: &Matrix, k: usize) -> Self {
        assert!(k > 0, "need at least one direction");
        assert_eq!(gram.rows(), gram.cols(), "Gram matrix must be square");
        let eig = symmetric_eigen(gram);
        let total: f64 = eig.eigenvalues.iter().map(|l| l.max(0.0)).sum();
        let keep = k.min(eig.eigenvalues.len());
        let shares = eig
            .eigenvalues
            .iter()
            .take(keep)
            .map(|l| if total > 0.0 { l.max(0.0) / total } else { 0.0 })
            .collect();
        SvdSignature { basis: eig.eigenvectors.submatrix(0, gram.rows(), 0, keep), shares }
    }

    /// Number of retained directions.
    pub fn rank(&self) -> usize {
        self.shares.len()
    }

    /// Sensor-space dimensionality.
    pub fn sensors(&self) -> usize {
        self.basis.rows()
    }

    /// The weighted-sum SVD similarity with another signature: corresponding
    /// directions compared by |cosine|, weighted by the (geometric mean of
    /// the) energy shares. Result in `[0, 1]`; 1 for identical
    /// subspace-and-spectrum.
    ///
    /// # Panics
    /// If sensor dimensions differ.
    pub fn similarity(&self, other: &SvdSignature) -> f64 {
        aims_telemetry::counter!("stream.signature.comparisons").inc();
        assert_eq!(self.sensors(), other.sensors(), "sensor dimensionality mismatch");
        let k = self.rank().min(other.rank());
        let mut sim = 0.0;
        let mut weight_sum = 0.0;
        for i in 0..k {
            let mut dot = 0.0;
            for r in 0..self.sensors() {
                dot += self.basis[(r, i)] * other.basis[(r, i)];
            }
            let weight = (self.shares[i] * other.shares[i]).sqrt();
            sim += weight * dot.abs();
            weight_sum += weight;
        }
        if weight_sum <= 0.0 {
            0.0
        } else {
            (sim / weight_sum).clamp(0.0, 1.0)
        }
    }

    /// Like [`Self::similarity`], but restricted to the sensor rows marked
    /// `true` in `live` — the degraded-mode comparison used when channels
    /// have been declared dead. Cosines are renormalized over the live
    /// rows, and directions whose energy lives entirely in masked rows
    /// drop out of the weighting. With every channel live this is exactly
    /// [`Self::similarity`], bit for bit.
    ///
    /// # Panics
    /// If sensor dimensions differ or `live` has the wrong length.
    pub fn masked_similarity(&self, other: &SvdSignature, live: &[bool]) -> f64 {
        assert_eq!(self.sensors(), other.sensors(), "sensor dimensionality mismatch");
        assert_eq!(live.len(), self.sensors(), "mask length mismatch");
        if live.iter().all(|&l| l) {
            return self.similarity(other);
        }
        aims_telemetry::counter!("stream.signature.masked_comparisons").inc();
        let k = self.rank().min(other.rank());
        let mut sim = 0.0;
        let mut weight_sum = 0.0;
        for i in 0..k {
            let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
            for (r, &is_live) in live.iter().enumerate() {
                if !is_live {
                    continue;
                }
                let a = self.basis[(r, i)];
                let b = other.basis[(r, i)];
                dot += a * b;
                na += a * a;
                nb += b * b;
            }
            let weight = (self.shares[i] * other.shares[i]).sqrt();
            if na > 1e-12 && nb > 1e-12 {
                sim += weight * (dot / (na.sqrt() * nb.sqrt())).abs();
                weight_sum += weight;
            }
        }
        if weight_sum <= 0.0 {
            0.0
        } else {
            (sim / weight_sum).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_linalg::Vector;

    fn window(seed: u64, sensors: usize, frames: usize) -> Matrix {
        let mut state = seed.max(1);
        Matrix::from_fn(sensors, frames, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 100.0
        })
    }

    #[test]
    fn self_similarity_is_one() {
        let m = window(3, 6, 40);
        let sig = SvdSignature::from_matrix(&m, 4);
        assert!((sig.similarity(&sig) - 1.0).abs() < 1e-9, "{}", sig.similarity(&sig));
    }

    #[test]
    fn shares_are_sorted_and_bounded() {
        let m = window(5, 8, 30);
        let sig = SvdSignature::from_matrix(&m, 8);
        let sum: f64 = sig.shares.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        for w in sig.shares.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(sig.basis.has_orthonormal_columns(1e-8));
    }

    #[test]
    fn gram_signature_matches_matrix_signature() {
        let m = window(9, 5, 50);
        let sig_direct = SvdSignature::from_matrix(&m, 4);
        // Gram = (1/n)·X·Xᵀ.
        let gram = m.matmul(&m.transpose()).scaled(1.0 / m.cols() as f64);
        let sig_gram = SvdSignature::from_gram(&gram, 4);
        assert!((sig_direct.similarity(&sig_gram) - 1.0).abs() < 1e-6);
        for (a, b) in sig_direct.shares.iter().zip(&sig_gram.shares) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn incremental_signature_matches_batch() {
        let m = window(11, 6, 30);
        let mut inc = IncrementalSvd::new(6, 6);
        for c in 0..m.cols() {
            inc.append_column(&m.column(c));
        }
        let sig_inc = SvdSignature::from_incremental(&inc, 4);
        let sig_batch = SvdSignature::from_matrix(&m, 4);
        assert!((sig_inc.similarity(&sig_batch) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn different_subspaces_score_low() {
        // Two windows living on orthogonal sensor directions.
        let a = Matrix::from_columns(&vec![Vector::basis(6, 0).scaled(3.0); 20]);
        let b = Matrix::from_columns(&vec![Vector::basis(6, 3).scaled(3.0); 20]);
        let sa = SvdSignature::from_matrix(&a, 3);
        let sb = SvdSignature::from_matrix(&b, 3);
        assert!(sa.similarity(&sb) < 0.05, "{}", sa.similarity(&sb));
    }

    #[test]
    fn variable_length_windows_still_compare() {
        // Same underlying process, very different durations.
        let long = Matrix::from_fn(5, 200, |r, c| ((r + 1) as f64) * (c as f64 * 0.05).sin());
        let short = Matrix::from_fn(5, 37, |r, c| ((r + 1) as f64) * (c as f64 * 0.05).sin());
        let sl = SvdSignature::from_matrix(&long, 3);
        let ss = SvdSignature::from_matrix(&short, 3);
        assert!(sl.similarity(&ss) > 0.9, "{}", sl.similarity(&ss));
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = SvdSignature::from_matrix(&window(1, 7, 25), 4);
        let b = SvdSignature::from_matrix(&window(2, 7, 31), 4);
        assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-12);
    }

    #[test]
    fn masked_similarity_with_all_live_matches_plain() {
        let a = SvdSignature::from_matrix(&window(1, 7, 25), 4);
        let b = SvdSignature::from_matrix(&window(2, 7, 31), 4);
        let live = vec![true; 7];
        assert_eq!(a.masked_similarity(&b, &live).to_bits(), a.similarity(&b).to_bits());
    }

    #[test]
    fn masking_a_dead_channel_recovers_similarity() {
        // Same process twice, but the second window's channel 2 — the most
        // energetic sensor — flatlined. The full comparison is dragged down
        // by the missing row; masking it out recovers a near-perfect score.
        let weights = [1.0, 1.0, 10.0, 1.0, 1.0, 1.0];
        let clean = Matrix::from_fn(6, 80, |r, c| weights[r] * (c as f64 * 0.07).sin());
        let mut broken = clean.clone();
        for c in 0..broken.cols() {
            broken[(2, c)] = 0.0;
        }
        let sc = SvdSignature::from_matrix(&clean, 3);
        let sb = SvdSignature::from_matrix(&broken, 3);
        let mut live = vec![true; 6];
        live[2] = false;
        let masked = sc.masked_similarity(&sb, &live);
        let full = sc.similarity(&sb);
        assert!(masked > full + 0.3, "masked {masked} vs full {full}");
        assert!(masked > 0.99, "masked comparison should recover: {masked}");
    }

    #[test]
    fn fully_masked_comparison_scores_zero() {
        let a = SvdSignature::from_matrix(&window(1, 5, 20), 3);
        let b = SvdSignature::from_matrix(&window(2, 5, 20), 3);
        assert_eq!(a.masked_similarity(&b, &[false; 5]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_sensors_panic() {
        let a = SvdSignature::from_matrix(&window(1, 4, 10), 2);
        let b = SvdSignature::from_matrix(&window(1, 5, 10), 2);
        a.similarity(&b);
    }
}
