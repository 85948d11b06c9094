//! The lazy wavelet transform of piecewise-polynomial query vectors.
//!
//! A polynomial range-sum query restricted to one dimension is the vector
//! `q[i] = p(i)` for `i ∈ [a, b]`, zero elsewhere. Filtering a polynomial
//! sequence with a wavelet filter and downsampling yields another
//! polynomial sequence (`q'(k) = Σₘ h[m]·p(2k+m)`), so at every level the
//! signal stays *piecewise polynomial with O(1) pieces*: a polynomial
//! interior, short explicit boundary zones (windows that straddle a piece
//! edge), and zero outside. The lazy transform tracks exactly that
//! structure symbolically, touching only O(filter · log N) values overall.
//!
//! The moment condition appears here concretely: when the highpass filter
//! has more vanishing moments than the polynomial degree, the interior
//! detail polynomial is identically zero and the detail band keeps only the
//! boundary explicits. With an inadequate filter (e.g. Haar against a
//! linear measure) the interior detail polynomial survives and the "sparse"
//! result honestly degrades to O(N) — exactly the behaviour the paper's
//! filter-choice discussion predicts.
//!
//! ProPolyne's `prepare` runs it per dimension and product term; the tiered
//! store plans its historical segments from the 1-D COUNT transform.

use crate::filters::WaveletFilter;
use crate::poly::Polynomial;

/// Relative tolerance below which derived values are treated as exact
/// zeros (they arise from annihilated moments, at rounding scale relative
/// to the signal's magnitude).
pub const ZERO_TOL: f64 = 1e-10;

/// Estimated max |poly| over an index interval, by sampling endpoints and
/// interior points — a scale reference for relative-zero decisions.
fn poly_scale(poly: &Polynomial, lo: usize, hi: usize) -> f64 {
    if poly.is_zero() {
        return 0.0;
    }
    let lo = lo as f64;
    let hi = hi as f64;
    [lo, hi, (lo + hi) / 2.0, lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.75]
        .iter()
        .map(|&x| poly.eval(x).abs())
        .fold(0.0_f64, f64::max)
}

/// One piece of a hybrid signal.
#[derive(Clone, Debug)]
pub enum Piece {
    /// `signal[i] = poly(i)` for `i ∈ [start, end)`.
    Poly {
        /// First index of the piece.
        start: usize,
        /// One past the last index.
        end: usize,
        /// The generating polynomial (in absolute index coordinates).
        poly: Polynomial,
    },
    /// Explicitly stored values for `start..start + values.len()`.
    Explicit {
        /// First index of the run.
        start: usize,
        /// The values.
        values: Vec<f64>,
    },
}

impl Piece {
    fn start(&self) -> usize {
        match self {
            Piece::Poly { start, .. } | Piece::Explicit { start, .. } => *start,
        }
    }

    fn end(&self) -> usize {
        match self {
            Piece::Poly { end, .. } => *end,
            Piece::Explicit { start, values } => start + values.len(),
        }
    }
}

/// A sparse-by-structure signal over `[0, n)`: disjoint pieces, zero
/// elsewhere.
#[derive(Clone, Debug)]
pub struct HybridSignal {
    n: usize,
    pieces: Vec<Piece>,
}

/// A sparse vector: sorted `(index, value)` pairs.
pub type SparseVector = Vec<(usize, f64)>;

impl HybridSignal {
    /// A range-restricted polynomial signal: `p(i)` on `[a, b]` inclusive,
    /// zero outside.
    ///
    /// # Panics
    /// If the range is invalid for length `n` (power of two required).
    pub fn range_polynomial(n: usize, a: usize, b: usize, poly: Polynomial) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "length must be a power of two ≥ 2");
        assert!(a <= b && b < n, "bad range [{a},{b}] for n={n}");
        HybridSignal { n, pieces: vec![Piece::Poly { start: a, end: b + 1, poly }] }
    }

    /// Signal length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Signals always have positive length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Value at index `i` (zero outside all pieces).
    pub fn value_at(&self, i: usize) -> f64 {
        debug_assert!(i < self.n);
        for p in &self.pieces {
            if i >= p.start() && i < p.end() {
                return match p {
                    Piece::Poly { poly, .. } => poly.eval(i as f64),
                    Piece::Explicit { start, values } => values[i - start],
                };
            }
        }
        0.0
    }

    /// Enumerates the (structurally) nonzero entries with |value| >
    /// `tol`. Polynomial pieces are walked index-by-index — cheap when the
    /// moment condition has zeroed them out (they were dropped), honest
    /// when it has not.
    pub fn nonzeros(&self, tol: f64) -> SparseVector {
        let mut out = Vec::new();
        for p in &self.pieces {
            match p {
                Piece::Poly { start, end, poly } => {
                    for i in *start..*end {
                        let v = poly.eval(i as f64);
                        if v.abs() > tol {
                            out.push((i, v));
                        }
                    }
                }
                Piece::Explicit { start, values } => {
                    for (off, &v) in values.iter().enumerate() {
                        if v.abs() > tol {
                            out.push((start + off, v));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|&(i, _)| i);
        out
    }

    /// The work the lazy transform actually performed for this level:
    /// polynomial pieces are tracked symbolically (O(degree) each, counted
    /// as 1 + degree), explicit runs cost their length.
    pub fn structural_size(&self) -> usize {
        self.pieces
            .iter()
            .map(|p| match p {
                Piece::Poly { poly, .. } => 1 + poly.degree(),
                Piece::Explicit { values, .. } => values.len(),
            })
            .sum()
    }

    /// One analysis step: returns `(approximation, detail)` hybrid signals
    /// of half the length.
    pub fn analysis_step(&self, filter: &WaveletFilter) -> (HybridSignal, HybridSignal) {
        let n = self.n;
        let half = n / 2;
        let l = filter.len();

        // Signals too short for symbolic treatment: go fully explicit.
        if n < 2 * l.max(2) {
            let mut approx = vec![0.0; half];
            let mut detail = vec![0.0; half];
            for k in 0..half {
                let mut a = 0.0;
                let mut d = 0.0;
                for m in 0..l {
                    let x = self.value_at((2 * k + m) % n);
                    a += filter.lowpass()[m] * x;
                    d += filter.highpass()[m] * x;
                }
                approx[k] = a;
                detail[k] = d;
            }
            return (
                HybridSignal::from_explicit(half, approx),
                HybridSignal::from_explicit(half, detail),
            );
        }

        let div_floor = |a: i64, b: i64| -> i64 { (a as f64 / b as f64).floor() as i64 };
        let div_ceil = |a: i64, b: i64| -> i64 { (a as f64 / b as f64).ceil() as i64 };

        // Clean polynomial output intervals and the set of dirty ks.
        let mut approx_polys: Vec<(usize, usize, Polynomial)> = Vec::new();
        let mut detail_polys: Vec<(usize, usize, Polynomial)> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();

        for piece in &self.pieces {
            let s = piece.start() as i64;
            let e = piece.end() as i64;
            let touch_lo = div_ceil(s - l as i64 + 1, 2);
            let touch_hi = div_floor(e - 1, 2);
            match piece {
                Piece::Poly { poly, .. } => {
                    let clean_lo = div_ceil(s, 2);
                    let clean_hi = div_floor(e - l as i64, 2);
                    if clean_lo <= clean_hi {
                        let qa = filter.filter_polynomial(false, poly);
                        let qd = filter.filter_polynomial(true, poly);
                        // Relative-zero test: a detail polynomial whose
                        // values over the clean interval are at rounding
                        // scale of the *input* polynomial was annihilated
                        // by the moment condition.
                        let scale_in = poly_scale(poly, s as usize, (e - 1) as usize).max(1.0);
                        let keep = |q: &Polynomial| {
                            poly_scale(q, clean_lo as usize, clean_hi as usize)
                                > ZERO_TOL * scale_in
                        };
                        if keep(&qa) {
                            approx_polys.push((clean_lo as usize, clean_hi as usize + 1, qa));
                        }
                        if keep(&qd) {
                            detail_polys.push((clean_lo as usize, clean_hi as usize + 1, qd));
                        }
                        for k in touch_lo..clean_lo {
                            dirty.push(k.rem_euclid(half as i64) as usize);
                        }
                        for k in clean_hi + 1..=touch_hi {
                            dirty.push(k.rem_euclid(half as i64) as usize);
                        }
                    } else {
                        for k in touch_lo..=touch_hi {
                            dirty.push(k.rem_euclid(half as i64) as usize);
                        }
                    }
                }
                Piece::Explicit { .. } => {
                    for k in touch_lo..=touch_hi {
                        dirty.push(k.rem_euclid(half as i64) as usize);
                    }
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        // Evaluate the dirty ks explicitly.
        let mut approx_explicit: Vec<(usize, f64)> = Vec::with_capacity(dirty.len());
        let mut detail_explicit: Vec<(usize, f64)> = Vec::with_capacity(dirty.len());
        let mut level_scale: f64 = 1.0;
        for &k in &dirty {
            let mut a = 0.0;
            let mut d = 0.0;
            for m in 0..l {
                let x = self.value_at((2 * k + m) % n);
                level_scale = level_scale.max(x.abs());
                a += filter.lowpass()[m] * x;
                d += filter.highpass()[m] * x;
            }
            approx_explicit.push((k, a));
            detail_explicit.push((k, d));
        }
        let tol = ZERO_TOL * level_scale;

        (
            HybridSignal::assemble(half, approx_polys, &approx_explicit, tol),
            HybridSignal::assemble(half, detail_polys, &detail_explicit, tol),
        )
    }

    fn from_explicit(n: usize, values: Vec<f64>) -> HybridSignal {
        HybridSignal { n, pieces: vec![Piece::Explicit { start: 0, values }] }
    }

    /// Builds a signal from clean polynomial intervals plus explicit
    /// points; drops near-zero explicits and merges runs.
    fn assemble(
        n: usize,
        polys: Vec<(usize, usize, Polynomial)>,
        explicit: &[(usize, f64)],
        tol: f64,
    ) -> HybridSignal {
        let mut pieces: Vec<Piece> =
            polys.into_iter().map(|(start, end, poly)| Piece::Poly { start, end, poly }).collect();

        // Merge consecutive explicit points into runs (keeping zeros that
        // sit between nonzeros is fine; isolated zeros are dropped).
        let mut run_start: Option<usize> = None;
        let mut run_vals: Vec<f64> = Vec::new();
        let flush = |start: &mut Option<usize>, vals: &mut Vec<f64>, pieces: &mut Vec<Piece>| {
            if let Some(s) = start.take() {
                if vals.iter().any(|v| v.abs() > tol) {
                    pieces.push(Piece::Explicit { start: s, values: std::mem::take(vals) });
                } else {
                    vals.clear();
                }
            }
        };
        let mut prev: Option<usize> = None;
        for &(k, v) in explicit {
            match (run_start, prev) {
                (Some(_), Some(p)) if k == p + 1 => run_vals.push(v),
                _ => {
                    flush(&mut run_start, &mut run_vals, &mut pieces);
                    run_start = Some(k);
                    run_vals = vec![v];
                }
            }
            prev = Some(k);
        }
        flush(&mut run_start, &mut run_vals, &mut pieces);

        pieces.sort_by_key(|p| p.start());
        // Sanity: disjointness (clean intervals and dirty points never
        // overlap by construction).
        debug_assert!(pieces.windows(2).all(|w| w[0].end() <= w[1].start()));
        HybridSignal { n, pieces }
    }
}

/// Result of the full lazy transform: the query vector in the flat
/// [`crate::dwt::dwt_full`] layout, kept as one hybrid signal per band.
#[derive(Clone, Debug)]
pub struct LazyTransform {
    /// Final approximation (length-1) value.
    pub approx: f64,
    /// Detail bands, coarsest first, as hybrid signals.
    pub details: Vec<HybridSignal>,
    /// Transform length.
    pub n: usize,
    /// Total structural work performed (entries touched symbolically or
    /// explicitly) — the lazy transform's cost measure.
    pub work: usize,
}

impl LazyTransform {
    /// Sparse flat-layout view: sorted `(flat index, value)` of all entries
    /// with magnitude above `tol`.
    pub fn nonzeros(&self, tol: f64) -> SparseVector {
        let mut out = Vec::new();
        if self.approx.abs() > tol {
            out.push((0usize, self.approx));
        }
        // details[0] is coarsest: flat offset of a band of length len is
        // exactly len (bands: [1,2), [2,4), [4,8), …), so the bands ascend.
        for band in &self.details {
            let offset = band.len();
            for (i, v) in band.nonzeros(tol) {
                out.push((offset + i, v));
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "nonzeros out of order");
        out
    }

    /// Count of nonzeros above `tol`.
    pub fn nnz(&self, tol: f64) -> usize {
        self.nonzeros(tol).len()
    }
}

/// Runs the full lazy wavelet transform of the query vector
/// `q[i] = poly(i)·[a ≤ i ≤ b]` of length `n`.
///
/// ```
/// use aims_dsp::filters::FilterKind;
/// use aims_dsp::poly::Polynomial;
/// use aims_dsp::lazy::lazy_transform;
///
/// // A COUNT query over [100, 900] of a 1024-point domain: only
/// // O(filter · log N) of the 1024 wavelet coefficients are nonzero.
/// let lt = lazy_transform(1024, 100, 900, &Polynomial::constant(1.0),
///                         &FilterKind::Db4.filter());
/// assert!(lt.nnz(1e-9) < 200);
/// ```
///
/// # Panics
/// Propagates the constructor's range/length checks.
pub fn lazy_transform(
    n: usize,
    a: usize,
    b: usize,
    poly: &Polynomial,
    filter: &WaveletFilter,
) -> LazyTransform {
    let mut current = HybridSignal::range_polynomial(n, a, b, poly.clone());
    let mut details_fine_first: Vec<HybridSignal> = Vec::new();
    let mut work = current.structural_size();
    while current.len() > 1 {
        let (approx, detail) = current.analysis_step(filter);
        work += approx.structural_size() + detail.structural_size();
        details_fine_first.push(detail);
        current = approx;
    }
    details_fine_first.reverse();
    LazyTransform { approx: current.value_at(0), details: details_fine_first, n, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwt::dwt_full;
    use crate::filters::FilterKind;

    /// Dense reference: transform the materialized query vector.
    fn dense_reference(
        n: usize,
        a: usize,
        b: usize,
        poly: &Polynomial,
        f: &WaveletFilter,
    ) -> Vec<f64> {
        let q: Vec<f64> =
            (0..n).map(|i| if i >= a && i <= b { poly.eval(i as f64) } else { 0.0 }).collect();
        dwt_full(&q, f)
    }

    fn check_against_dense(n: usize, a: usize, b: usize, poly: &Polynomial, kind: FilterKind) {
        let f = kind.filter();
        let lazy = lazy_transform(n, a, b, poly, &f);
        let dense = dense_reference(n, a, b, poly, &f);
        // Compare every coordinate.
        let sparse: std::collections::HashMap<usize, f64> =
            lazy.nonzeros(0.0).into_iter().collect();
        let scale = dense.iter().fold(1.0_f64, |m, x| m.max(x.abs()));
        for (i, &d) in dense.iter().enumerate() {
            let s = sparse.get(&i).copied().unwrap_or(0.0);
            assert!(
                (s - d).abs() < 1e-7 * scale,
                "{kind:?} n={n} [{a},{b}] deg={}: index {i}: lazy {s} vs dense {d}",
                poly.degree()
            );
        }
    }

    #[test]
    fn constant_query_matches_dense_all_filters() {
        for kind in FilterKind::ALL {
            check_against_dense(64, 10, 40, &Polynomial::constant(1.0), kind);
            check_against_dense(64, 0, 63, &Polynomial::constant(2.0), kind);
            check_against_dense(64, 31, 31, &Polynomial::constant(1.0), kind);
        }
    }

    #[test]
    fn linear_query_matches_dense() {
        let p = Polynomial::from_coeffs(vec![1.0, 0.5]);
        for kind in FilterKind::ALL {
            check_against_dense(128, 20, 90, &p, kind);
        }
    }

    #[test]
    fn quadratic_query_matches_dense() {
        let p = Polynomial::from_coeffs(vec![0.0, -1.0, 0.25]);
        for kind in [FilterKind::Db6, FilterKind::Db8, FilterKind::Haar] {
            check_against_dense(256, 5, 200, &p, kind);
        }
    }

    #[test]
    fn boundary_ranges_match_dense() {
        let p = Polynomial::constant(1.0);
        for kind in [FilterKind::Db4, FilterKind::Db6] {
            check_against_dense(64, 0, 5, &p, kind);
            check_against_dense(64, 60, 63, &p, kind);
            check_against_dense(64, 0, 0, &p, kind);
            check_against_dense(64, 63, 63, &p, kind);
        }
    }

    #[test]
    fn moment_condition_gives_polylog_nnz() {
        // Db4 has 2 vanishing moments → linear measures yield sparse
        // query vectors: O(filter·log n).
        let n = 1 << 14;
        let p = Polynomial::from_coeffs(vec![0.0, 1.0]);
        let lazy = lazy_transform(n, 100, 12000, &p, &FilterKind::Db4.filter());
        let nnz = lazy.nnz(1e-7);
        let logn = (n as f64).log2();
        assert!(
            (nnz as f64) < 6.0 * 4.0 * logn,
            "nnz {nnz} not polylog for n={n} (log n = {logn})"
        );
    }

    #[test]
    fn haar_on_linear_measure_is_dense() {
        // Haar has 1 vanishing moment → a linear measure's details do NOT
        // vanish; the honest nnz is O(range length).
        let n = 1 << 10;
        let p = Polynomial::from_coeffs(vec![0.0, 1.0]);
        let lazy = lazy_transform(n, 0, n - 1, &p, &FilterKind::Haar.filter());
        let nnz = lazy.nnz(1e-7);
        assert!(nnz > n / 4, "expected dense result for Haar/linear, got {nnz}");
    }

    #[test]
    fn haar_on_count_measure_is_sparse() {
        let n = 1 << 12;
        let lazy =
            lazy_transform(n, 77, 3000, &Polynomial::constant(1.0), &FilterKind::Haar.filter());
        let nnz = lazy.nnz(1e-9);
        assert!(nnz <= 2 * 13 + 2, "Haar count query should be ~2·log n, got {nnz}");
    }

    #[test]
    fn lazy_work_is_polylogarithmic() {
        // The structural work (entries tracked) should grow ~log n for a
        // fixed-degree query under an adequate filter, not ~n.
        let p = Polynomial::from_coeffs(vec![1.0, 1.0]);
        let f = FilterKind::Db4.filter();
        let work_small = lazy_transform(1 << 10, 3, (1 << 10) - 7, &p, &f).work;
        let work_large = lazy_transform(1 << 16, 3, (1 << 16) - 7, &p, &f).work;
        // 64× more data; structural work should grow far slower. The
        // initial piece itself is Θ(range), counted once as one symbolic
        // piece... structural_size counts indices, so compare *excluding*
        // the first level via a generous factor instead.
        assert!(
            (work_large as f64) < (work_small as f64) * 8.0,
            "work grew like n: {work_small} → {work_large}"
        );
    }

    #[test]
    fn inner_product_preserved() {
        // ⟨q, x⟩ in time domain == ⟨q̂, x̂⟩ with the sparse q̂.
        let n = 256;
        let f = FilterKind::Db4.filter();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 31) as f64 * 0.3 - 4.0).collect();
        let xh = dwt_full(&x, &f);
        let (a, b) = (19, 200);
        let p = Polynomial::from_coeffs(vec![2.0, 0.1]);
        let time: f64 = (a..=b).map(|i| p.eval(i as f64) * x[i]).sum();
        let lazy = lazy_transform(n, a, b, &p, &f);
        let freq: f64 = lazy.nonzeros(0.0).iter().map(|&(i, v)| v * xh[i]).sum();
        assert!((time - freq).abs() < 1e-6 * time.abs().max(1.0), "{time} vs {freq}");
    }

    #[test]
    fn structural_size_counts_work_not_span() {
        let s = HybridSignal::range_polynomial(64, 10, 20, Polynomial::constant(1.0));
        assert_eq!(s.structural_size(), 1); // one symbolic constant piece
        assert_eq!(s.nonzeros(0.0), (10..=20).map(|i| (i, 1.0)).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn bad_range_panics() {
        HybridSignal::range_polynomial(64, 10, 5, Polynomial::constant(1.0));
    }
}
