//! Lifting kernels must agree with the convolution reference.
//!
//! The in-place kernels behind `dwt_full` / `dwt_standard_md` (see
//! `src/kernel.rs`) replace the allocating convolution steps. Their
//! contract, per filter:
//!
//! - Haar, Db6, Db8: **bit-identical** to the repeated
//!   `analysis_step`/`synthesis_step` reference (`to_bits` equality).
//! - Db4 (Daubechies–Sweldens lifting): equal up to rounding — at most
//!   one ulp of the signal scale per decomposition level.
//!
//! The tiled multidimensional driver must additionally survive degenerate
//! shapes (1×N, N×1, single-level, taps > line length), stay bit-identical
//! across pool sizes 1/2/8 and on either side of its tile width, and give
//! the same bits in place as through the copying entry points.

use proptest::prelude::*;

use aims_dsp::dwt::{
    analysis_step, dwt_full, dwt_standard_md, dwt_standard_md_inplace,
    dwt_standard_md_inplace_with, dwt_standard_md_with, idwt_full, idwt_standard_md,
    idwt_standard_md_with, synthesis_step, TILE,
};
use aims_dsp::filters::{FilterKind, WaveletFilter};
use aims_exec::ThreadPool;

/// Pre-kernel reference: per-level allocating convolution, error-tree
/// concatenation.
fn conv_full(signal: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    let mut approx = signal.to_vec();
    let mut details = Vec::new();
    while approx.len() > 1 {
        let (a, d) = analysis_step(&approx, filter);
        details.push(d);
        approx = a;
    }
    let mut out = approx;
    for d in details.into_iter().rev() {
        out.extend_from_slice(&d);
    }
    out
}

fn conv_inverse(coeffs: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    let mut approx = vec![coeffs[0]];
    let mut offset = 1;
    while offset < coeffs.len() {
        let band = &coeffs[offset..offset + approx.len()];
        approx = synthesis_step(&approx, band, filter);
        offset += band.len();
    }
    approx
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn signal_case() -> impl Strategy<Value = Vec<f64>> {
    // Power-of-two lengths 2..=4096.
    (1u32..=12).prop_flat_map(|ln| prop::collection::vec(-100.0_f64..100.0, 1usize << ln))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Filters served by the exact kernels (Haar butterfly, blocked
    /// convolution) produce the reference transform bit for bit, both
    /// directions.
    #[test]
    fn exact_kernels_bit_match_convolution(
        signal in signal_case(),
        kind in prop_oneof![
            Just(FilterKind::Haar),
            Just(FilterKind::Db6),
            Just(FilterKind::Db8),
        ],
    ) {
        let f = kind.filter();
        let fwd = dwt_full(&signal, &f);
        let reference = conv_full(&signal, &f);
        prop_assert_eq!(bits(&fwd), bits(&reference), "{} forward", f.name());
        let inv = idwt_full(&fwd, &f);
        let ref_inv = conv_inverse(&reference, &f);
        prop_assert_eq!(bits(&inv), bits(&ref_inv), "{} inverse", f.name());
    }

    /// The Db4 lifting factorization agrees with the convolution path to
    /// within one ulp of the signal scale per level, and round-trips.
    #[test]
    fn db4_lifting_within_ulp_per_level(signal in signal_case()) {
        let f = FilterKind::Db4.filter();
        let n = signal.len();
        let levels = n.trailing_zeros() as f64;
        let scale = signal.iter().fold(1e-30_f64, |m, v| m.max(v.abs()));
        let fwd = dwt_full(&signal, &f);
        let reference = conv_full(&signal, &f);
        // A handful of ulps per level, measured at each coefficient's own
        // magnitude (approx coefficients grow ~√2 per level, and each
        // level's lifting chain contributes a few rounded operations).
        for (i, (a, b)) in fwd.iter().zip(&reference).enumerate() {
            let tol = 4.0 * (levels + 1.0) * b.abs().max(scale) * f64::EPSILON;
            prop_assert!((a - b).abs() <= tol, "coeff {i}: {a} vs {b} (tol {tol:e})");
        }
        let back = idwt_full(&fwd, &f);
        for (i, (a, b)) in back.iter().zip(&signal).enumerate() {
            let tol = 8.0 * (levels + 1.0) * b.abs().max(scale) * f64::EPSILON;
            prop_assert!((a - b).abs() <= tol, "sample {i}: {a} vs {b} (tol {tol:e})");
        }
    }

    /// Every filter's full transform, via the kernels, still inverts —
    /// across pool sizes 1/2/8 on the multidimensional path.
    #[test]
    fn md_kernels_bit_identical_and_invertible_across_pools(
        data in prop::collection::vec(-50.0_f64..50.0, 256),
        kind in prop_oneof![
            Just(FilterKind::Haar),
            Just(FilterKind::Db4),
            Just(FilterKind::Db6),
            Just(FilterKind::Db8),
        ],
    ) {
        let f = kind.filter();
        let dims = [16usize, 16];
        let serial = ThreadPool::new(1);
        let fwd1 = dwt_standard_md_with(&serial, &data, &dims, &f);
        for threads in [2usize, 8] {
            let pool = ThreadPool::new(threads);
            let fwd = dwt_standard_md_with(&pool, &data, &dims, &f);
            prop_assert_eq!(bits(&fwd), bits(&fwd1), "threads={}", threads);
        }
    }
}

/// Degenerate shapes for the tiled MD driver: trivial axes, lines shorter
/// than the filter, single-level shapes.
const DEGENERATE_SHAPES: &[&[usize]] = &[
    &[1, 64],   // 1×N: first axis is identity
    &[64, 1],   // N×1: second axis is identity
    &[2, 2],    // single-level lines shorter than db8's 8 taps
    &[2, 2, 2], // 3-D, every line wraps multiple times for db6/db8
    &[1, 1],    // all-identity
    &[4, 2, 8], // mixed tiny axes
    &[256, 2],  // long stride-1 axis, minimal strided axis
    &[2, 256],  // minimal stride-1 axis, long strided axis
];

/// Every degenerate shape must round-trip and match across pool sizes.
#[test]
fn tiled_md_degenerate_shapes() {
    for kind in FilterKind::ALL {
        let f = kind.filter();
        for &dims in DEGENERATE_SHAPES {
            let total: usize = dims.iter().product();
            let data: Vec<f64> = (0..total).map(|i| ((i * 37 + 11) % 29) as f64 - 14.0).collect();
            let serial = ThreadPool::new(1);
            let fwd1 = dwt_standard_md_with(&serial, &data, dims, &f);
            let inv1 = aims_dsp::dwt::idwt_standard_md_with(&serial, &fwd1, dims, &f);
            for (a, b) in inv1.iter().zip(&data) {
                assert!((a - b).abs() < 1e-9, "{} {dims:?}: roundtrip {a} vs {b}", f.name());
            }
            for threads in [2usize, 8] {
                let pool = ThreadPool::new(threads);
                let fwd = dwt_standard_md_with(&pool, &data, dims, &f);
                assert_eq!(bits(&fwd), bits(&fwd1), "{} {dims:?} threads={threads}", f.name());
            }
        }
    }
}

/// The tiled strided pass must equal transforming every line with
/// `dwt_full` by hand, bit for bit — at widths that force full tiles,
/// partial tiles, and stride < tile.
#[test]
fn tiled_pass_bit_matches_per_line_reference() {
    let serial = ThreadPool::new(1);
    // cols is the stride of the first axis: exercise clamped tiles (below
    // TILE), exactly one tile (equal), and several full tiles (above).
    let widths = [2usize, 4, 8, 16, 32, 64, 128];
    assert!(widths.iter().any(|&c| c < TILE), "no width below TILE = {TILE}");
    assert!(widths.contains(&TILE), "no width equal to TILE = {TILE}");
    assert!(widths.iter().any(|&c| c > TILE), "no width above TILE = {TILE}");
    for kind in FilterKind::ALL {
        let f = kind.filter();
        for &cols in &widths {
            let rows = 16usize;
            let data: Vec<f64> =
                (0..rows * cols).map(|i| ((i * 53 + 7) % 41) as f64 * 0.5 - 10.0).collect();
            let fwd = dwt_standard_md_with(&serial, &data, &[rows, cols], &f);
            // Manual reference: columns first (axis 0), then rows (axis 1).
            let mut reference = data.clone();
            for c in 0..cols {
                let col: Vec<f64> = (0..rows).map(|r| reference[r * cols + c]).collect();
                for (r, v) in dwt_full(&col, &f).into_iter().enumerate() {
                    reference[r * cols + c] = v;
                }
            }
            for r in 0..rows {
                let row = dwt_full(&reference[r * cols..(r + 1) * cols], &f);
                reference[r * cols..(r + 1) * cols].copy_from_slice(&row);
            }
            assert_eq!(bits(&fwd), bits(&reference), "{} rows={rows} cols={cols}", f.name());
        }
    }
}

/// The in-place forward transform is the copying one, bit for bit, on
/// every pool size and every degenerate shape; and the copying inverse of
/// either gives back the same bits.
#[test]
fn in_place_md_transform_bit_matches_the_copying_one() {
    // 128×128 is above PAR_THRESHOLD, so the pooled runs fan out.
    let shapes = DEGENERATE_SHAPES.iter().copied().chain([&[128usize, 128][..]]);
    for kind in FilterKind::ALL {
        let f = kind.filter();
        for dims in shapes.clone() {
            let total: usize = dims.iter().product();
            let data: Vec<f64> = (0..total).map(|i| ((i * 37 + 11) % 29) as f64 - 14.0).collect();
            let copied = dwt_standard_md(&data, dims, &f);
            let mut global = data.clone();
            dwt_standard_md_inplace(&mut global, dims, &f);
            assert_eq!(bits(&global), bits(&copied), "{} {dims:?} global pool", f.name());
            let inverse = idwt_standard_md(&copied, dims, &f);
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                let mut buf = data.clone();
                dwt_standard_md_inplace_with(&pool, &mut buf, dims, &f);
                let ctx = format!("{} {dims:?} threads={threads}", f.name());
                assert_eq!(bits(&buf), bits(&copied), "{ctx} forward");
                let back = idwt_standard_md_with(&pool, &buf, dims, &f);
                assert_eq!(bits(&back), bits(&inverse), "{ctx} inverse");
            }
        }
    }
}
