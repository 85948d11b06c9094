//! Periodic orthogonal discrete wavelet transform.
//!
//! AIMS stores immersidata in the wavelet domain (paper §3.1.1) and the
//! storage subsystem (§3.2.1) reasons about the flat *error tree* layout of
//! a fully-decomposed signal. This module provides:
//!
//! - single analysis/synthesis steps with periodic boundary handling,
//! - multi-level decompositions ([`WaveletDecomposition`]),
//! - the flat full transform [`dwt_full`] with the canonical error-tree
//!   coefficient ordering `[a_J | d_J | d_{J−1} | … | d_1]`, and
//! - tensor-product ("standard") multidimensional transforms used by
//!   ProPolyne data cubes (§3.3).
//!
//! All transforms here are orthonormal: they preserve energy exactly and
//! their inverses are their adjoints.

use aims_exec::{global_pool, SharedSlice, ThreadPool};

use crate::filters::WaveletFilter;
use crate::kernel::{self, DwtScratch};

/// Returns `true` if `n` is a power of two (and nonzero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `≥ n` (with `next_pow2(0) == 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Pads a signal with zeros up to the next power of two.
pub fn pad_to_pow2(signal: &[f64]) -> Vec<f64> {
    let mut v = signal.to_vec();
    v.resize(next_pow2(signal.len()), 0.0);
    v
}

/// One analysis step with periodic extension: splits `signal` (even length)
/// into `(approx, detail)` halves.
///
/// # Panics
/// If the signal length is zero or odd.
pub fn analysis_step(signal: &[f64], filter: &WaveletFilter) -> (Vec<f64>, Vec<f64>) {
    let n = signal.len();
    assert!(n >= 2 && n.is_multiple_of(2), "analysis step needs even length ≥ 2, got {n}");
    let mut approx = vec![0.0; n / 2];
    let mut detail = vec![0.0; n / 2];
    kernel::conv_analysis(signal, filter, &mut approx, &mut detail);
    (approx, detail)
}

/// One synthesis step (adjoint of [`analysis_step`]): reconstructs the
/// even-length signal from its approximation and detail halves.
///
/// # Panics
/// If the halves differ in length or are empty.
pub fn synthesis_step(approx: &[f64], detail: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    assert_eq!(approx.len(), detail.len(), "approx/detail length mismatch");
    assert!(!approx.is_empty(), "cannot synthesize from empty halves");
    let mut out = vec![0.0; 2 * approx.len()];
    kernel::conv_synthesis(approx, detail, filter, &mut out);
    out
}

/// A multi-level wavelet decomposition.
///
/// `details[0]` is the *coarsest* detail band; `details.last()` the finest.
#[derive(Clone, Debug, PartialEq)]
pub struct WaveletDecomposition {
    /// Final (coarsest) approximation coefficients.
    pub approx: Vec<f64>,
    /// Detail bands, coarsest first.
    pub details: Vec<Vec<f64>>,
    /// Filter used, so reconstruction cannot mismatch.
    pub filter: WaveletFilter,
}

impl WaveletDecomposition {
    /// Decomposes `signal` through `levels` analysis steps.
    ///
    /// # Panics
    /// If the signal length is not divisible by `2^levels` or is zero.
    pub fn decompose(signal: &[f64], filter: &WaveletFilter, levels: usize) -> Self {
        Self::decompose_with(signal, filter, levels, &mut DwtScratch::new())
    }

    /// [`WaveletDecomposition::decompose`] reusing a caller-owned scratch
    /// arena, so repeated decompositions (one per line, per window, …)
    /// allocate nothing beyond the output bands.
    pub fn decompose_with(
        signal: &[f64],
        filter: &WaveletFilter,
        levels: usize,
        scratch: &mut DwtScratch,
    ) -> Self {
        assert!(!signal.is_empty(), "cannot decompose an empty signal");
        assert!(
            levels == 0 || signal.len().is_multiple_of(1 << levels),
            "signal length {} not divisible by 2^{levels}",
            signal.len()
        );
        let choice = kernel::resolve(filter);
        let mut work = signal.to_vec();
        let mut details_fine_first = Vec::with_capacity(levels);
        let mut len = work.len();
        for _ in 0..levels {
            kernel::analysis_level_with(&mut work[..len], filter, choice, scratch);
            details_fine_first.push(work[len / 2..len].to_vec());
            len /= 2;
        }
        work.truncate(len);
        details_fine_first.reverse();
        WaveletDecomposition { approx: work, details: details_fine_first, filter: filter.clone() }
    }

    /// Number of analysis levels applied.
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Length of the original signal.
    pub fn signal_len(&self) -> usize {
        self.approx.len() << self.details.len()
    }

    /// Inverse transform back to the original signal.
    pub fn reconstruct(&self) -> Vec<f64> {
        self.reconstruct_with(&mut DwtScratch::new())
    }

    /// [`WaveletDecomposition::reconstruct`] reusing a caller-owned
    /// scratch arena.
    pub fn reconstruct_with(&self, scratch: &mut DwtScratch) -> Vec<f64> {
        let choice = kernel::resolve(&self.filter);
        let mut work = Vec::with_capacity(self.signal_len());
        work.extend_from_slice(&self.approx);
        for d in &self.details {
            work.extend_from_slice(d);
        }
        let mut len = self.approx.len();
        for _ in 0..self.details.len() {
            kernel::synthesis_level_with(&mut work[..2 * len], &self.filter, choice, scratch);
            len *= 2;
        }
        work
    }

    /// Total energy across all coefficients (Parseval: equals the signal
    /// energy for these orthonormal filters).
    pub fn energy(&self) -> f64 {
        let a: f64 = self.approx.iter().map(|x| x * x).sum();
        let d: f64 = self.details.iter().flatten().map(|x| x * x).sum();
        a + d
    }

    /// Zeroes all but the `k` largest-magnitude coefficients (approximation
    /// coefficients included), returning how many were kept. This is the
    /// wavelet-synopsis primitive used by data-approximation baselines.
    pub fn keep_top_k(&mut self, k: usize) -> usize {
        let mut mags: Vec<f64> =
            self.approx.iter().chain(self.details.iter().flatten()).map(|x| x.abs()).collect();
        let total = mags.len();
        if k >= total {
            return total;
        }
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let threshold = mags[k.saturating_sub(1).min(total - 1)];
        let mut kept = 0;
        let mut clamp = |x: &mut f64| {
            if x.abs() >= threshold && kept < k {
                kept += 1;
            } else {
                *x = 0.0;
            }
        };
        for x in &mut self.approx {
            clamp(x);
        }
        for d in &mut self.details {
            for x in d {
                clamp(x);
            }
        }
        kept
    }
}

/// Full flat transform of a power-of-two signal, in error-tree order.
///
/// ```
/// use aims_dsp::dwt::{dwt_full, idwt_full};
/// use aims_dsp::filters::WaveletFilter;
///
/// let signal = vec![4.0, 6.0, 10.0, 12.0];
/// let f = WaveletFilter::haar();
/// let coeffs = dwt_full(&signal, &f);
/// // The root coefficient carries the (scaled) total: Σx/√N.
/// assert!((coeffs[0] - 32.0 / 2.0).abs() < 1e-12);
/// assert_eq!(idwt_full(&coeffs, &f).len(), 4);
/// ```
///
/// Layout:
/// output index 0 holds the single final approximation coefficient, index 1
/// the coarsest detail, indices `2..4` the next band, …, the top half the
/// finest band.
///
/// This layout makes the Haar dependency structure explicit: the wavelet
/// coefficient at flat index `i ≥ 1` has children at `2i` and `2i + 1`, and
/// reconstructing any data value touches exactly one node per level — the
/// access pattern the storage subsystem (§3.2.1) exploits.
///
/// # Panics
/// If `signal.len()` is not a power of two.
pub fn dwt_full(signal: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    let mut buf = signal.to_vec();
    dwt_full_inplace(&mut buf, filter, &mut DwtScratch::new());
    buf
}

/// [`dwt_full`] in place: rewrites `buf` into its error-tree coefficients
/// using a caller-owned scratch arena — no allocations on the hot path.
///
/// # Panics
/// If `buf.len()` is not a power of two.
pub fn dwt_full_inplace(buf: &mut [f64], filter: &WaveletFilter, scratch: &mut DwtScratch) {
    let _span = aims_telemetry::span!("dsp.dwt.forward");
    kernel::dwt_line(buf, filter, scratch);
}

/// Inverse of [`dwt_full`].
///
/// # Panics
/// If `coeffs.len()` is not a power of two.
pub fn idwt_full(coeffs: &[f64], filter: &WaveletFilter) -> Vec<f64> {
    let mut buf = coeffs.to_vec();
    idwt_full_inplace(&mut buf, filter, &mut DwtScratch::new());
    buf
}

/// [`idwt_full`] in place, with a caller-owned scratch arena.
///
/// # Panics
/// If `buf.len()` is not a power of two.
pub fn idwt_full_inplace(buf: &mut [f64], filter: &WaveletFilter, scratch: &mut DwtScratch) {
    let _span = aims_telemetry::span!("dsp.dwt.inverse");
    kernel::idwt_line(buf, filter, scratch);
}

/// The decomposition level of flat index `i` in the [`dwt_full`] layout of a
/// length-`n` transform. Level `0` is the approximation root; level `l ≥ 1`
/// counts detail bands from coarsest (`1`) to finest (`log2 n`).
pub fn flat_index_level(i: usize, n: usize) -> usize {
    assert!(is_power_of_two(n) && i < n);
    if i == 0 {
        0
    } else {
        (usize::BITS - 1 - i.leading_zeros()) as usize + 1
    }
}

/// Lines a tiled strided axis pass gathers into one contiguous scratch
/// tile (see [`dwt_standard_md`]). The tile never changes which arithmetic
/// runs on a line, only the memory walk; 8, 16 and 32 time the same within
/// noise on 256² and 1024² Db4 cubes (DESIGN.md, "Kernels").
pub const TILE: usize = 8;

/// Cube size (elements) below which a multidimensional transform runs
/// inline on the caller instead of fanning out: a 64×64 transform measures
/// slower pooled than serial, 128×128 is roughly break-even on 4 cores.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Standard (tensor-product) multidimensional wavelet transform: applies the
/// full 1-D transform along every axis of a row-major array with the given
/// power-of-two dimensions. This is the transform ProPolyne assumes for its
/// multivariate range sums.
///
/// Runs on the process-wide [`aims_exec`] pool; see
/// [`dwt_standard_md_with`] to supply an explicit pool and
/// [`dwt_standard_md_inplace`] to transform a buffer without copying it.
///
/// # Panics
/// If `data.len() != dims.iter().product()` or any dimension is not a power
/// of two.
pub fn dwt_standard_md(data: &[f64], dims: &[usize], filter: &WaveletFilter) -> Vec<f64> {
    dwt_standard_md_with(global_pool(), data, dims, filter)
}

/// Inverse of [`dwt_standard_md`].
pub fn idwt_standard_md(coeffs: &[f64], dims: &[usize], filter: &WaveletFilter) -> Vec<f64> {
    idwt_standard_md_with(global_pool(), coeffs, dims, filter)
}

/// [`dwt_standard_md`] on an explicit thread pool. Every 1-D line is
/// transformed by exactly one task, so the result is bit-identical for
/// every pool size.
pub fn dwt_standard_md_with(
    pool: &ThreadPool,
    data: &[f64],
    dims: &[usize],
    filter: &WaveletFilter,
) -> Vec<f64> {
    let mut buf = data.to_vec();
    dwt_standard_md_inplace_with(pool, &mut buf, dims, filter);
    buf
}

/// [`idwt_standard_md`] on an explicit thread pool.
pub fn idwt_standard_md_with(
    pool: &ThreadPool,
    coeffs: &[f64],
    dims: &[usize],
    filter: &WaveletFilter,
) -> Vec<f64> {
    let _span = aims_telemetry::span!("dsp.dwt.md.inverse");
    let mut buf = coeffs.to_vec();
    transform_md(pool, &mut buf, dims, filter, false);
    buf
}

/// [`dwt_standard_md`] in place: rewrites `buf` into its coefficients, so
/// the cube and its transform never occupy memory at the same time.
///
/// # Panics
/// As [`dwt_standard_md`].
pub fn dwt_standard_md_inplace(buf: &mut [f64], dims: &[usize], filter: &WaveletFilter) {
    dwt_standard_md_inplace_with(global_pool(), buf, dims, filter);
}

/// [`dwt_standard_md_inplace`] on an explicit thread pool.
pub fn dwt_standard_md_inplace_with(
    pool: &ThreadPool,
    buf: &mut [f64],
    dims: &[usize],
    filter: &WaveletFilter,
) {
    let _span = aims_telemetry::span!("dsp.dwt.md.forward");
    transform_md(pool, buf, dims, filter, true);
}

/// The forward transform along one axis of a row-major array: every 1-D
/// line of `buf` that runs along `axis` (`dims.iter().product() / dims[axis]`
/// of them) gets the full [`dwt_full`] transform in place. The
/// multidimensional transforms are this pass applied to axis 0, then axis
/// 1, and so on; a caller that holds only part of an array at a time can
/// apply the passes itself. A column tile of a `side`² cube is a
/// `[side, w]` array given the axis-0 pass, and a row batch is an
/// `[r, side]` array given the axis-1 pass. Each line runs the same kernel
/// as it would in the whole-array transform, so the bits are the same.
///
/// # Panics
/// If `axis` is out of range, `buf.len() != dims.iter().product()` or any
/// dimension is not a power of two.
pub fn dwt_axis_inplace(
    pool: &ThreadPool,
    buf: &mut [f64],
    dims: &[usize],
    axis: usize,
    filter: &WaveletFilter,
) {
    axis_pass(pool, buf, dims, axis, filter, true);
}

/// Axis-by-axis driver: one [`axis_pass`] per axis, in axis order, for
/// the forward and the inverse transform alike (a barrier between axes
/// is implied by the scoped pool API).
fn transform_md(
    pool: &ThreadPool,
    buf: &mut [f64],
    dims: &[usize],
    filter: &WaveletFilter,
    forward: bool,
) {
    assert_eq!(buf.len(), dims.iter().product::<usize>(), "data length does not match dims");
    for axis in 0..dims.len() {
        axis_pass(pool, buf, dims, axis, filter, forward);
    }
}

/// One axis of [`transform_md`]: transforms the `total / len` independent
/// 1-D lines of `buf` along `axis` in place.
///
/// Two regimes, both allocation-free on the per-line path:
///
/// - **`stride == 1`** (the innermost axis): lines are already contiguous
///   slices of the buffer, so each task transforms them directly through
///   [`SharedSlice::slice_mut`] — no gather at all.
/// - **`stride > 1`**: the classic strided gather touches one cache line
///   per element. Instead, a *tile* of [`TILE`] adjacent lines is
///   transposed into a contiguous scratch block — adjacent lines have
///   bases differing by 1, so every gather/scatter step moves a contiguous
///   `TILE`-run — the now-contiguous lines are transformed, and the tile
///   is scattered back.
///
/// Arrays below [`PAR_THRESHOLD`] elements run inline on the caller, so
/// small cubes never pay fan-out (the old "0.67× speedup" failure). Tile
/// size, threshold, and pool size never affect which arithmetic runs on a
/// line, so results are bit-identical across all of them.
fn axis_pass(
    pool: &ThreadPool,
    buf: &mut [f64],
    dims: &[usize],
    axis: usize,
    filter: &WaveletFilter,
    forward: bool,
) {
    let total: usize = dims.iter().product();
    assert_eq!(buf.len(), total, "data length does not match dims");
    for &d in dims {
        assert!(is_power_of_two(d), "dimension {d} is not a power of two");
    }
    let len = dims[axis];
    if len < 2 {
        return; // length-1 lines transform to themselves
    }
    // Row-major: the axis's stride is the product of the dims after it.
    let stride: usize = dims[axis + 1..].iter().product();
    let line = |slice: &mut [f64], scratch: &mut DwtScratch| {
        if forward {
            kernel::dwt_line(slice, filter, scratch);
        } else {
            kernel::idwt_line(slice, filter, scratch);
        }
    };
    let serial = pool.is_serial() || total < PAR_THRESHOLD;
    let lines = total / len;
    // Distinct lines (and distinct tiles) cover disjoint index sets, so
    // concurrent access through the shared view is race-free.
    let view = SharedSlice::new(buf);
    let view = &view;
    let line = &line;
    if stride == 1 {
        let run = |range: std::ops::Range<usize>| {
            let mut scratch = DwtScratch::new();
            for l in range {
                // SAFETY: line l exclusively owns [l·len, (l+1)·len).
                let s = unsafe { view.slice_mut(l * len, len) };
                line(s, &mut scratch);
            }
        };
        if serial {
            run(0..lines);
        } else {
            pool.par_chunks(lines, (4096 / len).max(1), run);
        }
    } else {
        let tile = TILE.min(stride);
        let blocks_per_outer = stride.div_ceil(tile);
        let n_outer = total / (stride * len);
        let n_tiles = n_outer * blocks_per_outer;
        let run = |range: std::ops::Range<usize>| {
            let mut scratch = DwtScratch::new();
            let mut tile_buf = vec![0.0f64; tile * len];
            for t_id in range {
                let outer = t_id / blocks_per_outer;
                let i0 = (t_id % blocks_per_outer) * tile;
                let t = tile.min(stride - i0);
                let base = outer * stride * len + i0;
                for j in 0..len {
                    let src = base + j * stride;
                    for ti in 0..t {
                        // SAFETY: tile (outer, i0..i0+t) owns indices
                        // base + j·stride + ti exclusively.
                        tile_buf[ti * len + j] = unsafe { view.read(src + ti) };
                    }
                }
                for ti in 0..t {
                    line(&mut tile_buf[ti * len..(ti + 1) * len], &mut scratch);
                }
                for j in 0..len {
                    let dst = base + j * stride;
                    for ti in 0..t {
                        // SAFETY: same disjoint index set as the gather.
                        unsafe { view.write(dst + ti, tile_buf[ti * len + j]) };
                    }
                }
            }
        };
        if serial {
            run(0..n_tiles);
        } else {
            let min_tiles = (4096 / (tile * len)).max(1);
            pool.par_chunks(n_tiles, min_tiles, run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::FilterKind;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    fn energy(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum()
    }

    #[test]
    fn haar_analysis_known_values() {
        let f = WaveletFilter::haar();
        let (a, d) = analysis_step(&[1.0, 3.0, 5.0, 7.0], &f);
        let s = std::f64::consts::SQRT_2;
        // Haar: a[k] = (x₂ₖ + x₂ₖ₊₁)/√2, d[k] = (x₂ₖ − x₂ₖ₊₁)/√2
        assert!((a[0] - 4.0 / s).abs() < 1e-12);
        assert!((a[1] - 12.0 / s).abs() < 1e-12);
        assert!((d[0] - (-2.0) / s).abs() < 1e-12);
        assert!((d[1] - (-2.0) / s).abs() < 1e-12);
    }

    #[test]
    fn perfect_reconstruction_one_step_all_filters() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        for kind in FilterKind::ALL {
            let f = kind.filter();
            let (a, d) = analysis_step(&x, &f);
            let y = synthesis_step(&a, &d, &f);
            for (xi, yi) in x.iter().zip(&y) {
                assert!((xi - yi).abs() < 1e-10, "{}: {xi} vs {yi}", f.name());
            }
        }
    }

    /// The synthesis step scatters exactly what a `% n` on every tap
    /// would, bit for bit — including the short levels where the filter
    /// is longer than the signal and the window wraps more than once.
    #[test]
    fn synthesis_step_bit_matches_the_fully_wrapped_scatter() {
        for kind in FilterKind::ALL {
            let f = kind.filter();
            for n in [2usize, 4, 8, 16, 64] {
                let a: Vec<f64> =
                    (0..n / 2).map(|i| ((i * 7 + 3) % 13) as f64 / 3.0 - 2.0).collect();
                let d: Vec<f64> =
                    (0..n / 2).map(|i| ((i * 5 + 1) % 11) as f64 / 7.0 - 0.5).collect();
                let mut want = vec![0.0; n];
                for k in 0..n / 2 {
                    for (m, (&hm, &gm)) in f.lowpass().iter().zip(f.highpass()).enumerate() {
                        want[(2 * k + m) % n] += hm * a[k] + gm * d[k];
                    }
                }
                let got = synthesis_step(&a, &d, &f);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} at n = {n}", f.name());
            }
        }
    }

    #[test]
    fn energy_preservation_one_step() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 2.0).collect();
        for kind in FilterKind::ALL {
            let f = kind.filter();
            let (a, d) = analysis_step(&x, &f);
            let e = energy(&a) + energy(&d);
            assert!((e - energy(&x)).abs() < 1e-9, "{}", f.name());
        }
    }

    #[test]
    fn multilevel_roundtrip_and_energy() {
        let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.1).cos() + 0.01 * i as f64).collect();
        for kind in FilterKind::ALL {
            let f = kind.filter();
            let dec = WaveletDecomposition::decompose(&x, &f, 5);
            assert_eq!(dec.levels(), 5);
            assert_eq!(dec.signal_len(), 128);
            assert!((dec.energy() - energy(&x)).abs() < 1e-7, "{}", f.name());
            let y = dec.reconstruct();
            for (xi, yi) in x.iter().zip(&y) {
                assert!((xi - yi).abs() < 1e-9, "{}", f.name());
            }
        }
    }

    #[test]
    fn dwt_full_roundtrip() {
        let x: Vec<f64> = (0..256).map(|i| ((i * i) % 17) as f64 * 0.5 - 4.0).collect();
        for kind in FilterKind::ALL {
            let f = kind.filter();
            let c = dwt_full(&x, &f);
            assert_eq!(c.len(), x.len());
            let y = idwt_full(&c, &f);
            for (xi, yi) in x.iter().zip(&y) {
                assert!((xi - yi).abs() < 1e-9, "{}", f.name());
            }
        }
    }

    #[test]
    fn dwt_full_constant_signal_concentrates_at_root() {
        let f = WaveletFilter::haar();
        let x = vec![5.0; 16];
        let c = dwt_full(&x, &f);
        // All energy at the approximation coefficient.
        assert!((c[0] - 5.0 * 4.0).abs() < 1e-10); // 5·√16
        for &d in &c[1..] {
            assert!(d.abs() < 1e-10);
        }
    }

    #[test]
    fn flat_index_level_mapping() {
        assert_eq!(flat_index_level(0, 16), 0);
        assert_eq!(flat_index_level(1, 16), 1);
        assert_eq!(flat_index_level(2, 16), 2);
        assert_eq!(flat_index_level(3, 16), 2);
        assert_eq!(flat_index_level(4, 16), 3);
        assert_eq!(flat_index_level(7, 16), 3);
        assert_eq!(flat_index_level(8, 16), 4);
        assert_eq!(flat_index_level(15, 16), 4);
    }

    #[test]
    fn keep_top_k_preserves_largest() {
        let f = WaveletFilter::haar();
        let x: Vec<f64> = (0..32).map(|i| if i == 5 { 100.0 } else { 1.0 }).collect();
        let mut dec = WaveletDecomposition::decompose(&x, &f, 5);
        let kept = dec.keep_top_k(4);
        assert_eq!(kept, 4);
        let approx_x = dec.reconstruct();
        // The spike region should still be roughly represented.
        let err = energy(&x.iter().zip(&approx_x).map(|(a, b)| a - b).collect::<Vec<_>>());
        assert!(err < energy(&x) * 0.5, "top-k synopsis lost too much energy: {err}");
        // keep_top_k with k >= total keeps everything.
        let mut dec2 = WaveletDecomposition::decompose(&x, &f, 5);
        assert_eq!(dec2.keep_top_k(1000), 32);
    }

    #[test]
    fn md_transform_roundtrip_2d() {
        let dims = [8, 16];
        let data: Vec<f64> = (0..128).map(|i| ((i * 31) % 23) as f64 - 11.0).collect();
        for kind in [FilterKind::Haar, FilterKind::Db4] {
            let f = kind.filter();
            let c = dwt_standard_md(&data, &dims, &f);
            let y = idwt_standard_md(&c, &dims, &f);
            for (a, b) in data.iter().zip(&y) {
                assert!((a - b).abs() < 1e-9, "{}", f.name());
            }
            assert!((energy(&c) - energy(&data)).abs() < 1e-8);
        }
    }

    /// The 2-D transform run a piece at a time: the axis-0 pass on column
    /// tiles, then the axis-1 pass on row batches, gives the whole-array
    /// transform's bits for every filter, also with tiles narrower than
    /// `TILE` and on a pool.
    #[test]
    fn axis_passes_on_tiles_and_batches_are_the_md_transform() {
        let (rows, cols) = (32usize, 16usize);
        let data: Vec<f64> = (0..rows * cols).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let pool = ThreadPool::new(2);
        for kind in FilterKind::ALL {
            let f = kind.filter();
            let whole = dwt_standard_md(&data, &[rows, cols], &f);
            for (w, r) in [(4usize, 8usize), (16, 32), (1, 1)] {
                let mut pieces = data.clone();
                for j0 in (0..cols).step_by(w) {
                    let mut tile: Vec<f64> =
                        (0..rows).flat_map(|i| data[i * cols + j0..][..w].to_vec()).collect();
                    dwt_axis_inplace(&pool, &mut tile, &[rows, w], 0, &f);
                    for (i, line) in tile.chunks_exact(w).enumerate() {
                        pieces[i * cols + j0..][..w].copy_from_slice(line);
                    }
                }
                for batch in pieces.chunks_exact_mut(r * cols) {
                    dwt_axis_inplace(&pool, batch, &[r, cols], 1, &f);
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&pieces), bits(&whole), "{} w={w} r={r}", f.name());
            }
        }
    }

    #[test]
    fn md_transform_roundtrip_3d() {
        let dims = [4, 8, 4];
        let data: Vec<f64> = (0..128).map(|i| (i as f64 * 0.7).sin()).collect();
        let f = WaveletFilter::db4();
        let c = dwt_standard_md(&data, &dims, &f);
        let y = idwt_standard_md(&c, &dims, &f);
        for (a, b) in data.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn md_matches_tensor_of_1d_on_separable_input() {
        // data[i][j] = u[i]·v[j] ⇒ coeffs[i][j] = û[i]·v̂[j].
        let u: Vec<f64> = (0..8).map(|i| (i as f64 - 3.0) * 0.5).collect();
        let v: Vec<f64> = (0..4).map(|i| 1.0 + i as f64).collect();
        let f = WaveletFilter::haar();
        let data: Vec<f64> = u.iter().flat_map(|&a| v.iter().map(move |&b| a * b)).collect();
        let c = dwt_standard_md(&data, &[8, 4], &f);
        let cu = dwt_full(&u, &f);
        let cv = dwt_full(&v, &f);
        for i in 0..8 {
            for j in 0..4 {
                assert!((c[i * 4 + j] - cu[i] * cv[j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn pad_helpers() {
        assert!(
            is_power_of_two(1)
                && is_power_of_two(64)
                && !is_power_of_two(0)
                && !is_power_of_two(12)
        );
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(17), 32);
        let p = pad_to_pow2(&ramp(5));
        assert_eq!(p.len(), 8);
        assert_eq!(&p[..5], &ramp(5)[..]);
        assert_eq!(&p[5..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn dwt_full_rejects_non_pow2() {
        dwt_full(&ramp(12), &WaveletFilter::haar());
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn analysis_rejects_odd() {
        analysis_step(&ramp(5), &WaveletFilter::haar());
    }

    #[test]
    fn decompose_zero_levels_is_identity() {
        let x = ramp(10);
        let dec = WaveletDecomposition::decompose(&x, &WaveletFilter::haar(), 0);
        assert_eq!(dec.reconstruct(), x);
        assert_eq!(dec.levels(), 0);
    }
}
