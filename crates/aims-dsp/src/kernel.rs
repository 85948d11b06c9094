//! In-place single-core DWT kernels (lifting + blocked convolution).
//!
//! The original transform path allocated a fresh `(approx, detail)` pair
//! per level per line ([`crate::dwt::analysis_step`]) — fine as a
//! reference, but on the hot multidimensional path every 1-D line of a
//! 1024² cube paid ~20 allocations. The kernels here transform one line
//! **in place** in the flat error-tree order of [`crate::dwt::dwt_full`]
//! (`[a_J | d_J | … | d_1]`): a level that rewrites `buf[..len]` into its
//! `[approx | detail]` halves leaves the detail band exactly at its final
//! flat position, so the whole multi-level transform needs one buffer and
//! one scratch arena.
//!
//! Per-filter strategy:
//!
//! - **Haar** — the lifting factorization (`d = x₀ − x₁`,
//!   `a = x₁ + d/2`) collapses, after normalization, into the scaled
//!   butterfly `a = s·x₀ + s·x₁`, `d = s·x₀ − s·x₁` with `s = 1/√2`. We
//!   implement that form because it is *bit-identical* to the convolution
//!   path (same multiplies, same addition order) — every Haar consumer in
//!   the workspace (storage error trees, stream synopses) sees unchanged
//!   coefficients.
//! - **Db4** — the Daubechies–Sweldens lifting factorization: with
//!   `√3`-predict, two dual-lifting steps and a final scaling it spends 5
//!   multiplies per input pair where the convolution spends 8. The output
//!   equals the periodic convolution transform exactly in real arithmetic;
//!   in floats it differs by rounding only, bounded by the
//!   ulps-per-level property test in `tests/lifting_equivalence.rs`.
//! - **Db6/Db8** — in-place blocked convolution with the same wrap-free
//!   fast path and branchless wrapped tail as `analysis_step`, and
//!   bit-identical output to it.
//!
//! All kernels are scratch-arena based: [`DwtScratch`] is created once per
//! worker and reused for every line and level, with the
//! `dsp.kernel.scratch_reuse` counter recording each avoided allocation.

use aims_telemetry::counter;

use crate::dwt::is_power_of_two;
use crate::filters::WaveletFilter;

/// Reusable scratch arena for the in-place kernels.
///
/// One instance per worker: `DwtScratch::ensure` hands out the backing
/// buffer, growing it only when a larger transform arrives. Every call
/// that *reuses* the existing allocation bumps `dsp.kernel.scratch_reuse`.
#[derive(Default)]
pub struct DwtScratch {
    buf: Vec<f64>,
}

impl DwtScratch {
    /// Creates an empty arena (no allocation until first use).
    pub fn new() -> Self {
        DwtScratch { buf: Vec::new() }
    }

    /// Returns a scratch slice of at least `n` elements, reusing the
    /// existing allocation when it is already large enough.
    fn ensure(&mut self, n: usize) -> &mut [f64] {
        if self.buf.len() >= n {
            counter!("dsp.kernel.scratch_reuse").inc();
        } else {
            self.buf.resize(n, 0.0);
        }
        &mut self.buf[..n]
    }
}

/// Which in-place kernel serves a filter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Haar,
    Db4Lifting,
    Conv,
}

fn kernel_for(filter: &WaveletFilter) -> Kernel {
    match filter.name() {
        "haar" => Kernel::Haar,
        "db4" => Kernel::Db4Lifting,
        _ => Kernel::Conv,
    }
}

/// Human-readable name of the kernel that serves `filter`, for
/// diagnostics (`aims-cli kernels`).
pub fn kernel_name(filter: &WaveletFilter) -> &'static str {
    match kernel_for(filter) {
        Kernel::Haar => "haar butterfly (in-place, exact)",
        Kernel::Db4Lifting => "daubechies-sweldens lifting (in-place, ulp-bounded)",
        Kernel::Conv => "blocked convolution (scratch-staged, exact)",
    }
}

/// Full in-place forward transform of a power-of-two line into the
/// error-tree layout `[a_J | d_J | … | d_1]` (same output as
/// [`crate::dwt::dwt_full`], without the allocation per level).
///
/// # Panics
/// If `buf.len()` is not a power of two.
pub fn dwt_line(buf: &mut [f64], filter: &WaveletFilter, scratch: &mut DwtScratch) {
    let n = buf.len();
    assert!(is_power_of_two(n), "dwt_line requires a power-of-two length, got {n}");
    if n < 2 {
        return;
    }
    let kernel = kernel_for(filter);
    let s = scratch.ensure(n);
    let mut len = n;
    while len >= 2 {
        analysis_level(&mut buf[..len], filter, kernel, s);
        len /= 2;
    }
}

/// Full in-place inverse of [`dwt_line`].
///
/// # Panics
/// If `buf.len()` is not a power of two.
pub fn idwt_line(buf: &mut [f64], filter: &WaveletFilter, scratch: &mut DwtScratch) {
    let n = buf.len();
    assert!(is_power_of_two(n), "idwt_line requires a power-of-two length, got {n}");
    if n < 2 {
        return;
    }
    let kernel = kernel_for(filter);
    let s = scratch.ensure(n);
    let mut len = 2;
    while len <= n {
        synthesis_level(&mut buf[..len], filter, kernel, s);
        len *= 2;
    }
}

/// One analysis level: rewrites the even-length `buf` into
/// `[approx | detail]` halves. Usable on any even length (not just powers
/// of two), which is what [`crate::dwt::WaveletDecomposition`] needs.
fn analysis_level(buf: &mut [f64], filter: &WaveletFilter, kernel: Kernel, scratch: &mut [f64]) {
    debug_assert!(buf.len() >= 2 && buf.len().is_multiple_of(2));
    match kernel {
        Kernel::Haar => analysis_haar(buf, scratch),
        Kernel::Db4Lifting => analysis_db4(buf, scratch),
        Kernel::Conv => analysis_conv(buf, filter, scratch),
    }
}

/// One synthesis level: rewrites `[approx | detail]` halves in `buf` back
/// into the even-length signal. Inverse of [`analysis_level`].
fn synthesis_level(buf: &mut [f64], filter: &WaveletFilter, kernel: Kernel, scratch: &mut [f64]) {
    debug_assert!(buf.len() >= 2 && buf.len().is_multiple_of(2));
    match kernel {
        Kernel::Haar => synthesis_haar(buf, scratch),
        Kernel::Db4Lifting => synthesis_db4(buf, scratch),
        Kernel::Conv => synthesis_conv(buf, filter, scratch),
    }
}

/// Level entry points for callers outside this module that have already
/// resolved the kernel once (avoids re-matching the filter name per level).
pub(crate) fn resolve(filter: &WaveletFilter) -> KernelChoice {
    KernelChoice(kernel_for(filter))
}

/// Opaque pre-resolved kernel selector (see [`resolve`]).
#[derive(Clone, Copy)]
pub(crate) struct KernelChoice(Kernel);

pub(crate) fn analysis_level_with(
    buf: &mut [f64],
    filter: &WaveletFilter,
    choice: KernelChoice,
    scratch: &mut DwtScratch,
) {
    let n = buf.len();
    let s = scratch.ensure(n);
    analysis_level(buf, filter, choice.0, s);
}

pub(crate) fn synthesis_level_with(
    buf: &mut [f64],
    filter: &WaveletFilter,
    choice: KernelChoice,
    scratch: &mut DwtScratch,
) {
    let n = buf.len();
    let s = scratch.ensure(n);
    synthesis_level(buf, filter, choice.0, s);
}

// ---------------------------------------------------------------------------
// Haar: scaled-butterfly lifting, bit-identical to the convolution path.
// ---------------------------------------------------------------------------

fn analysis_haar(buf: &mut [f64], scratch: &mut [f64]) {
    let half = buf.len() / 2;
    let s = std::f64::consts::FRAC_1_SQRT_2;
    // Approx lands at buf[k] (k ≤ 2k, so never ahead of the read cursor);
    // detail is staged in scratch because buf[half + k] may still hold an
    // unread input pair.
    for k in 0..half {
        let x0 = buf[2 * k];
        let x1 = buf[2 * k + 1];
        scratch[k] = s * x0 - s * x1;
        buf[k] = s * x0 + s * x1;
    }
    buf[half..].copy_from_slice(&scratch[..half]);
}

fn synthesis_haar(buf: &mut [f64], scratch: &mut [f64]) {
    let half = buf.len() / 2;
    let s = std::f64::consts::FRAC_1_SQRT_2;
    // Stage the detail band: interleaving writes at 2k/2k+1 would clobber
    // it. Walking k downward keeps writes strictly above every unread
    // approx slot.
    scratch[..half].copy_from_slice(&buf[half..]);
    for k in (0..half).rev() {
        let a = buf[k];
        let d = scratch[k];
        buf[2 * k] = s * a + s * d;
        buf[2 * k + 1] = s * a - s * d;
    }
}

// ---------------------------------------------------------------------------
// Db4: Daubechies–Sweldens lifting factorization.
//
// With a = √3, e[n] = x[2n], o[n] = x[2n+1] (indices periodic mod half):
//   s1[n] = e[n] + a·o[n]
//   d1[n] = o[n] − (a/4)·s1[n] − ((a−2)/4)·s1[n−1]
//   s2[n] = s1[n] − d1[n+1]
//   approx[n]          = ((a−1)/√2) · s2[n]
//   detail[(n−1) mod]  = (−(a+1)/√2) · d1[n]
//
// Expanding shows approx[n] = Σ h[m]·x[2n+m] and the shifted, negated
// detail equals Σ g[m]·x[2k+m] with this crate's QMF highpass — i.e. the
// exact periodic convolution transform, up to floating-point rounding.
// ---------------------------------------------------------------------------

fn analysis_db4(buf: &mut [f64], scratch: &mut [f64]) {
    let half = buf.len() / 2;
    let s3 = 3.0_f64.sqrt();
    let c1 = s3 * 0.25;
    let c2 = (s3 - 2.0) * 0.25;
    let ks = (s3 - 1.0) / std::f64::consts::SQRT_2;
    let kd = -(s3 + 1.0) / std::f64::consts::SQRT_2;
    // One forward sweep. Step k reads the pair k + 1, which yields s1 and
    // d1 at k + 1, and that completes approx[k] = ks·(s1[k] − d1[k+1]) and
    // detail[k] = kd·d1[k+1]. The periodic ends are s1[half−1], needed by
    // d1[0], and d1[0] itself, needed by the last slot: both are taken
    // before the sweep overwrites anything. Approx lands at buf[k], below
    // the pair 2k + 2 still to be read; detail is staged in scratch.
    // Every value is the same expression, in the same order, as the
    // textbook six-pass form (deinterleave, predict, dual lift, update,
    // scale, scatter), so the output bits are too.
    let s1_last = buf[2 * half - 2] + s3 * buf[2 * half - 1];
    let mut s1 = buf[0] + s3 * buf[1];
    let d1_first = buf[1] - c1 * s1 - c2 * s1_last;
    for k in 0..half - 1 {
        let odd = buf[2 * k + 3];
        let s1_next = buf[2 * k + 2] + s3 * odd;
        let d1_next = odd - c1 * s1_next - c2 * s1;
        buf[k] = (s1 - d1_next) * ks;
        scratch[k] = kd * d1_next;
        s1 = s1_next;
    }
    buf[half - 1] = (s1 - d1_first) * ks;
    scratch[half - 1] = kd * d1_first;
    buf[half..].copy_from_slice(&scratch[..half]);
}

fn synthesis_db4(buf: &mut [f64], scratch: &mut [f64]) {
    let half = buf.len() / 2;
    let s3 = 3.0_f64.sqrt();
    let c1 = s3 * 0.25;
    let c2 = (s3 - 2.0) * 0.25;
    let inv_ks = std::f64::consts::SQRT_2 / (s3 - 1.0);
    let inv_kd = -std::f64::consts::SQRT_2 / (s3 + 1.0);
    {
        let (a, dband) = buf.split_at_mut(half);
        let o = &mut scratch[..half];
        // Undo scaling and the detail phase shift.
        for (k, slot) in o.iter_mut().enumerate() {
            let j = if k == 0 { half - 1 } else { k - 1 };
            *slot = dband[j] * inv_kd;
        }
        for x in a.iter_mut() {
            *x *= inv_ks;
        }
        // Undo update: s1[n] = s2[n] + d1[n+1].
        let first = o[0];
        for k in 0..half - 1 {
            a[k] += o[k + 1];
        }
        a[half - 1] += first;
        // Undo dual lift: o[n] = d1[n] + c1·s1[n] + c2·s1[n−1].
        let mut prev = a[half - 1];
        for k in 0..half {
            let cur = a[k];
            o[k] = o[k] + c1 * cur + c2 * prev;
            prev = cur;
        }
        // Undo predict: e = s1 − √3·o.
        for k in 0..half {
            a[k] -= s3 * o[k];
        }
    }
    // Interleave back, walking downward so writes at 2k/2k+1 never touch
    // an unread even slot (reads are at k' < k ≤ 2k).
    let o = &scratch[..half];
    for k in (0..half).rev() {
        let even = buf[k];
        buf[2 * k] = even;
        buf[2 * k + 1] = o[k];
    }
}

// ---------------------------------------------------------------------------
// General filters: one periodic convolution step, written into halves the
// caller provides. `dwt::{analysis_step, synthesis_step}` allocate them;
// the in-place engine below lends its scratch.
// ---------------------------------------------------------------------------

/// One analysis step with periodic extension: `signal` (even length ≥ 2)
/// into its `approx` and `detail` halves.
pub(crate) fn conv_analysis(
    signal: &[f64],
    filter: &WaveletFilter,
    approx: &mut [f64],
    detail: &mut [f64],
) {
    let n = signal.len();
    let half = n / 2;
    let h = filter.lowpass();
    let g = filter.highpass();
    let taps = h.len();
    // Wrap-free fast path: while 2k + taps − 1 < n every tap lands in
    // bounds, so the periodic `% n` is the identity and the window is one
    // contiguous slice. Only the last few output slots (taps/2 − 1 of
    // them) ever wrap.
    let fast = if n >= taps { (n - taps) / 2 + 1 } else { 0 }.min(half);
    for k in 0..fast {
        let window = &signal[2 * k..2 * k + taps];
        let mut a = 0.0;
        let mut d = 0.0;
        for ((&hm, &gm), &x) in h.iter().zip(g).zip(window) {
            a += hm * x;
            d += gm * x;
        }
        approx[k] = a;
        detail[k] = d;
    }
    // Wrapped tail: an increment-and-reset (compiled to a conditional
    // move) replaces the `% n` per tap, however often the window wraps
    // (more than once only when taps > n). Indices are identical, so
    // output bits are.
    for k in fast..half {
        let mut idx = 2 * k;
        let mut a = 0.0;
        let mut d = 0.0;
        for (&hm, &gm) in h.iter().zip(g) {
            let x = signal[idx];
            a += hm * x;
            d += gm * x;
            idx += 1;
            if idx == n {
                idx = 0;
            }
        }
        approx[k] = a;
        detail[k] = d;
    }
}

/// One synthesis step (adjoint of [`conv_analysis`]): overwrites `out`
/// (length `2 · approx.len()`) with the signal its halves came from.
pub(crate) fn conv_synthesis(
    approx: &[f64],
    detail: &[f64],
    filter: &WaveletFilter,
    out: &mut [f64],
) {
    let half = approx.len();
    let n = out.len();
    let h = filter.lowpass();
    let g = filter.highpass();
    let taps = h.len();
    out.fill(0.0);
    // Same wrap-free split as `conv_analysis`: contiguous scatter while
    // 2k + taps − 1 < n, periodic wrap only for the tail slots.
    let fast = if n >= taps { (n - taps) / 2 + 1 } else { 0 }.min(half);
    for k in 0..fast {
        let a = approx[k];
        let d = detail[k];
        let window = &mut out[2 * k..2 * k + taps];
        for ((&hm, &gm), slot) in h.iter().zip(g).zip(window.iter_mut()) {
            *slot += hm * a + gm * d;
        }
    }
    // One conditional reset instead of a `% n` per tap, as above.
    for k in fast..half {
        let a = approx[k];
        let d = detail[k];
        let mut idx = 2 * k;
        for (&hm, &gm) in h.iter().zip(g) {
            out[idx] += hm * a + gm * d;
            idx += 1;
            if idx == n {
                idx = 0;
            }
        }
    }
}

fn analysis_conv(buf: &mut [f64], filter: &WaveletFilter, scratch: &mut [f64]) {
    let half = buf.len() / 2;
    let (sa, sd) = scratch[..buf.len()].split_at_mut(half);
    conv_analysis(buf, filter, sa, sd);
    buf[..half].copy_from_slice(sa);
    buf[half..].copy_from_slice(sd);
}

fn synthesis_conv(buf: &mut [f64], filter: &WaveletFilter, scratch: &mut [f64]) {
    let out = &mut scratch[..buf.len()];
    let (approx, detail) = buf.split_at(buf.len() / 2);
    conv_synthesis(approx, detail, filter, out);
    buf.copy_from_slice(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwt::{analysis_step, synthesis_step};
    use crate::filters::FilterKind;

    fn ref_full(signal: &[f64], filter: &WaveletFilter) -> Vec<f64> {
        // Pre-kernel reference: repeated allocating convolution steps.
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

    fn ref_inverse(coeffs: &[f64], filter: &WaveletFilter) -> Vec<f64> {
        let mut approx = vec![coeffs[0]];
        let mut offset = 1;
        while offset < coeffs.len() {
            let band = &coeffs[offset..offset + approx.len()];
            approx = synthesis_step(&approx, band, filter);
            offset += band.len();
        }
        approx
    }

    fn noise(n: usize) -> Vec<f64> {
        (0..n).map(|i| (((i * 2654435761) % 1000) as f64 - 500.0) * 0.013).collect()
    }

    #[test]
    fn haar_and_conv_kernels_bit_match_reference() {
        for kind in [FilterKind::Haar, FilterKind::Db6, FilterKind::Db8] {
            let f = kind.filter();
            for n in [2usize, 4, 16, 128, 1024] {
                let x = noise(n);
                let mut buf = x.clone();
                let mut scratch = DwtScratch::new();
                dwt_line(&mut buf, &f, &mut scratch);
                let reference = ref_full(&x, &f);
                for (a, b) in buf.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} n={n}", f.name());
                }
                idwt_line(&mut buf, &f, &mut scratch);
                let back = ref_inverse(&reference, &f);
                for (a, b) in buf.iter().zip(&back) {
                    assert_eq!(a.to_bits(), b.to_bits(), "inverse {} n={n}", f.name());
                }
            }
        }
    }

    /// The Db4 lifting level as six separate passes: deinterleave,
    /// predict, dual lift, update, scale, scatter. `analysis_db4` fuses
    /// them into one sweep and must produce the same bits.
    fn analysis_db4_six_pass(buf: &mut [f64], scratch: &mut [f64]) {
        let half = buf.len() / 2;
        let s3 = 3.0_f64.sqrt();
        let c1 = s3 * 0.25;
        let c2 = (s3 - 2.0) * 0.25;
        let ks = (s3 - 1.0) / std::f64::consts::SQRT_2;
        let kd = -(s3 + 1.0) / std::f64::consts::SQRT_2;
        for k in 0..half {
            let odd = buf[2 * k + 1];
            buf[k] = buf[2 * k];
            scratch[k] = odd;
        }
        let (e, dband) = buf.split_at_mut(half);
        let o = &mut scratch[..half];
        for k in 0..half {
            e[k] += s3 * o[k];
        }
        let mut prev = e[half - 1];
        for k in 0..half {
            let cur = e[k];
            o[k] = o[k] - c1 * cur - c2 * prev;
            prev = cur;
        }
        let first = o[0];
        for k in 0..half - 1 {
            e[k] -= o[k + 1];
        }
        e[half - 1] -= first;
        for x in e.iter_mut() {
            *x *= ks;
        }
        for (j, slot) in dband.iter_mut().enumerate() {
            let src = if j + 1 == half { 0 } else { j + 1 };
            *slot = kd * o[src];
        }
    }

    #[test]
    fn fused_db4_level_bit_matches_the_six_pass_form() {
        for seed in [1u64, 0x9E37_79B9_7F4A_7C15, 42] {
            let mut state = seed;
            let mut n = 2;
            while n <= 4096 {
                let x: Vec<f64> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 11) as f64 / (1u64 << 40) as f64 - 2048.0
                    })
                    .collect();
                let (mut fused, mut six) = (x.clone(), x);
                let mut scratch = vec![0.0; n];
                analysis_db4(&mut fused, &mut scratch);
                analysis_db4_six_pass(&mut six, &mut scratch);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fused), bits(&six), "seed {seed} n={n}");
                n *= 2;
            }
        }
    }

    #[test]
    fn db4_lifting_matches_convolution_within_ulps() {
        let f = FilterKind::Db4.filter();
        for n in [2usize, 4, 8, 64, 512, 4096] {
            let x = noise(n);
            let mut buf = x.clone();
            let mut scratch = DwtScratch::new();
            dwt_line(&mut buf, &f, &mut scratch);
            let reference = ref_full(&x, &f);
            let levels = n.trailing_zeros() as f64;
            let scale = x.iter().fold(1e-30_f64, |m, v| m.max(v.abs()));
            // A few ulps per level at each coefficient's own magnitude
            // (per level the lifting chain rounds a handful of ops).
            for (i, (a, b)) in buf.iter().zip(&reference).enumerate() {
                let tol = 4.0 * (levels + 1.0) * b.abs().max(scale) * f64::EPSILON;
                assert!((a - b).abs() <= tol, "n={n} i={i}: {a} vs {b} (tol {tol:e})");
            }
            // Lifting round trip reconstructs the input.
            idwt_line(&mut buf, &f, &mut scratch);
            for (a, b) in buf.iter().zip(&x) {
                let tol = 8.0 * (levels + 1.0) * b.abs().max(scale) * f64::EPSILON;
                assert!((a - b).abs() <= tol, "roundtrip n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_counted() {
        let before = aims_telemetry::global().snapshot().counter("dsp.kernel.scratch_reuse");
        let f = FilterKind::Haar.filter();
        let mut scratch = DwtScratch::new();
        let mut buf = noise(64);
        dwt_line(&mut buf, &f, &mut scratch); // first use allocates
        dwt_line(&mut buf, &f, &mut scratch); // second reuses
        let after = aims_telemetry::global().snapshot().counter("dsp.kernel.scratch_reuse");
        assert!(after > before, "scratch reuse not recorded: {before} → {after}");
    }

    #[test]
    fn length_one_line_is_identity() {
        let f = FilterKind::Db4.filter();
        let mut scratch = DwtScratch::new();
        let mut buf = [3.25];
        dwt_line(&mut buf, &f, &mut scratch);
        assert_eq!(buf[0], 3.25);
        idwt_line(&mut buf, &f, &mut scratch);
        assert_eq!(buf[0], 3.25);
    }
}
