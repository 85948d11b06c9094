//! Multidimensional data cubes and their wavelet transforms.
//!
//! ProPolyne "treats all dimensions, including measure dimensions,
//! symmetrically" (§3.3): the dataset is modeled as a *frequency
//! distribution* `f` over a d-dimensional grid — `f(x)` counts the tuples
//! whose (binned) attribute values are `x` — and every aggregate becomes a
//! polynomial range-sum against `f`. The cube is transformed once, per
//! dimension, with an orthonormal wavelet filter (the tensor-product
//! "standard decomposition"), and queries are answered in that domain.

use aims_dsp::dwt::{dwt_standard_md_inplace, idwt_standard_md, is_power_of_two};
use aims_dsp::filters::WaveletFilter;
use aims_dsp::poly::Polynomial;

/// Maps real attribute values onto the cube's bin grid and back.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributeSpace {
    /// Per-dimension `[lo, hi)` value bounds.
    pub bounds: Vec<(f64, f64)>,
    /// Per-dimension bin counts (powers of two).
    pub dims: Vec<usize>,
}

impl AttributeSpace {
    /// Creates a space; validates shapes.
    ///
    /// # Panics
    /// If arities differ, any dimension is not a power of two, or any
    /// bound is empty.
    pub fn new(bounds: Vec<(f64, f64)>, dims: Vec<usize>) -> Self {
        assert_eq!(bounds.len(), dims.len(), "bounds/dims arity mismatch");
        for (k, (&(lo, hi), &n)) in bounds.iter().zip(&dims).enumerate() {
            assert!(lo < hi, "dimension {k}: empty bound [{lo},{hi})");
            assert!(is_power_of_two(n), "dimension {k}: {n} bins is not a power of two");
        }
        AttributeSpace { bounds, dims }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Bin index of a value along dimension `k` (clamped to range).
    pub fn bin(&self, k: usize, value: f64) -> usize {
        let (lo, hi) = self.bounds[k];
        let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * self.dims[k] as f64) as usize).min(self.dims[k] - 1)
    }

    /// Center value of bin `i` along dimension `k`.
    pub fn bin_center(&self, k: usize, i: usize) -> f64 {
        let (lo, hi) = self.bounds[k];
        lo + (i as f64 + 0.5) * (hi - lo) / self.dims[k] as f64
    }

    /// The affine polynomial mapping a bin index to its center value along
    /// dimension `k` — feed this to polynomial range-sums over *values*.
    pub fn value_poly(&self, k: usize) -> Polynomial {
        let (lo, hi) = self.bounds[k];
        let step = (hi - lo) / self.dims[k] as f64;
        Polynomial::from_coeffs(vec![lo + 0.5 * step, step])
    }

    /// The inclusive bin range covering the value interval `[lo, hi]`
    /// along dimension `k`.
    pub fn bin_range(&self, k: usize, lo: f64, hi: f64) -> (usize, usize) {
        assert!(lo <= hi, "empty value range");
        (self.bin(k, lo), self.bin(k, hi))
    }
}

/// A dense d-dimensional cube (row-major).
#[derive(Clone, Debug, PartialEq)]
pub struct DataCube {
    dims: Vec<usize>,
    values: Vec<f64>,
    strides: Vec<usize>,
}

impl DataCube {
    /// A zero cube with the given power-of-two dimensions.
    ///
    /// # Panics
    /// If any dimension is not a power of two or there are none.
    pub fn zeros(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "cube needs at least one dimension");
        for &d in dims {
            assert!(is_power_of_two(d), "dimension {d} not a power of two");
        }
        let total: usize = dims.iter().product();
        let mut strides = vec![1usize; dims.len()];
        for a in (0..dims.len() - 1).rev() {
            strides[a] = strides[a + 1] * dims[a + 1];
        }
        DataCube { dims: dims.to_vec(), values: vec![0.0; total], strides }
    }

    /// Builds a frequency cube from tuples: each tuple is binned per
    /// dimension and its cell incremented.
    pub fn from_tuples(space: &AttributeSpace, tuples: impl IntoIterator<Item = Vec<f64>>) -> Self {
        let mut cube = DataCube::zeros(&space.dims);
        for t in tuples {
            assert_eq!(t.len(), space.arity(), "tuple arity mismatch");
            let idx: Vec<usize> = t.iter().enumerate().map(|(k, &v)| space.bin(k, v)).collect();
            *cube.at_mut(&idx) += 1.0;
        }
        cube
    }

    /// Dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Cubes are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat row-major offset of a multi-index.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.dims.len(), "index arity mismatch");
        idx.iter()
            .zip(&self.dims)
            .zip(&self.strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of bound {d}");
                i * s
            })
            .sum()
    }

    /// Cell value.
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.values[self.offset(idx)]
    }

    /// Mutable cell access.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let o = self.offset(idx);
        &mut self.values[o]
    }

    /// Raw flat values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable flat values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sum of all cells (for a frequency cube: the tuple count).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sum of squared cells.
    pub fn energy(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Tensor-product (standard-decomposition) wavelet transform.
    pub fn transform(&self, filter: &WaveletFilter) -> WaveletCube {
        self.clone().into_transform(filter)
    }

    /// [`DataCube::transform`] that consumes the cube: its cells are
    /// transformed in place and become the coefficients, so the cube and
    /// its transform are never held at the same time.
    pub fn into_transform(self, filter: &WaveletFilter) -> WaveletCube {
        let DataCube { dims, mut values, strides } = self;
        dwt_standard_md_inplace(&mut values, &dims, filter);
        WaveletCube { dims, coeffs: values, strides, filter: filter.clone() }
    }
}

/// A wavelet-transformed cube.
#[derive(Clone, Debug)]
pub struct WaveletCube {
    dims: Vec<usize>,
    coeffs: Vec<f64>,
    strides: Vec<usize>,
    filter: WaveletFilter,
}

impl WaveletCube {
    /// Dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The filter that produced (and inverts) this transform.
    pub fn filter(&self) -> &WaveletFilter {
        &self.filter
    }

    /// Flat coefficient array (row-major over per-dimension flat DWT
    /// layouts).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Flat offset of a per-dimension coefficient multi-index.
    pub fn offset(&self, idx: &[usize]) -> usize {
        idx.iter().zip(&self.strides).map(|(&i, &s)| i * s).sum()
    }

    /// Inverse transform back to the data cube.
    pub fn inverse(&self) -> DataCube {
        DataCube {
            dims: self.dims.clone(),
            values: idwt_standard_md(&self.coeffs, &self.dims, &self.filter),
            strides: self.strides.clone(),
        }
    }

    /// Total coefficient energy (equals the data energy — Parseval).
    pub fn energy(&self) -> f64 {
        self.coeffs.iter().map(|c| c * c).sum()
    }

    /// Zeroes all but the `k` largest-magnitude coefficients, returning a
    /// synopsis cube (the data-approximation baseline of §3.3).
    pub fn top_k_synopsis(&self, k: usize) -> WaveletCube {
        let mut mags: Vec<f64> = self.coeffs.iter().map(|c| c.abs()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let threshold = if k == 0 {
            f64::INFINITY
        } else if k >= mags.len() {
            0.0
        } else {
            mags[k - 1]
        };
        let mut kept = 0usize;
        let coeffs = self
            .coeffs
            .iter()
            .map(|&c| {
                if c.abs() >= threshold && kept < k {
                    kept += 1;
                    c
                } else {
                    0.0
                }
            })
            .collect();
        WaveletCube {
            dims: self.dims.clone(),
            coeffs,
            strides: self.strides.clone(),
            filter: self.filter.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_dsp::filters::FilterKind;

    fn space2() -> AttributeSpace {
        AttributeSpace::new(vec![(0.0, 10.0), (-1.0, 1.0)], vec![8, 4])
    }

    #[test]
    fn binning_roundtrip() {
        let s = space2();
        assert_eq!(s.bin(0, 0.0), 0);
        assert_eq!(s.bin(0, 9.999), 7);
        assert_eq!(s.bin(0, 100.0), 7); // clamp
        assert_eq!(s.bin(1, -1.0), 0);
        assert_eq!(s.bin(1, 0.99), 3);
        // Bin center maps back into the same bin.
        for k in 0..2 {
            for i in 0..s.dims[k] {
                assert_eq!(s.bin(k, s.bin_center(k, i)), i, "dim {k} bin {i}");
            }
        }
    }

    #[test]
    fn value_poly_matches_bin_center() {
        let s = space2();
        for k in 0..2 {
            let p = s.value_poly(k);
            for i in 0..s.dims[k] {
                assert!((p.eval(i as f64) - s.bin_center(k, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn from_tuples_counts() {
        let s = space2();
        let cube = DataCube::from_tuples(&s, vec![vec![1.0, 0.0], vec![1.2, 0.1], vec![9.0, -0.9]]);
        assert_eq!(cube.total(), 3.0);
        assert_eq!(cube.at(&[s.bin(0, 1.0), s.bin(1, 0.0)]), 2.0);
        assert_eq!(cube.at(&[7, 0]), 1.0);
    }

    #[test]
    fn transform_roundtrip_and_parseval() {
        let s = space2();
        let mut cube = DataCube::zeros(&s.dims);
        for (i, v) in cube.values_mut().iter_mut().enumerate() {
            *v = ((i * 17 + 3) % 11) as f64 - 5.0;
        }
        for kind in [FilterKind::Haar, FilterKind::Db4] {
            let wc = cube.transform(&kind.filter());
            assert!((wc.energy() - cube.energy()).abs() < 1e-8, "{kind:?}");
            let back = wc.inverse();
            for (a, b) in cube.values().iter().zip(back.values()) {
                assert!((a - b).abs() < 1e-9, "{kind:?}");
            }
        }
    }

    /// The consuming, in-place `into_transform` and the borrowing
    /// `transform` both give the copying `dwt_standard_md`'s bits.
    #[test]
    fn into_transform_bit_matches_transform() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in FilterKind::ALL {
            let f = kind.filter();
            for dims in [&[64usize, 64][..], &[8, 4, 16]] {
                let mut cube = DataCube::zeros(dims);
                for (i, v) in cube.values_mut().iter_mut().enumerate() {
                    *v = ((i * 53 + 7) % 41) as f64 * 0.5 - 10.0;
                }
                let copied = aims_dsp::dwt::dwt_standard_md(cube.values(), dims, &f);
                let borrowed = cube.transform(&f);
                let consumed = cube.clone().into_transform(&f);
                assert_eq!(bits(consumed.coeffs()), bits(&copied), "{} {dims:?}", f.name());
                assert_eq!(bits(borrowed.coeffs()), bits(&copied), "{} {dims:?}", f.name());
                assert_eq!(consumed.dims(), dims);
                assert_eq!(consumed.filter().name(), f.name());
            }
        }
    }

    #[test]
    fn synopsis_keeps_top_coefficients() {
        let s = space2();
        let mut cube = DataCube::zeros(&s.dims);
        cube.values_mut()[5] = 100.0;
        cube.values_mut()[20] = 1.0;
        let wc = cube.transform(&FilterKind::Haar.filter());
        let syn = wc.top_k_synopsis(4);
        let kept = syn.coeffs().iter().filter(|c| **c != 0.0).count();
        assert!(kept <= 4);
        // Zero-coefficient synopsis is all zeros; full synopsis is exact.
        assert!(wc.top_k_synopsis(0).coeffs().iter().all(|&c| c == 0.0));
        let full = wc.top_k_synopsis(1000);
        assert_eq!(full.coeffs(), wc.coeffs());
    }

    #[test]
    fn offsets_are_row_major() {
        let cube = DataCube::zeros(&[4, 8]);
        assert_eq!(cube.offset(&[0, 0]), 0);
        assert_eq!(cube.offset(&[0, 7]), 7);
        assert_eq!(cube.offset(&[1, 0]), 8);
        assert_eq!(cube.offset(&[3, 7]), 31);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn bad_dims_panic() {
        DataCube::zeros(&[3]);
    }

    #[test]
    #[should_panic(expected = "out of bound")]
    fn bad_index_panics() {
        DataCube::zeros(&[4, 4]).at(&[4, 0]);
    }
}
