//! Row-major dense matrix.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::vector::Vector;

/// A dense, row-major `f64` matrix.
///
/// Indexing is `(row, col)`, zero-based. All binary operations panic on
/// dimension mismatch — immersidata pipelines construct matrices with known
/// shapes, so mismatches are programming errors, not recoverable conditions.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds a matrix whose columns are the given vectors.
    ///
    /// # Panics
    /// If the columns have inconsistent lengths.
    pub fn from_columns(columns: &[Vector]) -> Self {
        if columns.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let rows = columns[0].len();
        let mut m = Matrix::zeros(rows, columns.len());
        for (j, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), rows, "column {j} has length {} != {rows}", c.len());
            for i in 0..rows {
                m[(i, j)] = c[i];
            }
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column {j} out of bounds ({} cols)", self.cols);
        Vector::from((0..self.rows).map(|i| self[(i, j)]).collect::<Vec<_>>())
    }

    /// Overwrites column `j` with the entries of `v`.
    pub fn set_column(&mut self, j: usize, v: &Vector) {
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    /// If `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let out: Vec<f64> = (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.as_slice()).map(|(a, b)| a * b).sum())
            .collect();
        Vector::from(out)
    }

    /// Matrix product `self * other`, on the process-wide [`aims_exec`]
    /// pool (see [`Matrix::matmul_with`]).
    ///
    /// # Panics
    /// If `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with(aims_exec::global_pool(), other)
    }

    /// Matrix product on an explicit thread pool: a blocked, cache-friendly
    /// kernel (k-panels that keep a stripe of `other` hot) with block rows
    /// of the output fanned out across the pool. Every output row is
    /// accumulated by one task in ascending-`k` order, so the result is
    /// bit-identical for every pool size.
    ///
    /// # Panics
    /// If `self.cols() != other.rows()`.
    pub fn matmul_with(&self, pool: &aims_exec::ThreadPool, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _span = aims_telemetry::span!("linalg.matmul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let cols = other.cols;
        let flops = self.rows * self.cols * cols;
        if pool.is_serial() || flops < 64 * 64 * 64 {
            matmul_row_block(self, other, 0, &mut out.data);
            return out;
        }
        let rows_per = self.rows.div_ceil(pool.threads() * 4).max(1);
        pool.run(|scope| {
            for (ci, out_rows) in out.data.chunks_mut(rows_per * cols).enumerate() {
                let r0 = ci * rows_per;
                scope.spawn(move || matmul_row_block(self, other, r0, out_rows));
            }
        });
        out
    }

    /// Frobenius norm `sqrt(sum of squared entries)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of squared entries (the "energy" of the matrix).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale(s);
        m
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    /// If the ranges exceed the matrix bounds or are reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Stacks `other` below `self`.
    ///
    /// # Panics
    /// If the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Places `other` to the right of `self`.
    ///
    /// # Panics
    /// If the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    ///
    /// # Panics
    /// If the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `true` when `‖self − other‖_max ≤ tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Checks that every column has unit norm and distinct columns are
    /// orthogonal, to within `tol`.
    pub fn has_orthonormal_columns(&self, tol: f64) -> bool {
        for j in 0..self.cols {
            for k in j..self.cols {
                let dot: f64 = (0..self.rows).map(|i| self[(i, j)] * self[(i, k)]).sum();
                let expect = if j == k { 1.0 } else { 0.0 };
                if (dot - expect).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Accumulates output rows `r0..r0 + out_rows.len() / b.cols` of `a * b`
/// into `out_rows` (assumed zeroed). Blocked over `k` so a panel of `b`
/// rows stays cache-hot across the block's output rows; for any fixed
/// output element the contributions still arrive in ascending `k` order,
/// making the kernel bit-identical to the naive `i→k→j` triple loop.
fn matmul_row_block(a: &Matrix, b: &Matrix, r0: usize, out_rows: &mut [f64]) {
    const K_PANEL: usize = 64;
    let inner = a.cols;
    let cols = b.cols;
    for kb in (0..inner).step_by(K_PANEL) {
        let kend = (kb + K_PANEL).min(inner);
        for (ri, orow) in out_rows.chunks_mut(cols).enumerate() {
            let arow = &a.row(r0 + ri)[kb..kend];
            // Two b-rows stream per pass; each k is still added to an
            // output element separately and in ascending order, so bits
            // match the naive i→k→j loop. Slice windows (no index
            // arithmetic, no skip-zero branch) let the j-loop vectorize.
            let mut k = kb;
            let mut pairs = arow.chunks_exact(2);
            for pair in pairs.by_ref() {
                let (a0, a1) = (pair[0], pair[1]);
                let b0 = b.row(k);
                let b1 = b.row(k + 1);
                for ((o, &v0), &v1) in orow.iter_mut().zip(b0).zip(b1) {
                    let t = *o + a0 * v0;
                    *o = t + a1 * v1;
                }
                k += 2;
            }
            for &a0 in pairs.remainder() {
                let b0 = b.row(k);
                for (o, &v0) in orow.iter_mut().zip(b0) {
                    *o += a0 * v0;
                }
                k += 1;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, s: f64) {
        self.scale(s);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d])
    }

    #[test]
    fn zeros_identity_diagonal() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);

        let d = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(1, 2)], 0.0);
    }

    #[test]
    fn from_rows_and_columns_agree() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_columns(&[Vector::from(vec![1.0, 3.0]), Vector::from(vec![2.0, 4.0])]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);

        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b);
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    /// The k-panelled, two-rows-per-pass kernel adds each `a[i][k]·b[k][j]`
    /// to its output element separately and in ascending `k`, so it is the
    /// naive i→k→j triple loop bit for bit — also where the inner dimension
    /// is odd or not a multiple of the 64-wide panel.
    #[test]
    fn matmul_bit_matches_the_naive_triple_loop() {
        let serial = aims_exec::ThreadPool::new(1);
        for (m, inner, n) in [(3, 1, 2), (5, 63, 7), (4, 64, 4), (9, 65, 3), (33, 130, 17)] {
            let a = Matrix::from_fn(m, inner, |i, j| ((i * 31 + j * 7) % 101) as f64 * 0.01 - 0.5);
            let b = Matrix::from_fn(inner, n, |i, j| ((i * 13 + j * 17) % 89) as f64 * 0.01 - 0.4);
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for k in 0..inner {
                    for j in 0..n {
                        naive[(i, j)] += a[(i, k)] * b[(k, j)];
                    }
                }
            }
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.matmul_with(&serial, &b)),
                bits(&naive),
                "{m}x{inner} * {inner}x{n}"
            );
        }
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(3, 4, |i, j| (i * j) as f64);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        // c[1][2] = sum_k a[1][k] * b[k][2] = 1*0 + 2*2 + 3*4 = 16
        assert_eq!(c[(1, 2)], 16.0);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let v = Vector::from(vec![1.0, -1.0, 2.0]);
        let got = a.mul_vec(&v);
        let as_col = Matrix::from_vec(3, 1, v.as_slice().to_vec());
        let expect = a.matmul(&as_col);
        for i in 0..3 {
            assert_eq!(got[i], expect[(i, 0)]);
        }
    }

    #[test]
    fn row_column_accessors() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.column(2).as_slice(), &[3.0, 6.0]);
        let mut b = a.clone();
        b.set_column(0, &Vector::from(vec![9.0, 10.0]));
        assert_eq!(b[(0, 0)], 9.0);
        assert_eq!(b[(1, 0)], 10.0);
    }

    #[test]
    fn norms_and_energy() {
        let a = m22(3.0, 0.0, 0.0, 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.energy(), 25.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn stack_and_submatrix() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(3, 1)], 8.0);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(1, 3)], 8.0);
        let s = h.submatrix(0, 2, 1, 3);
        assert_eq!(s, m22(2.0, 5.0, 4.0, 7.0));
    }

    #[test]
    fn arithmetic_operators() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(&a + &b, Matrix::filled(2, 2, 5.0));
        assert_eq!(&(&a - &b) + &b, a);
        let mut c = a.clone();
        c += &b;
        c -= &b;
        assert_eq!(c, a);
        c *= 2.0;
        assert_eq!(c, a.scaled(2.0));
        assert_eq!((-&a).scaled(-1.0), a);
    }

    #[test]
    fn orthonormal_column_check() {
        assert!(Matrix::identity(4).has_orthonormal_columns(1e-12));
        let r2 = std::f64::consts::FRAC_1_SQRT_2;
        let rot = m22(r2, -r2, r2, r2);
        assert!(rot.has_orthonormal_columns(1e-12));
        assert!(!m22(1.0, 1.0, 0.0, 1.0).has_orthonormal_columns(1e-12));
    }

    #[test]
    fn empty_matrix_is_well_behaved() {
        let e = Matrix::zeros(0, 0);
        assert!(e.is_empty());
        assert_eq!(e.transpose(), e);
        assert_eq!(Matrix::from_rows(&[]).shape(), (0, 0));
    }
}
