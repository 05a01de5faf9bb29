//! Dense, row-major matrices of `f64`.

use crate::error::{Error, Result};
use crate::vector::{dot_slices, Vector};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// An owned, dense, row-major matrix of `f64`.
///
/// This is the workhorse type of the workspace: similarity matrices, graph
/// Laplacians and the closed-form solutions of both semi-supervised criteria
/// are all built from it.
///
/// ```
/// use gssl_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(a.get(1, 0), 3.0);
/// assert_eq!(a.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    /// shape: (rows, cols)
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// ```
    /// use gssl_linalg::Matrix;
    /// let i = Matrix::identity(2);
    /// assert_eq!(i.get(0, 0), 1.0);
    /// assert_eq!(i.get(0, 1), 0.0);
    /// ```
    /// shape: (n, n)
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix filled with `value`.
    /// shape: (rows, cols)
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLength`] when `data.len() != rows * cols`.
    /// shape: (rows, cols)
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::InvalidLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLength`] when rows have differing lengths.
    /// shape: (rows.len, cols)
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(Error::InvalidLength {
                    expected: ncols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f` at every `(row, col)` position.
    ///
    /// ```
    /// use gssl_linalg::Matrix;
    /// let hilbert = Matrix::from_fn(2, 2, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(hilbert.get(1, 1), 1.0 / 3.0);
    /// ```
    /// shape: (rows, cols)
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a square matrix with `diag` on the diagonal and zeros
    /// elsewhere.
    /// shape: (diag.len, diag.len)
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
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

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `j >= cols`.
    /// shape: (self.rows,)
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the row-major storage mutably (`rows * cols` elements,
    /// row `i` at `i * cols .. (i + 1) * cols`). This is the hook the
    /// execution layer uses to hand disjoint row blocks to workers via
    /// `split_at_mut` / `chunks_mut`.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose.
    /// shape: (self.cols, self.rows)
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `self.cols() != rhs.rows()`.
    ///
    /// ```
    /// use gssl_linalg::Matrix;
    /// # fn main() -> Result<(), gssl_linalg::Error> {
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// let b = Matrix::identity(2);
    /// assert_eq!(a.matmul(&b)?, a);
    /// # Ok(())
    /// # }
    /// ```
    /// shape: (self.rows, rhs.cols)
    /// hot
    /// complexity: O(n * m * k)
    /// deterministic
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(rhs, &gssl_runtime::Executor::sequential())
    }

    /// Matrix product `self * rhs`, row-blocked across `executor`.
    ///
    /// Each worker computes a contiguous block of whole output rows in
    /// i-k-j order (the inner loop is contiguous in both operands, and
    /// exact zeros of `self` are skipped), so the result is bit-identical
    /// at every worker count: each output row is owned by one worker and
    /// accumulates in the same order whoever computes it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `self.cols() != rhs.rows()`.
    /// shape: (self.rows, rhs.cols)
    /// hot
    /// complexity: O(n * m * k)
    /// deterministic
    pub fn matmul_with(&self, rhs: &Matrix, executor: &gssl_runtime::Executor) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                operation: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let cols = rhs.cols;
        let block_rows = self
            .rows
            .div_ceil(executor.workers().saturating_mul(4))
            .max(1);
        let mut out = Matrix::zeros(self.rows, cols);
        // `max(1)`: an empty product has no chunks, but the width must
        // still be valid.
        let width = (block_rows * cols).max(1);
        executor.for_each_chunk_mut(out.as_mut_slice(), width, |start, chunk| {
            let first_row = start / cols;
            for (local, out_row) in chunk.chunks_mut(cols).enumerate() {
                let lhs_row = self.row(first_row + local);
                for (k, &a_ik) in lhs_row.iter().enumerate() {
                    if crate::float::is_exactly_zero(a_ik) {
                        continue;
                    }
                    for (o, r) in out_row.iter_mut().zip(rhs.row(k)) {
                        *o += a_ik * r;
                    }
                }
            }
        })?;
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `self.cols() != x.len()`.
    /// shape: (self.rows,)
    /// hot
    /// complexity: O(n * m)
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if self.cols != x.len() {
            return Err(Error::DimensionMismatch {
                operation: "matvec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            out.push(dot_slices(self.row(i), x.as_slice()));
        }
        Ok(Vector::from(out))
    }

    /// Sum of each row, as a vector of length `rows`.
    /// shape: (self.rows,)
    pub fn row_sums(&self) -> Vector {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Sum of each column, as a vector of length `cols`.
    /// shape: (self.cols,)
    pub fn col_sums(&self) -> Vector {
        let mut sums = Vector::zeros(self.cols);
        for i in 0..self.rows {
            for (s, v) in sums.as_mut_slice().iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        sums
    }

    /// The main diagonal as a vector (length `min(rows, cols)`).
    /// shape: (n,)
    pub fn diag(&self) -> Vector {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(Error::NotSquare {
                shape: self.shape(),
            });
        }
        Ok(self.diag().sum())
    }

    /// Returns `true` when `|a_ij - a_ji| <= tol` for every pair.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Largest absolute entry (the `‖·‖_max` norm used in the paper's proof);
    /// 0 for an empty matrix.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Copies the rectangular block with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics when the ranges are not `r0 <= r1 <= rows` / `c0 <= c1 <= cols`.
    /// shape: (nr, nc)
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Stacks `self` above `bottom`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when column counts differ.
    /// shape: (rows, self.cols)
    pub fn vstack(&self, bottom: &Matrix) -> Result<Matrix> {
        if self.cols != bottom.cols {
            return Err(Error::DimensionMismatch {
                operation: "vstack",
                left: self.shape(),
                right: bottom.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&bottom.data);
        Ok(Matrix {
            rows: self.rows + bottom.rows,
            cols: self.cols,
            data,
        })
    }

    /// Places `self` to the left of `right`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when row counts differ.
    /// shape: (self.rows, cols)
    pub fn hstack(&self, right: &Matrix) -> Result<Matrix> {
        if self.rows != right.rows {
            return Err(Error::DimensionMismatch {
                operation: "hstack",
                left: self.shape(),
                right: right.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + right.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(right.row(i));
        }
        Ok(out)
    }

    /// Returns a new matrix with `f` applied to every element.
    /// shape: (self.rows, self.cols)
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when shapes differ.
    /// shape: (self.rows, self.cols)
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(Error::DimensionMismatch {
                operation: "hadamard",
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// Returns `true` when every pairwise difference is at most `tol`.
    /// Matrices of different shapes are never close.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

macro_rules! matrix_elementwise {
    ($trait:ident, $method:ident, $op:tt, $name:expr) => {
        impl $trait for &Matrix {
            type Output = Matrix;

            fn $method(self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!("shape mismatch in matrix ", $name)
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait for Matrix {
            type Output = Matrix;

            fn $method(self, rhs: Matrix) -> Matrix {
                (&self).$method(&rhs)
            }
        }
    };
}

matrix_elementwise!(Add, add, +, "addition");
matrix_elementwise!(Sub, sub, -, "subtraction");

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        self.map(|x| x * alpha)
    }
}

impl Mul<f64> for Matrix {
    type Output = Matrix;

    fn mul(mut self, alpha: f64) -> Matrix {
        self.scale(alpha);
        self
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn matmul_with_is_bit_identical_to_sequential() {
        let a = Matrix::from_fn(37, 23, |i, j| ((i * 31 + j * 7) as f64 * 0.37).sin());
        let b = Matrix::from_fn(23, 29, |i, j| ((i * 13 + j * 17) as f64 * 0.73).cos());
        let reference = a.matmul(&b).unwrap();
        for workers in [1, 2, 3, 4] {
            let executor = gssl_runtime::Executor::with_workers(workers);
            let parallel = a.matmul_with(&b, &executor).unwrap();
            assert_eq!(parallel, reference, "workers = {workers}");
        }
    }

    #[test]
    fn matmul_with_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let executor = gssl_runtime::Executor::with_workers(2);
        assert!(matches!(
            a.matmul_with(&b, &executor),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn constructors_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert!(Matrix::identity(3).is_square());
        assert_eq!(Matrix::filled(2, 2, 9.0).get(1, 1), 9.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidLength {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn from_diag_places_diagonal() {
        let m = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matmul(&Matrix::identity(2)).unwrap(), a);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = sample();
        assert!(matches!(
            a.matmul(&a),
            Err(Error::DimensionMismatch {
                operation: "matmul",
                ..
            })
        ));
    }

    #[test]
    fn matvec_known_product() {
        let m = sample();
        let x = Vector::from(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).unwrap().as_slice(), &[-2.0, -2.0]);
        assert!(m.matvec(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn sums_diag_trace() {
        let m = sample();
        assert_eq!(m.row_sums().as_slice(), &[6.0, 15.0]);
        assert_eq!(m.col_sums().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.diag().as_slice(), &[1.0, 5.0]);
        assert!(m.trace().is_err());
        assert_eq!(Matrix::identity(4).trace().unwrap(), 4.0);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(f64::INFINITY));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert_eq!(m.norm_frobenius(), 5.0);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = sample();
        let b = m.submatrix(0, 2, 1, 3);
        assert_eq!(b, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]).unwrap());
        let empty = m.submatrix(1, 1, 0, 3);
        assert_eq!(empty.shape(), (0, 3));
    }

    #[test]
    fn stacking() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(1, 2);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.get(2, 0), 0.0);
        let h = a.hstack(&Matrix::zeros(2, 1)).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn swap_rows_in_place() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!((&a + &b).get(0, 0), 2.0);
        assert_eq!((&b - &a).get(0, 0), 0.0);
        assert_eq!((&a * 3.0).get(1, 1), 3.0);
        assert_eq!(a.hadamard(&b).unwrap(), a);
        assert!(a.hadamard(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn indexing_operators() {
        let mut m = sample();
        assert_eq!(m[(0, 2)], 3.0);
        m[(0, 2)] = 7.0;
        assert_eq!(m.get(0, 2), 7.0);
    }

    #[test]
    #[should_panic(expected = "matrix index out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(2, 0);
    }

    #[test]
    fn display_contains_shape() {
        assert!(sample().to_string().contains("[2x3]"));
    }
}
