//! LU factorization with partial pivoting, and the solves built on it.
//!
//! Both closed-form criteria of the paper reduce to solving dense linear
//! systems (Eq. 4 and Eq. 5); [`Lu`] is the general-purpose direct backend.

use crate::error::{Error, Result};
use crate::float::is_exactly_zero;
use crate::matrix::Matrix;
use crate::strict;
use crate::vector::Vector;

/// Relative pivot threshold below which a matrix is declared singular.
const SINGULARITY_RTOL: f64 = 1e-13;

/// An LU factorization `P A = L U` with partial (row) pivoting.
///
/// ```
/// use gssl_linalg::{Lu, Matrix, Vector};
/// # fn main() -> Result<(), gssl_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&Vector::from(vec![10.0, 12.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper, on/above diagonal).
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, used by `det`.
    perm_sign: f64,
}

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::Singular`] when a pivot is (numerically) zero.
    /// * [`Error::NonFiniteValue`] when `a` contains NaN/infinity and the
    ///   `strict-checks` feature is enabled.
    /// hot
    /// complexity: O(n^3)
    /// deterministic
    pub fn factor(a: &Matrix) -> Result<Self> {
        Lu::factor_with(a, &gssl_runtime::Executor::sequential())
    }

    /// Factorizes a square matrix with trailing-block updates parallelized
    /// across `executor`, producing factors **bit-identical at every
    /// worker count**.
    ///
    /// The algorithm is a right-looking blocked elimination: each panel of
    /// [`Self::PANEL_WIDTH`] columns is factored on the calling thread
    /// (pivot searches and row swaps are inherently serial), the panel's
    /// rows of `U` are finished there too, and then every trailing row
    /// applies the panel's eliminations independently — one worker per
    /// row block. Every element receives exactly the subtractions
    /// `a[i][j] -= l[i][k] * u[k][j]` of the textbook unblocked
    /// elimination, in the same (globally increasing `k`) order; pivot
    /// decisions read columns whose values match the unblocked state at
    /// decision time, and rows are assembled by position rather than
    /// completion order. A 1-worker executor runs the same row blocks
    /// inline.
    ///
    /// # Errors
    ///
    /// Same as [`Lu::factor`].
    /// hot
    /// complexity: O(n^3)
    /// deterministic
    pub fn factor_with(a: &Matrix, executor: &gssl_runtime::Executor) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        strict::check_finite_matrix("lu.factor input", a)?;
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = a.norm_max().max(f64::MIN_POSITIVE);

        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + Self::PANEL_WIDTH).min(n);
            // Panel factorization: pivot, swap and eliminate columns
            // k0..k1 over the full trailing height. Column k is current
            // with respect to every k' < k (earlier panels via trailing
            // updates, this panel via the loop below), so pivot choices
            // match the unblocked elimination exactly.
            for k in k0..k1 {
                let mut pivot_row = k;
                let mut pivot_val = lu.get(k, k).abs();
                for i in (k + 1)..n {
                    let v = lu.get(i, k).abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_val <= SINGULARITY_RTOL * scale {
                    return Err(Error::Singular { pivot: k });
                }
                if pivot_row != k {
                    lu.swap_rows(k, pivot_row);
                    perm.swap(k, pivot_row);
                    perm_sign = -perm_sign;
                }
                let pivot = lu.get(k, k);
                let data = lu.as_mut_slice();
                let (head, tail) = data.split_at_mut((k + 1) * n);
                let pivot_row = &head[k * n + k + 1..k * n + k1];
                for row in tail.chunks_mut(n) {
                    let factor = row[k] / pivot;
                    row[k] = factor;
                    if !is_exactly_zero(factor) {
                        for (value, u) in row[k + 1..k1].iter_mut().zip(pivot_row) {
                            *value -= factor * u;
                        }
                    }
                }
            }
            if k1 == n {
                break;
            }
            // Finish the panel's U rows (columns k1..): row r applies the
            // eliminations of rows k0..r in increasing k, each reading an
            // already-final U row above it.
            for r in (k0 + 1)..k1 {
                let data = lu.as_mut_slice();
                let (head, tail) = data.split_at_mut(r * n);
                let row = &mut tail[..n];
                for k in k0..r {
                    let factor = row[k];
                    if !is_exactly_zero(factor) {
                        let u_row = &head[k * n + k1..(k + 1) * n];
                        for (value, u) in row[k1..].iter_mut().zip(u_row) {
                            *value -= factor * u;
                        }
                    }
                }
            }
            // Trailing update, parallel by row block: row i (i >= k1)
            // applies the panel's eliminations k0..k1 in increasing k,
            // reading only the finalized U rows (the immutable head split)
            // and its own factors — rows are independent.
            let trailing_rows = n - k1;
            let block_rows = trailing_rows
                .div_ceil(executor.workers().saturating_mul(4))
                .max(1);
            let data = lu.as_mut_slice();
            let (head, tail) = data.split_at_mut(k1 * n);
            let head = &head[..];
            executor.for_each_chunk_mut(tail, block_rows * n, |_, chunk| {
                for row in chunk.chunks_mut(n) {
                    for k in k0..k1 {
                        let factor = row[k];
                        if is_exactly_zero(factor) {
                            continue;
                        }
                        let u_row = &head[k * n + k1..(k + 1) * n];
                        for (o, u) in row[k1..].iter_mut().zip(u_row) {
                            *o -= factor * u;
                        }
                    }
                }
            })?;
            k0 = k1;
        }

        Ok(Lu {
            factors: lu,
            perm,
            perm_sign,
        })
    }

    /// Panel width of the blocked [`Lu::factor_with`] elimination: wide
    /// enough to amortize the sequential panel work, narrow enough that
    /// trailing updates dominate and parallelize.
    const PANEL_WIDTH: usize = 32;

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Borrows the packed factors: unit-lower `L` below the diagonal,
    /// `U` on and above it.
    /// shape: (n, n)
    pub fn factors(&self) -> &Matrix {
        &self.factors
    }

    /// Row permutation applied by pivoting: `perm[i]` is the original row
    /// now in position `i`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `b.len() != dim()`, or
    /// [`Error::NonFiniteValue`] under `strict-checks` when the right-hand
    /// side or the computed solution is non-finite.
    /// shape: (b.len,)
    /// hot
    /// complexity: O(n^2)
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        strict::check_finite("lu.solve rhs", b.as_slice())?;
        // Apply permutation: y = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let mut sum = x[i];
            for (lij, xj) in self.factors.row(i)[..i].iter().zip(&x[..i]) {
                sum -= lij * xj;
            }
            x[i] = sum;
        }
        // Back substitution with upper triangle.
        for i in (0..n).rev() {
            let row = self.factors.row(i);
            let mut sum = x[i];
            for (uij, xj) in row[i + 1..].iter().zip(&x[i + 1..]) {
                sum -= uij * xj;
            }
            x[i] = sum / row[i];
        }
        strict::check_finite("lu.solve output", &x)?;
        Ok(Vector::from(x))
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `B.rows() != dim()`.
    /// shape: (b.rows, b.cols)
    /// complexity: O(n^2 * c)
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                operation: "lu solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for (i, &xi) in x.as_slice().iter().enumerate() {
                out.set(i, j, xi);
            }
        }
        Ok(out)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.factors.get(i, i);
        }
        det
    }

    /// Inverse of the factored matrix.
    ///
    /// Prefer [`Lu::solve`] when only `A⁻¹ b` is needed; forming the inverse
    /// costs a full `n` extra solves.
    ///
    /// # Errors
    ///
    /// Propagates errors from the underlying solves (none in practice once
    /// factorization succeeded).
    /// shape: (n, n)
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// One-shot convenience: factor `a` and solve `a x = b`.
///
/// # Errors
///
/// Propagates factorization and dimension errors from [`Lu`].
/// shape: (a.rows,)
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector> {
    Lu::factor(a)?.solve(b)
}

/// One-shot convenience: factor `a` and solve `a X = B`.
///
/// # Errors
///
/// Propagates factorization and dimension errors from [`Lu`].
/// shape: (a.rows, b.cols)
pub fn solve_matrix(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    Lu::factor(a)?.solve_matrix(b)
}

/// One-shot convenience: matrix inverse via LU.
///
/// # Errors
///
/// Propagates factorization errors from [`Lu`].
/// shape: (a.rows, a.cols)
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Lu::factor(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &Vector, b: &Vector) -> f64 {
        let ax = a.matvec(x).unwrap();
        (&ax - b).norm_max()
    }

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let b = Vector::from(vec![8.0, -11.0, -3.0]);
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&Vector::from(vec![2.0, 3.0, -1.0]), 1e-12));
    }

    #[test]
    fn solve_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(Error::NotSquare { .. })));
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(Error::Singular { .. })));
    }

    #[test]
    fn rejects_zero_matrix() {
        assert!(Lu::factor(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &Vector::from(vec![3.0, 4.0])).unwrap();
        assert!(x.approx_eq(&Vector::from(vec![4.0, 3.0]), 1e-14));
    }

    #[test]
    fn det_matches_closed_form() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips determinant sign.
        let swapped = Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]).unwrap();
        assert!((Lu::factor(&swapped).unwrap().det() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn solve_matrix_solves_each_column() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]).unwrap();
        let x = solve_matrix(&a, &b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_rejects_wrong_rhs_len() {
        let lu = Lu::factor(&Matrix::identity(2)).unwrap();
        assert!(lu.solve(&Vector::zeros(3)).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn factor_with_is_bit_identical_across_worker_counts() {
        // Larger than one panel so the blocked path crosses panel
        // boundaries, with enough asymmetry to force pivoting.
        let n = 83;
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 37 + j * 11) as f64 * 0.29).sin();
            if i == j {
                v + 0.5
            } else {
                v
            }
        });
        let reference = Lu::factor(&a).unwrap();
        for workers in [1, 2, 3, 4] {
            let executor = gssl_runtime::Executor::with_workers(workers);
            let parallel = Lu::factor_with(&a, &executor).unwrap();
            assert_eq!(
                parallel.factors().as_slice(),
                reference.factors().as_slice(),
                "workers = {workers}"
            );
            assert_eq!(parallel.perm(), reference.perm(), "workers = {workers}");
            assert_eq!(parallel.det(), reference.det(), "workers = {workers}");
        }
    }

    #[test]
    fn factor_with_propagates_singularity() {
        let a = Matrix::from_fn(40, 40, |i, _| i as f64);
        let executor = gssl_runtime::Executor::with_workers(4);
        assert!(matches!(
            Lu::factor_with(&a, &executor),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn random_ish_system_has_small_residual() {
        // Deterministic pseudo-random fill (no rand dependency needed here).
        let n = 25;
        let mut state = 1u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Matrix::from_fn(n, n, |i, j| {
            let base = next();
            if i == j {
                base + n as f64 // diagonally dominant, comfortably nonsingular
            } else {
                base
            }
        });
        let b = Vector::from_fn(n, |_| next());
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }
}
