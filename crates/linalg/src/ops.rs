//! The [`LinearOperator`] abstraction: anything that can apply `x ↦ A x`.
//!
//! The CG loop ([`crate::preconditioned_cg_with`]) is written against
//! this trait so it runs identically on dense matrices, CSR matrices and
//! the row-sharded CSR operator of the iterative backends.

use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;
use crate::vector::dot_slices;
use gssl_runtime::Executor;

/// A square linear operator on `R^dim`.
///
/// Implementors must write `A x` into `out`; both slices have length
/// [`LinearOperator::dim`]. The trait is object-safe so solvers can accept
/// `&dyn LinearOperator`.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `out = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.len()` or `out.len()` differ from
    /// [`LinearOperator::dim`].
    fn apply(&self, x: &[f64], out: &mut [f64]);
}

impl LinearOperator for Matrix {
    fn dim(&self) -> usize {
        debug_assert!(self.is_square(), "LinearOperator requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "operand length mismatch");
        assert_eq!(out.len(), self.rows(), "output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot_slices(self.row(i), x);
        }
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.matvec_into(x, out);
    }
}

/// A CSR system whose matvec is row-sharded across an [`Executor`]: the
/// one operator both iterative backends ([`crate::PrecondCg`] and
/// [`crate::AmgCg`]) hand to the CG loop.
///
/// Each output element is one row sum of [`CsrMatrix::matvec_into`],
/// computed by exactly one worker with the same operations at every
/// worker count — so CG sees bit-identical iterates whatever the width,
/// and a 1-worker executor runs the same row blocks inline.
pub(crate) struct ShardedCsr<'a> {
    /// The system matrix (square).
    pub(crate) matrix: &'a CsrMatrix,
    /// The executor the row blocks run on.
    pub(crate) executor: &'a Executor,
}

impl LinearOperator for ShardedCsr<'_> {
    fn dim(&self) -> usize {
        LinearOperator::dim(self.matrix)
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let block = out
            .len()
            .div_ceil(self.executor.workers().saturating_mul(4))
            .max(1);
        let sharded = self
            .executor
            .for_each_chunk_mut(out, block, |start, chunk| {
                self.matrix.rows_into(start, x, chunk);
            });
        if sharded.is_err() {
            // `LinearOperator::apply` is infallible and the chunk width is
            // always >= 1, so this arm is unreachable in practice;
            // recompute on the calling thread rather than panic if it ever
            // fires.
            self.matrix.matvec_into(x, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn apply_to_vec(op: &dyn LinearOperator, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; op.dim()];
        op.apply(x, &mut out);
        out
    }

    #[test]
    fn matrix_as_operator_matches_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let out = apply_to_vec(&a, &[1.0, 1.0]);
        assert_eq!(out, vec![3.0, 7.0]);
    }

    #[test]
    fn sharded_csr_matches_matvec_at_every_worker_count() {
        let n = 37;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0 + i as f64 * 0.1));
            if i + 3 < n {
                triplets.push((i, i + 3, -0.7));
                triplets.push((i + 3, i, -0.7));
            }
        }
        let csr = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let reference = csr.matvec(&x);
        for workers in [1, 2, 3, 8] {
            let executor = Executor::with_workers(workers);
            let op = ShardedCsr {
                matrix: &csr,
                executor: &executor,
            };
            assert_eq!(op.dim(), n);
            let mut out = vec![0.0; n];
            op.apply(&x, &mut out);
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    fn operators_are_object_safe() {
        let a = Matrix::identity(2);
        let boxed: Box<dyn LinearOperator> = Box::new(a);
        assert_eq!(boxed.dim(), 2);
    }
}
