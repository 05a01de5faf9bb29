//! Preconditioned conjugate-gradient solver for symmetric positive-definite
//! systems.
//!
//! [`preconditioned_cg_with`] is the one CG loop in the workspace; the
//! iterative backends ([`crate::PrecondCg`], [`crate::AmgCg`]) run it
//! against their stored operator. The hard criterion's `D₂₂ − W₂₂` is SPD
//! whenever every unlabeled vertex is connected (possibly through other
//! unlabeled vertices) to a labeled vertex.

use crate::error::{Error, Result};
use crate::float::is_exactly_zero;
use crate::ops::LinearOperator;
use crate::precond::Preconditioner;
use crate::strict;
use crate::vector::{dot_slices, Vector};

/// Options controlling a conjugate-gradient run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Maximum number of iterations (0 means `max(2 * dim, 50)`).
    pub max_iterations: usize,
    /// Convergence threshold on the *relative* residual `‖r‖/‖b‖`.
    pub tolerance: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iterations: 0,
            tolerance: 1e-10,
        }
    }
}

/// Outcome of a successful conjugate-gradient run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// The approximate solution.
    pub solution: Vector,
    /// Iterations performed.
    pub iterations: usize,
    /// Final absolute residual norm `‖b − A x‖₂`.
    pub residual_norm: f64,
}

/// Solves `A x = b` by the preconditioned conjugate-gradient method with an
/// arbitrary SPD [`Preconditioner`] `M⁻¹`.
///
/// `A` must be symmetric positive definite and the preconditioner must be
/// SPD; neither is checked here (the [`crate::PrecondCg`] backend validates
/// at factor time, and breakdown is reported as non-convergence).
/// Convergence is measured on the *true* residual `‖b − A x‖₂ / ‖b‖₂`. A
/// bare `&[f64]` is the Jacobi preconditioner `diag(inv_diag)`; a slice of
/// ones gives plain, unpreconditioned CG.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when `b.len() != op.dim()` or
///   `precond.dim() != op.dim()`.
/// * [`Error::InvalidArgument`] when the tolerance is not positive.
/// * [`Error::NotConverged`] when the iteration budget is exhausted or a
///   direction of non-positive curvature is met.
/// * [`Error::NonFiniteValue`] under `strict-checks` when the right-hand
///   side or the computed solution is non-finite.
///
/// ```
/// use gssl_linalg::{preconditioned_cg_with, CgOptions, Matrix, Vector};
/// # fn main() -> Result<(), gssl_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
/// let b = Vector::from(vec![1.0, 2.0]);
/// let out = preconditioned_cg_with(&a, &b, &[1.0, 1.0][..], &CgOptions::default())?;
/// assert!(a.matvec(&out.solution)?.approx_eq(&b, 1e-8));
/// # Ok(())
/// # }
/// ```
/// hot
/// complexity: O(iters * nnz)
pub fn preconditioned_cg_with(
    op: &(impl LinearOperator + ?Sized),
    b: &Vector,
    precond: &(impl Preconditioner + ?Sized),
    options: &CgOptions,
) -> Result<CgOutcome> {
    let n = op.dim();
    if b.len() != n {
        return Err(Error::DimensionMismatch {
            operation: "preconditioned_cg_with",
            left: (n, n),
            right: (b.len(), 1),
        });
    }
    if precond.dim() != n {
        return Err(Error::DimensionMismatch {
            operation: "preconditioned_cg_with preconditioner",
            left: (n, n),
            right: (precond.dim(), 1),
        });
    }
    if !(options.tolerance > 0.0) {
        return Err(Error::InvalidArgument {
            message: format!("tolerance must be positive, got {}", options.tolerance),
        });
    }
    strict::check_finite("preconditioned_cg_with rhs", b.as_slice())?;
    let max_iterations = if options.max_iterations == 0 {
        (2 * n).max(50)
    } else {
        options.max_iterations
    };

    let b_norm = b.norm_l2();
    if is_exactly_zero(b_norm) {
        return Ok(CgOutcome {
            solution: Vector::zeros(n),
            iterations: 0,
            residual_norm: 0.0,
        });
    }
    let threshold = options.tolerance * b_norm;

    let mut x = vec![0.0; n];
    let mut r = b.as_slice().to_vec();
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz_old = dot_slices(&r, &z);
    let mut r_norm2 = dot_slices(&r, &r);

    for k in 0..max_iterations {
        if r_norm2.sqrt() <= threshold {
            strict::check_finite("preconditioned_cg_with output", &x)?;
            return Ok(CgOutcome {
                solution: Vector::from(x),
                iterations: k,
                residual_norm: r_norm2.sqrt(),
            });
        }
        op.apply(&p, &mut ap);
        let p_ap = dot_slices(&p, &ap);
        if p_ap <= 0.0 || !p_ap.is_finite() || rz_old <= 0.0 {
            // Non-positive curvature or an indefinite preconditioned system:
            // A (or M) is not SPD, or we hit numerical breakdown.
            return Err(Error::NotConverged {
                iterations: k,
                residual: r_norm2.sqrt(),
            });
        }
        let alpha = rz_old / p_ap;
        for ((xi, pi), (ri, api)) in x.iter_mut().zip(&p).zip(r.iter_mut().zip(&ap)) {
            *xi += alpha * pi;
            *ri -= alpha * api;
        }
        precond.apply(&r, &mut z);
        let rz_new = dot_slices(&r, &z);
        let beta = rz_new / rz_old;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
        rz_old = rz_new;
        r_norm2 = dot_slices(&r, &r);
    }

    if r_norm2.sqrt() <= threshold {
        strict::check_finite("preconditioned_cg_with output", &x)?;
        Ok(CgOutcome {
            solution: Vector::from(x),
            iterations: max_iterations,
            residual_norm: r_norm2.sqrt(),
        })
    } else {
        Err(Error::NotConverged {
            iterations: max_iterations,
            residual: r_norm2.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse::CsrMatrix;

    /// Unpreconditioned CG: the unit diagonal makes `z = r` exactly.
    fn plain_cg(
        op: &(impl LinearOperator + ?Sized),
        b: &Vector,
        options: &CgOptions,
    ) -> Result<CgOutcome> {
        preconditioned_cg_with(op, b, vec![1.0; op.dim()].as_slice(), options)
    }

    #[test]
    fn solves_small_spd_system() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0]);
        let out = plain_cg(&a, &b, &CgOptions::default()).unwrap();
        let exact = crate::lu::solve(&a, &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-8));
        assert!(out.iterations <= 2 + 1); // CG converges in <= n steps exactly
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = Matrix::identity(3);
        let out = plain_cg(&a, &Vector::zeros(3), &CgOptions::default()).unwrap();
        assert_eq!(out.solution, Vector::zeros(3));
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let a = Matrix::identity(2);
        let err = plain_cg(&a, &Vector::zeros(3), &CgOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                operation: "preconditioned_cg_with",
                ..
            }
        ));
    }

    #[test]
    fn rejects_nonpositive_tolerance() {
        let a = Matrix::identity(2);
        let opts = CgOptions {
            tolerance: 0.0,
            ..CgOptions::default()
        };
        assert!(matches!(
            plain_cg(&a, &Vector::ones(2), &opts),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn reports_non_convergence_on_tiny_budget() {
        // A moderately conditioned SPD matrix cannot converge in one step.
        let a =
            Matrix::from_rows(&[&[10.0, 1.0, 0.0], &[1.0, 5.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap();
        let opts = CgOptions {
            max_iterations: 1,
            tolerance: 1e-14,
        };
        let err = plain_cg(&a, &Vector::ones(3), &opts).unwrap_err();
        assert!(matches!(err, Error::NotConverged { iterations: 1, .. }));
    }

    #[test]
    fn zero_budget_means_max_of_twice_dim_and_50() {
        // A tolerance no finite run reaches pins the iteration budget.
        let opts = CgOptions {
            max_iterations: 0,
            tolerance: 1e-300,
        };
        for (n, budget) in [(10, 50), (100, 200)] {
            let a = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    3.0 + (i as f64).sqrt()
                } else if i.abs_diff(j) == 1 {
                    -1.0
                } else {
                    0.0
                }
            });
            let err = plain_cg(&a, &Vector::ones(n), &opts).unwrap_err();
            assert!(
                matches!(err, Error::NotConverged { iterations, .. } if iterations == budget),
                "n = {n}: {err:?}"
            );
        }
    }

    #[test]
    fn detects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let b = Vector::from(vec![0.0, 1.0]);
        assert!(plain_cg(&a, &b, &CgOptions::default()).is_err());
    }

    #[test]
    fn works_through_operator_abstraction() {
        // Solve (L + I) x = b with L a path-graph Laplacian, the shift
        // folded into the diagonal of a CSR operator.
        let shifted = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 3.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap();
        let b = Vector::from(vec![1.0, 0.0, -1.0]);
        let out = plain_cg(&shifted, &b, &CgOptions::default()).unwrap();
        let exact = crate::lu::solve(&shifted.to_dense(), &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-8));
    }

    #[test]
    fn jacobi_preconditioning_matches_plain_cg() {
        // Badly scaled SPD diagonal-dominant matrix: Jacobi preconditioning
        // should converge in no more iterations than plain CG.
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0 + 100.0 * (i as f64)
            } else if i.abs_diff(j) == 1 {
                -0.5
            } else {
                0.0
            }
        });
        let b = Vector::from_fn(n, |i| ((i + 1) as f64).cos());
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let plain = plain_cg(&a, &b, &CgOptions::default()).unwrap();
        let pcg =
            preconditioned_cg_with(&a, &b, inv_diag.as_slice(), &CgOptions::default()).unwrap();
        assert!(pcg.solution.approx_eq(&plain.solution, 1e-7));
        assert!(pcg.iterations <= plain.iterations);
    }

    #[test]
    fn rejects_bad_preconditioner_len() {
        let a = Matrix::identity(3);
        let err = preconditioned_cg_with(
            &a,
            &Vector::ones(3),
            [1.0; 2].as_slice(),
            &CgOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                operation: "preconditioned_cg_with preconditioner",
                ..
            }
        ));
    }

    #[test]
    fn larger_laplacian_like_system() {
        // Path-graph Laplacian plus diagonal anchor, n = 50.
        let n = 50;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.5
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let b = Vector::from_fn(n, |i| (i as f64 / n as f64).sin());
        let out = plain_cg(&a, &b, &CgOptions::default()).unwrap();
        let exact = crate::lu::solve(&a, &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-7));
    }
}
