//! Dense affinity (similarity) matrices: `W = [w_ij]` with
//! `w_ij = K(‖x_i − x_j‖ / h)`.

use crate::bandwidth::{squared_distance, Bandwidth};
use crate::error::{Error, Result};
use crate::kernel::Kernel;
use gssl_linalg::Matrix;
use gssl_runtime::Executor;

/// Row-block width of the sharded assembly: a few blocks per worker so
/// stragglers even out without shredding cache locality.
fn row_block(rows: usize, executor: &Executor) -> usize {
    rows.div_ceil(executor.workers().saturating_mul(4)).max(1)
}

/// Pairwise squared-distance matrix of a point set (rows are points).
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] when `points` has no rows.
///
/// ```
/// use gssl_graph::affinity::pairwise_squared_distances;
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl_graph::Error> {
/// let pts = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]])?;
/// let d2 = pairwise_squared_distances(&pts)?;
/// assert_eq!(d2.get(0, 1), 25.0);
/// assert_eq!(d2.get(1, 1), 0.0);
/// # Ok(())
/// # }
/// ```
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn pairwise_squared_distances(points: &Matrix) -> Result<Matrix> {
    let n = points.rows();
    if n == 0 {
        return Err(Error::EmptyInput {
            required: "at least one point",
        });
    }
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        let row_i = points.row(i);
        for j in (i + 1)..n {
            let d2 = squared_distance(row_i, points.row(j));
            out.set(i, j, d2);
            out.set(j, i, d2);
        }
    }
    Ok(out)
}

/// Builds the dense affinity matrix `W` for `points` (rows are points)
/// using `kernel` at a concrete `bandwidth`.
///
/// The diagonal is included (`w_ii = K(0) = 1`), matching the paper's
/// definition of `W` where `d_i = Σ_j w_ij` sums over all `j` including
/// `j = i`. (The Laplacian `D − W` is unaffected by the diagonal.)
///
/// # Errors
///
/// * [`Error::EmptyInput`] when `points` has no rows.
/// * [`Error::InvalidBandwidth`] when `bandwidth <= 0`.
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn affinity_matrix(points: &Matrix, kernel: Kernel, bandwidth: f64) -> Result<Matrix> {
    affinity_matrix_with(points, kernel, bandwidth, &Executor::sequential())
}

/// [`affinity_matrix`] with the rows sharded across `executor`; output
/// bit-identical at every worker count.
///
/// One row-owned kernel: each worker writes the upper triangle of its
/// block of rows in place — `K(0)` on the diagonal, then
/// `K(‖x_i − x_j‖²)` for `j > i` — and one pass on the calling thread
/// mirrors the upper triangle into the lower. Every entry is one
/// `squared_distance` and one kernel evaluation, whoever computes it, and
/// no `n × n` distance matrix is formed.
///
/// # Errors
///
/// Same as [`affinity_matrix`].
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn affinity_matrix_with(
    points: &Matrix,
    kernel: Kernel,
    bandwidth: f64,
    executor: &Executor,
) -> Result<Matrix> {
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let n = points.rows();
    if n == 0 {
        return Err(Error::EmptyInput {
            required: "at least one point",
        });
    }
    let diagonal = kernel.weight_unchecked(0.0, bandwidth);
    let mut w = Matrix::zeros(n, n);
    executor.for_each_chunk_mut(
        w.as_mut_slice(),
        row_block(n, executor) * n,
        |start, chunk| {
            let first_row = start / n;
            for (local, row) in chunk.chunks_mut(n).enumerate() {
                let i = first_row + local;
                let row_i = points.row(i);
                row[i] = diagonal;
                for (j, value) in row.iter_mut().enumerate().skip(i + 1) {
                    *value =
                        kernel.weight_unchecked(squared_distance(row_i, points.row(j)), bandwidth);
                }
            }
        },
    )?;
    for i in 0..n {
        for j in (i + 1)..n {
            w.set(j, i, w.get(i, j));
        }
    }
    Ok(w)
}

/// Convenience wrapper: resolves a [`Bandwidth`] rule and builds the
/// affinity matrix in one call.
///
/// `rate_n` is forwarded to [`Bandwidth::resolve`] (the paper resolves its
/// rate with the labeled sample size).
///
/// # Errors
///
/// Propagates bandwidth-resolution and affinity-construction errors.
/// shape: (points.rows, points.rows)
/// deterministic
pub fn affinity_with_rule(
    points: &Matrix,
    kernel: Kernel,
    bandwidth: Bandwidth,
    rate_n: Option<usize>,
) -> Result<(Matrix, f64)> {
    let h = bandwidth.resolve(points, rate_n)?;
    let w = affinity_matrix(points, kernel, h)?;
    Ok((w, h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap()
    }

    #[test]
    fn distances_are_symmetric_with_zero_diagonal() {
        let d2 = pairwise_squared_distances(&triangle()).unwrap();
        assert!(d2.is_symmetric(0.0));
        for i in 0..3 {
            assert_eq!(d2.get(i, i), 0.0);
        }
        assert_eq!(d2.get(0, 1), 1.0);
        assert_eq!(d2.get(1, 2), 2.0);
    }

    #[test]
    fn affinity_is_symmetric_with_unit_diagonal() {
        let w = affinity_matrix(&triangle(), Kernel::Gaussian, 1.0).unwrap();
        assert!(w.is_symmetric(0.0));
        for i in 0..3 {
            assert_eq!(w.get(i, i), 1.0);
        }
        assert!((w.get(0, 1) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn affinity_entries_are_in_unit_interval() {
        for kernel in Kernel::all() {
            let w = affinity_matrix(&triangle(), kernel, 0.8).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    let v = w.get(i, j);
                    assert!((0.0..=1.0).contains(&v), "{kernel} out of range");
                }
            }
        }
    }

    #[test]
    fn compact_kernel_gives_sparse_affinity() {
        // Distance between the two clusters exceeds the bandwidth.
        let pts = Matrix::from_rows(&[&[0.0], &[0.1], &[10.0], &[10.1]]).unwrap();
        let w = affinity_matrix(&pts, Kernel::Boxcar, 1.0).unwrap();
        assert_eq!(w.get(0, 1), 1.0);
        assert_eq!(w.get(0, 2), 0.0);
        assert_eq!(w.get(2, 3), 1.0);
    }

    #[test]
    fn affinity_validates_arguments() {
        assert!(matches!(
            affinity_matrix(&triangle(), Kernel::Gaussian, 0.0),
            Err(Error::InvalidBandwidth { .. })
        ));
        assert!(matches!(
            pairwise_squared_distances(&Matrix::zeros(0, 2)),
            Err(Error::EmptyInput { .. })
        ));
        assert!(matches!(
            affinity_matrix(&Matrix::zeros(0, 2), Kernel::Gaussian, 1.0),
            Err(Error::EmptyInput { .. })
        ));
    }

    #[test]
    fn affinity_is_the_kernel_of_the_pairwise_distances() {
        let pts = Matrix::from_fn(60, 3, |i, j| ((i * 7 + j * 3) as f64 * 0.31).sin());
        let d2 = pairwise_squared_distances(&pts).unwrap();
        for kernel in Kernel::all() {
            let w = affinity_matrix(&pts, kernel, 0.7).unwrap();
            for i in 0..60 {
                for j in 0..60 {
                    let expected = kernel.weight(d2.get(i, j), 0.7).unwrap();
                    assert_eq!(
                        w.get(i, j).to_bits(),
                        expected.to_bits(),
                        "{kernel} ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_assembly_is_bit_identical_across_worker_counts() {
        use gssl_runtime::Executor;
        // Enough rows for several chunks per worker.
        let pts = Matrix::from_fn(60, 3, |i, j| ((i * 7 + j * 3) as f64 * 0.31).sin());
        let w = affinity_matrix(&pts, Kernel::Gaussian, 0.7).unwrap();
        for workers in [1, 2, 3, 4] {
            let executor = Executor::with_workers(workers);
            let w_par = affinity_matrix_with(&pts, Kernel::Gaussian, 0.7, &executor).unwrap();
            assert_eq!(w_par.as_slice(), w.as_slice(), "W at {workers} workers");
        }
        // Empty and one-point clouds keep their results on every width.
        let one = Matrix::from_rows(&[&[0.5, 0.5]]).unwrap();
        for workers in [1, 2] {
            let executor = Executor::with_workers(workers);
            let w1 = affinity_matrix_with(&one, Kernel::Gaussian, 0.7, &executor).unwrap();
            assert_eq!(w1.as_slice(), &[1.0]);
            assert!(matches!(
                affinity_matrix_with(&Matrix::zeros(0, 2), Kernel::Gaussian, 0.7, &executor),
                Err(Error::EmptyInput { .. })
            ));
        }
    }

    #[test]
    fn parallel_assembly_propagates_validation_errors() {
        use gssl_runtime::Executor;
        let executor = Executor::with_workers(2);
        assert!(matches!(
            affinity_matrix_with(&triangle(), Kernel::Gaussian, 0.0, &executor),
            Err(Error::InvalidBandwidth { .. })
        ));
    }

    #[test]
    fn rule_wrapper_reports_resolved_bandwidth() {
        let pts = triangle();
        let (w, h) =
            affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::Fixed(0.5), None).unwrap();
        assert_eq!(h, 0.5);
        assert_eq!(w.rows(), 3);
        let (_, h_rate) =
            affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::PaperRate, Some(50)).unwrap();
        assert!((h_rate - crate::bandwidth::paper_rate(50, 2).unwrap()).abs() < 1e-15);
    }
}
