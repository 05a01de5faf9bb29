//! The unified similarity-matrix representation behind [`crate::Problem`].
//!
//! A problem holds either a dense [`Matrix`] or a CSR [`CsrMatrix`], and
//! every criterion queries it through the same accessors, so hard and
//! soft solves run unchanged on either representation.

use crate::error::{Error, Result};
use gssl_linalg::{CsrMatrix, Matrix, Vector};

/// A symmetric nonnegative similarity matrix, dense or sparse.
///
/// Construct one via `From<Matrix>` / `From<CsrMatrix>` (or pass either
/// matrix type straight to [`crate::Problem::new`], which takes
/// `impl Into<Weights>`).
#[derive(Debug, Clone, PartialEq)]
pub enum Weights {
    /// Dense row-major storage — the representation of the paper's
    /// closed-form experiments.
    Dense(Matrix),
    /// Compressed sparse rows — kNN / ε-threshold graphs at production
    /// scale.
    Sparse(CsrMatrix),
}

/// Iterator over one row's structurally nonzero `(col, value)` pairs,
/// returned by [`Weights::row_entries`]. An enum over the two storage
/// representations rather than a boxed trait object, so walking every row
/// of a graph allocates nothing.
#[derive(Debug, Clone)]
pub enum RowEntries<'a> {
    /// A dense row; entries with `|v| > 0` false (exact zeros, NaN) are
    /// skipped.
    Dense(std::iter::Enumerate<std::slice::Iter<'a, f64>>),
    /// A CSR row's stored entries.
    Sparse(gssl_linalg::CsrRowIter<'a>),
}

impl Iterator for RowEntries<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            RowEntries::Dense(row) => {
                for (j, &v) in row {
                    if v.abs() > 0.0 {
                        return Some((j, v));
                    }
                }
                None
            }
            RowEntries::Sparse(row) => row.next(),
        }
    }
}

impl From<Matrix> for Weights {
    fn from(w: Matrix) -> Self {
        Weights::Dense(w)
    }
}

impl From<CsrMatrix> for Weights {
    fn from(w: CsrMatrix) -> Self {
        Weights::Sparse(w)
    }
}

impl Weights {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Weights::Dense(w) => w.rows(),
            Weights::Sparse(w) => w.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Weights::Dense(w) => w.cols(),
            Weights::Sparse(w) => w.cols(),
        }
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows() == self.cols()
    }

    /// Whether the sparse representation backs this instance.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Weights::Sparse(_))
    }

    /// Entry `w_ij` (zero for unstored sparse coordinates).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds, matching the underlying
    /// matrix types.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            Weights::Dense(w) => w.get(i, j),
            Weights::Sparse(w) => w.get(i, j),
        }
    }

    /// Number of structurally nonzero entries (dense counts entries with
    /// nonzero magnitude).
    pub fn nnz(&self) -> usize {
        match self {
            Weights::Dense(w) => {
                let mut nnz = 0;
                for i in 0..w.rows() {
                    for v in w.row(i) {
                        if v.abs() > 0.0 {
                            nnz += 1;
                        }
                    }
                }
                nnz
            }
            Weights::Sparse(w) => w.nnz(),
        }
    }

    /// Fraction of nonzero entries, `nnz / (rows · cols)` (1.0 for empty
    /// shapes).
    pub fn density(&self) -> f64 {
        let (r, c) = (self.rows(), self.cols());
        if r == 0 || c == 0 {
            return 1.0;
        }
        self.nnz() as f64 / (r as f64 * c as f64)
    }

    /// Borrows the dense representation, if that is what is stored.
    /// shape: (rows, cols)
    pub fn as_dense(&self) -> Option<&Matrix> {
        match self {
            Weights::Dense(w) => Some(w),
            Weights::Sparse(_) => None,
        }
    }

    /// Borrows the sparse representation, if that is what is stored.
    /// shape: (rows, cols)
    pub fn as_sparse(&self) -> Option<&CsrMatrix> {
        match self {
            Weights::Dense(_) => None,
            Weights::Sparse(w) => Some(w),
        }
    }

    /// Expands to a dense matrix (clones when already dense).
    /// shape: (rows, cols)
    pub fn to_dense(&self) -> Matrix {
        match self {
            Weights::Dense(w) => w.clone(),
            Weights::Sparse(w) => w.to_dense(),
        }
    }

    /// Converts to CSR (clones when already sparse; exact-zero entries are
    /// dropped when converting from dense).
    /// shape: (rows, cols)
    pub fn to_csr(&self) -> CsrMatrix {
        match self {
            Weights::Dense(w) => CsrMatrix::from_dense(w, 0.0),
            Weights::Sparse(w) => w.clone(),
        }
    }

    /// Degree vector `d_i = Σ_j w_ij`.
    /// shape: (rows,)
    pub fn degrees(&self) -> Vector {
        match self {
            Weights::Dense(w) => w.row_sums(),
            Weights::Sparse(w) => Vector::from(w.row_sums()),
        }
    }

    /// Whether the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        match self {
            Weights::Dense(w) => w.is_symmetric(tol),
            Weights::Sparse(w) => w.is_symmetric(tol),
        }
    }

    /// Iterates the structurally nonzero `(col, value)` pairs of row `i`
    /// in ascending column order (dense rows skip exact zeros so both
    /// representations agree). Allocation-free: see [`RowEntries`].
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds, matching the underlying matrix
    /// types.
    pub fn row_entries(&self, i: usize) -> RowEntries<'_> {
        match self {
            Weights::Dense(w) => RowEntries::Dense(w.row(i).iter().enumerate()),
            Weights::Sparse(w) => RowEntries::Sparse(w.row_iter(i)),
        }
    }

    /// Dirichlet energy `Σ_ij w_ij (f_i − f_j)²` of a score vector over
    /// this graph (both orientations of each edge counted, as in
    /// [`gssl_graph::dirichlet_energy`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProblem`] when `f.len() != rows`.
    pub fn dirichlet_energy(&self, f: &Vector) -> Result<f64> {
        if f.len() != self.rows() || !self.is_square() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "dirichlet energy needs a square graph matching the {} scores, got {}x{}",
                    f.len(),
                    self.rows(),
                    self.cols()
                ),
            });
        }
        match self {
            Weights::Dense(w) => Ok(gssl_graph::dirichlet_energy(w, f)?),
            Weights::Sparse(w) => {
                let mut energy = 0.0;
                for i in 0..w.rows() {
                    for (j, v) in w.row_iter(i) {
                        let diff = f[i] - f[j];
                        energy += v * diff * diff;
                    }
                }
                Ok(energy)
            }
        }
    }

    /// Extracts the sub-problem induced by `members`: the square submatrix
    /// `W[members, members]`, preserving the storage representation.
    ///
    /// `members` must be strictly increasing and in bounds — the canonical
    /// component order produced by `gssl_graph::component_partition` — so
    /// the extraction is a pure reindexing: entry `(a, b)` of the result
    /// is `w(members[a], members[b])` bit-for-bit. Sharded solvers rely on
    /// this to reproduce the monolithic system blocks exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProblem`] when the matrix is not square or
    /// `members` is out of bounds or not strictly increasing.
    pub fn extract(&self, members: &[usize]) -> Result<Weights> {
        if !self.is_square() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "sub-problem extraction needs a square matrix, got {}x{}",
                    self.rows(),
                    self.cols()
                ),
            });
        }
        let n = self.rows();
        if members.windows(2).any(|w| w[1] <= w[0]) || members.last().is_some_and(|&m| m >= n) {
            return Err(Error::InvalidProblem {
                message: format!("member list must be strictly increasing and below {n}"),
            });
        }
        let m = members.len();
        // Inverse map: global index -> local position (usize::MAX = absent).
        let mut local = vec![usize::MAX; n];
        for (pos, &g) in members.iter().enumerate() {
            local[g] = pos;
        }
        match self {
            Weights::Dense(w) => {
                let mut sub = Matrix::zeros(m, m);
                for (a, &i) in members.iter().enumerate() {
                    let row = w.row(i);
                    for (b, &j) in members.iter().enumerate() {
                        sub.set(a, b, row[j]);
                    }
                }
                Ok(Weights::Dense(sub))
            }
            Weights::Sparse(w) => {
                let mut triplets = Vec::new();
                for (a, &i) in members.iter().enumerate() {
                    for (j, v) in w.row_iter(i) {
                        if local[j] != usize::MAX {
                            triplets.push((a, local[j], v));
                        }
                    }
                }
                Ok(Weights::Sparse(CsrMatrix::from_triplets(m, m, &triplets)?))
            }
        }
    }

    /// Validates the graph for use in a problem: finite nonnegative
    /// entries, square shape, symmetry within `tol`.
    pub(crate) fn validate(&self, tol: f64) -> Result<()> {
        if !self.is_square() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "similarity matrix must be square, got {}x{}",
                    self.rows(),
                    self.cols()
                ),
            });
        }
        for i in 0..self.rows() {
            for (_, v) in self.row_entries(i) {
                if !v.is_finite() || v < 0.0 {
                    return Err(Error::InvalidProblem {
                        message: "weights must be finite and nonnegative".to_owned(),
                    });
                }
            }
        }
        // Dense NaN entries are skipped by the nonzero filter above when
        // they compare false to the threshold; scan the raw storage too.
        if let Weights::Dense(w) = self {
            if w.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(Error::InvalidProblem {
                    message: "weights must be finite and nonnegative".to_owned(),
                });
            }
        }
        if !self.is_symmetric(tol) {
            return Err(Error::InvalidProblem {
                message: "similarity matrix must be symmetric".to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_dense() -> Matrix {
        Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap()
    }

    #[test]
    fn representations_agree_on_accessors() {
        let dense = Weights::from(chain_dense());
        let sparse = Weights::from(CsrMatrix::from_dense(&chain_dense(), 0.0));
        assert_eq!(dense.rows(), 3);
        assert_eq!(sparse.rows(), 3);
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        assert_eq!(dense.nnz(), sparse.nnz());
        assert!((dense.density() - sparse.density()).abs() < 1e-15);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(dense.get(i, j), sparse.get(i, j));
            }
            let d: Vec<_> = dense.row_entries(i).collect();
            let s: Vec<_> = sparse.row_entries(i).collect();
            assert_eq!(d, s);
        }
        assert_eq!(dense.degrees().as_slice(), sparse.degrees().as_slice());
        assert_eq!(sparse.to_dense(), chain_dense());
        assert_eq!(dense.to_csr(), sparse.to_csr());
        assert!(dense.is_symmetric(1e-12) && sparse.is_symmetric(1e-12));
    }

    #[test]
    fn dirichlet_energy_matches_dense_reference() {
        let f = Vector::from(vec![1.0, 0.5, 0.0]);
        let dense = Weights::from(chain_dense());
        let sparse = Weights::from(CsrMatrix::from_dense(&chain_dense(), 0.0));
        let reference = gssl_graph::dirichlet_energy(&chain_dense(), &f).unwrap();
        assert!((dense.dirichlet_energy(&f).unwrap() - reference).abs() < 1e-15);
        assert!((sparse.dirichlet_energy(&f).unwrap() - reference).abs() < 1e-15);
        assert!(dense.dirichlet_energy(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn validation_catches_bad_graphs() {
        assert!(Weights::from(Matrix::zeros(2, 3)).validate(1e-9).is_err());
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(Weights::from(asym).validate(1e-9).is_err());
        let negative = CsrMatrix::from_triplets(2, 2, &[(0, 1, -1.0), (1, 0, -1.0)]).unwrap();
        assert!(Weights::from(negative).validate(1e-9).is_err());
        let mut nan = chain_dense();
        nan.set(0, 0, f64::NAN);
        assert!(Weights::from(nan).validate(1e-9).is_err());
        assert!(Weights::from(chain_dense()).validate(1e-9).is_ok());
    }

    #[test]
    fn extract_preserves_representation_and_bits() {
        let dense = Weights::from(chain_dense());
        let sparse = Weights::from(CsrMatrix::from_dense(&chain_dense(), 0.0));
        for w in [&dense, &sparse] {
            let sub = w.extract(&[0, 2]).unwrap();
            assert_eq!(sub.is_sparse(), w.is_sparse());
            assert_eq!(sub.rows(), 2);
            for (a, &i) in [0usize, 2].iter().enumerate() {
                for (b, &j) in [0usize, 2].iter().enumerate() {
                    assert_eq!(sub.get(a, b).to_bits(), w.get(i, j).to_bits());
                }
            }
        }
        // Full extraction is the identity, empty extraction is empty.
        assert_eq!(dense.extract(&[0, 1, 2]).unwrap(), dense);
        assert_eq!(dense.extract(&[]).unwrap().rows(), 0);
    }

    #[test]
    fn extract_validates_members() {
        let dense = Weights::from(chain_dense());
        assert!(dense.extract(&[0, 3]).is_err());
        assert!(dense.extract(&[1, 0]).is_err());
        assert!(dense.extract(&[1, 1]).is_err());
        assert!(Weights::from(Matrix::zeros(2, 3)).extract(&[0]).is_err());
    }

    #[test]
    fn as_variants() {
        let dense = Weights::from(chain_dense());
        assert!(dense.as_dense().is_some());
        assert!(dense.as_sparse().is_none());
        let sparse = Weights::from(CsrMatrix::zeros(2, 2));
        assert!(sparse.as_dense().is_none());
        assert!(sparse.as_sparse().is_some());
    }
}
