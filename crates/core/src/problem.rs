//! The transductive problem instance and the score vectors the criteria
//! return.

use crate::error::{Error, Result};
use crate::weights::Weights;
use gssl_graph::{affinity::affinity_matrix, Kernel};
use gssl_linalg::float::is_exactly_zero;
use gssl_linalg::{strict, BlockPartition, CsrMatrix, Matrix, Vector};

/// A graph-based semi-supervised learning problem: a symmetric similarity
/// matrix over `n + m` points, of which the first `n` carry observed
/// responses.
///
/// This is exactly the setting of the paper's Section II: `W = [w_ij]`
/// with `0 ≤ w_ij ≤ 1` (soft requirement; any nonnegative symmetric matrix
/// is accepted), responses `Y₁, …, Y_n` observed, `Y_{n+1}, …, Y_{n+m}`
/// to be predicted.
///
/// The similarity matrix may be dense or CSR — [`Problem::new`] accepts
/// either through the [`Weights`] abstraction, and every criterion runs
/// unchanged on both representations.
///
/// ```
/// use gssl::Problem;
/// use gssl_linalg::{CsrMatrix, Matrix};
/// # fn main() -> Result<(), gssl::Error> {
/// let w = Matrix::from_rows(&[
///     &[1.0, 0.8, 0.1],
///     &[0.8, 1.0, 0.2],
///     &[0.1, 0.2, 1.0],
/// ])?;
/// let problem = Problem::new(w.clone(), vec![1.0])?; // 1 labeled, 2 unlabeled
/// assert_eq!(problem.n_labeled(), 1);
/// assert_eq!(problem.n_unlabeled(), 2);
/// // The same problem over a sparse graph:
/// let sparse = Problem::new(CsrMatrix::from_dense(&w, 0.0), vec![1.0])?;
/// assert_eq!(sparse.n_unlabeled(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    weights: Weights,
    labels: Vec<f64>,
}

impl Problem {
    /// Symmetry tolerance accepted by the constructor.
    const SYMMETRY_TOL: f64 = 1e-9;

    /// Creates a problem from a similarity matrix — dense [`Matrix`], CSR
    /// [`CsrMatrix`], or an explicit [`Weights`] — and the observed labels
    /// of the first `labels.len()` vertices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProblem`] when:
    /// * the matrix is not square or not symmetric (within `1e-9`),
    /// * any weight is negative or non-finite,
    /// * `labels` is empty or longer than the vertex count,
    /// * any label is non-finite.
    ///
    /// With the `strict-checks` cargo feature enabled, non-finite dense
    /// weights or labels are instead reported as [`Error::NonFiniteValue`],
    /// which pinpoints the first offending element.
    pub fn new(weights: impl Into<Weights>, labels: Vec<f64>) -> Result<Self> {
        let weights = weights.into();
        strict::check_finite("Problem::new labels", &labels)?;
        if let Some(dense) = weights.as_dense() {
            strict::check_finite_matrix("Problem::new weights", dense)?;
        }
        weights.validate(Self::SYMMETRY_TOL)?;
        if labels.is_empty() {
            return Err(Error::InvalidProblem {
                message: "at least one labeled point is required".to_owned(),
            });
        }
        if labels.len() > weights.rows() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "{} labels exceed the {} vertices",
                    labels.len(),
                    weights.rows()
                ),
            });
        }
        if labels.iter().any(|y| !y.is_finite()) {
            return Err(Error::InvalidProblem {
                message: "labels must be finite".to_owned(),
            });
        }
        Ok(Problem { weights, labels })
    }

    /// Builds the problem directly from points (rows of `points`, labeled
    /// rows first) using a kernel graph, as the paper's experiments do.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors and [`Problem::new`] errors.
    pub fn from_points(
        points: &Matrix,
        labels: Vec<f64>,
        kernel: Kernel,
        bandwidth: f64,
    ) -> Result<Self> {
        let weights = affinity_matrix(points, kernel, bandwidth)?;
        Problem::new(weights, labels)
    }

    /// Number of labeled points `n`.
    pub fn n_labeled(&self) -> usize {
        self.labels.len()
    }

    /// Number of unlabeled points `m`.
    pub fn n_unlabeled(&self) -> usize {
        self.weights.rows() - self.labels.len()
    }

    /// Total number of vertices `n + m`.
    pub fn len(&self) -> usize {
        self.weights.rows()
    }

    /// Returns `true` when the problem has no vertices (impossible after
    /// construction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.weights.rows() == 0
    }

    /// Borrows the similarity matrix `W` in whichever representation the
    /// problem holds.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Borrows the dense similarity matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProblem`] when the problem holds a sparse
    /// graph — dense-only algorithms (LLGC, p-Laplacian, self-training,
    /// the theory diagnostics) require an explicitly densified problem.
    /// shape: (total, total)
    pub fn dense_weights(&self) -> Result<&Matrix> {
        self.weights
            .as_dense()
            .ok_or_else(|| Error::InvalidProblem {
                message: "this operation requires dense weights; rebuild the problem from \
                      Weights::to_dense() to densify explicitly"
                    .to_owned(),
            })
    }

    /// Borrows the observed labels `Y₁, …, Y_n`.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The observed labels as a [`Vector`].
    /// shape: (n,)
    pub fn labels_vector(&self) -> Vector {
        Vector::from(self.labels.as_slice())
    }

    /// Degree vector `d_i = Σ_j w_ij` over the full graph.
    /// shape: (total,)
    pub fn degrees(&self) -> Vector {
        self.weights.degrees()
    }

    /// Splits `W` into the 2×2 labeled/unlabeled block structure used by
    /// Eq. (4)/(5) of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProblem`] when the problem holds sparse
    /// weights (the dense block partition would densify implicitly).
    pub fn weight_blocks(&self) -> Result<BlockPartition> {
        Ok(BlockPartition::split(
            self.dense_weights()?,
            self.n_labeled(),
        )?)
    }

    /// The hard-criterion system matrix `D₂₂ − W₂₂` (degrees taken over
    /// the *full* graph, as in the paper), assembled dense from either
    /// representation.
    ///
    /// # Errors
    ///
    /// Propagates partition errors (none for a constructed problem).
    /// shape: (m, m)
    /// hot
    /// complexity: O(m^2)
    pub fn unlabeled_system(&self) -> Result<Matrix> {
        let n = self.n_labeled();
        let m = self.n_unlabeled();
        let degrees = self.degrees();
        match &self.weights {
            Weights::Dense(w) => {
                let blocks = BlockPartition::split(w, n)?;
                strict::check_symmetric("unlabeled system block W22", &blocks.a22, 1e-9)?;
                let mut system = blocks.a22.map(|x| -x);
                for (a, &degree) in degrees.as_slice()[n..].iter().enumerate() {
                    system.set(a, a, degree - blocks.a22.get(a, a));
                }
                Ok(system)
            }
            Weights::Sparse(w) => {
                let mut system = Matrix::zeros(m, m);
                for a in 0..m {
                    let i = n + a;
                    let mut diag = degrees[i];
                    for (j, v) in w.row_iter(i) {
                        if j == i {
                            diag -= v;
                        } else if j >= n {
                            system.set(a, j - n, -v);
                        }
                    }
                    system.set(a, a, diag);
                }
                Ok(system)
            }
        }
    }

    /// The hard-criterion system `D₂₂ − W₂₂` in CSR form — the input the
    /// iterative sparse backend factors without densifying anything.
    ///
    /// Rows are emitted in order straight into the CSR arrays: the
    /// off-diagonal `−w_ij` in the weights' column order, the diagonal
    /// `d_i − w_ii` at its sorted slot, exact zeros dropped — the arrays
    /// the triplet route produced, without the triplets.
    ///
    /// # Errors
    ///
    /// Propagates coordinate errors (none for a constructed problem).
    /// shape: (m, m)
    /// hot
    /// complexity: O(nnz)
    /// deterministic
    pub fn unlabeled_system_csr(&self) -> Result<CsrMatrix> {
        let n = self.n_labeled();
        let m = self.n_unlabeled();
        let degrees = self.degrees();
        // Upper bound: every stored edge plus the m explicit diagonal
        // entries.
        let mut system = RowBuilder::with_capacity(m, self.weights.nnz() + m);
        for a in 0..m {
            let i = n + a;
            let mut diag = degrees[i];
            let mut diag_pending = true;
            for (j, v) in self.weights.row_entries(i) {
                if j == i {
                    diag -= v;
                } else if j >= n {
                    if diag_pending && j > i {
                        system.push(a, diag);
                        diag_pending = false;
                    }
                    system.push(j - n, -v);
                }
            }
            if diag_pending {
                system.push(a, diag);
            }
            system.end_row();
        }
        Ok(system.finish(m)?)
    }

    /// The soft-criterion full system `V + λL` (Eq. 3) in CSR form, where
    /// `V = diag(1 labeled, 0 unlabeled)` and `L = D − W`. Rows are
    /// emitted directly, as in [`Problem::unlabeled_system_csr`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `lambda` is negative or
    /// not finite.
    /// shape: (total, total)
    /// hot
    /// complexity: O(nnz)
    /// deterministic
    pub fn soft_system_csr(&self, lambda: f64) -> Result<CsrMatrix> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(Error::InvalidParameter {
                message: format!("lambda must be finite and nonnegative, got {lambda}"),
            });
        }
        let n = self.n_labeled();
        let total = self.len();
        let degrees = self.degrees();
        let mut system = RowBuilder::with_capacity(total, self.weights.nnz() + total);
        for i in 0..total {
            let mut diag = lambda * degrees[i] + if i < n { 1.0 } else { 0.0 };
            let mut diag_pending = true;
            for (j, v) in self.weights.row_entries(i) {
                if j == i {
                    diag -= lambda * v;
                } else {
                    if diag_pending && j > i {
                        system.push(i, diag);
                        diag_pending = false;
                    }
                    system.push(j, -lambda * v);
                }
            }
            if diag_pending {
                system.push(i, diag);
            }
            system.end_row();
        }
        Ok(system.finish(total)?)
    }

    /// The hard-criterion right-hand side `W₂₁ Y_n`.
    ///
    /// # Errors
    ///
    /// Propagates partition errors (none for a constructed problem).
    /// shape: (m,)
    pub fn unlabeled_rhs(&self) -> Result<Vector> {
        let n = self.n_labeled();
        let m = self.n_unlabeled();
        let mut rhs = Vector::zeros(m);
        for a in 0..m {
            let mut sum = 0.0;
            for (j, v) in self.weights.row_entries(n + a) {
                if j < n {
                    sum += v * self.labels[j];
                }
            }
            rhs[a] = sum;
        }
        Ok(rhs)
    }

    /// Checks that every unlabeled vertex is connected (through edges of
    /// weight `> threshold`) to some labeled vertex — the condition under
    /// which `D₂₂ − W₂₂` is nonsingular and the hard criterion well posed.
    /// One BFS over whichever representation the problem holds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnanchoredUnlabeled`] naming the first stranded
    /// vertex.
    pub fn require_anchored(&self, threshold: f64) -> Result<()> {
        let total = self.len();
        let n = self.n_labeled();
        let mut reached = vec![false; total];
        let mut queue: std::collections::VecDeque<usize> = (0..n).collect();
        for flag in reached.iter_mut().take(n) {
            *flag = true;
        }
        while let Some(v) = queue.pop_front() {
            for (j, w) in self.weights.row_entries(v) {
                if w > threshold && !reached[j] {
                    reached[j] = true;
                    queue.push_back(j);
                }
            }
        }
        match reached[n..].iter().position(|&r| !r) {
            None => Ok(()),
            Some(index) => Err(Error::UnanchoredUnlabeled {
                unlabeled_index: index,
            }),
        }
    }
}

/// CSR arrays of a square system written one row at a time, columns in
/// ascending order. Exact zeros are dropped as they arrive — the rule
/// `CsrMatrix::from_triplets` applies to duplicate-free rows.
struct RowBuilder {
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl RowBuilder {
    fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        RowBuilder {
            indptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends `value` at column `col` of the current row unless it is an
    /// exact zero.
    fn push(&mut self, col: usize, value: f64) {
        if !is_exactly_zero(value) {
            self.indices.push(col);
            self.values.push(value);
        }
    }

    /// Closes the current row.
    fn end_row(&mut self) {
        self.indptr.push(self.indices.len());
    }

    /// Validates the arrays as a `dim × dim` matrix.
    fn finish(self, dim: usize) -> gssl_linalg::Result<CsrMatrix> {
        CsrMatrix::from_sorted_rows(dim, dim, self.indptr, self.indices, self.values)
    }
}

/// Scores produced by a criterion: one value per vertex, labeled first.
#[derive(Debug, Clone, PartialEq)]
pub struct Scores {
    all: Vector,
    n_labeled: usize,
}

impl Scores {
    /// Assembles scores from the labeled and unlabeled parts.
    pub(crate) fn from_parts(labeled: &[f64], unlabeled: &[f64]) -> Self {
        let mut all = Vec::with_capacity(labeled.len() + unlabeled.len());
        all.extend_from_slice(labeled);
        all.extend_from_slice(unlabeled);
        Scores {
            all: Vector::from(all),
            n_labeled: labeled.len(),
        }
    }

    /// Scores of every vertex (labeled first).
    pub fn all(&self) -> &[f64] {
        self.all.as_slice()
    }

    /// Scores of the labeled vertices.
    pub fn labeled(&self) -> &[f64] {
        &self.all.as_slice()[..self.n_labeled]
    }

    /// Scores of the unlabeled vertices — `f̂_{(n+1):(n+m)}` in the paper.
    pub fn unlabeled(&self) -> &[f64] {
        &self.all.as_slice()[self.n_labeled..]
    }

    /// Number of labeled vertices.
    pub fn n_labeled(&self) -> usize {
        self.n_labeled
    }

    /// Binary predictions on the unlabeled vertices (`score >= threshold`).
    pub fn unlabeled_predictions(&self, threshold: f64) -> Vec<bool> {
        self.unlabeled().iter().map(|&s| s >= threshold).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_weights() -> Matrix {
        // 0 - 1 - 2 chain with weights 1 (plus unit self-loops like the
        // Gaussian kernel produces).
        Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap()
    }

    fn chain_csr() -> CsrMatrix {
        CsrMatrix::from_dense(&chain_weights(), 0.0)
    }

    #[test]
    fn construction_and_accessors() {
        let p = Problem::new(chain_weights(), vec![1.0]).unwrap();
        assert_eq!(p.n_labeled(), 1);
        assert_eq!(p.n_unlabeled(), 2);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.labels(), &[1.0]);
        assert_eq!(p.degrees().as_slice(), &[2.0, 3.0, 2.0]);
        assert!(p.dense_weights().is_ok());
    }

    #[test]
    fn sparse_construction_matches_dense() {
        let dense = Problem::new(chain_weights(), vec![1.0]).unwrap();
        let sparse = Problem::new(chain_csr(), vec![1.0]).unwrap();
        assert_eq!(sparse.n_labeled(), 1);
        assert_eq!(sparse.n_unlabeled(), 2);
        assert_eq!(dense.degrees().as_slice(), sparse.degrees().as_slice());
        assert!(sparse.weights().is_sparse());
        assert!(sparse.dense_weights().is_err());
        assert!(sparse.weight_blocks().is_err());
        let ds = dense.unlabeled_system().unwrap();
        let ss = sparse.unlabeled_system().unwrap();
        assert!(ds.approx_eq(&ss, 1e-15));
        assert_eq!(
            dense.unlabeled_rhs().unwrap().as_slice(),
            sparse.unlabeled_rhs().unwrap().as_slice()
        );
    }

    #[test]
    fn csr_systems_match_dense_assembly() {
        for problem in [
            Problem::new(chain_weights(), vec![1.0]).unwrap(),
            Problem::new(chain_csr(), vec![1.0]).unwrap(),
        ] {
            let dense_system = problem.unlabeled_system().unwrap();
            let csr_system = problem.unlabeled_system_csr().unwrap();
            assert!(csr_system.to_dense().approx_eq(&dense_system, 1e-15));
            // Soft full system at λ = 0.7 cross-checked entrywise.
            let lambda = 0.7;
            let soft = problem.soft_system_csr(lambda).unwrap().to_dense();
            let degrees = problem.degrees();
            let n = problem.n_labeled();
            for i in 0..problem.len() {
                for j in 0..problem.len() {
                    let w = problem.weights().get(i, j);
                    let expected = if i == j {
                        lambda * (degrees[i] - w) + if i < n { 1.0 } else { 0.0 }
                    } else {
                        -lambda * w
                    };
                    assert!((soft.get(i, j) - expected).abs() < 1e-14);
                }
            }
        }
        let p = Problem::new(chain_weights(), vec![1.0]).unwrap();
        assert!(p.soft_system_csr(-1.0).is_err());
        assert!(p.soft_system_csr(f64::NAN).is_err());
    }

    #[test]
    fn construction_validates() {
        assert!(Problem::new(Matrix::zeros(2, 3), vec![1.0]).is_err());
        assert!(Problem::new(chain_weights(), vec![]).is_err());
        assert!(Problem::new(chain_weights(), vec![1.0; 4]).is_err());
        assert!(Problem::new(chain_weights(), vec![f64::NAN]).is_err());
        let mut asym = chain_weights();
        asym.set(0, 1, 0.5);
        assert!(Problem::new(asym, vec![1.0]).is_err());
        let mut negative = chain_weights();
        negative.set(0, 1, -0.5);
        negative.set(1, 0, -0.5);
        assert!(Problem::new(negative, vec![1.0]).is_err());
        // The same rules hold for sparse inputs.
        assert!(Problem::new(CsrMatrix::zeros(2, 3), vec![1.0]).is_err());
        assert!(Problem::new(chain_csr(), vec![]).is_err());
        assert!(Problem::new(chain_csr(), vec![1.0; 4]).is_err());
        assert!(Problem::new(chain_csr(), vec![f64::NAN]).is_err());
        let sparse_asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(Problem::new(sparse_asym, vec![1.0]).is_err());
        let sparse_negative =
            CsrMatrix::from_triplets(2, 2, &[(0, 1, -1.0), (1, 0, -1.0)]).unwrap();
        assert!(Problem::new(sparse_negative, vec![1.0]).is_err());
    }

    #[test]
    fn from_points_builds_kernel_graph() {
        let pts = Matrix::from_rows(&[&[0.0], &[0.1], &[0.2]]).unwrap();
        let p = Problem::from_points(&pts, vec![1.0, 0.0], Kernel::Gaussian, 1.0).unwrap();
        assert_eq!(p.n_labeled(), 2);
        assert!(p.weights().is_symmetric(1e-12));
    }

    #[test]
    fn unlabeled_system_matches_hand_computation() {
        // n = 1 labeled, m = 2 unlabeled on the chain.
        let p = Problem::new(chain_weights(), vec![1.0]).unwrap();
        let system = p.unlabeled_system().unwrap();
        // D22 = diag(3, 2); W22 = [[1, 1], [1, 1]].
        let expected = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 1.0]]).unwrap();
        assert!(system.approx_eq(&expected, 1e-12));
        // RHS: W21 Y = [1, 0]ᵀ · 1.
        assert_eq!(p.unlabeled_rhs().unwrap().as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn anchoring_check() {
        let p = Problem::new(chain_weights(), vec![1.0]).unwrap();
        assert!(p.require_anchored(0.0).is_ok());
        // Disconnect vertex 2 entirely.
        let w = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let stranded = Problem::new(w.clone(), vec![1.0]).unwrap();
        assert_eq!(
            stranded.require_anchored(0.0),
            Err(Error::UnanchoredUnlabeled { unlabeled_index: 1 })
        );
        // Identical verdicts on the sparse representation.
        let sparse = Problem::new(CsrMatrix::from_dense(&w, 0.0), vec![1.0]).unwrap();
        assert_eq!(
            sparse.require_anchored(0.0),
            Err(Error::UnanchoredUnlabeled { unlabeled_index: 1 })
        );
        assert!(Problem::new(chain_csr(), vec![1.0])
            .unwrap()
            .require_anchored(0.0)
            .is_ok());
    }

    #[test]
    fn scores_views() {
        let s = Scores::from_parts(&[1.0, 0.0], &[0.7, 0.2]);
        assert_eq!(s.all(), &[1.0, 0.0, 0.7, 0.2]);
        assert_eq!(s.labeled(), &[1.0, 0.0]);
        assert_eq!(s.unlabeled(), &[0.7, 0.2]);
        assert_eq!(s.n_labeled(), 2);
        assert_eq!(s.unlabeled_predictions(0.5), vec![true, false]);
    }
}
