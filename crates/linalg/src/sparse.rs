//! Compressed sparse row (CSR) matrices.
//!
//! Similarity graphs built by kNN or ε-thresholding are sparse; CSR keeps
//! the iterative hard-criterion solvers at `O(nnz)` per sweep instead of
//! `O((n+m)²)`.

use crate::error::{Error, Result};
use crate::matrix::Matrix;

/// A sparse matrix in compressed sparse row format.
///
/// ```
/// use gssl_linalg::CsrMatrix;
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 4.0)]).unwrap();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(0, 1), 3.0);
/// assert_eq!(m.get(0, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Nonzero values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) sparse matrix.
    /// shape: (rows, cols)
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// The triplets are ordered exactly as a stable sort on `(row, col)`
    /// would order them, in `O(nnz)` rather than `O(nnz log nnz)`: a
    /// stable counting sort by row, then a stable column sort inside each
    /// row that arrives unsorted (rows are short, and sorted rows are left
    /// alone). Duplicate coordinates are then summed in input order.
    ///
    /// Zeros follow the merge, not the input: a triplet whose value is
    /// exactly `±0.0` is dropped when it would open a new entry, but a run
    /// of duplicates whose sum cancels to exactly `0.0` *is stored* (as an
    /// explicit zero). [`CsrMatrix::transpose`] drops such stored zeros.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when any coordinate is out of
    /// bounds.
    /// shape: (rows, cols)
    /// hot
    /// complexity: O(nnz)
    /// deterministic
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        // Row histogram, validating every coordinate on the way.
        let mut indptr = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(Error::InvalidArgument {
                    message: format!("triplet ({r}, {c}) out of bounds for {rows}x{cols} matrix"),
                });
            }
            indptr[r + 1] += 1;
        }
        prefix_sum(&mut indptr);

        // Stable counting sort by row: scatter in input order.
        let mut entries = vec![(0usize, 0.0f64); triplets.len()];
        let mut next = indptr.clone();
        for &(r, c, v) in triplets {
            let slot = &mut next[r];
            entries[*slot] = (c, v);
            *slot += 1;
        }

        // Stable column sort inside each unsorted row, then the merge:
        // duplicates sum into the entry they follow, and an exact zero never
        // opens an entry. `indptr` is rewritten behind the row cursor.
        let mut indices: Vec<usize> = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut lo = 0usize;
        for r in 0..rows {
            let hi = indptr[r + 1];
            let row = &mut entries[lo..hi];
            if !row.is_sorted_by_key(|&(c, _)| c) {
                row.sort_by_key(|&(c, _)| c);
            }
            let row_start = indices.len();
            for &(c, v) in &*row {
                match values.last_mut() {
                    Some(last) if indices.len() > row_start && indices.last() == Some(&c) => {
                        *last += v;
                    }
                    _ if crate::float::is_exactly_zero(v) => {}
                    _ => {
                        indices.push(c);
                        values.push(v);
                    }
                }
            }
            indptr[r + 1] = indices.len();
            lo = hi;
        }
        CsrMatrix::from_sorted_rows(rows, cols, indptr, indices, values)
    }

    /// Builds a CSR matrix from its three arrays: row `r` holds columns
    /// `indices[indptr[r]..indptr[r + 1]]` with the aligned `values`.
    ///
    /// This is the one validated row-wise constructor; every CSR builder
    /// in the workspace ends here. Values are stored as given (explicit
    /// zeros included). The check is `O(nnz)` and never panics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `indptr.len() != rows + 1`,
    /// `indptr[0] != 0`, `indptr` decreases, `indptr[rows]`,
    /// `indices.len()` and `values.len()` disagree, a column index is
    /// `>= cols`, or a row's columns are not strictly increasing (unsorted
    /// or duplicated).
    /// shape: (rows, cols)
    /// hot
    /// complexity: O(nnz)
    /// deterministic
    pub fn from_sorted_rows(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let invalid = |message: String| Err(Error::InvalidArgument { message });
        if rows.checked_add(1) != Some(indptr.len()) {
            return invalid(format!(
                "indptr has length {}, expected rows + 1 = {rows} + 1",
                indptr.len()
            ));
        }
        if indptr.first() != Some(&0) {
            return invalid("indptr must start at 0".to_owned());
        }
        if indices.len() != values.len() || indptr.last() != Some(&indices.len()) {
            return invalid(format!(
                "indptr ends at {:?} but there are {} indices and {} values",
                indptr.last(),
                indices.len(),
                values.len()
            ));
        }
        if let Some(r) = indptr.windows(2).position(|bounds| bounds[1] < bounds[0]) {
            return invalid(format!("indptr decreases after row {r}"));
        }
        // indptr rises monotonically from 0 to indices.len(), so every row
        // range below is in bounds.
        let bad_row = indptr.windows(2).position(|bounds| {
            let row = &indices[bounds[0]..bounds[1]];
            row.windows(2).any(|pair| pair[1] <= pair[0]) || row.last().is_some_and(|&c| c >= cols)
        });
        if let Some(r) = bad_row {
            return invalid(format!(
                "row {r} columns must be strictly increasing and below {cols}"
            ));
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Converts a dense matrix to CSR, dropping entries with
    /// `|a_ij| <= threshold`.
    /// shape: (dense.rows, dense.cols)
    pub fn from_dense(dense: &Matrix, threshold: f64) -> Self {
        // Count survivors first so both payload buffers are sized exactly
        // once instead of growing through the fill loop.
        let nnz = dense
            .as_slice()
            .iter()
            .filter(|v| v.abs() > threshold)
            .count();
        let mut indptr = Vec::with_capacity(dense.rows() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for i in 0..dense.rows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v.abs() > threshold {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: dense.rows(),
            cols: dense.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Expands to a dense [`Matrix`].
    /// shape: (self.rows, self.cols)
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                out.set(i, j, v);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array of length `rows + 1`: row `i` occupies
    /// `indptr[i]..indptr[i + 1]` of [`CsrMatrix::indices`] and
    /// [`CsrMatrix::values`].
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of the stored entries, strictly increasing within
    /// each row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, aligned with [`CsrMatrix::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Element at `(i, j)` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "sparse index out of bounds");
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        match self.indices[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row_iter(&self, i: usize) -> CsrRowIter<'_> {
        assert!(i < self.rows, "row index out of bounds");
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Computes `out = A x` for a slice `x` of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `out.len() != rows`.
    /// hot
    /// complexity: O(nnz)
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "operand length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        self.rows_into(0, x, out);
    }

    /// `out[k] = (A x)[first + k]` for the rows `first..first + out.len()`:
    /// the per-row loop of [`CsrMatrix::matvec_into`], shared with the
    /// row-sharded CG operator so every worker count runs the same sums.
    ///
    /// # Panics
    ///
    /// Panics when a row index is out of bounds or `x` is shorter than
    /// `cols`.
    /// hot
    /// complexity: O(nnz)
    pub(crate) fn rows_into(&self, first: usize, x: &[f64], out: &mut [f64]) {
        for (local, o) in out.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (j, v) in self.row_iter(first + local) {
                sum += v * x[j];
            }
            *o = sum;
        }
    }

    /// Computes `A x` into a freshly allocated `Vec`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    /// hot
    /// complexity: O(nnz)
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Half-bandwidth: the largest `|i - j|` over stored entries (zero for
    /// a diagonal or empty matrix). Drives the solver policy's choice
    /// between incomplete-Cholesky CG (exact on narrow bands) and
    /// multigrid (wide-band graph Laplacians).
    /// complexity: O(nnz)
    pub fn bandwidth(&self) -> usize {
        let mut band = 0usize;
        for i in 0..self.rows {
            for (j, _) in self.row_iter(i) {
                band = band.max(i.abs_diff(j));
            }
        }
        band
    }

    /// Sum of each row (the degree vector when `self` is an affinity matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row_iter(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Returns the transpose (also in CSR form), dropping stored exact
    /// zeros.
    ///
    /// A column-count scatter: count each column's entries, take a prefix
    /// sum, then visit the rows in order and append row `i` to the lists
    /// of its columns — so every output row comes out sorted without a
    /// comparison sort.
    /// shape: (self.cols, self.rows)
    /// hot
    /// complexity: O(nnz)
    /// deterministic
    pub fn transpose(&self) -> CsrMatrix {
        let kept = |v: f64| !crate::float::is_exactly_zero(v);
        let mut indptr = vec![0usize; self.cols + 1];
        for (&j, &v) in self.indices.iter().zip(&self.values) {
            if kept(v) {
                indptr[j + 1] += 1;
            }
        }
        prefix_sum(&mut indptr);
        let nnz = indptr[self.cols];
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = indptr.clone();
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                if kept(v) {
                    let slot = &mut next[j];
                    indices[*slot] = i;
                    values[*slot] = v;
                    *slot += 1;
                }
            }
        }
        // Rows were visited in ascending order, so each output row is
        // strictly increasing and the arrays are valid by construction.
        CsrMatrix::from_sorted_rows(self.cols, self.rows, indptr, indices, values)
            .expect("transpose scatter produced invalid CSR arrays") // lint: allow(no_panic)
    }

    /// Returns `true` when the matrix equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        for i in 0..self.rows {
            // Stream both rows (columns are sorted in CSR) instead of
            // collecting them into per-row scratch vectors.
            let mut a = self.row_iter(i).filter(|&(_, v)| v.abs() > tol);
            let mut b = t.row_iter(i).filter(|&(_, v)| v.abs() > tol);
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break,
                    (Some((ja, va)), Some((jb, vb))) => {
                        if ja != jb || (va - vb).abs() > tol {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// Multiplies every stored value by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }
}

/// Iterator over the stored `(col, value)` pairs of one CSR row, in
/// ascending column order (see [`CsrMatrix::row_iter`]).
pub type CsrRowIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, usize>>,
    std::iter::Copied<std::slice::Iter<'a, f64>>,
>;

/// Turns per-row counts stored at `counts[r + 1]` into row pointers.
fn prefix_sum(counts: &mut [usize]) {
    let mut total = 0usize;
    for count in counts.iter_mut() {
        total += *count;
        *count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_and_get() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 1, 5.0), (0, 2, 2.0)]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_triplets_stores_cancelled_duplicates_and_transpose_drops_them() {
        // An explicit zero never opens an entry, in either sign...
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 0.0), (1, 0, -0.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
        // ...but a duplicate run that cancels to exactly 0.0 after its first
        // nonzero is stored: the merge runs before the zero check.
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.5), (1, 1, 2.0), (0, 1, -1.5)]).unwrap();
        assert_eq!(m.indptr(), &[0, 1, 2]);
        assert_eq!(m.indices(), &[1, 1]);
        assert_eq!(m.values()[0].to_bits(), 0.0f64.to_bits());
        // A zero after the stored entry merges into it instead of vanishing.
        let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, 0.0), (0, 0, 2.0), (0, 0, 0.0)]).unwrap();
        assert_eq!(m.values(), &[2.0]);
        // The transpose drops the stored zero.
        let t = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.5), (1, 1, 2.0), (0, 1, -1.5)])
            .unwrap()
            .transpose();
        assert_eq!(t.indptr(), &[0, 0, 1]);
        assert_eq!(t.indices(), &[1]);
        assert_eq!(t.values(), &[2.0]);
    }

    #[test]
    fn from_sorted_rows_accepts_valid_arrays() {
        let m =
            CsrMatrix::from_sorted_rows(3, 4, vec![0, 2, 2, 3], vec![0, 3, 1], vec![1.0, 0.0, 2.0])
                .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(2, 1), 2.0);
        assert_eq!(
            CsrMatrix::from_sorted_rows(0, 0, vec![0], vec![], vec![])
                .unwrap()
                .rows(),
            0
        );
    }

    #[test]
    fn from_sorted_rows_rejects_broken_invariants() {
        let cases: [(usize, usize, Vec<usize>, Vec<usize>, Vec<f64>); 8] = [
            (2, 2, vec![0, 1], vec![0], vec![1.0]),
            (2, 2, vec![1, 1, 1], vec![0], vec![1.0]),
            (2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]),
            (2, 2, vec![0, 1, 1], vec![2], vec![1.0]),
            (1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]),
            (1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]),
            (1, 3, vec![0, 2], vec![0, 1], vec![1.0]),
            (1, 3, vec![0, 1], vec![0, 1], vec![1.0, 1.0]),
        ];
        for (rows, cols, indptr, indices, values) in cases {
            let err = CsrMatrix::from_sorted_rows(rows, cols, indptr, indices, values);
            assert!(matches!(err, Err(Error::InvalidArgument { .. })), "{err:?}");
        }
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let dense = Matrix::from_rows(&[&[0.0, 1.5, 0.0], &[2.0, 0.0, 0.0]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn from_dense_applies_threshold() {
        let dense = Matrix::from_rows(&[&[0.1, 0.9], &[-0.05, 0.5]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense, 0.2);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.get(0, 1), 0.9);
        assert_eq!(sparse.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let dense =
            Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        let x = [1.0, 2.0, 3.0];
        let expected = dense.matvec(&crate::Vector::from(x.as_slice())).unwrap();
        assert_eq!(sparse.matvec(&x), expected.as_slice().to_vec());
    }

    #[test]
    fn row_sums_match_degrees() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0)]).unwrap();
        assert_eq!(m.row_sums(), vec![3.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
        let rect = CsrMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn scale_multiplies_values() {
        let mut m = CsrMatrix::from_triplets(1, 2, &[(0, 0, 2.0), (0, 1, -1.0)]).unwrap();
        m.scale(3.0);
        assert_eq!(m.get(0, 0), 6.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn empty_rows_have_valid_indptr() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        assert_eq!(m.row_iter(0).count(), 0);
        assert_eq!(m.row_iter(1).count(), 0);
        assert_eq!(m.row_iter(3).count(), 1);
        assert_eq!(m.matvec(&[1.0; 4]), vec![0.0, 0.0, 0.0, 1.0]);
    }
}
