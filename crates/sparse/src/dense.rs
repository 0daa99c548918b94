//! Dense row-major matrices of `f64`.
//!
//! The estimation step of the paper works on small `k x k` and `n x k` dense matrices
//! (class-statistics sketches, belief matrices). This module provides the dense kernels
//! used there: products, transposes, element-wise arithmetic, Frobenius norms, matrix
//! powers, and the normalization helpers used to build observed statistics matrices.

use crate::error::{Result, SparseError};

/// A dense, row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix of the given shape filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::InvalidInput(format!(
                "expected {} values for a {}x{} matrix, got {}",
                rows * cols,
                rows,
                cols,
                data.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Create a matrix from nested row slices, inferring the shape.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(SparseError::InvalidInput(
                "all rows must have the same length".into(),
            ));
        }
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Read the entry at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Write the entry at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Add `value` to the entry at `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += value;
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Keep only the columns listed in `keep` (strictly increasing), in order.
    /// Rows are compacted front to back in place, so nothing is allocated.
    pub(crate) fn retain_cols(&mut self, keep: &[usize]) {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(keep.last().is_none_or(|&j| j < self.cols));
        let width = keep.len();
        for i in 0..self.rows {
            for (t, &j) in keep.iter().enumerate() {
                self.data[i * width + t] = self.data[i * self.cols + j];
            }
        }
        self.data.truncate(self.rows * width);
        self.cols = width;
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`DenseMatrix::matmul`] writing into a caller-owned output of shape
    /// `(self.rows(), other.cols())`. Every output value is overwritten, so a loop
    /// can reuse one buffer across iterations.
    ///
    /// Each output entry is `Σ_l self[i][l] · other[l][j]`, summed in `l` order from
    /// `+0.0` and skipping the terms whose `self[i][l] == 0.0`.
    pub fn matmul_into(&self, other: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(SparseError::DimensionMismatch {
                op: "dense matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        if out.shape() != (self.rows, other.cols) {
            return Err(SparseError::DimensionMismatch {
                op: "dense matmul (into)",
                left: (self.rows, other.cols),
                right: out.shape(),
            });
        }
        matmul_rows(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                op: "dense matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self
                .row(i)
                .iter()
                .zip(v.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>();
        }
        Ok(out)
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(other, "dense add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(other, "dense sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self .* other`.
    pub fn hadamard(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(other, "dense hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &DenseMatrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(SparseError::DimensionMismatch {
                op,
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiply every entry by a scalar, in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Return a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> DenseMatrix {
        let mut out = self.clone();
        out.scale_in_place(factor);
        out
    }

    /// Add a scalar to every entry ("broadcasting" in the paper's notation).
    pub fn add_scalar(&self, value: f64) -> DenseMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v += value;
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Vector of row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Vector of column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        sums
    }

    /// Frobenius norm `sqrt(sum_ij X_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm of `self - other`.
    pub fn frobenius_distance_sq(&self, other: &DenseMatrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(SparseError::DimensionMismatch {
                op: "frobenius distance",
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum())
    }

    /// Frobenius (L2) distance `||self - other||`.
    pub fn frobenius_distance(&self, other: &DenseMatrix) -> Result<f64> {
        Ok(self.frobenius_distance_sq(other)?.sqrt())
    }

    /// Matrix power `self^p` for a square matrix (`p >= 0`; `p == 0` is the identity).
    pub fn pow(&self, p: usize) -> Result<DenseMatrix> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut result = DenseMatrix::identity(self.rows);
        for _ in 0..p {
            result = result.matmul(self)?;
        }
        Ok(result)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Index of the maximum entry in row `i` (ties resolved to the lowest index).
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0;
        let mut best_val = f64::NEG_INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if v > best_val {
                best_val = v;
                best = j;
            }
        }
        best
    }

    /// Whether every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Row-normalize: divide each row by its sum, `diag(M 1)^{-1} M` (variant 1 in the
    /// paper, Eq. 9). Rows summing to zero are left unchanged.
    pub fn row_normalized(&self) -> DenseMatrix {
        let mut out = self.clone();
        for i in 0..out.rows {
            let s: f64 = out.row(i).iter().sum();
            if s.abs() > 0.0 {
                for v in out.row_mut(i) {
                    *v /= s;
                }
            }
        }
        out
    }

    /// Symmetric normalization `diag(M 1)^{-1/2} M diag(M 1)^{-1/2}` (variant 2, Eq. 10).
    /// Rows with zero sum contribute a scaling factor of zero.
    pub fn symmetric_normalized(&self) -> DenseMatrix {
        let sums = self.row_sums();
        let inv_sqrt: Vec<f64> = sums
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 })
            .collect();
        let mut out = self.clone();
        for i in 0..out.rows {
            for j in 0..out.cols {
                let v = out.get(i, j) * inv_sqrt[i] * inv_sqrt.get(j).copied().unwrap_or(0.0);
                out.set(i, j, v);
            }
        }
        out
    }

    /// Scale so that the average entry equals `1/k` where `k = cols`:
    /// `k (1ᵀ M 1)^{-1} M` (variant 3, Eq. 11). Zero matrices are returned unchanged.
    pub fn mean_scaled(&self) -> DenseMatrix {
        let total = self.sum();
        if total.abs() == 0.0 {
            return self.clone();
        }
        self.scaled(self.cols as f64 / total)
    }

    /// Center every entry around `1/k` where `k = cols` (the residual form used by LinBP).
    pub fn centered(&self) -> DenseMatrix {
        self.add_scalar(-1.0 / self.cols as f64)
    }

    /// Check that the matrix is (numerically) symmetric.
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

    /// Check that every row and column sums to 1 within `tol` (doubly stochastic,
    /// ignoring sign).
    pub fn is_doubly_stochastic(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.row_sums().iter().all(|s| (s - 1.0).abs() <= tol)
            && self.col_sums().iter().all(|s| (s - 1.0).abs() <= tol)
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).sum())
    }
}

/// The row kernel of [`DenseMatrix::matmul_into`]: `out` (`width`-wide
/// rows) is `a` (`inner`-wide rows) times `b` (`inner x width`).
fn matmul_rows(a: &[f64], inner: usize, b: &[f64], width: usize, out: &mut [f64]) {
    out.fill(0.0);
    if inner == 0 || width == 0 {
        return;
    }
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(width)) {
        for (&x, b_row) in a_row.iter().zip(b.chunks_exact(width)) {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert!(!m.is_square());
    }

    #[test]
    fn identity_is_diagonal() {
        let m = DenseMatrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn get_set_add_at() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        m.add_at(0, 1, 2.0);
        assert_eq!(m.get(0, 1), 7.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 1), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        let id = DenseMatrix::identity(2);
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        let mut out = DenseMatrix::zeros(2, 2);
        assert!(a.matmul_into(&DenseMatrix::zeros(3, 3), &mut out).is_err());
    }

    /// The row kernel against an indexed `get`/`row` loop, bit for bit, at every
    /// output width to 10, on inputs holding zeros (skipped
    /// terms), −0.0 (also skipped) and a NaN, written over a reused output buffer
    /// full of garbage.
    #[test]
    fn matmul_kernels_match_the_indexed_loop_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let special = [0.0, -0.0, f64::NAN, 1.0, -2.5];
        for rows in [0, 1, 7] {
            for inner in [0, 1, 3, 9] {
                for width in 1..=10 {
                    let mut draw = |len: usize| -> Vec<f64> {
                        (0..len)
                            .map(|_| match rng.gen_index(4) {
                                0 => special[rng.gen_index(special.len())],
                                _ => 2.0 * rng.gen::<f64>() - 1.0,
                            })
                            .collect()
                    };
                    let a = DenseMatrix::from_vec(rows, inner, draw(rows * inner)).unwrap();
                    let b = DenseMatrix::from_vec(inner, width, draw(inner * width)).unwrap();
                    let mut want = vec![0.0; rows * width];
                    for i in 0..rows {
                        for l in 0..inner {
                            let x = a.get(i, l);
                            if x == 0.0 {
                                continue;
                            }
                            for (j, &y) in b.row(l).iter().enumerate() {
                                want[i * width + j] += x * y;
                            }
                        }
                    }
                    let mut got = DenseMatrix::filled(rows, width, f64::NAN);
                    a.matmul_into(&b, &mut got).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got.data()), bits(&want), "{rows}x{inner}x{width}");
                    assert_eq!(bits(a.matmul(&b).unwrap().data()), bits(&want));
                }
            }
        }
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        let v = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_hadamard() {
        let a = sample();
        let b = DenseMatrix::filled(2, 2, 1.0);
        assert_eq!(
            a.add(&b).unwrap(),
            DenseMatrix::from_rows(&[vec![2.0, 3.0], vec![4.0, 5.0]]).unwrap()
        );
        assert_eq!(a.sub(&a).unwrap(), DenseMatrix::zeros(2, 2));
        assert_eq!(a.hadamard(&b).unwrap(), a);
        assert!(a.add(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scaling_and_scalar_add() {
        let a = sample();
        assert_eq!(a.scaled(2.0).get(1, 1), 8.0);
        assert_eq!(a.add_scalar(1.0).get(0, 0), 2.0);
    }

    #[test]
    fn sums_and_norms() {
        let a = sample();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.row_sums(), vec![3.0, 7.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        let expected = (1.0f64 + 4.0 + 9.0 + 16.0).sqrt();
        assert!((a.frobenius_norm() - expected).abs() < 1e-12);
    }

    #[test]
    fn frobenius_distance_zero_for_identical() {
        let a = sample();
        assert_eq!(a.frobenius_distance(&a).unwrap(), 0.0);
        let b = a.add_scalar(1.0);
        assert!((a.frobenius_distance(&b).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pow_matches_repeated_matmul() {
        let a = sample();
        let a3 = a.pow(3).unwrap();
        let manual = a.matmul(&a).unwrap().matmul(&a).unwrap();
        assert!(a3.approx_eq(&manual, 1e-9));
        assert_eq!(a.pow(0).unwrap(), DenseMatrix::identity(2));
        assert!(DenseMatrix::zeros(2, 3).pow(2).is_err());
    }

    #[test]
    fn argmax_row_picks_largest() {
        let m = DenseMatrix::from_rows(&[vec![0.1, 0.7, 0.2], vec![0.9, 0.05, 0.05]]).unwrap();
        assert_eq!(m.argmax_row(0), 1);
        assert_eq!(m.argmax_row(1), 0);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let m = sample();
        let n = m.row_normalized();
        for s in n.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
        // zero rows stay zero
        let z = DenseMatrix::zeros(2, 2).row_normalized();
        assert_eq!(z, DenseMatrix::zeros(2, 2));
    }

    #[test]
    fn symmetric_normalized_preserves_symmetry() {
        let m = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let n = m.symmetric_normalized();
        assert!(n.is_symmetric(1e-12));
    }

    #[test]
    fn mean_scaled_average_entry_is_one_over_k() {
        let m = sample();
        let n = m.mean_scaled();
        let avg = n.sum() / 4.0;
        assert!((avg - 0.5).abs() < 1e-12); // 1/k with k=2
    }

    #[test]
    fn centered_subtracts_one_over_k() {
        let m = DenseMatrix::filled(2, 2, 0.5);
        let c = m.centered();
        assert!(c.data().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn doubly_stochastic_check() {
        let h = DenseMatrix::from_rows(&[vec![0.2, 0.8], vec![0.8, 0.2]]).unwrap();
        assert!(h.is_doubly_stochastic(1e-12));
        assert!(h.is_symmetric(1e-12));
        let not = sample();
        assert!(!not.is_doubly_stochastic(1e-12));
    }

    #[test]
    fn trace_of_square() {
        assert_eq!(sample().trace().unwrap(), 5.0);
        assert!(DenseMatrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = DenseMatrix::from_rows(&[vec![-5.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 5.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }
}
