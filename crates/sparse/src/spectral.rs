//! Spectral-radius estimation via power iteration.
//!
//! LinBP's convergence condition (Eq. 2 in the paper) requires `ρ(H̃) < 1 / ρ(W)`. The
//! paper computes `ρ(W)` with PyAMG's approximate eigenvalue routine; we use plain power
//! iteration, which converges quickly on graph adjacency matrices because their top
//! eigenvalue is well separated for the graphs of interest.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::vector;
use fg_obs::Span;

/// Default maximum number of power-iteration steps.
pub const DEFAULT_MAX_ITER: usize = 1000;
/// Default relative tolerance for convergence of the eigenvalue estimate.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Estimate the spectral radius (largest absolute eigenvalue) of a sparse square matrix
/// using power iteration on the original matrix.
///
/// For the symmetric, non-negative adjacency matrices used throughout this crate family
/// the dominant eigenvalue is real and positive, so power iteration converges to the
/// spectral radius. Returns `Ok(0.0)` for an all-zero matrix. Each call records
/// one `spectral_radius` span (arg `nnz`).
pub fn spectral_radius_sparse(m: &CsrMatrix, max_iter: usize, tol: f64) -> Result<f64> {
    let _span = Span::enter_with("spectral_radius", &[("nnz", m.nnz() as u64)]);
    if !m.is_square() {
        return Err(SparseError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let n = m.rows();
    if n == 0 || m.nnz() == 0 {
        return Ok(0.0);
    }
    // Deterministic, mildly varying start vector to avoid starting orthogonal to the
    // dominant eigenvector.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    vector::normalize_l2(&mut v);
    let mut lambda_prev = 0.0f64;
    for it in 0..max_iter {
        let mut w = m.spmv(&v)?;
        let norm = vector::norm2(&w);
        if norm == 0.0 {
            // v ended up in the null space; the dominant eigenvalue along this direction
            // is zero, which for a non-negative matrix means the spectral radius is 0.
            return Ok(0.0);
        }
        let lambda = norm;
        for x in w.iter_mut() {
            *x /= norm;
        }
        v = w;
        if it > 0 && (lambda - lambda_prev).abs() <= tol * lambda.max(1.0) {
            return Ok(lambda);
        }
        lambda_prev = lambda;
    }
    // Power iteration on a well-separated spectrum converges far earlier; if we get here
    // the estimate is still useful, so return it rather than fail hard.
    Ok(lambda_prev)
}

/// Estimate the spectral radius of a small dense square matrix via power iteration on
/// `|M|` (element-wise absolute values), which upper-bounds and — for the symmetric
/// compatibility matrices used here — equals the spectral radius.
pub fn spectral_radius_dense(m: &DenseMatrix, max_iter: usize, tol: f64) -> Result<f64> {
    if !m.is_square() {
        return Err(SparseError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let n = m.rows();
    if n == 0 {
        return Ok(0.0);
    }
    if m.max_abs() == 0.0 {
        return Ok(0.0);
    }
    // Power iteration estimates |lambda_max| of M itself by tracking the Rayleigh
    // quotient; for symmetric M (our compatibility matrices) this is exact.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
    vector::normalize_l2(&mut v);
    let mut lambda_prev = 0.0f64;
    for it in 0..max_iter {
        let w = m.matvec(&v)?;
        let norm = vector::norm2(&w);
        if norm == 0.0 {
            return Ok(0.0);
        }
        let lambda = norm;
        v = w.iter().map(|x| x / norm).collect();
        if it > 0 && (lambda - lambda_prev).abs() <= tol * lambda.max(1.0) {
            return Ok(lambda);
        }
        lambda_prev = lambda;
    }
    Ok(lambda_prev)
}

/// Convenience wrapper using the default iteration budget and tolerance.
pub fn spectral_radius(m: &CsrMatrix) -> Result<f64> {
    spectral_radius_sparse(m, DEFAULT_MAX_ITER, DEFAULT_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectral_radius_of_identity_is_one() {
        let id = CsrMatrix::identity(5);
        let r = spectral_radius(&id).unwrap();
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_zero_matrix_is_zero() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(spectral_radius(&z).unwrap(), 0.0);
    }

    #[test]
    fn spectral_radius_of_scaled_identity() {
        let m = CsrMatrix::identity(3).scaled(2.5);
        let r = spectral_radius(&m).unwrap();
        assert!((r - 2.5).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_complete_graph() {
        // K_4 adjacency has top eigenvalue n-1 = 3.
        let mut triplets = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let w = CsrMatrix::from_triplets(4, 4, &triplets);
        let r = spectral_radius(&w).unwrap();
        assert!((r - 3.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_path_graph() {
        // Path on 3 nodes: eigenvalues are {-sqrt(2), 0, sqrt(2)}.
        let w =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let r = spectral_radius(&w).unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_square_rejected() {
        let m = CsrMatrix::zeros(2, 3);
        assert!(spectral_radius(&m).is_err());
        let d = DenseMatrix::zeros(2, 3);
        assert!(spectral_radius_dense(&d, 100, 1e-9).is_err());
    }

    #[test]
    fn dense_spectral_radius_doubly_stochastic_is_one() {
        // Symmetric doubly-stochastic matrices have spectral radius exactly 1.
        let h = DenseMatrix::from_rows(&[
            vec![0.2, 0.6, 0.2],
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap();
        let r = spectral_radius_dense(&h, 1000, 1e-12).unwrap();
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dense_spectral_radius_zero_matrix() {
        let z = DenseMatrix::zeros(3, 3);
        assert_eq!(spectral_radius_dense(&z, 100, 1e-9).unwrap(), 0.0);
    }

    #[test]
    fn dense_spectral_radius_of_centered_matrix() {
        // The centered version of the h=8 matrix from the paper has spectral radius 0.7.
        let h = DenseMatrix::from_rows(&[
            vec![0.1, 0.8, 0.1],
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.1, 0.8],
        ])
        .unwrap();
        let centered = h.centered();
        let r = spectral_radius_dense(&centered, 2000, 1e-12).unwrap();
        assert!((r - 0.7).abs() < 1e-5, "got {r}");
    }
}
