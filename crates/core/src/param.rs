//! Free-parameter representation of symmetric doubly-stochastic matrices.
//!
//! A symmetric doubly-stochastic `k x k` matrix has `k* = k(k-1)/2` degrees of freedom
//! (Section 4 of the paper). The estimators optimize over the free-parameter vector
//! `h ∈ R^{k*}` holding the entries `H_ij` with `i ≤ j, j ≠ k-1` (the upper triangle of
//! the leading `(k-1) x (k-1)` block); the remaining entries follow from symmetry and
//! the unit row/column sums (Eq. 6).
//!
//! This module provides the bijection `h ↔ H`, the structure projection of a full
//! matrix gradient `G = ∂E/∂H` onto the free parameters (the `S`-matrix contraction of
//! Proposition 4.7), and the restart points used by DCEr (Section 4.8).

use crate::error::{CoreError, Result};
use fg_sparse::DenseMatrix;
use rand::Rng;

/// Number of free parameters for `k` classes: `k* = k(k-1)/2`.
pub fn num_free_parameters(k: usize) -> usize {
    k * k.saturating_sub(1) / 2
}

/// The `(row, col)` position of each free parameter, in the canonical order used by the
/// paper's parameterization: the upper-triangular entries (including the diagonal) of
/// the leading `(k-1) x (k-1)` block, row by row.
pub fn free_parameter_positions(k: usize) -> Vec<(usize, usize)> {
    let mut positions = Vec::with_capacity(num_free_parameters(k));
    for i in 0..k.saturating_sub(1) {
        for j in i..k - 1 {
            positions.push((i, j));
        }
    }
    positions
}

/// Reconstruct the full `k x k` matrix from the free-parameter vector (Eq. 6).
///
/// The result is symmetric with unit row and column sums by construction; entries are
/// *not* clamped to `[0, 1]`, mirroring the paper's unconstrained parameterization.
pub fn free_to_matrix(h: &[f64], k: usize) -> Result<DenseMatrix> {
    let expected = num_free_parameters(k);
    if h.len() != expected {
        return Err(CoreError::InvalidConfig(format!(
            "expected {expected} free parameters for k = {k}, got {}",
            h.len()
        )));
    }
    if k == 0 {
        return Err(CoreError::InvalidConfig("k must be positive".into()));
    }
    let mut m = DenseMatrix::zeros(k, k);
    fill_matrix_from_free(h, k, m.data_mut());
    Ok(m)
}

/// [`free_to_matrix`] into a row-major `k x k` slice (every entry is written), for
/// callers that keep their own storage. `h` must hold `k(k-1)/2` values, `k ≥ 1`.
pub(crate) fn fill_matrix_from_free(h: &[f64], k: usize, m: &mut [f64]) {
    // Fill the leading (k-1) x (k-1) block from the parameters (symmetrically), in
    // the order of `free_parameter_positions`.
    let mut values = h.iter();
    for i in 0..k - 1 {
        for j in i..k - 1 {
            let value = *values.next().expect("k(k-1)/2 free parameters");
            m[i * k + j] = value;
            m[j * k + i] = value;
        }
    }
    if k == 1 {
        m[0] = 1.0;
        return;
    }
    let last = k - 1;
    // Last column / row: H_{i,k} = 1 - sum_{l<k} H_{i,l}.
    for i in 0..last {
        let row_sum: f64 = (0..last).map(|l| m[i * k + l]).sum();
        m[i * k + last] = 1.0 - row_sum;
        m[last * k + i] = 1.0 - row_sum;
    }
    // Bottom-right corner: H_{k,k} = 2 - k + sum_{l,r<k} H_{l,r}.
    let block_sum: f64 = (0..last)
        .map(|l| (0..last).map(|r| m[l * k + r]).sum::<f64>())
        .sum();
    m[last * k + last] = 2.0 - k as f64 + block_sum;
}

/// Extract the free-parameter vector from a (symmetric doubly-stochastic) matrix — the
/// inverse of [`free_to_matrix`].
pub fn matrix_to_free(m: &DenseMatrix) -> Result<Vec<f64>> {
    if !m.is_square() {
        return Err(CoreError::InvalidInput(format!(
            "matrix must be square, got {}x{}",
            m.rows(),
            m.cols()
        )));
    }
    let k = m.rows();
    Ok(free_parameter_positions(k)
        .into_iter()
        .map(|(i, j)| m.get(i, j))
        .collect())
}

/// Project a full-matrix gradient `G = ∂E/∂H` onto the free parameters, applying the
/// structure matrices of Proposition 4.7:
///
/// * off-diagonal parameter `(i, j)`, `i < j`:
///   `G_ij + G_ji - G_ik - G_kj - G_jk - G_ki + 2 G_kk`
/// * diagonal parameter `(i, i)`:
///   `G_ii - G_ik - G_ki + G_kk`
///
/// where `k` denotes the last row/column index.
pub fn project_gradient(g: &DenseMatrix) -> Result<Vec<f64>> {
    if !g.is_square() {
        return Err(CoreError::InvalidInput(format!(
            "gradient must be square, got {}x{}",
            g.rows(),
            g.cols()
        )));
    }
    Ok(project_gradient_flat(g.data(), g.rows()))
}

/// [`project_gradient`] on a row-major `k x k` slice.
pub(crate) fn project_gradient_flat(g: &[f64], k: usize) -> Vec<f64> {
    if k == 0 {
        return Vec::new();
    }
    let last = k - 1;
    let at = |i: usize, j: usize| g[i * k + j];
    let mut out = Vec::with_capacity(num_free_parameters(k));
    for i in 0..last {
        for j in i..last {
            let value = if i == j {
                at(i, i) - at(i, last) - at(last, i) + at(last, last)
            } else {
                at(i, j) + at(j, i) - at(i, last) - at(last, j) - at(j, last) - at(last, i)
                    + 2.0 * at(last, last)
            };
            out.push(value);
        }
    }
    out
}

/// The uniform starting point: every free parameter equals `1/k` (so the reconstructed
/// matrix is the uninformative uniform matrix).
pub fn uniform_start(k: usize) -> Vec<f64> {
    vec![1.0 / k as f64; num_free_parameters(k)]
}

/// Restart points for DCEr (Section 4.8): the uniform point perturbed into the
/// hyper-quadrants of the parameter space, each free parameter set to `1/k ± δ` with
/// `δ < 1/k²`. For small `k*` all `2^{k*}` quadrants are enumerated; otherwise the
/// quadrant signs are sampled uniformly at random until `max_restarts` points exist.
pub fn restart_points<R: Rng + ?Sized>(
    k: usize,
    max_restarts: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    let k_star = num_free_parameters(k);
    let delta = 0.5 / (k as f64 * k as f64);
    let base = 1.0 / k as f64;
    let mut points = Vec::new();
    // Always include the uniform point itself first.
    points.push(uniform_start(k));
    if k_star == 0 || max_restarts <= 1 {
        return points;
    }
    let total_quadrants = if k_star < 20 {
        1usize << k_star
    } else {
        usize::MAX
    };
    if total_quadrants <= max_restarts.saturating_sub(1) {
        for mask in 0..total_quadrants {
            let point: Vec<f64> = (0..k_star)
                .map(|p| {
                    if mask >> p & 1 == 1 {
                        base + delta
                    } else {
                        base - delta
                    }
                })
                .collect();
            points.push(point);
        }
    } else {
        while points.len() < max_restarts {
            let point: Vec<f64> = (0..k_star)
                .map(|_| {
                    if rng.gen::<bool>() {
                        base + delta
                    } else {
                        base - delta
                    }
                })
                .collect();
            points.push(point);
        }
    }
    points.truncate(max_restarts.max(1));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn free_parameter_count() {
        assert_eq!(num_free_parameters(2), 1);
        assert_eq!(num_free_parameters(3), 3);
        assert_eq!(num_free_parameters(4), 6);
        assert_eq!(num_free_parameters(7), 21); // the paper's "21 estimated parameters" for Cora
    }

    #[test]
    fn positions_cover_leading_block() {
        assert_eq!(free_parameter_positions(3), vec![(0, 0), (0, 1), (1, 1)]);
        assert_eq!(free_parameter_positions(2), vec![(0, 0)]);
        assert!(free_parameter_positions(1).is_empty());
    }

    #[test]
    fn paper_k3_reconstruction_example() {
        // The paper's example: h = [H11, H21, H22] reconstructs the full matrix. Our
        // canonical order is [H11, H12, H22]; with a symmetric matrix H12 = H21.
        let h = vec![0.2, 0.6, 0.2];
        let m = free_to_matrix(&h, 3).unwrap();
        let expected = DenseMatrix::from_rows(&[
            vec![0.2, 0.6, 0.2],
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap();
        assert!(m.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn reconstruction_is_symmetric_and_doubly_stochastic() {
        let h = vec![0.3, 0.25, 0.4];
        let m = free_to_matrix(&h, 3).unwrap();
        assert!(m.is_symmetric(1e-12));
        for s in m.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
        for s in m.col_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_free_to_matrix_to_free() {
        let h = vec![0.1, 0.5, 0.2, 0.05, 0.3, 0.15];
        let m = free_to_matrix(&h, 4).unwrap();
        let back = matrix_to_free(&m).unwrap();
        for (a, b) in h.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn wrong_parameter_count_rejected() {
        assert!(free_to_matrix(&[0.1, 0.2], 3).is_err());
        assert!(free_to_matrix(&[], 0).is_err());
    }

    #[test]
    fn k1_is_trivially_one() {
        let m = free_to_matrix(&[], 1).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn k2_reconstruction() {
        let m = free_to_matrix(&[0.3], 2).unwrap();
        let expected = DenseMatrix::from_rows(&[vec![0.3, 0.7], vec![0.7, 0.3]]).unwrap();
        assert!(m.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matrix_to_free_rejects_non_square() {
        assert!(matrix_to_free(&DenseMatrix::zeros(2, 3)).is_err());
        assert!(project_gradient(&DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn gradient_projection_matches_finite_differences() {
        // For an arbitrary smooth scalar function E(H) = sum_ij C_ij H_ij the projected
        // gradient must equal the finite-difference derivative of E(free_to_matrix(h)).
        let k = 3;
        let c = DenseMatrix::from_rows(&[
            vec![1.0, -2.0, 0.5],
            vec![0.3, 4.0, -1.0],
            vec![2.0, 0.7, -3.0],
        ])
        .unwrap();
        let energy = |h: &[f64]| -> f64 {
            let m = free_to_matrix(h, k).unwrap();
            m.hadamard(&c).unwrap().sum()
        };
        let h0 = vec![0.25, 0.4, 0.3];
        // Analytic: dE/dH = C, projected onto the free parameters.
        let analytic = project_gradient(&c).unwrap();
        let eps = 1e-6;
        for (p, &g) in analytic.iter().enumerate() {
            let mut plus = h0.clone();
            plus[p] += eps;
            let mut minus = h0.clone();
            minus[p] -= eps;
            let numeric = (energy(&plus) - energy(&minus)) / (2.0 * eps);
            assert!(
                (numeric - g).abs() < 1e-5,
                "param {p}: numeric {numeric} vs analytic {g}"
            );
        }
    }

    #[test]
    fn uniform_start_reconstructs_uniform_matrix() {
        let m = free_to_matrix(&uniform_start(4), 4).unwrap();
        for &v in m.data() {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn restart_points_enumerate_quadrants_for_small_k() {
        let mut rng = StdRng::seed_from_u64(0);
        // k = 2 -> k* = 1 -> 2 quadrants + uniform = 3 points available.
        let pts = restart_points(2, 10, &mut rng);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], uniform_start(2));
        assert!(pts[1][0] != 0.5);
    }

    #[test]
    fn restart_points_respect_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let pts = restart_points(3, 4, &mut rng);
        assert_eq!(pts.len(), 4);
        // All restart points reconstruct to valid doubly-stochastic matrices.
        for p in &pts {
            let m = free_to_matrix(p, 3).unwrap();
            assert!(m.is_symmetric(1e-12));
            for s in m.row_sums() {
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn restart_points_for_large_k_are_sampled() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts = restart_points(7, 10, &mut rng); // k* = 21 -> sampling path
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0], uniform_start(7));
    }
}
