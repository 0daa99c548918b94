//! Spectral-radius estimates.
//!
//! LinBP's convergence condition (Eq. 2 in the paper) requires `ρ(H̃) < 1 / ρ(W)`. The
//! paper computes `ρ(W)` with PyAMG's approximate eigenvalue routine, a Lanczos method;
//! [`spectral_radius_sparse`] is a plain three-term Lanczos recurrence from a fixed
//! start vector, which reaches the extremal eigenvalues of a graph adjacency matrix
//! in a few dozen sparse matrix-vector products or fewer. Each product is
//! [`CsrMatrix::spmv`], whose row kernel runs rows in pairs so that two add chains
//! overlap. The `k x k` compatibility matrices go through [`spectral_radius_dense`].

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::vector;
use fg_obs::Span;

/// Lanczos stops once `ρ` moves by at most this much, relative, in one step.
const REL_TOL: f64 = 1e-12;
/// A residual this small relative to `ρ` means the Krylov space is invariant:
/// the Ritz values are exact and the recurrence cannot continue.
const BREAKDOWN: f64 = 1e-14;
/// Lanczos steps (one SpMV each) before the estimate is returned unconverged.
const MAX_STEPS: usize = 1000;
/// Bisection halvings per extremal Ritz value: the Gershgorin interval, at most
/// `6·ρ` wide, shrinks below one unit in the last place of `ρ`.
const BISECTIONS: usize = 60;

/// The spectral radius (largest absolute eigenvalue) of a sparse **symmetric**
/// matrix, by three-term Lanczos.
///
/// The recurrence starts from the deterministic vector `1 + (i mod 7)·0.1`, which no
/// non-negative matrix's dominant eigenvector is orthogonal to, and keeps no
/// reorthogonalization: after `j` steps the estimate is `max(|θ_min|, |θ_max|)` of
/// the `j x j` tridiagonal, whose extremal eigenvalues converge first. It stops when
/// that estimate changes by at most `1e-12` relative between steps, or when the
/// residual falls to `1e-14·ρ` (the Krylov space is invariant and the estimate
/// exact). The result is a pure function of the matrix. Returns `Ok(0.0)` for a
/// matrix without stored entries.
///
/// Each call records one `spectral_radius` span with args `nnz`, `entry_bytes`
/// (bytes per stored entry, see [`CsrMatrix::entry_bytes`]), `spmvs` (Lanczos
/// steps taken) and `converged` (0 when the step cap ran out first; the last
/// estimate is then returned).
pub fn spectral_radius_sparse(m: &CsrMatrix) -> Result<f64> {
    let mut span = Span::enter_with(
        "spectral_radius",
        &[
            ("nnz", m.nnz() as u64),
            ("entry_bytes", m.entry_bytes() as u64),
        ],
    );
    let lanczos = lanczos_radius(m)?;
    span.record("spmvs", lanczos.spmvs as u64);
    span.record("converged", u64::from(lanczos.converged));
    Ok(lanczos.rho)
}

/// What one Lanczos run of [`spectral_radius_sparse`] found and spent.
#[derive(Debug)]
struct Lanczos {
    rho: f64,
    spmvs: usize,
    converged: bool,
}

fn lanczos_radius(m: &CsrMatrix) -> Result<Lanczos> {
    if !m.is_square() {
        return Err(SparseError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let n = m.rows();
    let mut out = Lanczos {
        rho: 0.0,
        spmvs: 0,
        converged: true,
    };
    if n == 0 || m.nnz() == 0 {
        return Ok(out);
    }
    out.converged = false;
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    vector::normalize_l2(&mut v);
    let mut v_prev = vec![0.0; n];
    // The tridiagonal: `alpha` its diagonal, `beta[j]` couples steps j and j + 1.
    let mut alpha = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    while out.spmvs < MAX_STEPS {
        let mut w = m.spmv(&v)?;
        out.spmvs += 1;
        let a = vector::dot(&w, &v);
        let b_prev = beta.last().copied().unwrap_or(0.0);
        for ((x, &vi), &pi) in w.iter_mut().zip(&v).zip(&v_prev) {
            *x -= a * vi + b_prev * pi;
        }
        alpha.push(a);
        let rho_prev = out.rho;
        out.rho = tridiagonal_radius(&alpha, &beta);
        let b = vector::norm2(&w);
        // One step cannot tell a stalled estimate from a converged one: a start
        // vector with `vᵀMv = 0` gives θ = 0 on a non-zero matrix.
        let settled = out.spmvs > 1 && (out.rho - rho_prev).abs() <= REL_TOL * out.rho;
        if b <= BREAKDOWN * out.rho || settled {
            out.converged = true;
            break;
        }
        beta.push(b);
        for x in w.iter_mut() {
            *x /= b;
        }
        v_prev = std::mem::replace(&mut v, w);
    }
    Ok(out)
}

/// `max(|θ_min|, |θ_max|)` of the symmetric tridiagonal matrix with diagonal `alpha`
/// and off-diagonal `beta` (`beta.len() + 1 == alpha.len()`). Each extreme is found by
/// bisection on Sturm counts inside the Gershgorin interval.
fn tridiagonal_radius(alpha: &[f64], beta: &[f64]) -> f64 {
    let m = alpha.len();
    let coupling = |i: usize| {
        let left = if i > 0 { beta[i - 1].abs() } else { 0.0 };
        left + beta.get(i).map_or(0.0, |b| b.abs())
    };
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &a) in alpha.iter().enumerate() {
        lo = lo.min(a - coupling(i));
        hi = hi.max(a + coupling(i));
    }
    let scale = lo.abs().max(hi.abs());
    if scale == 0.0 {
        return 0.0;
    }
    lo -= 4.0 * f64::EPSILON * scale;
    hi += 4.0 * f64::EPSILON * scale;
    let pivmin = f64::MIN_POSITIVE * scale.max(1.0) * scale.max(1.0);
    // How many eigenvalues lie below `x`: the negative pivots of `T - x·I = LDLᵀ`.
    let below = |x: f64| {
        let mut count = 0;
        let mut d = 1.0;
        for (i, &a) in alpha.iter().enumerate() {
            d = if i == 0 {
                a - x
            } else {
                a - x - beta[i - 1] * beta[i - 1] / d
            };
            if d.abs() < pivmin {
                d = -pivmin;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    // Bisect `[lo, hi]` towards the boundary where `has_eigenvalue_at_or_above`
    // flips from true to false.
    let bisect = |has_eigenvalue_at_or_above: &dyn Fn(f64) -> bool| {
        let (mut a, mut b) = (lo, hi);
        for _ in 0..BISECTIONS {
            let mid = 0.5 * (a + b);
            if has_eigenvalue_at_or_above(mid) {
                a = mid;
            } else {
                b = mid;
            }
        }
        0.5 * (a + b)
    };
    let theta_max = bisect(&|x| below(x) < m);
    let theta_min = bisect(&|x| below(x) == 0);
    theta_max.abs().max(theta_min.abs())
}

/// Estimate the spectral radius of a small dense square matrix by power iteration
/// on `M` itself, tracking `‖Mv‖` for a unit `v`. For the symmetric compatibility
/// matrices used here that norm converges to the spectral radius, including when
/// the dominant eigenvalue is negative or comes as a `±λ` pair.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: every eigenvalue of the dense matrix by the eigensolver's
    /// Jacobi kernel, largest magnitude wins.
    fn dense_radius(m: &CsrMatrix) -> f64 {
        let r = m.rows();
        let mut a = m.to_dense().data().to_vec();
        let mut rotation_t = vec![0.0; r * r];
        crate::eigen::jacobi_in_place(&mut a, &mut rotation_t, r).unwrap();
        (0..r).map(|i| a[i * r + i].abs()).fold(0.0, f64::max)
    }

    /// Symmetric adjacency from undirected edges `(i, j, w)`.
    fn undirected(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> CsrMatrix {
        let triplets: Vec<_> = edges
            .into_iter()
            .flat_map(|(i, j, w)| [(i, j, w), (j, i, w)])
            .collect();
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    fn path(n: usize) -> CsrMatrix {
        undirected(n, (1..n).map(|i| (i - 1, i, 1.0)))
    }

    fn assert_matches_oracle(m: &CsrMatrix) -> f64 {
        let want = dense_radius(m);
        let got = spectral_radius_sparse(m).unwrap();
        assert!(
            (got - want).abs() <= 1e-10 * want.max(f64::MIN_POSITIVE),
            "Lanczos {got} vs dense oracle {want}"
        );
        got
    }

    #[test]
    fn spectral_radius_of_identity_is_one() {
        let id = CsrMatrix::identity(5);
        assert!((assert_matches_oracle(&id) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn spectral_radius_of_zero_matrix_is_zero() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(spectral_radius_sparse(&z).unwrap(), 0.0);
        // Stored zeros are a matrix without a non-zero eigenvalue, too.
        let stored = CsrMatrix::from_triplets(3, 3, &[(0, 1, 0.0), (1, 0, 0.0)]);
        assert_eq!(spectral_radius_sparse(&stored).unwrap(), 0.0);
        assert_eq!(
            spectral_radius_sparse(&CsrMatrix::zeros(0, 0)).unwrap(),
            0.0
        );
    }

    #[test]
    fn spectral_radius_of_one_by_one() {
        for a in [2.5, -0.75] {
            let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, a)]);
            assert!((spectral_radius_sparse(&m).unwrap() - a.abs()).abs() < 1e-15);
        }
    }

    #[test]
    fn spectral_radius_of_scaled_identity() {
        let m = CsrMatrix::identity(3).scaled(2.5);
        assert!((spectral_radius_sparse(&m).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn spectral_radius_of_complete_graph() {
        // K_4 adjacency has top eigenvalue n-1 = 3.
        let k4 = undirected(4, (0..4).flat_map(|i| (i + 1..4).map(move |j| (i, j, 1.0))));
        assert!((assert_matches_oracle(&k4) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn spectral_radius_of_path_graph() {
        // Path on 3 nodes: eigenvalues are {-sqrt(2), 0, sqrt(2)}; on n nodes the
        // largest is 2cos(π/(n+1)).
        assert!((assert_matches_oracle(&path(3)) - 2.0f64.sqrt()).abs() < 1e-12);
        let want = 2.0 * (std::f64::consts::PI / 41.0).cos();
        assert!((assert_matches_oracle(&path(40)) - want).abs() < 1e-10);
    }

    #[test]
    fn spectral_radius_of_star_graph() {
        // Star on 40 nodes: ±sqrt(39) and 38 zeros.
        let star = undirected(40, (1..40).map(|leaf| (0, leaf, 1.0)));
        assert!((assert_matches_oracle(&star) - 39.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_bipartite_graph_matches_dense_oracle() {
        // Weighted bipartite graph on 30 + 30 nodes: the spectrum is symmetric,
        // so θ_min = -θ_max and both extremes carry the radius.
        let edges = (0..30).flat_map(|i| {
            (30..60)
                .filter(move |j| (i * 7 + j * 13) % 5 == 0)
                .map(move |j| (i, j, 0.5 + ((i * 3 + j) % 11) as f64 / 10.0))
        });
        assert_matches_oracle(&undirected(60, edges));
    }

    #[test]
    fn disconnected_components_report_the_larger_radius() {
        // A 6-clique (ρ = 5) next to a 20-node weighted path (ρ < 2·3): the
        // start vector touches both, and the radius is the clique's.
        let clique = (0..6).flat_map(|i| (i + 1..6).map(move |j| (i, j, 1.0)));
        let chain = (7..26).map(|i| (i - 1, i, 3.0));
        let m = undirected(26, clique.chain(chain));
        let rho = assert_matches_oracle(&m);
        assert!((rho - 6.0 * (std::f64::consts::PI / 21.0).cos()).abs() < 1e-10);
        // Swap which component dominates.
        let clique = (0..6).flat_map(|i| (i + 1..6).map(move |j| (i, j, 1.0)));
        let chain = (7..26).map(|i| (i - 1, i, 2.0));
        let rho = assert_matches_oracle(&undirected(26, clique.chain(chain)));
        assert!((rho - 5.0).abs() < 1e-10);
    }

    #[test]
    fn step_counts_and_the_cap_are_reported() {
        // An invariant start vector breaks down after one SpMV; a matrix without
        // entries takes none.
        let id = lanczos_radius(&CsrMatrix::identity(5)).unwrap();
        assert_eq!((id.spmvs, id.converged), (1, true));
        let z = lanczos_radius(&CsrMatrix::zeros(4, 4)).unwrap();
        assert_eq!((z.rho, z.spmvs, z.converged), (0.0, 0, true));
        // A long path's top eigenvalues are ~1e-8 apart, far too close for the
        // step cap: the estimate comes back unconverged, below the true 2cos(π/(n+1)).
        let n = 20_000;
        let long = lanczos_radius(&path(n)).unwrap();
        assert_eq!((long.spmvs, long.converged), (MAX_STEPS, false));
        let top = 2.0 * (std::f64::consts::PI / (n + 1) as f64).cos();
        assert!(long.rho <= top && long.rho > top - 1e-4, "{}", long.rho);
    }

    #[test]
    fn non_square_rejected() {
        let m = CsrMatrix::zeros(2, 3);
        assert!(spectral_radius_sparse(&m).is_err());
        let d = DenseMatrix::zeros(2, 3);
        assert!(spectral_radius_dense(&d, 100, 1e-9).is_err());
    }

    #[test]
    fn tridiagonal_radius_matches_closed_forms() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3; [[0, 1], [1, 0]] has ±1.
        assert!((tridiagonal_radius(&[2.0, 2.0], &[1.0]) - 3.0).abs() < 1e-15);
        assert!((tridiagonal_radius(&[0.0, 0.0], &[1.0]) - 1.0).abs() < 1e-15);
        // A dominant negative eigenvalue: [[-4, 1], [1, 1]].
        let want = (-3.0 - 29.0f64.sqrt()) / 2.0;
        assert!((tridiagonal_radius(&[-4.0, 1.0], &[1.0]) - want.abs()).abs() < 1e-14);
        assert_eq!(tridiagonal_radius(&[0.0], &[]), 0.0);
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
