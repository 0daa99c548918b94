//! Dependency-free symmetric eigensolver: Chebyshev-filtered subspace
//! iteration with Rayleigh–Ritz extraction and hard locking (Zhou & Saad).
//!
//! The low-rank counting backend approximates a symmetric adjacency matrix as
//! `W ≈ V·Λ·Vᵀ` from its `r` dominant (largest-magnitude) eigenpairs, so path
//! statistics collapse to dense factor-space work independent of edge count.
//! This module computes those eigenpairs with no external dependencies. The
//! solver works on b = `r` plus guard columns. Pairs that have converged are
//! **locked**: frozen, and never filtered, projected or re-orthonormalized
//! again. The rest form the orthonormal **active** n×a block `Q`, kept
//! orthogonal to the locked vectors. One **round** does four things, all on
//! the active block only:
//!
//! 1. **Rayleigh–Ritz**: `Y = W·Q`, then the projected matrix `QᵀY` (a×a,
//!    symmetric) is diagonalized by Householder tridiagonalization and
//!    implicit-shift QL. Ritz pairs are sorted by `|θ|` descending (index
//!    tie-break), and the Ritz vectors `V = Q·U` and their images `W·V = Y·U`
//!    come out of one fused rotation.
//! 2. **Convergence test and locking** on that true `W·V`: a pair passes when
//!    `‖W·v − θ·v‖₂ ≤ tol·|θ₁|`, a backward-error test relative to the largest
//!    Ritz value, so it means the same at any scale of `W`. The locked and
//!    active pairs are merged in the same `|θ|` order. When the leading `r`
//!    of that order are all locked or passing, they are the result;
//!    otherwise the passing active pairs in its leading run are locked, and
//!    the active block shrinks.
//! 3. **Chebyshev filter**: `p(W)·V` on the remaining active Ritz vectors,
//!    with `p(x) = T_d(x/c) / T_d(|θ₁|/c)`, `d = FILTER_DEGREE` and `c` the
//!    smallest `|θ|` of locked and active pairs (floored at a share of
//!    `|θ₁|`). The filter damps the interval `[−c, c]` and amplifies both ends
//!    of the spectrum, which is what the largest-magnitude ordering needs.
//!    The three-term recurrence starts from `V` and the `W·V` already
//!    computed, so it costs `d − 1` SpMMs of width a, and the normalization
//!    keeps every value O(1).
//! 4. **Reorthonormalization** of the filtered block against the locked
//!    vectors and itself by modified Gram–Schmidt with DGKS
//!    reorthogonalization (a second pass only for a column the first pass
//!    shrank below 1/√2 of its norm), and a deterministic replacement for
//!    numerically dead columns, so the basis never loses orthogonality and
//!    never consults a random source after start-up.
//!
//! A round is therefore `d` block products plus one pass of dense work, each
//! on the a active columns; the round that converges skips steps 3 and 4.
//! Every SpMM goes through [`CsrMatrix::spmm_dense_into`] and all dense work
//! is serial, so the factorization is **bit-identical** at any thread count.
//! The initial block comes from a splitmix64 stream seeded by
//! [`EigenConfig::seed`]: same seed, same factor, byte for byte, on every host.
//!
//! At `r = n` the first Rayleigh–Ritz pass is already exact (the block spans
//! all of `Rⁿ`) and no filtering runs, which is what makes the full-rank
//! solve usable as a correctness oracle against exact path counts.
//!
//! Each phase records a span (`eigen.rayleigh_ritz`, `eigen.filter`,
//! `eigen.orthonormalize`, args `n`/`block`/`degree`/`active`/`locked`), so a
//! trace splits the solve and shows the active block shrinking without a
//! benchmark. `eigen.orthonormalize` also records `reprojected`, the columns
//! that took the second Gram–Schmidt pass.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::parallel::Threads;
use fg_obs::Span;

/// Default round budget for [`symmetric_eigen`]. A round is one Rayleigh–Ritz
/// pass plus a degree-12 Chebyshev filter. The budget is far
/// above what the filter needs (tens of rounds on slowly decaying spectra);
/// it stays at its old value because it enters every factor fingerprint.
pub const DEFAULT_EIGEN_MAX_ITER: usize = 1000;

/// Default relative residual tolerance for [`symmetric_eigen`]: a Ritz pair
/// `(θ, v)` counts as converged when `‖W·v − θ·v‖₂ ≤ tol · |θ₁|`, where `θ₁`
/// is the largest-magnitude Ritz value.
pub const DEFAULT_EIGEN_TOL: f64 = 1e-10;

/// Default seed for the deterministic starting block.
pub const DEFAULT_EIGEN_SEED: u64 = 0x5eed_fac7;

/// Degree `d` of the Chebyshev filter: each non-final round runs `d` block
/// products (one for Rayleigh–Ritz, `d − 1` for the filter) per pass of dense
/// work. On the benchmark's `batch_lowrank` graphs (40 500-node blob kNN
/// graphs, rank 28, 2-vCPU Xeon, one thread, with locking), d =
/// 4/8/12/16/20 took about 38/19/14/11/9 rounds and 74/52/44/40/40 ms per
/// solve, so d = 16 would save about 8% of a solve (about 6% of an op).
/// 12 keeps the rounds well under 20 with a milder amplification, and on
/// denser graphs, where an SpMM costs more, it keeps edge work and dense
/// work in balance.
const FILTER_DEGREE: usize = 12;

/// Floor on the filter's damping half-width `c`, as a share of `|θ₁|`. A
/// zero trailing spectrum (a star graph, or a rank near n) would otherwise
/// set `c = 0`; the floor bounds the filter's amplification at
/// `T_d(1 / DAMPING_FLOOR)`.
const DAMPING_FLOOR: f64 = 1e-2;

/// Ritz magnitudes closer than this share of the largest are a tie for the
/// ordering (see `sort_by_magnitude`).
const MAGNITUDE_TIE: f64 = 1e-12;

/// A column whose norm after projection falls below this share of its norm
/// before projection carries no independent direction and is replaced.
const DEAD_COLUMN: f64 = 1e-12;

/// The DGKS test (Daniel, Gragg, Kaufman & Stewart): when one Gram–Schmidt
/// pass leaves a column at least this share of its norm, cancellation was too
/// mild to leave it measurably non-orthogonal; a column left with less takes a
/// second pass.
const REPROJECT: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Implicit QL sweeps allowed per eigenvalue of the projected matrix: the
/// EISPACK/LAPACK budget, far above what the shifted iteration takes.
const QL_MAX_SWEEPS: usize = 30;

/// Configuration for [`symmetric_eigen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenConfig {
    /// Number of eigenpairs to compute (`1 ..= n`).
    pub rank: usize,
    /// Maximum Rayleigh–Ritz rounds before giving up. Each round but the last
    /// runs 12 block products: one for Rayleigh–Ritz, 11 for the filter.
    pub max_iter: usize,
    /// Relative residual tolerance (see [`DEFAULT_EIGEN_TOL`]).
    pub tol: f64,
    /// Seed for the deterministic splitmix64 starting block.
    pub seed: u64,
}

impl EigenConfig {
    /// Config with the default budget/tolerance/seed for the given rank.
    pub fn with_rank(rank: usize) -> Self {
        EigenConfig {
            rank,
            max_iter: DEFAULT_EIGEN_MAX_ITER,
            tol: DEFAULT_EIGEN_TOL,
            seed: DEFAULT_EIGEN_SEED,
        }
    }
}

/// The output of [`symmetric_eigen`]: `r` Ritz pairs of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenPairs {
    /// Orthonormal eigenvector estimates, one per column (n×r).
    pub vectors: DenseMatrix,
    /// Eigenvalue estimates, sorted by `|θ|` descending (index tie-break).
    pub values: Vec<f64>,
    /// Rayleigh–Ritz rounds actually used.
    pub iterations: usize,
}

/// splitmix64: the standard 64-bit mixer, used for the deterministic start
/// block so `fg_sparse` needs no random-number dependency.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a splitmix64 draw to a f64 in `[-1, 1)` using the top 53 bits.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / 4_503_599_627_370_496.0 - 1.0
}

/// Deterministic n×r starting block from a splitmix64 stream.
fn seeded_block(n: usize, r: usize, seed: u64) -> DenseMatrix {
    let mut state = seed;
    let mut block = DenseMatrix::zeros(n, r);
    for v in block.data_mut() {
        *v = unit_f64(splitmix64(&mut state));
    }
    block
}

/// Dot product with four independent accumulators, so the loop pipelines
/// and vectorizes. The summation order is fixed, so results are reproducible.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a4.zip(b4) {
        for l in 0..4 {
            acc[l] += x[l] * y[l];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dense buffers reused across every round of one solve, so the loop
/// allocates nothing per round. The a×a buffers are sized for the full block
/// and used as prefixes while the active block shrinks.
struct Workspace {
    /// The projected matrix `QᵀY` (a×a, row-major); the tridiagonal solver
    /// overwrites it.
    projected: Vec<f64>,
    /// Its eigenvectors, transposed: row `j` is eigenvector `j`.
    rotation_t: Vec<f64>,
    /// The eigenvectors as columns sorted by `|θ|` (a×a, row-major).
    rotation: Vec<f64>,
    /// Diagonal (then eigenvalues) and off-diagonal of the tridiagonal form.
    diagonal: Vec<f64>,
    off_diagonal: Vec<f64>,
    /// Column-major basis for Gram–Schmidt: the locked vectors first, frozen,
    /// then a copy of the block being orthonormalized.
    columns: Vec<f64>,
}

impl Workspace {
    fn new(n: usize, block: usize) -> Self {
        Workspace {
            projected: vec![0.0; block * block],
            rotation_t: vec![0.0; block * block],
            rotation: vec![0.0; block * block],
            diagonal: vec![0.0; block],
            off_diagonal: vec![0.0; block],
            columns: vec![0.0; n * block],
        }
    }

    /// Rayleigh–Ritz on the orthonormal active basis `q` with image
    /// `y = W·q`: writes the Ritz vectors `V = Q·U` into `v` and their images
    /// `W·V = Y·U` into `wv`, columns sorted by `|θ|` descending, and returns
    /// the sorted Ritz values.
    fn rayleigh_ritz(
        &mut self,
        q: &DenseMatrix,
        y: &DenseMatrix,
        v: &mut DenseMatrix,
        wv: &mut DenseMatrix,
    ) -> Result<Vec<f64>> {
        let a = q.cols();
        // QᵀY is symmetric up to round-off: accumulate its upper triangle row
        // by row of Q and Y, then mirror it.
        let proj = &mut self.projected[..a * a];
        proj.fill(0.0);
        for i in 0..q.rows() {
            let (qi, yi) = (q.row(i), y.row(i));
            for (p, &qip) in qi.iter().enumerate() {
                let row = &mut proj[p * a + p..(p + 1) * a];
                for (acc, &yv) in row.iter_mut().zip(&yi[p..]) {
                    *acc += qip * yv;
                }
            }
        }
        for p in 0..a {
            for s in (p + 1)..a {
                proj[s * a + p] = proj[p * a + s];
            }
        }
        let (theta, rotation_t) = (&mut self.diagonal[..a], &mut self.rotation_t[..a * a]);
        tridiagonal_eigen(
            proj,
            rotation_t,
            theta,
            &mut self.off_diagonal[..a],
            QL_MAX_SWEEPS,
        )?;
        let order = sort_by_magnitude(theta);
        let rotation = &mut self.rotation[..a * a];
        for (j, &old) in order.iter().enumerate() {
            for k in 0..a {
                rotation[k * a + j] = rotation_t[old * a + k];
            }
        }
        // V = Q·U and W·V = Y·U in one pass: each row of U is loaded once.
        for i in 0..q.rows() {
            let (qi, yi) = (q.row(i), y.row(i));
            let (vi, wvi) = (v.row_mut(i), wv.row_mut(i));
            vi.fill(0.0);
            wvi.fill(0.0);
            for (k, uk) in rotation.chunks_exact(a).enumerate() {
                let (qk, yk) = (qi[k], yi[k]);
                for ((vv, wvv), &u) in vi.iter_mut().zip(wvi.iter_mut()).zip(uk) {
                    *vv += qk * u;
                    *wvv += yk * u;
                }
            }
        }
        Ok(order.iter().map(|&i| theta[i]).collect())
    }

    /// Freeze column `j` of the Ritz block `v` as locked vector `slot`.
    fn lock(&mut self, v: &DenseMatrix, j: usize, slot: usize) {
        let n = v.rows();
        let column = &mut self.columns[slot * n..(slot + 1) * n];
        for (i, x) in column.iter_mut().enumerate() {
            *x = v.get(i, j);
        }
    }

    /// Column `slot` of the locked vectors.
    fn locked(&self, n: usize, slot: usize) -> &[f64] {
        &self.columns[slot * n..(slot + 1) * n]
    }

    /// Orthonormalize the columns of `block` in place against the first
    /// `locked` locked vectors and each other with modified Gram–Schmidt, and
    /// return how many columns took a second pass. A column gets that second
    /// pass ("twice is enough") only when the first left less than
    /// [`REPROJECT`] of its norm; a column that kept more is already
    /// orthogonal to round-off.
    ///
    /// A column whose norm collapses under projection to below
    /// [`DEAD_COLUMN`] of its norm before projection (a rank-deficient
    /// iterate, e.g. a singular matrix at high rank) is replaced by the first
    /// canonical basis vector `e_i` that survives projection, so the basis
    /// always has full column rank and the procedure stays deterministic. The
    /// test is relative because filtered columns have norms far from 1.
    fn orthonormalize(&mut self, block: &mut DenseMatrix, locked: usize) -> Result<usize> {
        let (n, a) = block.shape();
        // Gram–Schmidt is column arithmetic and the block is row-major, so it
        // runs on a column-major copy placed after the locked vectors.
        let cols = &mut self.columns[..(locked + a) * n];
        for i in 0..n {
            for (j, &x) in block.row(i).iter().enumerate() {
                cols[(locked + j) * n + i] = x;
            }
        }
        let project = |done: &[f64], col: &mut [f64]| {
            for prev in done.chunks_exact(n) {
                let d = dot(prev, col);
                for (c, &p) in col.iter_mut().zip(prev) {
                    *c -= d * p;
                }
            }
            dot(col, col).sqrt()
        };
        let mut reprojected = 0usize;
        for j in locked..locked + a {
            let (done, rest) = cols.split_at_mut(j * n);
            let col = &mut rest[..n];
            let mut replacement = 0usize;
            let mut twice = false;
            loop {
                let before = dot(col, col).sqrt();
                let mut norm = project(done, col);
                if norm < REPROJECT * before {
                    norm = project(done, col);
                    twice = true;
                }
                if norm > DEAD_COLUMN * before {
                    let inv = 1.0 / norm;
                    col.iter_mut().for_each(|x| *x *= inv);
                    reprojected += usize::from(twice);
                    break;
                }
                // Dead column: substitute the next canonical basis vector and retry.
                if replacement >= n {
                    return Err(SparseError::InvalidInput(
                        "orthonormalization failed: no independent replacement column".into(),
                    ));
                }
                for (i, x) in col.iter_mut().enumerate() {
                    *x = f64::from(i == replacement);
                }
                replacement += 1;
            }
        }
        for i in 0..n {
            for (j, x) in block.row_mut(i).iter_mut().enumerate() {
                *x = cols[(locked + j) * n + i];
            }
        }
        Ok(reprojected)
    }
}

/// Diagonalize the symmetric m×m matrix `a` (flat, row-major; m =
/// `d.len()`) by Householder tridiagonalization and implicit-shift QL, the
/// `tred2`/`tql2` pair of EISPACK in the form of JAMA.
///
/// On return `d` holds the eigenvalues (unsorted), row `j` of `vectors_t`
/// the unit eigenvector of `d[j]`, and `a` and `e` are scratch. A non-finite
/// entry is an error rather than a silent NaN spectrum, and more than
/// `max_sweeps` QL sweeps on one eigenvalue return `DidNotConverge`, so the
/// loop always ends. Every operation runs in a fixed order.
fn tridiagonal_eigen(
    a: &mut [f64],
    vectors_t: &mut [f64],
    d: &mut [f64],
    e: &mut [f64],
    max_sweeps: usize,
) -> Result<()> {
    let m = d.len();
    if a.iter().any(|x| !x.is_finite()) {
        return Err(SparseError::InvalidInput(
            "symmetric eigensolver: matrix has a non-finite entry".into(),
        ));
    }
    if m == 0 {
        return Ok(());
    }
    householder_tridiagonalize(a, d, e, m);
    // The accumulated transform's columns become rows, so each QL rotation
    // updates two contiguous rows.
    for i in 0..m {
        for j in 0..m {
            vectors_t[j * m + i] = a[i * m + j];
        }
    }
    implicit_ql(d, e, vectors_t, m, max_sweeps)?;
    if d.iter().chain(vectors_t.iter()).any(|x| !x.is_finite()) {
        return Err(SparseError::InvalidInput(
            "symmetric eigensolver: the spectrum overflowed".into(),
        ));
    }
    Ok(())
}

/// `tred2`: reduce the symmetric m×m `v` (row-major; its lower triangle is
/// read) to tridiagonal form `Zᵀ·A·Z`. On return `v` holds the orthogonal
/// `Z`, `d` the diagonal and `e[1..]` the sub-diagonal (`e[0] = 0`).
fn householder_tridiagonalize(v: &mut [f64], d: &mut [f64], e: &mut [f64], m: usize) {
    d.copy_from_slice(&v[(m - 1) * m..]);
    for i in (1..m).rev() {
        // Scale to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1) * m + j];
                v[i * m + j] = 0.0;
                v[j * m + i] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply the similarity transformation to the remaining columns.
            for j in 0..i {
                let f = d[j];
                v[j * m + i] = f;
                let mut g = e[j] + v[j * m + j] * f;
                for k in j + 1..i {
                    g += v[k * m + j] * d[k];
                    e[k] += v[k * m + j] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                for k in j..i {
                    v[k * m + j] -= f * e[k] + g * d[k];
                }
                d[j] = v[(i - 1) * m + j];
                v[i * m + j] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..m - 1 {
        v[(m - 1) * m + i] = v[i * m + i];
        v[i * m + i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[k * m + i + 1] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[k * m + i + 1] * v[k * m + j];
                }
                for k in 0..=i {
                    v[k * m + j] -= g * d[k];
                }
            }
        }
        for k in 0..=i {
            v[k * m + i + 1] = 0.0;
        }
    }
    for j in 0..m {
        d[j] = v[(m - 1) * m + j];
        v[(m - 1) * m + j] = 0.0;
    }
    v[m * m - 1] = 1.0;
    e[0] = 0.0;
}

/// `tql2`: diagonalize the symmetric tridiagonal matrix (`d`, `e[1..]`) by
/// QL with implicit Wilkinson-style shifts, applying every rotation to the
/// rows of `vectors_t`. At most `max_sweeps` sweeps per eigenvalue.
fn implicit_ql(
    d: &mut [f64],
    e: &mut [f64],
    vectors_t: &mut [f64],
    m: usize,
    max_sweeps: usize,
) -> Result<()> {
    e.copy_within(1.., 0);
    e[m - 1] = 0.0;
    let mut shift = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..m {
        // Find the first negligible sub-diagonal element at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut end = l;
        while end + 1 < m && e[end].abs() > f64::EPSILON * tst1 {
            end += 1;
        }
        let mut sweeps = 0;
        while end > l && e[l].abs() > f64::EPSILON * tst1 {
            if sweeps == max_sweeps {
                return Err(SparseError::DidNotConverge {
                    what: "tridiagonal QL eigensolver",
                    iterations: max_sweeps,
                });
            }
            sweeps += 1;
            // Implicit shift from the leading 2×2 block.
            let g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let mut r = hypot(p, 1.0);
            if p < 0.0 {
                r = -r;
            }
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            shift += h;
            // The implicit QL sweep, bottom to top.
            p = d[end];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..end).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                r = hypot(p, e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                rotate_rows(vectors_t, m, i, i + 1, c, s);
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

/// `sqrt(x² + y²)` without overflow or underflow, from IEEE operations only
/// (so it rounds the same on every host, unlike a libm `hypot`).
#[inline]
fn hypot(x: f64, y: f64) -> f64 {
    let (x, y) = (x.abs(), y.abs());
    let (big, small) = if x >= y { (x, y) } else { (y, x) };
    if big == 0.0 {
        return 0.0;
    }
    let t = small / big;
    big * (1.0 + t * t).sqrt()
}

/// Diagonalize the symmetric r×r matrix `a` (flat, row-major) in place with
/// cyclic Jacobi rotations: the tests' independent oracle for the QL solver
/// and for `spectral`.
///
/// On return the diagonal of `a` holds the eigenvalues (unsorted) and row `j`
/// of `rotation_t` the eigenvector of eigenvalue `j`. Each rotation updates
/// rows p and q as contiguous slices and mirrors them into columns p and q;
/// the annihilated pair is set to exactly zero. Jacobi converges
/// quadratically; the sweep budget is generous and overshoot returns
/// `DidNotConverge`.
#[cfg(test)]
pub(crate) fn jacobi_in_place(a: &mut [f64], rotation_t: &mut [f64], r: usize) -> Result<()> {
    rotation_t.fill(0.0);
    for i in 0..r {
        rotation_t[i * r + i] = 1.0;
    }
    if r <= 1 {
        return Ok(());
    }
    let frob = dot(a, a).sqrt().max(f64::MIN_POSITIVE);
    const MAX_SWEEPS: usize = 64;
    for _ in 0..MAX_SWEEPS {
        let off: f64 = (0..r)
            .map(|p| {
                let tail = &a[p * r + p + 1..(p + 1) * r];
                dot(tail, tail)
            })
            .sum::<f64>()
            .sqrt();
        if off <= 1e-15 * frob {
            return Ok(());
        }
        for p in 0..r {
            for q in (p + 1)..r {
                let apq = a[p * r + q];
                if apq == 0.0 {
                    continue;
                }
                let app = a[p * r + p];
                let aqq = a[q * r + q];
                // Stable rotation angle (Golub & Van Loan, symmetric Schur).
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // A ← JᵀAJ: rotate rows p and q, set the 2×2 block exactly,
                // then mirror both rows into their columns.
                rotate_rows(a, r, p, q, c, s);
                a[p * r + p] = app - t * apq;
                a[q * r + q] = aqq + t * apq;
                a[p * r + q] = 0.0;
                a[q * r + p] = 0.0;
                for k in (0..r).filter(|&k| k != p && k != q) {
                    a[k * r + p] = a[p * r + k];
                    a[k * r + q] = a[q * r + k];
                }
                // Accumulate U ← U·J, i.e. rotate rows p and q of Uᵀ.
                rotate_rows(rotation_t, r, p, q, c, s);
            }
        }
    }
    Err(SparseError::DidNotConverge {
        what: "jacobi eigensolver",
        iterations: MAX_SWEEPS,
    })
}

/// Replace rows `p < q` of the r-wide row-major `m` by `c·m_p − s·m_q` and
/// `s·m_p + c·m_q`.
#[inline]
fn rotate_rows(m: &mut [f64], r: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * r);
    let row_p = &mut head[p * r..(p + 1) * r];
    for (x, y) in row_p.iter_mut().zip(&mut tail[..r]) {
        let (xp, yq) = (*x, *y);
        *x = c * xp - s * yq;
        *y = s * xp + c * yq;
    }
}

/// Indices `0..values.len()` in the deterministic Ritz order used throughout:
/// `|values[i]|` descending; within a run of magnitudes that agree to
/// round-off ([`MAGNITUDE_TIE`] of the largest), such as a ±λ pair of a
/// bipartite spectrum, non-negative values first; remaining ties go to the
/// lower index. Without the sign rule the order of a ±λ pair would follow
/// the last bits of the arithmetic.
fn sort_by_magnitude(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| {
        values[j]
            .abs()
            .partial_cmp(&values[i].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let tie = MAGNITUDE_TIE * order.first().map_or(0.0, |&i| values[i].abs());
    let mut start = 0;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len() && values[order[end - 1]].abs() - values[order[end]].abs() <= tie {
            end += 1;
        }
        // Stable: `false` (non-negative) sorts first and keeps index order.
        order[start..end].sort_by_key(|&i| values[i] < 0.0);
        start = end;
    }
    order
}

/// Overwrite `wv` with `p(W)·V`, `p(x) = T_d(x/c) / T_d(top/c)`, by the
/// scaled three-term Chebyshev recurrence (`d = FILTER_DEGREE`).
///
/// On entry `v` holds `V` and `wv` holds `W·V`; `z` is scratch of the same
/// shape. With `σ_k = T_{k−1}(τ)/T_k(τ)` for `τ = top/c`, the normalized
/// polynomials obey `p_1(x) = x/top` and
/// `p_{k+1}(x) = (2σ_{k+1}/c)·x·p_k(x) − σ_k·σ_{k+1}·p_{k−1}(x)`, so `|p_k|`
/// stays at most 1 on `[−top, top]` and nothing overflows however steep the
/// filter is.
fn chebyshev_filter(
    a: &CsrMatrix,
    threads: Threads,
    c: f64,
    top: f64,
    v: &mut DenseMatrix,
    wv: &mut DenseMatrix,
    z: &mut DenseMatrix,
) -> Result<()> {
    let tau = top / c;
    let mut sigma = 1.0 / tau;
    wv.scale_in_place(1.0 / top);
    // Invariant: `v` holds p_{k−1}(W)·V and `wv` holds p_k(W)·V.
    for _ in 1..FILTER_DEGREE {
        a.spmm_dense_into(wv, threads, z)?;
        let sigma_next = 1.0 / (2.0 * tau - sigma);
        let (alpha, beta) = (2.0 * sigma_next / c, sigma * sigma_next);
        for (prev, &zv) in v.data_mut().iter_mut().zip(z.data()) {
            *prev = alpha * zv - beta * *prev;
        }
        std::mem::swap(v, wv);
        sigma = sigma_next;
    }
    Ok(())
}

/// Compute the `r` largest-magnitude eigenpairs of a **symmetric** sparse
/// matrix by Chebyshev-filtered subspace iteration with Rayleigh–Ritz
/// extraction and hard locking (see the module docs for what one round does).
///
/// The caller is responsible for symmetry (adjacency matrices in this
/// workspace are symmetric by construction); only shapes are validated here.
/// All O(nnz) work runs through [`CsrMatrix::spmm_dense_into`], so the result
/// is bit-identical at any `threads` setting. `config.max_iter` bounds the
/// Rayleigh–Ritz rounds; exhausting it returns
/// [`SparseError::DidNotConverge`].
pub fn symmetric_eigen(
    a: &CsrMatrix,
    config: &EigenConfig,
    threads: Threads,
) -> Result<EigenPairs> {
    if !a.is_square() {
        return Err(SparseError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if config.rank == 0 || config.rank > n {
        return Err(SparseError::InvalidInput(format!(
            "eigen rank must be in 1..={n}, got {}",
            config.rank
        )));
    }
    if config.tol.is_nan() || config.tol <= 0.0 {
        return Err(SparseError::InvalidInput(format!(
            "eigen tolerance must be positive, got {}",
            config.tol
        )));
    }
    let r = config.rank;
    // Guard vectors: iterate a padded block so (a) convergence is governed by
    // the gap past the padding, not past `r`, and (b) ±λ eigenvalue pairs of
    // equal magnitude — the norm for near-bipartite adjacency spectra — land
    // inside one invariant subspace where Rayleigh–Ritz separates the signs
    // exactly. Only the leading `r` Ritz pairs are convergence-tested/returned.
    // A floor of 8 keeps small-rank requests (where `r / 2` alone leaves the
    // trailing gap nearly closed on real spectra) converging in a comparable
    // number of rounds to large-rank ones.
    let block = (r + (r / 2).max(8)).min(n);
    let span_args = |active: usize, locked: usize| {
        [
            ("n", n as u64),
            ("block", block as u64),
            ("degree", FILTER_DEGREE as u64),
            ("active", active as u64),
            ("locked", locked as u64),
        ]
    };

    let mut work = Workspace::new(n, block);
    let mut q = seeded_block(n, block, config.seed);
    {
        let mut span = Span::enter_with("eigen.orthonormalize", &span_args(block, 0));
        let reprojected = work.orthonormalize(&mut q, 0)?;
        span.record("reprojected", reprojected as u64);
    }
    let mut y = DenseMatrix::zeros(n, block);
    let mut v = DenseMatrix::zeros(n, block);
    let mut wv = DenseMatrix::zeros(n, block);
    // Ritz values of the locked pairs; their vectors are the leading columns
    // of `work.columns`, in the same order.
    let mut locked: Vec<f64> = Vec::with_capacity(r);

    let max_iter = config.max_iter.max(1);
    for iteration in 1..=max_iter {
        let l = locked.len();
        // `values` holds the locked pairs, then the active block's.
        let (values, order, passed) = {
            let _span = Span::enter_with("eigen.rayleigh_ritz", &span_args(q.cols(), l));
            a.spmm_dense_into(&q, threads, &mut y)?;
            let active = work.rayleigh_ritz(&q, &y, &mut v, &mut wv)?;
            let values: Vec<f64> = locked.iter().chain(&active).copied().collect();
            let order = sort_by_magnitude(&values);
            // Per-pair residual ‖W·v − θ·v‖₂ ≤ tol·|θ₁|, tested on the true
            // image W·V, never on a filtered block.
            let mut residual_sq = vec![0.0f64; active.len()];
            for i in 0..n {
                let (wv_row, v_row) = (wv.row(i), v.row(i));
                for (j, rs) in residual_sq.iter_mut().enumerate() {
                    let d = wv_row[j] - active[j] * v_row[j];
                    *rs += d * d;
                }
            }
            let bound = config.tol * values[order[0]].abs();
            let passed: Vec<bool> = residual_sq.iter().map(|rs| rs.sqrt() <= bound).collect();
            (values, order, passed)
        };
        // The leading run, in the merged order, of pairs locked or passing.
        let run = order[..r]
            .iter()
            .take_while(|&&i| i < l || passed[i - l])
            .count();
        if run == r {
            let mut vectors = DenseMatrix::zeros(n, r);
            for (t, &i) in order[..r].iter().enumerate() {
                if i < l {
                    for (row, &x) in work.locked(n, i).iter().enumerate() {
                        vectors.set(row, t, x);
                    }
                } else {
                    for row in 0..n {
                        vectors.set(row, t, v.get(row, i - l));
                    }
                }
            }
            return Ok(EigenPairs {
                vectors,
                values: order[..r].iter().map(|&i| values[i]).collect(),
                iterations: iteration,
            });
        }
        if iteration == max_iter {
            break;
        }

        // Lock the run's active pairs: their vectors join the frozen columns
        // and leave the block.
        let newly: Vec<usize> = order[..run]
            .iter()
            .filter_map(|&i| i.checked_sub(l))
            .collect();
        if !newly.is_empty() {
            for &j in &newly {
                work.lock(&v, j, locked.len());
                locked.push(values[l + j]);
            }
            let keep: Vec<usize> = (0..v.cols()).filter(|j| !newly.contains(j)).collect();
            for m in [&mut q, &mut y, &mut v, &mut wv] {
                m.retain_cols(&keep);
            }
        }

        // Next active basis: the filtered Ritz block, reorthonormalized.
        // Filtering the Ritz vectors rather than Q keeps the leading columns
        // aligned with the dominant directions, so Gram–Schmidt meets them
        // first.
        let top = values[order[0]].abs();
        if top > 0.0 {
            let c = values[order[block - 1]].abs().max(DAMPING_FLOOR * top);
            let _span = Span::enter_with("eigen.filter", &span_args(v.cols(), locked.len()));
            chebyshev_filter(a, threads, c, top, &mut v, &mut wv, &mut y)?;
        }
        // With every Ritz value zero there is no scale to filter against, and
        // the unfiltered image W·V already in `wv` becomes the next block.
        let mut span =
            Span::enter_with("eigen.orthonormalize", &span_args(wv.cols(), locked.len()));
        let reprojected = work.orthonormalize(&mut wv, locked.len())?;
        span.record("reprojected", reprojected as u64);
        std::mem::swap(&mut q, &mut wv);
    }
    Err(SparseError::DidNotConverge {
        what: "Chebyshev-filtered subspace iteration",
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full eigendecomposition of a dense symmetric matrix by the test-only
    /// Jacobi kernel: `(values, U)` with `B = U·diag(values)·Uᵀ`, unsorted.
    /// Run on the whole of a small `W`, it is the tests' independent oracle.
    fn jacobi_eigen(b: &DenseMatrix) -> Result<(Vec<f64>, DenseMatrix)> {
        let r = b.rows();
        let mut a = b.data().to_vec();
        let mut rotation_t = vec![0.0; r * r];
        jacobi_in_place(&mut a, &mut rotation_t, r)?;
        let values = (0..r).map(|i| a[i * r + i]).collect();
        Ok((values, DenseMatrix::from_vec(r, r, rotation_t)?.transpose()))
    }

    /// Path graph on 4 nodes: eigenvalues of the adjacency are ±φ, ±1/φ where
    /// φ = golden ratio (2cos(kπ/5) for k = 1..4).
    fn path4() -> CsrMatrix {
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        )
    }

    /// Symmetric adjacency from undirected edges `(i, j, w)` with `i < j`.
    fn undirected(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> CsrMatrix {
        let mut triplets: Vec<_> = edges
            .into_iter()
            .flat_map(|(i, j, w)| [(i, j, w), (j, i, w)])
            .collect();
        triplets.sort_by_key(|&(i, j, _)| (i, j));
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    /// Union-kNN graph (binary weights) over `n` points scattered around
    /// three centres in 8 dimensions by a splitmix64 stream: a small version
    /// of the blob graphs the low-rank backend factors.
    fn blob_knn(n: usize, k: usize, seed: u64) -> CsrMatrix {
        const DIMS: usize = 8;
        let mut state = seed;
        let centres: Vec<f64> = (0..3 * DIMS)
            .map(|_| 2.0 * unit_f64(splitmix64(&mut state)))
            .collect();
        let mut points = vec![0.0; n * DIMS];
        for (i, point) in points.chunks_exact_mut(DIMS).enumerate() {
            let centre = &centres[(i % 3) * DIMS..(i % 3 + 1) * DIMS];
            for (x, &c) in point.iter_mut().zip(centre) {
                *x = c + unit_f64(splitmix64(&mut state));
            }
        }
        let point = |i: usize| &points[i * DIMS..(i + 1) * DIMS];
        let mut edges = std::collections::BTreeSet::new();
        for i in 0..n {
            let mut by_distance: Vec<(f64, usize)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| {
                    let d2 = point(i)
                        .iter()
                        .zip(point(j))
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    (d2, j)
                })
                .collect();
            by_distance.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(_, j) in &by_distance[..k] {
                edges.insert((i.min(j), i.max(j)));
            }
        }
        undirected(n, edges.into_iter().map(|(i, j)| (i, j, 1.0)))
    }

    /// `s·W` for a symmetric `W`.
    fn scaled(a: &CsrMatrix, s: f64) -> CsrMatrix {
        let triplets: Vec<_> = a.iter().map(|(i, j, w)| (i, j, s * w)).collect();
        CsrMatrix::from_triplets(a.rows(), a.cols(), &triplets)
    }

    fn assert_eigenpairs(a: &CsrMatrix, pairs: &EigenPairs, tol: f64) {
        let n = a.rows();
        let r = pairs.values.len();
        // Columns orthonormal.
        for p in 0..r {
            let cp = pairs.vectors.col(p);
            for q in p..r {
                let cq = pairs.vectors.col(q);
                let dot: f64 = cp.iter().zip(cq.iter()).map(|(x, y)| x * y).sum();
                let expected = f64::from(p == q);
                assert!(
                    (dot - expected).abs() < 1e-8,
                    "columns {p},{q} dot {dot} != {expected}"
                );
            }
        }
        // W·v = θ·v per pair.
        let wv = a.spmm_dense(&pairs.vectors).unwrap();
        for j in 0..r {
            for i in 0..n {
                let lhs = wv.get(i, j);
                let rhs = pairs.values[j] * pairs.vectors.get(i, j);
                assert!(
                    (lhs - rhs).abs() < tol,
                    "pair {j} row {i}: {lhs} vs {rhs} (theta {})",
                    pairs.values[j]
                );
            }
        }
    }

    /// `symmetric_eigen` at `rank < n` against the full spectrum of the dense
    /// `W` from `jacobi_eigen`: the values are the `rank` largest in magnitude
    /// (as a multiset, so ±λ ties may come in either order), and every
    /// returned vector lies in the oracle's dominant invariant subspace up to
    /// the Davis–Kahan bound `‖R‖ / gap`.
    fn assert_matches_dense_oracle(a: &CsrMatrix, rank: usize) -> EigenPairs {
        let n = a.rows();
        let pairs = symmetric_eigen(a, &EigenConfig::with_rank(rank), Threads::Serial).unwrap();
        let (all, u) = jacobi_eigen(&a.to_dense()).unwrap();
        let order = sort_by_magnitude(&all);
        let top = all[order[0]].abs();
        assert_eigenpairs(a, &pairs, 1e-8 * top);

        let mut want: Vec<f64> = order[..rank].iter().map(|&i| all[i]).collect();
        let mut got = pairs.values.clone();
        want.sort_by(f64::total_cmp);
        got.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * top, "eigenvalue {g} vs oracle {w}");
        }

        // The dominant subspace: every oracle pair at least as large as the
        // rank-th, ties included.
        let cut = all[order[rank - 1]].abs() - 1e-8 * top;
        let (inside, outside): (Vec<usize>, Vec<usize>) =
            order.iter().partition(|&&i| all[i].abs() >= cut);
        let gap = outside.first().map_or(f64::INFINITY, |&i| {
            all[order[rank - 1]].abs() - all[i].abs()
        });
        let bound = 10.0 * (rank as f64).sqrt() * DEFAULT_EIGEN_TOL * top / gap;
        for j in 0..rank {
            let v = pairs.vectors.col(j);
            let mut rest = v.clone();
            for &s in &inside {
                let us = u.col(s);
                let c = dot(&us, &v);
                rest.iter_mut().zip(&us).for_each(|(x, &y)| *x -= c * y);
            }
            let off = dot(&rest, &rest).sqrt();
            assert!(
                off <= bound.max(1e-12),
                "vector {j} leaves the dominant subspace by {off:e} (bound {bound:e}, n {n})"
            );
        }
        pairs
    }

    #[test]
    fn full_rank_path_graph_is_exact() {
        let a = path4();
        let pairs = symmetric_eigen(&a, &EigenConfig::with_rank(4), Threads::Serial).unwrap();
        assert_eigenpairs(&a, &pairs, 1e-8);
        let phi = (1.0 + 5.0f64.sqrt()) / 2.0;
        let expected = [phi, -phi, phi - 1.0, 1.0 - phi];
        for (got, want) in pairs.values.iter().zip(expected.iter()) {
            assert!(
                (got.abs() - want.abs()).abs() < 1e-8,
                "expected |{want}|, got {got}"
            );
        }
    }

    #[test]
    fn dominant_pair_matches_lanczos() {
        let a = path4();
        let pairs = symmetric_eigen(&a, &EigenConfig::with_rank(1), Threads::Serial).unwrap();
        let rho = crate::spectral::spectral_radius_sparse(&a).unwrap();
        assert!((pairs.values[0].abs() - rho).abs() < 1e-7);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut triplets = Vec::new();
        // Deterministic scale-free-ish graph: node i links to i/2 and i/3.
        for i in 1..60usize {
            for j in [i / 2, i / 3] {
                if j != i {
                    triplets.push((i, j, 1.0));
                    triplets.push((j, i, 1.0));
                }
            }
        }
        triplets.sort_by_key(|&(i, j, _)| (i, j));
        triplets.dedup_by_key(|&mut (i, j, _)| (i, j));
        let tree = CsrMatrix::from_triplets(60, 60, &triplets);
        // A blob graph at rank 28, where the filter runs between rounds.
        let blobs = blob_knn(300, 10, 3);
        for (a, rank) in [(&tree, 8), (&blobs, 28)] {
            let config = EigenConfig::with_rank(rank);
            let serial = symmetric_eigen(a, &config, Threads::Serial).unwrap();
            for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
                let parallel = symmetric_eigen(a, &config, threads).unwrap();
                assert_eq!(serial.values, parallel.values, "values differ @ {threads}");
                assert_eq!(
                    serial.vectors.data(),
                    parallel.vectors.data(),
                    "vectors differ @ {threads}"
                );
                assert_eq!(serial.iterations, parallel.iterations);
            }
            assert_eigenpairs(a, &serial, 1e-7);
        }
        let blob_rounds = symmetric_eigen(&blobs, &EigenConfig::with_rank(28), Threads::Serial)
            .unwrap()
            .iterations;
        assert!(blob_rounds > 1, "the filter never ran");
    }

    #[test]
    fn singular_matrix_full_rank_handles_nullspace() {
        // Star graph: adjacency has eigenvalues ±sqrt(3) and 0 (multiplicity 2).
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (0, 2, 1.0),
                (2, 0, 1.0),
                (0, 3, 1.0),
                (3, 0, 1.0),
            ],
        );
        let pairs = symmetric_eigen(&a, &EigenConfig::with_rank(4), Threads::Serial).unwrap();
        assert_eigenpairs(&a, &pairs, 1e-8);
        let s3 = 3.0f64.sqrt();
        assert!((pairs.values[0].abs() - s3).abs() < 1e-8);
        assert!((pairs.values[1].abs() - s3).abs() < 1e-8);
        assert!(pairs.values[2].abs() < 1e-8);
        assert!(pairs.values[3].abs() < 1e-8);
    }

    #[test]
    fn blob_knn_graph_matches_dense_oracle() {
        let pairs = assert_matches_dense_oracle(&blob_knn(150, 8, 11), 12);
        assert!(pairs.iterations > 1, "the filter never ran");
    }

    #[test]
    fn bipartite_plus_minus_pairs_match_dense_oracle() {
        // Random weighted bipartite graph on 60 + 60 nodes: its spectrum is
        // symmetric, so every eigenvalue has a partner of equal magnitude.
        let mut state = 0xb1_9a47_u64;
        let mut edges = Vec::new();
        for i in 0..60 {
            for j in 60..120 {
                if splitmix64(&mut state).is_multiple_of(10) {
                    edges.push((i, j, 1.5 + unit_f64(splitmix64(&mut state))));
                }
            }
        }
        let pairs = assert_matches_dense_oracle(&undirected(120, edges), 10);
        for pair in pairs.values.chunks_exact(2) {
            assert!(
                (pair[0] + pair[1]).abs() <= 1e-9 * pairs.values[0].abs(),
                "{pair:?} is not a ±λ pair"
            );
        }
    }

    #[test]
    fn star_graph_below_full_rank_floors_the_filter() {
        // Star on 40 nodes: ±sqrt(39), then an exactly zero trailing spectrum,
        // so the block's smallest Ritz value is 0 and only the floor keeps
        // the filter finite.
        let a = undirected(40, (1..40).map(|leaf| (0, leaf, 1.0)));
        let pairs = assert_matches_dense_oracle(&a, 4);
        let s39 = 39.0f64.sqrt();
        assert!((pairs.values[0].abs() - s39).abs() < 1e-9 * s39);
        assert!((pairs.values[1].abs() - s39).abs() < 1e-9 * s39);
        assert!(pairs.values[2..].iter().all(|v| v.abs() < 1e-9 * s39));
        assert!(pairs.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn convergence_test_is_scale_invariant() {
        let a = blob_knn(200, 10, 5);
        let config = EigenConfig::with_rank(28);
        let unscaled = symmetric_eigen(&a, &config, Threads::Serial).unwrap();
        for s in [1e-9, 1e-3, 1e3] {
            let pairs = symmetric_eigen(&scaled(&a, s), &config, Threads::Serial).unwrap();
            for (got, want) in pairs.values.iter().zip(&unscaled.values) {
                assert!(
                    (got - s * want).abs() <= 1e-8 * (s * want).abs(),
                    "scale {s:e}: {got:e} vs {:e}",
                    s * want
                );
            }
        }
    }

    #[test]
    fn exhausted_budget_reports_did_not_converge() {
        let a = blob_knn(300, 10, 3);
        let mut config = EigenConfig::with_rank(28);
        config.max_iter = 1;
        match symmetric_eigen(&a, &config, Threads::Serial) {
            Err(SparseError::DidNotConverge { iterations, .. }) => assert_eq!(iterations, 1),
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = path4();
        assert!(symmetric_eigen(&a, &EigenConfig::with_rank(0), Threads::Serial).is_err());
        assert!(symmetric_eigen(&a, &EigenConfig::with_rank(5), Threads::Serial).is_err());
        let mut bad_tol = EigenConfig::with_rank(2);
        bad_tol.tol = 0.0;
        assert!(symmetric_eigen(&a, &bad_tol, Threads::Serial).is_err());
        let rect = CsrMatrix::zeros(2, 3);
        assert!(symmetric_eigen(&rect, &EigenConfig::with_rank(1), Threads::Serial).is_err());
    }

    /// The production tridiagonal QL solver on a dense symmetric matrix, in
    /// the shape of `jacobi_eigen`.
    fn ql_eigen(b: &DenseMatrix, max_sweeps: usize) -> Result<(Vec<f64>, DenseMatrix)> {
        let m = b.rows();
        let mut a = b.data().to_vec();
        let (mut vectors_t, mut d, mut e) = (vec![0.0; m * m], vec![0.0; m], vec![0.0; m]);
        tridiagonal_eigen(&mut a, &mut vectors_t, &mut d, &mut e, max_sweeps)?;
        Ok((d, DenseMatrix::from_vec(m, m, vectors_t)?.transpose()))
    }

    /// `Q·diag(values)·Qᵀ` for a dense orthogonal `Q` built from two
    /// Householder reflections, so the spectrum is exactly `values`.
    fn with_spectrum(values: &[f64], seed: u64) -> DenseMatrix {
        let m = values.len();
        let mut state = seed;
        let mut q = DenseMatrix::identity(m);
        for _ in 0..2 {
            let mut u: Vec<f64> = (0..m).map(|_| unit_f64(splitmix64(&mut state))).collect();
            let norm = dot(&u, &u).sqrt();
            u.iter_mut().for_each(|x| *x /= norm);
            let mut h = DenseMatrix::identity(m);
            for i in 0..m {
                for j in 0..m {
                    h.add_at(i, j, -2.0 * u[i] * u[j]);
                }
            }
            q = q.matmul(&h).unwrap();
        }
        let mut d = DenseMatrix::zeros(m, m);
        for (i, &v) in values.iter().enumerate() {
            d.set(i, i, v);
        }
        let b = q.matmul(&d).unwrap().matmul(&q.transpose()).unwrap();
        // Symmetrize the round-off of the products.
        let mut sym = b.clone();
        for i in 0..m {
            for j in 0..m {
                sym.set(i, j, 0.5 * (b.get(i, j) + b.get(j, i)));
            }
        }
        sym
    }

    /// QL against the Jacobi oracle: the same spectrum as a multiset, and
    /// orthonormal eigenvectors with `B·u = λ·u`, all to round-off of ‖B‖.
    fn assert_ql_matches_jacobi(b: &DenseMatrix) {
        let m = b.rows();
        let (mut got, u) = ql_eigen(b, QL_MAX_SWEEPS).unwrap();
        let (mut want, _) = jacobi_eigen(b).unwrap();
        let scale = b.max_abs().max(f64::MIN_POSITIVE) * m as f64;
        let bu = b.matmul(&u).unwrap();
        for (j, &value) in got.iter().enumerate() {
            for i in 0..m {
                let residual = bu.get(i, j) - value * u.get(i, j);
                assert!(
                    residual.abs() <= 1e-13 * scale,
                    "{m}x{m} pair {j}: {residual:e}"
                );
            }
        }
        let gram = u.transpose().matmul(&u).unwrap();
        assert!(gram.approx_eq(&DenseMatrix::identity(m), 1e-13 * m as f64));
        got.sort_by(f64::total_cmp);
        want.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-13 * scale, "{m}x{m}: {g} vs oracle {w}");
        }
    }

    #[test]
    fn tridiagonal_ql_matches_jacobi_oracle() {
        let mut state = 0x71_d1a9_u64;
        // Random symmetric matrices, from 3×3 to the production block width.
        for m in [3, 10, 42] {
            let mut b = DenseMatrix::zeros(m, m);
            for i in 0..m {
                for j in 0..=i {
                    let x = unit_f64(splitmix64(&mut state));
                    b.set(i, j, x);
                    b.set(j, i, x);
                }
            }
            assert_ql_matches_jacobi(&b);
        }
        // Repeated eigenvalues, and ±λ pairs (a zero one included).
        assert_ql_matches_jacobi(&with_spectrum(&[2.0, 2.0, 2.0, -1.0, -1.0, 5.0, 0.5], 1));
        assert_ql_matches_jacobi(&with_spectrum(&[3.0, -3.0, 1.5, -1.5, 0.0, 0.0], 2));
        // A bipartite adjacency: its whole spectrum comes in ±λ pairs.
        let dense = undirected(
            8,
            [
                (0, 4, 1.0),
                (0, 5, 2.0),
                (1, 5, 1.0),
                (2, 6, 0.5),
                (3, 7, 1.0),
                (1, 7, 3.0),
            ],
        )
        .to_dense();
        assert_ql_matches_jacobi(&dense);
        // Diagonal and zero matrices, 1×1 and 2×2.
        let diagonal = DenseMatrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -7.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ])
        .unwrap();
        assert_ql_matches_jacobi(&diagonal);
        let (values, _) = ql_eigen(&diagonal, QL_MAX_SWEEPS).unwrap();
        assert_eq!(values, [3.0, -7.0, 0.0]);
        let (values, u) = ql_eigen(&DenseMatrix::zeros(5, 5), QL_MAX_SWEEPS).unwrap();
        assert!(values.iter().all(|&v| v == 0.0));
        assert!(u.approx_eq(&DenseMatrix::identity(5), 0.0));
        let (values, u) = ql_eigen(&DenseMatrix::filled(1, 1, -4.5), QL_MAX_SWEEPS).unwrap();
        assert_eq!((values, u.data().to_vec()), (vec![-4.5], vec![1.0]));
        assert_ql_matches_jacobi(
            &DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap(),
        );
    }

    #[test]
    fn tridiagonal_ql_rejects_non_finite_entries() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = with_spectrum(&[1.0, 2.0, 3.0, 4.0], 3);
            b.set(1, 2, bad);
            b.set(2, 1, bad);
            assert!(
                matches!(
                    ql_eigen(&b, QL_MAX_SWEEPS),
                    Err(SparseError::InvalidInput(_))
                ),
                "{bad} was accepted"
            );
        }
    }

    #[test]
    fn tridiagonal_ql_sweep_cap_reports_did_not_converge() {
        let b = with_spectrum(&[1.0, 2.0, 3.0, 4.0, 5.0], 4);
        match ql_eigen(&b, 0) {
            Err(SparseError::DidNotConverge { iterations, .. }) => assert_eq!(iterations, 0),
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
        // Already diagonal: no sweep is needed, so even a zero cap succeeds.
        let diagonal = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        assert_eq!(ql_eigen(&diagonal, 0).unwrap().0, [1.0, 2.0]);
    }

    #[test]
    fn locking_shrinks_the_filtered_block() {
        let a = blob_knn(300, 10, 3);
        fg_obs::start_capture();
        let pairs = {
            let _probe = Span::enter("probe");
            symmetric_eigen(&a, &EigenConfig::with_rank(28), Threads::Serial).unwrap()
        };
        let trace = fg_obs::finish_capture();
        // Other tests may run alongside; keep this thread's spans only.
        let tid = trace
            .records
            .iter()
            .find(|r| r.name == "probe")
            .unwrap()
            .tid;
        let arg = |args: &[(&str, u64)], key: &str| args.iter().find(|(k, _)| *k == key).unwrap().1;
        let filters: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.tid == tid && r.name == "eigen.filter")
            .map(|r| r.args.clone())
            .collect();
        assert_eq!(filters.len(), pairs.iterations - 1);
        for args in &filters {
            assert_eq!(
                arg(args, "active") + arg(args, "locked"),
                arg(args, "block")
            );
        }
        let last = filters.last().unwrap();
        assert!(
            arg(last, "active") < arg(last, "block"),
            "the last filter ran on the whole block: {last:?}"
        );
        // The active block only ever shrinks.
        assert!(filters
            .windows(2)
            .all(|w| arg(&w[1], "active") <= arg(&w[0], "active")));
        // Gram–Schmidt reports its second passes, and most columns skip it.
        let passes: Vec<(u64, u64)> = trace
            .records
            .iter()
            .filter(|r| r.tid == tid && r.name == "eigen.orthonormalize")
            .map(|r| (arg(&r.args, "reprojected"), arg(&r.args, "active")))
            .collect();
        assert_eq!(passes.len(), pairs.iterations);
        assert!(passes.iter().all(|&(twice, active)| twice <= active));
        let (twice, active) = passes
            .iter()
            .fold((0, 0), |(t, a), &(ti, ai)| (t + ti, a + ai));
        assert!(
            2 * twice < active,
            "{twice} of {active} columns reprojected"
        );
    }

    /// The locked vectors and the orthonormalized block, as the columns of one
    /// n×(locked + a) matrix.
    fn basis(work: &Workspace, block: &DenseMatrix, locked: usize) -> DenseMatrix {
        let n = block.rows();
        let mut all = DenseMatrix::zeros(n, locked + block.cols());
        for slot in 0..locked {
            for (i, &x) in work.locked(n, slot).iter().enumerate() {
                all.set(i, slot, x);
            }
        }
        for i in 0..n {
            for j in 0..block.cols() {
                all.set(i, locked + j, block.get(i, j));
            }
        }
        all
    }

    /// max |QᵀQ − I| over the entries.
    fn orthogonality_error(q: &DenseMatrix) -> f64 {
        let gram = q.transpose().matmul(q).unwrap();
        let mut worst = 0.0f64;
        for i in 0..gram.rows() {
            for j in 0..gram.cols() {
                worst = worst.max((gram.get(i, j) - f64::from(i == j)).abs());
            }
        }
        worst
    }

    #[test]
    fn dgks_reprojects_columns_nearly_parallel_to_the_locked_ones() {
        let (n, locked, a) = (60, 3, 4);
        let mut work = Workspace::new(n, locked + a);
        let mut frozen = seeded_block(n, locked, 11);
        assert_eq!(work.orthonormalize(&mut frozen, 0).unwrap(), 0);
        for j in 0..locked {
            work.lock(&frozen, j, j);
        }
        // Each column is a mix of the locked vectors plus a 1e-7 perturbation:
        // one pass cancels almost all of its norm.
        let noise = seeded_block(n, a, 12);
        let mut block = DenseMatrix::zeros(n, a);
        for i in 0..n {
            for j in 0..a {
                let along: f64 = (0..locked)
                    .map(|s| (s + j + 1) as f64 * frozen.get(i, s))
                    .sum();
                block.set(i, j, along + 1e-7 * noise.get(i, j));
            }
        }
        let reprojected = work.orthonormalize(&mut block, locked).unwrap();
        assert!(reprojected > 0, "no column took the second pass");
        let err = orthogonality_error(&basis(&work, &block, locked));
        assert!(err <= 1e-13, "‖QᵀQ − I‖ = {err:e}");
    }

    #[test]
    fn dgks_skips_the_second_pass_on_an_orthogonal_block() {
        let (n, a) = (40, 5);
        let mut work = Workspace::new(n, a);
        let mut block = seeded_block(n, a, 3);
        work.orthonormalize(&mut block, 0).unwrap();
        let before = block.clone();
        assert_eq!(work.orthonormalize(&mut block, 0).unwrap(), 0);
        assert!(block.approx_eq(&before, 1e-15));
        assert!(orthogonality_error(&block) <= 1e-14);
    }

    #[test]
    fn dead_columns_are_replaced_on_a_rank_deficient_block() {
        // Column 1 is three times column 0, so projection kills it and the
        // first canonical vector orthogonal to the rest takes its place.
        let n = 8;
        let mut block = DenseMatrix::zeros(n, 3);
        for (i, j, x) in [
            (1, 0, 1.0),
            (2, 0, 1.0),
            (1, 1, 3.0),
            (2, 1, 3.0),
            (5, 2, 1.0),
        ] {
            block.set(i, j, x);
        }
        let mut work = Workspace::new(n, 3);
        let reprojected = work.orthonormalize(&mut block, 0).unwrap();
        assert_eq!(reprojected, 1, "the dead column takes the second pass");
        for i in 0..n {
            assert_eq!(block.get(i, 1), f64::from(i == 0), "row {i}");
        }
        assert!(orthogonality_error(&block) <= 1e-15);
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        let b = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let (values, u) = jacobi_eigen(&b).unwrap();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 1.0).abs() < 1e-12);
        assert!((sorted[1] - 3.0).abs() < 1e-12);
        // B·U = U·diag(values).
        let bu = b.matmul(&u).unwrap();
        for (j, &value) in values.iter().enumerate() {
            for i in 0..2 {
                assert!((bu.get(i, j) - value * u.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn seeded_block_is_reproducible_and_seed_sensitive() {
        let a = seeded_block(10, 3, 42);
        let b = seeded_block(10, 3, 42);
        let c = seeded_block(10, 3, 43);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
