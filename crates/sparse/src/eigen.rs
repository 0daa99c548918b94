//! Dependency-free symmetric eigensolver: Chebyshev-filtered subspace
//! iteration with Rayleigh–Ritz extraction (Zhou & Saad).
//!
//! The low-rank counting backend approximates a symmetric adjacency matrix as
//! `W ≈ V·Λ·Vᵀ` from its `r` dominant (largest-magnitude) eigenpairs, so path
//! statistics collapse to dense factor-space work independent of edge count.
//! This module computes those eigenpairs with no external dependencies. The
//! solver iterates an orthonormal n×b block `Q` (b = `r` plus guard vectors),
//! and one **round** does four things:
//!
//! 1. **Rayleigh–Ritz**: `Y = W·Q`, then the projected matrix `QᵀY` (b×b,
//!    symmetric) is diagonalized exactly with cyclic Jacobi sweeps. Ritz pairs
//!    are sorted by `|θ|` descending (index tie-break), and the Ritz vectors
//!    `V = Q·U` and their images `W·V = Y·U` come out of one fused rotation.
//! 2. **Convergence test** on that true `W·V`: every leading pair must meet
//!    `‖W·v − θ·v‖₂ ≤ tol·|θ₁|`, a backward-error test relative to the
//!    block's largest Ritz value, so it means the same at any scale of `W`.
//! 3. **Chebyshev filter**: `p(W)·V` with `p(x) = T_d(x/c) / T_d(|θ₁|/c)`,
//!    `d = FILTER_DEGREE` and `c` the block's smallest `|θ|` (floored at a
//!    share of `|θ₁|`). The filter damps the interval `[−c, c]` and amplifies
//!    both ends of the spectrum, which is what the largest-magnitude ordering
//!    needs. The three-term recurrence starts from `V` and the `W·V` already
//!    computed, so it costs `d − 1` SpMMs, and the normalization keeps every
//!    value O(1).
//! 4. **Reorthonormalization** of the filtered block by twice-through
//!    modified Gram–Schmidt, with a deterministic replacement for numerically
//!    dead columns, so the basis never loses orthogonality and never consults
//!    a random source after start-up.
//!
//! A round is therefore `d` block products plus one pass of dense b×b work;
//! the round that converges skips steps 3 and 4. Every SpMM goes through
//! [`CsrMatrix::spmm_dense_into`] and all dense work is serial, so the
//! factorization is **bit-identical** at any thread count. The initial block
//! comes from a splitmix64 stream seeded by [`EigenConfig::seed`]: same seed,
//! same factor, byte for byte, on every host.
//!
//! At `r = n` the first Rayleigh–Ritz pass is already exact (the block spans
//! all of `Rⁿ`) and no filtering runs, which is what makes the full-rank
//! solve usable as a correctness oracle against exact path counts.
//!
//! Each phase records a span (`eigen.rayleigh_ritz`, `eigen.filter`,
//! `eigen.orthonormalize`, args `n`/`block`/`degree`), so a trace splits the
//! solve without a benchmark.

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
/// is the block's largest-magnitude Ritz value.
pub const DEFAULT_EIGEN_TOL: f64 = 1e-10;

/// Default seed for the deterministic starting block.
pub const DEFAULT_EIGEN_SEED: u64 = 0x5eed_fac7;

/// Degree `d` of the Chebyshev filter: each non-final round runs `d` block
/// products (one for Rayleigh–Ritz, `d − 1` for the filter) per pass of dense
/// work. On the benchmark's `batch_lowrank` graphs (500-node blob kNN, rank
/// 28, 2-vCPU Xeon), d = 4/8/12/16 took about 39/19/14/11 rounds and
/// 140/71/67/50 ms per solve at a near-equal SpMM count, and d = 16 beat 12
/// by about 6% of an op. 12 keeps the rounds well under 20 with a milder
/// amplification, and on denser graphs, where an SpMM costs more, it keeps
/// edge work and dense work in balance.
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
/// allocates nothing per round.
struct Workspace {
    /// Block width b.
    block: usize,
    /// The projected matrix `QᵀY` (b×b, row-major); Jacobi diagonalizes it in
    /// place.
    projected: Vec<f64>,
    /// Jacobi's accumulated rotation, transposed: row `j` is eigenvector `j`.
    rotation_t: Vec<f64>,
    /// The rotation with its columns sorted by `|θ|` (b×b, row-major).
    rotation: Vec<f64>,
    /// Column-major copy of the block under Gram–Schmidt (b columns of n).
    columns: Vec<f64>,
}

impl Workspace {
    fn new(n: usize, block: usize) -> Self {
        Workspace {
            block,
            projected: vec![0.0; block * block],
            rotation_t: vec![0.0; block * block],
            rotation: vec![0.0; block * block],
            columns: vec![0.0; n * block],
        }
    }

    /// Rayleigh–Ritz on the orthonormal basis `q` with image `y = W·q`:
    /// writes the Ritz vectors `V = Q·U` into `v` and their images
    /// `W·V = Y·U` into `wv`, columns sorted by `|θ|` descending, and returns
    /// the sorted Ritz values.
    fn rayleigh_ritz(
        &mut self,
        q: &DenseMatrix,
        y: &DenseMatrix,
        v: &mut DenseMatrix,
        wv: &mut DenseMatrix,
    ) -> Result<Vec<f64>> {
        let b = self.block;
        // QᵀY is symmetric up to round-off: accumulate its upper triangle row
        // by row of Q and Y, then mirror it.
        let proj = &mut self.projected;
        proj.fill(0.0);
        for i in 0..q.rows() {
            let (qi, yi) = (q.row(i), y.row(i));
            for (p, &qip) in qi.iter().enumerate() {
                let row = &mut proj[p * b + p..(p + 1) * b];
                for (acc, &yv) in row.iter_mut().zip(&yi[p..]) {
                    *acc += qip * yv;
                }
            }
        }
        for p in 0..b {
            for s in (p + 1)..b {
                proj[s * b + p] = proj[p * b + s];
            }
        }
        jacobi_in_place(proj, &mut self.rotation_t, b)?;
        let theta: Vec<f64> = (0..b).map(|i| proj[i * b + i]).collect();
        let order = sort_by_magnitude(&theta);
        for (j, &old) in order.iter().enumerate() {
            for k in 0..b {
                self.rotation[k * b + j] = self.rotation_t[old * b + k];
            }
        }
        // V = Q·U and W·V = Y·U in one pass: each row of U is loaded once.
        for i in 0..q.rows() {
            let (qi, yi) = (q.row(i), y.row(i));
            let (vi, wvi) = (v.row_mut(i), wv.row_mut(i));
            vi.fill(0.0);
            wvi.fill(0.0);
            for (k, uk) in self.rotation.chunks_exact(b).enumerate() {
                let (qk, yk) = (qi[k], yi[k]);
                for ((vv, wvv), &u) in vi.iter_mut().zip(wvi.iter_mut()).zip(uk) {
                    *vv += qk * u;
                    *wvv += yk * u;
                }
            }
        }
        Ok(order.iter().map(|&i| theta[i]).collect())
    }

    /// Orthonormalize the columns of `block` in place with modified
    /// Gram–Schmidt, run twice per column (full reorthogonalization — "twice
    /// is enough").
    ///
    /// A column whose norm collapses under projection to below
    /// [`DEAD_COLUMN`] of its norm before projection (a rank-deficient
    /// iterate, e.g. a singular matrix at high rank) is replaced by the first
    /// canonical basis vector `e_i` that survives projection, so the basis
    /// always has full column rank and the procedure stays deterministic. The
    /// test is relative because filtered columns have norms far from 1.
    fn orthonormalize(&mut self, block: &mut DenseMatrix) -> Result<()> {
        let (n, r) = block.shape();
        // Gram–Schmidt is column arithmetic and the block is row-major, so it
        // runs on a column-major copy.
        let cols = &mut self.columns[..n * r];
        for i in 0..n {
            for (j, &x) in block.row(i).iter().enumerate() {
                cols[j * n + i] = x;
            }
        }
        for j in 0..r {
            let (done, rest) = cols.split_at_mut(j * n);
            let col = &mut rest[..n];
            let mut replacement = 0usize;
            loop {
                let before = dot(col, col).sqrt();
                for _ in 0..2 {
                    for prev in done.chunks_exact(n) {
                        let d = dot(prev, col);
                        for (c, &p) in col.iter_mut().zip(prev) {
                            *c -= d * p;
                        }
                    }
                }
                let norm = dot(col, col).sqrt();
                if norm > DEAD_COLUMN * before {
                    let inv = 1.0 / norm;
                    col.iter_mut().for_each(|x| *x *= inv);
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
                *x = cols[j * n + i];
            }
        }
        Ok(())
    }
}

/// Diagonalize the symmetric r×r matrix `a` (flat, row-major) in place with
/// cyclic Jacobi rotations.
///
/// On return the diagonal of `a` holds the eigenvalues (unsorted) and row `j`
/// of `rotation_t` the eigenvector of eigenvalue `j`. Each rotation updates
/// rows p and q as contiguous slices and mirrors them into columns p and q;
/// the annihilated pair is set to exactly zero. Jacobi converges
/// quadratically; the sweep budget is generous and overshoot returns
/// `DidNotConverge`.
fn jacobi_in_place(a: &mut [f64], rotation_t: &mut [f64], r: usize) -> Result<()> {
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
/// extraction (see the module docs for what one round does).
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
    let span_args = [
        ("n", n as u64),
        ("block", block as u64),
        ("degree", FILTER_DEGREE as u64),
    ];

    let mut work = Workspace::new(n, block);
    let mut q = seeded_block(n, block, config.seed);
    {
        let _span = Span::enter_with("eigen.orthonormalize", &span_args);
        work.orthonormalize(&mut q)?;
    }
    let mut y = DenseMatrix::zeros(n, block);
    let mut v = DenseMatrix::zeros(n, block);
    let mut wv = DenseMatrix::zeros(n, block);

    let max_iter = config.max_iter.max(1);
    for iteration in 1..=max_iter {
        let values = {
            let _span = Span::enter_with("eigen.rayleigh_ritz", &span_args);
            a.spmm_dense_into(&q, threads, &mut y)?;
            let values = work.rayleigh_ritz(&q, &y, &mut v, &mut wv)?;
            // Per-pair residual ‖W·v − θ·v‖₂ ≤ tol·|θ₁| on the leading `r`,
            // tested on the true image W·V, never on a filtered block.
            let mut residual_sq = vec![0.0f64; r];
            for i in 0..n {
                let (wv_row, v_row) = (wv.row(i), v.row(i));
                for (j, rs) in residual_sq.iter_mut().enumerate() {
                    let d = wv_row[j] - values[j] * v_row[j];
                    *rs += d * d;
                }
            }
            let bound = config.tol * values[0].abs();
            if residual_sq.iter().all(|&rs| rs.sqrt() <= bound) {
                let mut vectors = DenseMatrix::zeros(n, r);
                for i in 0..n {
                    vectors.row_mut(i).copy_from_slice(&v.row(i)[..r]);
                }
                return Ok(EigenPairs {
                    vectors,
                    values: values[..r].to_vec(),
                    iterations: iteration,
                });
            }
            values
        };
        if iteration == max_iter {
            break;
        }

        // Next basis: the filtered Ritz block, reorthonormalized. Filtering
        // the Ritz vectors rather than Q keeps the leading columns aligned
        // with the dominant directions, so Gram–Schmidt meets them first.
        let top = values[0].abs();
        if top > 0.0 {
            let c = values[block - 1].abs().max(DAMPING_FLOOR * top);
            let _span = Span::enter_with("eigen.filter", &span_args);
            chebyshev_filter(a, threads, c, top, &mut v, &mut wv, &mut y)?;
        }
        // With every Ritz value zero there is no scale to filter against, and
        // the unfiltered image W·V already in `wv` becomes the next block.
        let _span = Span::enter_with("eigen.orthonormalize", &span_args);
        work.orthonormalize(&mut wv)?;
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

    /// Full eigendecomposition of a dense symmetric matrix by the solver's own
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
    fn dominant_pair_matches_power_iteration() {
        let a = path4();
        let pairs = symmetric_eigen(&a, &EigenConfig::with_rank(1), Threads::Serial).unwrap();
        let rho = crate::spectral::spectral_radius_sparse(&a, 2000, 1e-12).unwrap();
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
