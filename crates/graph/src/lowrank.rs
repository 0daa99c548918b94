//! Low-rank spectral factorization of a graph's adjacency matrix.
//!
//! The low-rank counting backend replaces the exact adjacency `W` with its
//! rank-`r` spectral approximation `W ≈ V·Λ·Vᵀ` (the `r` largest-magnitude
//! eigenpairs, computed by [`fg_sparse::eigen`]). Once the factor exists, path
//! statistics collapse to factor-space recurrences whose per-length cost is
//! independent of both the edge count **and** the node count — the
//! compute-efficiency trade the fgcn line of work exploits.
//!
//! [`LowRankFactor`] carries everything the counting recurrences need:
//!
//! * `V` (n×r, orthonormal columns) and `Λ` (the eigenvalues), and
//! * `G = Vᵀ·(D−I)·V` (r×r), the degree correction projected into factor
//!   space, precomputed once here so the non-backtracking recurrence never
//!   touches an n-dimensional object per path length.
//!
//! The factor has its own [`LowRankFactor::fingerprint`] derived from
//! `(graph fingerprint, rank, solver parameters)`, which keys both the
//! in-memory factor cache and the on-disk `.fgv` store records.
//!
//! The fingerprint names the solver's inputs, not its algorithm. When the
//! eigensolver moved from one-SpMM subspace iteration to Chebyshev-filtered
//! rounds, the inputs and their defaults stayed as they were, so `.fgv`
//! records written by the older solver keep their keys and still load. They
//! meet the same residual bound: both solvers stop only once every pair has
//! `‖W·v − θ·v‖₂ ≤ tol·|θ₁|` (the older test, `tol·max(|θ|, 1)`, is at least
//! as strict whenever `|θ₁| ≥ 1`, as on any unweighted graph with an edge).

use crate::error::Result;
use crate::fingerprint::{Fingerprint, FingerprintBuilder};
use crate::graph::Graph;
use fg_sparse::eigen::{
    symmetric_eigen, EigenConfig, DEFAULT_EIGEN_MAX_ITER, DEFAULT_EIGEN_SEED, DEFAULT_EIGEN_TOL,
};
use fg_sparse::{DenseMatrix, SparseError, Threads};

/// Solver parameters for computing a [`LowRankFactor`]. All four fields enter
/// the factor fingerprint: change any of them and the factor is a different
/// cache entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorConfig {
    /// Number of eigenpairs retained (`1 ..= n`).
    pub rank: usize,
    /// Budget of Rayleigh–Ritz rounds; each round but the last also runs a
    /// Chebyshev filter, so it costs several block products.
    pub max_iter: usize,
    /// Relative residual tolerance: a pair converges at
    /// `‖W·v − θ·v‖₂ ≤ tol·|θ₁|`.
    pub tol: f64,
    /// Seed for the deterministic starting block.
    pub seed: u64,
}

impl FactorConfig {
    /// Config with the solver defaults for the given rank.
    pub fn with_rank(rank: usize) -> Self {
        FactorConfig {
            rank,
            max_iter: DEFAULT_EIGEN_MAX_ITER,
            tol: DEFAULT_EIGEN_TOL,
            seed: DEFAULT_EIGEN_SEED,
        }
    }
}

/// A rank-`r` spectral factorization `W ≈ V·Λ·Vᵀ` of a graph's adjacency
/// matrix, plus the projected degree correction `G = Vᵀ·(D−I)·V` used by the
/// non-backtracking recurrence.
#[derive(Debug, Clone)]
pub struct LowRankFactor {
    v: DenseMatrix,
    lambda: Vec<f64>,
    g: DenseMatrix,
    degrees: Vec<f64>,
    graph_fp: Fingerprint,
    config: FactorConfig,
    iterations: usize,
}

/// The fingerprint a factor of `graph_fp` under `config` will carry — derived
/// purely from the inputs, so cache/store lookups never need the factor itself.
pub fn factor_fingerprint(graph_fp: Fingerprint, config: &FactorConfig) -> Fingerprint {
    FingerprintBuilder::new(b"fg-lowrank-factor-v1")
        .write_bytes(&graph_fp.as_u128().to_le_bytes())
        .write_usize(config.rank)
        .write_usize(config.max_iter)
        .write_f64(config.tol)
        .write_u64(config.seed)
        .finish()
}

impl LowRankFactor {
    /// Factorize a graph's adjacency matrix: the `rank` largest-magnitude
    /// eigenpairs via Chebyshev-filtered subspace iteration, then the one-time projection
    /// `G = Vᵀ·(D−I)·V`. All edge-proportional work runs through the
    /// thread-parallel bit-identical kernels, so the factor is byte-identical
    /// at any `threads` setting.
    pub fn compute(graph: &Graph, config: &FactorConfig, threads: Threads) -> Result<Self> {
        let eigen_config = EigenConfig {
            rank: config.rank,
            max_iter: config.max_iter,
            tol: config.tol,
            seed: config.seed,
        };
        let pairs = symmetric_eigen(graph.adjacency(), &eigen_config, threads)?;
        let dv = graph
            .degree_minus_identity()
            .spmm_dense_with(&pairs.vectors, threads)?;
        let g = pairs.vectors.transpose().matmul(&dv)?;
        Ok(LowRankFactor {
            v: pairs.vectors,
            lambda: pairs.values,
            g,
            degrees: graph.degrees(),
            graph_fp: graph.fingerprint(),
            config: *config,
            iterations: pairs.iterations,
        })
    }

    /// Reassemble a factor from stored parts (the `.fgv` load path), validating
    /// shape consistency.
    pub fn from_parts(
        v: DenseMatrix,
        lambda: Vec<f64>,
        g: DenseMatrix,
        degrees: Vec<f64>,
        graph_fp: Fingerprint,
        config: FactorConfig,
        iterations: usize,
    ) -> Result<Self> {
        let rank = config.rank;
        if v.cols() != rank || lambda.len() != rank || g.shape() != (rank, rank) {
            return Err(SparseError::InvalidInput(format!(
                "inconsistent factor parts: V is {}x{}, lambda has {}, G is {}x{}, rank {}",
                v.rows(),
                v.cols(),
                lambda.len(),
                g.rows(),
                g.cols(),
                rank
            ))
            .into());
        }
        if degrees.len() != v.rows() {
            return Err(SparseError::InvalidInput(format!(
                "inconsistent factor parts: {} degrees for {} nodes",
                degrees.len(),
                v.rows()
            ))
            .into());
        }
        Ok(LowRankFactor {
            v,
            lambda,
            g,
            degrees,
            graph_fp,
            config,
            iterations,
        })
    }

    /// The eigenvector block `V` (n×r, orthonormal columns).
    pub fn v(&self) -> &DenseMatrix {
        &self.v
    }

    /// The eigenvalues, sorted by magnitude descending.
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// The projected degree correction `G = Vᵀ·(D−I)·V` (r×r).
    pub fn g(&self) -> &DenseMatrix {
        &self.g
    }

    /// Per-node weighted degrees of the factored graph (length n), carried so
    /// the non-backtracking correction `Z = VᵀDX` never needs the graph itself
    /// — a factor loaded from the store is self-contained.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Retained rank `r`.
    pub fn rank(&self) -> usize {
        self.config.rank
    }

    /// Number of graph nodes `n` (rows of `V`).
    pub fn num_nodes(&self) -> usize {
        self.v.rows()
    }

    /// Fingerprint of the graph this factor was computed from.
    pub fn graph_fingerprint(&self) -> Fingerprint {
        self.graph_fp
    }

    /// The solver parameters the factor was computed with.
    pub fn config(&self) -> &FactorConfig {
        &self.config
    }

    /// Rayleigh–Ritz rounds the eigensolve used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The factor's own cache/store identity — see [`factor_fingerprint`].
    pub fn fingerprint(&self) -> Fingerprint {
        factor_fingerprint(self.graph_fp, &self.config)
    }

    /// Densely reconstruct `V·Λ·Vᵀ` — test/diagnostic helper for small graphs
    /// (O(n²·r); never on the serving path).
    pub fn approximate_adjacency(&self) -> Result<DenseMatrix> {
        let mut vl = self.v.clone();
        for i in 0..vl.rows() {
            let row = vl.row_mut(i);
            for (j, value) in row.iter_mut().enumerate() {
                *value *= self.lambda[j];
            }
        }
        Ok(vl.matmul(&self.v.transpose())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn full_rank_factor_reconstructs_adjacency() {
        let graph = ring(8);
        let factor =
            LowRankFactor::compute(&graph, &FactorConfig::with_rank(8), Threads::Serial).unwrap();
        let approx = factor.approximate_adjacency().unwrap();
        let exact = graph.adjacency().to_dense();
        assert!(
            approx.approx_eq(&exact, 1e-7),
            "full-rank V·Λ·Vᵀ must reproduce W"
        );
    }

    #[test]
    fn g_matches_explicit_projection() {
        let graph = ring(8);
        let factor =
            LowRankFactor::compute(&graph, &FactorConfig::with_rank(4), Threads::Serial).unwrap();
        let dmi = graph.degree_minus_identity().to_dense();
        let explicit = factor
            .v()
            .transpose()
            .matmul(&dmi.matmul(factor.v()).unwrap())
            .unwrap();
        assert!(factor.g().approx_eq(&explicit, 1e-10));
        assert_eq!(factor.g().shape(), (4, 4));
    }

    #[test]
    fn fingerprint_distinguishes_rank_solver_params_and_graph() {
        let graph = ring(8);
        let other = ring(10);
        let base = FactorConfig::with_rank(4);
        let fp = factor_fingerprint(graph.fingerprint(), &base);
        assert_eq!(fp, factor_fingerprint(graph.fingerprint(), &base));
        assert_ne!(fp, factor_fingerprint(other.fingerprint(), &base));
        for tweaked in [
            FactorConfig { rank: 5, ..base },
            FactorConfig {
                max_iter: base.max_iter + 1,
                ..base
            },
            FactorConfig {
                tol: base.tol * 10.0,
                ..base
            },
            FactorConfig {
                seed: base.seed + 1,
                ..base
            },
        ] {
            assert_ne!(fp, factor_fingerprint(graph.fingerprint(), &tweaked));
        }
        let factor = LowRankFactor::compute(&graph, &base, Threads::Serial).unwrap();
        assert_eq!(factor.fingerprint(), fp);
    }

    #[test]
    fn factor_is_bit_identical_across_thread_counts() {
        let graph = ring(32);
        let config = FactorConfig::with_rank(6);
        let serial = LowRankFactor::compute(&graph, &config, Threads::Serial).unwrap();
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            let parallel = LowRankFactor::compute(&graph, &config, threads).unwrap();
            assert_eq!(serial.v().data(), parallel.v().data());
            assert_eq!(serial.lambda(), parallel.lambda());
            assert_eq!(serial.g().data(), parallel.g().data());
        }
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let graph = ring(8);
        let config = FactorConfig::with_rank(3);
        let factor = LowRankFactor::compute(&graph, &config, Threads::Serial).unwrap();
        let rebuilt = LowRankFactor::from_parts(
            factor.v().clone(),
            factor.lambda().to_vec(),
            factor.g().clone(),
            factor.degrees().to_vec(),
            factor.graph_fingerprint(),
            config,
            factor.iterations(),
        )
        .unwrap();
        assert_eq!(rebuilt.fingerprint(), factor.fingerprint());
        assert_eq!(rebuilt.v().data(), factor.v().data());
        assert_eq!(rebuilt.degrees(), factor.degrees());
        // Mismatched lambda length is rejected.
        assert!(LowRankFactor::from_parts(
            factor.v().clone(),
            vec![1.0; 2],
            factor.g().clone(),
            factor.degrees().to_vec(),
            factor.graph_fingerprint(),
            config,
            0,
        )
        .is_err());
        // Mismatched degree length is rejected.
        assert!(LowRankFactor::from_parts(
            factor.v().clone(),
            factor.lambda().to_vec(),
            factor.g().clone(),
            vec![1.0; 2],
            factor.graph_fingerprint(),
            config,
            0,
        )
        .is_err());
    }
}
