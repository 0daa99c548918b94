//! # fg-sparse
//!
//! Sparse and dense linear-algebra kernels for the `factorized-graphs` workspace, a Rust
//! reproduction of *"Factorized Graph Representations for Semi-Supervised Learning from
//! Sparse Data"* (SIGMOD 2020).
//!
//! The paper's scalability hinges on one evaluation-order rule (its footnote 5): never
//! materialize `Wℓ`; instead push the thin `n x k` label matrix through repeated
//! sparse-times-dense products. This crate provides exactly the kernels needed for that:
//!
//! * [`CsrMatrix`] — compressed sparse row adjacency matrices with `u32` column
//!   indices and no value array when every value is 1.0 (4 bytes per stored entry
//!   for an unweighted graph), assembled from triplets or straight from an
//!   undirected edge list ([`CsrMatrix::from_undirected_edges`]), with `O(nnz·k)`
//!   sparse-times-dense products ([`CsrMatrix::spmm_dense`]), plus the
//!   sparse-sparse product used only by the unfactorized baseline.
//! * [`DenseMatrix`] — small row-major dense matrices for the `k x k` sketches and the
//!   `n x k` belief matrices, with the three normalization variants from Section 4.3.
//! * [`parallel`] — a thread-parallel execution layer for the hot `spmm_dense`
//!   kernel, hand-rolled on [`std::thread::scope`] with a [`Threads`] policy and
//!   bit-identical output to the serial path, plus the ordered work queue
//!   ([`run_ordered_cells`]) for independent per-node, per-restart and per-run cells.
//! * [`spectral`] — spectral-radius estimates (Lanczos for the sparse `W`) used for
//!   LinBP's convergence scaling (Eq. 2).
//! * [`eigen`] — a dependency-free symmetric eigensolver (Chebyshev-filtered
//!   subspace iteration + Rayleigh–Ritz, deterministic seeded start) powering the
//!   low-rank `V·Λ·Vᵀ` counting backend.
//! * [`vector`] — plain-slice vector helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod parallel;
pub mod spectral;
pub mod vector;

pub use csr::{CsrMatrix, Edge, MAX_DIM};
pub use dense::DenseMatrix;
pub use eigen::{
    symmetric_eigen, EigenConfig, EigenPairs, DEFAULT_EIGEN_MAX_ITER, DEFAULT_EIGEN_SEED,
    DEFAULT_EIGEN_TOL,
};
pub use error::{Result, SparseError};
pub use parallel::{
    map_row_chunks, partition_rows, partition_rows_by_nnz, run_ordered_cells, Threads,
};
pub use spectral::{spectral_radius_dense, spectral_radius_sparse};

/// The tracing span of `fg_obs`, re-exported for the graph layer, which reaches
/// `fg_obs` only through this crate.
pub use fg_obs::Span;

/// Coordinate-list (COO) input: the triplet contract of [`CsrMatrix::from_triplets`].
#[cfg(test)]
mod coo {
    mod tests {
        use crate::CsrMatrix;

        #[test]
        fn push_and_count() {
            let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 2.0)]);
            assert_eq!(m.nnz(), 2);
            assert_eq!(m.rows(), 3);
            assert_eq!(m.cols(), 3);
        }

        /// The panic message of building a 2x2 matrix from `triplets`, if it panics.
        fn rejection(triplets: &[(usize, usize, f64)]) -> Option<String> {
            let err =
                std::panic::catch_unwind(|| CsrMatrix::from_triplets(2, 2, triplets)).err()?;
            Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
        }

        #[test]
        fn push_out_of_bounds_row() {
            assert_eq!(
                rejection(&[(0, 1, 1.0), (2, 0, 1.0)]).as_deref(),
                Some("entry (2, 0) out of bounds for a 2x2 matrix")
            );
        }

        #[test]
        fn push_out_of_bounds_col() {
            assert_eq!(
                rejection(&[(0, 2, 1.0)]).as_deref(),
                Some("entry (0, 2) out of bounds for a 2x2 matrix")
            );
        }
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn coo_to_csr_to_dense_pipeline() {
        let csr = CsrMatrix::from_undirected_edges(3, &[(0usize, 1usize, 1.0), (1, 2, 2.0)]);
        let dense = csr.to_dense();
        assert_eq!(dense.get(0, 1), 1.0);
        assert_eq!(dense.get(2, 1), 2.0);
        assert!(csr.is_symmetric(0.0));
    }

    #[test]
    fn factorized_vs_explicit_power_order() {
        // (W W) X == W (W X): the algebraic identity the factorized summation exploits.
        let w = CsrMatrix::from_triplets(
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
        );
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
        ])
        .unwrap();
        let explicit = w.spmm(&w).unwrap().spmm_dense(&x).unwrap();
        let factorized = w.spmm_dense(&w.spmm_dense(&x).unwrap()).unwrap();
        assert!(explicit.approx_eq(&factorized, 1e-12));
    }
}
