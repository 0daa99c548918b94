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
//! * [`CsrMatrix`] — compressed sparse row adjacency matrices with `O(nnz·k)`
//!   sparse-times-dense products ([`CsrMatrix::spmm_dense`]), plus the sparse-sparse
//!   product used only by the unfactorized baseline.
//! * [`CooMatrix`] — a triplet builder for assembling graphs edge by edge.
//! * [`DenseMatrix`] — small row-major dense matrices for the `k x k` sketches and the
//!   `n x k` belief matrices, with the three normalization variants from Section 4.3.
//! * [`parallel`] — a thread-parallel execution layer for the hot kernels
//!   (`spmm_dense`, `spmv`, Gustavson `spmm`), hand-rolled on [`std::thread::scope`]
//!   with a [`Threads`] policy and bit-identical output to the serial paths.
//! * [`spectral`] — power-iteration spectral-radius estimates used for LinBP's
//!   convergence scaling (Eq. 2).
//! * [`eigen`] — a dependency-free symmetric eigensolver (blocked subspace
//!   iteration + Rayleigh–Ritz, deterministic seeded start) powering the
//!   low-rank `V·Λ·Vᵀ` counting backend.
//! * [`vector`] — plain-slice vector helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod parallel;
pub mod spectral;
pub mod vector;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use eigen::{
    symmetric_eigen, EigenConfig, EigenPairs, DEFAULT_EIGEN_MAX_ITER, DEFAULT_EIGEN_SEED,
    DEFAULT_EIGEN_TOL,
};
pub use error::{Result, SparseError};
pub use parallel::{
    map_row_chunks, partition_rows, partition_rows_by_nnz, run_ordered_cells, Threads,
};
pub use spectral::{spectral_radius, spectral_radius_dense, spectral_radius_sparse};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn coo_to_csr_to_dense_pipeline() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, 1.0).unwrap();
        coo.push_symmetric(1, 2, 2.0).unwrap();
        let csr = coo.to_csr();
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
