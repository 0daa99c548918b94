//! Property-style tests: the CSR kernels must agree with the dense reference
//! implementation on arbitrary small matrices.
//!
//! The build environment has no access to crates.io, so instead of `proptest` these
//! run each property over a deterministic sweep of seeded random inputs (the vendored
//! `rand` shim provides the generator). Coverage is equivalent in spirit: dozens of
//! random shapes/values per property, reproducible by seed.

use fg_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A small dense matrix with entries in [-5, 5].
fn dense_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.gen::<f64>() * 10.0 - 5.0)
        .collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// A small sparse matrix (as triplets) of a given shape, with a random number of
/// entries (possibly zero, possibly duplicated — duplicates accumulate).
fn sparse_triplets(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<(usize, usize, f64)> {
    let max_nnz = (rows * cols).max(1);
    let nnz = rng.gen_index(max_nnz);
    (0..nnz)
        .map(|_| {
            (
                rng.gen_index(rows),
                rng.gen_index(cols),
                rng.gen::<f64>() * 10.0 - 5.0,
            )
        })
        .collect()
}

fn sparse_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> CsrMatrix {
    CsrMatrix::from_triplets(rows, cols, &sparse_triplets(rows, cols, rng))
}

#[test]
fn csr_to_dense_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = sparse_matrix(6, 5, &mut rng);
        let dense = m.to_dense();
        let back = CsrMatrix::from_dense(&dense);
        assert!(back.to_dense().approx_eq(&dense, 0.0), "seed {seed}");
    }
}

#[test]
fn spmv_agrees_with_dense() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = sparse_matrix(5, 4, &mut rng);
        let v: Vec<f64> = (0..4).map(|_| rng.gen::<f64>() * 6.0 - 3.0).collect();
        let got = m.spmv(&v).unwrap();
        let expected = m.to_dense().matvec(&v).unwrap();
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn spmm_dense_agrees_with_dense() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = sparse_matrix(5, 4, &mut rng);
        let x = dense_matrix(4, 3, &mut rng);
        let got = m.spmm_dense(&x).unwrap();
        let expected = m.to_dense().matmul(&x).unwrap();
        assert!(got.approx_eq(&expected, 1e-9), "seed {seed}");
    }
}

#[test]
fn spmm_sparse_agrees_with_dense() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sparse_matrix(4, 5, &mut rng);
        let b = sparse_matrix(5, 3, &mut rng);
        let got = a.spmm(&b).unwrap().to_dense();
        let expected = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(got.approx_eq(&expected, 1e-9), "seed {seed}");
    }
}

#[test]
fn add_sub_agree_with_dense() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sparse_matrix(4, 4, &mut rng);
        let b = sparse_matrix(4, 4, &mut rng);
        let sum = a.add(&b).unwrap().to_dense();
        let expected_sum = a.to_dense().add(&b.to_dense()).unwrap();
        assert!(sum.approx_eq(&expected_sum, 1e-9), "seed {seed}");
        let diff = a.sub(&b).unwrap().to_dense();
        let expected_diff = a.to_dense().sub(&b.to_dense()).unwrap();
        assert!(diff.approx_eq(&expected_diff, 1e-9), "seed {seed}");
    }
}

#[test]
fn transpose_involution() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sparse_matrix(5, 3, &mut rng);
        assert!(
            a.transpose()
                .transpose()
                .to_dense()
                .approx_eq(&a.to_dense(), 0.0),
            "seed {seed}"
        );
    }
}

#[test]
fn dense_matmul_associative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense_matrix(3, 3, &mut rng);
        let b = dense_matrix(3, 3, &mut rng);
        let c = dense_matrix(3, 3, &mut rng);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-6), "seed {seed}");
    }
}

#[test]
fn dense_transpose_of_product() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense_matrix(3, 4, &mut rng);
        let b = dense_matrix(4, 2, &mut rng);
        // (AB)^T == B^T A^T
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(left.approx_eq(&right, 1e-9), "seed {seed}");
    }
}

#[test]
fn row_normalized_rows_sum_to_one_or_zero() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = sparse_matrix(5, 5, &mut rng);
        // Row-normalization on |values| keeps each nonzero row summing to 1.
        let abs = CsrMatrix::from_triplets(
            5,
            5,
            &m.iter()
                .map(|(r, c, v)| (r, c, v.abs()))
                .collect::<Vec<_>>(),
        );
        let norm = abs.row_normalized();
        for (i, s) in norm.row_sums().iter().enumerate() {
            if abs.row_nnz(i) > 0 && abs.row_entries(i).map(|(_, v)| v).sum::<f64>() > 0.0 {
                assert!((s - 1.0).abs() < 1e-9, "seed {seed} row {i}");
            } else {
                assert!(s.abs() < 1e-12, "seed {seed} row {i}");
            }
        }
    }
}

#[test]
fn coo_duplicate_accumulation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<(usize, usize, f64)> = (0..rng.gen_index(20))
            .map(|_| {
                (
                    rng.gen_index(4),
                    rng.gen_index(4),
                    rng.gen::<f64>() * 4.0 - 2.0,
                )
            })
            .collect();
        let mut reference = DenseMatrix::zeros(4, 4);
        for (r, c, v) in &entries {
            reference.add_at(*r, *c, *v);
        }
        assert!(
            CsrMatrix::from_triplets(4, 4, &entries)
                .to_dense()
                .approx_eq(&reference, 1e-9),
            "seed {seed}"
        );
    }
}

#[test]
fn spectral_radius_scales_linearly() {
    // rho(c * W) = c * rho(W): the Lanczos stopping rules are relative, so the
    // estimate follows any scale, from 1e-9 to 1e3, on a path and on random
    // weighted symmetric graphs.
    let path =
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
    let mut graphs = vec![path];
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let triplets: Vec<_> = sparse_triplets(40, 40, &mut rng)
            .into_iter()
            .filter(|&(i, j, _)| i != j)
            .flat_map(|(i, j, w)| [(i, j, w.abs()), (j, i, w.abs())])
            .collect();
        graphs.push(CsrMatrix::from_triplets(40, 40, &triplets));
    }
    let mut rng = StdRng::seed_from_u64(1);
    let scales: Vec<f64> = (0..CASES)
        .map(|_| 0.1 + rng.gen::<f64>() * 3.9)
        .chain([1e-9, 1e3])
        .collect();
    for w in &graphs {
        let base = fg_sparse::spectral_radius_sparse(w).unwrap();
        for &scale in &scales {
            let scaled = fg_sparse::spectral_radius_sparse(&w.scaled(scale)).unwrap();
            assert!(
                (scaled - scale * base).abs() <= 1e-10 * scale * base,
                "scale {scale:e}: {scaled:e} vs {:e}",
                scale * base
            );
        }
    }
}

#[test]
fn frobenius_distance_is_a_metric() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense_matrix(3, 3, &mut rng);
        let b = dense_matrix(3, 3, &mut rng);
        let dab = a.frobenius_distance(&b).unwrap();
        let dba = b.frobenius_distance(&a).unwrap();
        assert!((dab - dba).abs() < 1e-12, "seed {seed}");
        assert!(a.frobenius_distance(&a).unwrap() < 1e-12, "seed {seed}");
        assert!(dab >= 0.0, "seed {seed}");
    }
}
