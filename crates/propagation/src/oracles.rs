//! Test oracles: the allocating propagation loops the in-place ones replaced,
//! one fresh n x k matrix per product and per update, and a sweep that holds the
//! in-place loops to them bit for bit.

use crate::harmonic::{harmonic_functions, uniform_fallback_for_zero_rows, HarmonicConfig};
use crate::linbp::{convergence_epsilon, label, prior_residuals, propagate, LinBpConfig};
use crate::random_walk::{multi_rank_walk, RandomWalkConfig};
use fg_graph::{Graph, GraphError, Result, SeedLabels};
use fg_sparse::{DenseMatrix, Threads};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The allocating LinBP loop: `(beliefs, iterations, converged)`.
fn linbp_allocating(
    graph: &Graph,
    seeds: &SeedLabels,
    h: &DenseMatrix,
    config: &LinBpConfig,
) -> Result<(DenseMatrix, usize, bool)> {
    let epsilon = match config.explicit_epsilon {
        Some(e) => e,
        None => convergence_epsilon(graph, h, config.convergence_fraction)?,
    };
    let (x, h_used) = if config.centered {
        (prior_residuals(seeds), h.centered())
    } else {
        (seeds.to_matrix(), h.clone())
    };
    let h_eff = h_used.scaled(epsilon);
    let w = graph.adjacency();
    let mut f = x.clone();
    let (mut iterations, mut converged) = (0, false);
    for _ in 0..config.max_iterations {
        let fh = f.matmul(&h_eff).map_err(GraphError::Sparse)?;
        let wfh = w
            .spmm_dense_with(&fh, config.threads)
            .map_err(GraphError::Sparse)?;
        let f_next = x.add(&wfh).map_err(GraphError::Sparse)?;
        iterations += 1;
        if let Some(tol) = config.tolerance {
            if max_abs_diff(&f, &f_next) <= tol {
                f = f_next;
                converged = true;
                break;
            }
        }
        f = f_next;
    }
    Ok((f, iterations, converged))
}

/// The allocating harmonic-functions loop: `(beliefs, iterations, converged)`.
fn harmonic_allocating(
    graph: &Graph,
    seeds: &SeedLabels,
    config: &HarmonicConfig,
) -> Result<(DenseMatrix, usize, bool)> {
    let w_row = graph.adjacency().row_normalized();
    let clamp = seeds.to_matrix();
    let mut f = clamp.clone();
    let (mut iterations, mut converged) = (0, false);
    for _ in 0..config.max_iterations {
        let mut f_next = w_row
            .spmm_dense_with(&f, config.threads)
            .map_err(GraphError::Sparse)?;
        for i in 0..seeds.n() {
            if seeds.get(i).is_some() {
                for j in 0..seeds.k() {
                    f_next.set(i, j, clamp.get(i, j));
                }
            }
        }
        iterations += 1;
        let delta = max_abs_diff(&f, &f_next);
        f = f_next;
        if delta <= config.tolerance {
            converged = true;
            break;
        }
    }
    uniform_fallback_for_zero_rows(&mut f, seeds);
    Ok((f, iterations, converged))
}

/// The allocating MultiRankWalk loop: `(scores, iterations, converged)`.
fn random_walk_allocating(
    graph: &Graph,
    seeds: &SeedLabels,
    config: &RandomWalkConfig,
) -> Result<(DenseMatrix, usize, bool)> {
    let (n, k) = (seeds.n(), seeds.k());
    let mut teleport = DenseMatrix::zeros(n, k);
    let counts = seeds.class_counts();
    for i in 0..n {
        if let Some(c) = seeds.get(i) {
            teleport.set(i, c, 1.0 / counts[c] as f64);
        }
    }
    let w_col = graph.adjacency().column_normalized();
    let (alpha, restart) = (config.damping, 1.0 - config.damping);
    let mut f = teleport.clone();
    let (mut iterations, mut converged) = (0, false);
    for _ in 0..config.max_iterations {
        let walked = w_col
            .spmm_dense_with(&f, config.threads)
            .map_err(GraphError::Sparse)?;
        let f_next = teleport
            .scaled(restart)
            .add(&walked.scaled(alpha))
            .map_err(GraphError::Sparse)?;
        iterations += 1;
        let delta = max_abs_diff(&f, &f_next);
        f = f_next;
        if delta <= config.tolerance {
            converged = true;
            break;
        }
    }
    uniform_fallback_for_zero_rows(&mut f, seeds);
    Ok((f, iterations, converged))
}

fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .fold(0.0, |acc, (&x, &y)| acc.max((x - y).abs()))
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// A random 120-node graph (some nodes isolated) with unit or random weights,
/// and a seed set labeling about 10% of the nodes with `k` classes.
fn fixture(k: usize, weighted: bool, seed: u64) -> (Graph, SeedLabels) {
    let n = 120;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for _ in 0..n * 3 {
        let (u, v) = (rng.gen_index(n - 10), rng.gen_index(n - 10));
        if u != v {
            let w = if weighted {
                0.25 + 1.75 * rng.gen::<f64>()
            } else {
                1.0
            };
            edges.push((u, v, w));
        }
    }
    let graph = Graph::from_weighted_edges(n, &edges).unwrap();
    let observed = (0..n)
        .map(|_| (rng.gen::<f64>() < 0.1).then(|| rng.gen_index(k)))
        .collect();
    (graph, SeedLabels::new(observed, k).unwrap())
}

/// A random symmetric `k x k` compatibility matrix with positive entries.
fn random_h(k: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = DenseMatrix::zeros(k, k);
    for i in 0..k {
        for j in i..k {
            let v = 0.05 + 0.95 * rng.gen::<f64>();
            h.set(i, j, v);
            h.set(j, i, v);
        }
    }
    h
}

const THREADS: [Threads; 3] = [Threads::Serial, Threads::Fixed(2), Threads::Fixed(4)];

/// In-place LinBP equals the allocating loop in beliefs (bitwise), predictions,
/// iterations and `converged`, for k = 1..=9 (so the k > 8 SpMM kernel runs),
/// unit and weighted graphs, both modes, a fixed iteration count and an early
/// stop, the spectral and an explicit ε, and 1, 2 and 4 threads.
#[test]
fn in_place_linbp_matches_the_allocating_loop_bitwise() {
    for k in 1..=9 {
        let h = random_h(k, 100 + k as u64);
        for weighted in [false, true] {
            let (graph, seeds) = fixture(k, weighted, k as u64);
            for centered in [true, false] {
                for (max_iterations, tolerance) in [(10, None), (60, Some(1e-4))] {
                    for explicit_epsilon in [None, Some(0.05)] {
                        for threads in THREADS {
                            let config = LinBpConfig {
                                max_iterations,
                                centered,
                                tolerance,
                                explicit_epsilon,
                                threads,
                                ..LinBpConfig::default()
                            };
                            let case = format!("k={k} weighted={weighted} {config:?}");
                            let got = propagate(&graph, &seeds, &h, &config).unwrap();
                            let (beliefs, iterations, converged) =
                                linbp_allocating(&graph, &seeds, &h, &config).unwrap();
                            assert_eq!(bits(&got.beliefs), bits(&beliefs), "{case}");
                            assert_eq!(got.predictions, label(&beliefs), "{case}");
                            assert_eq!((got.iterations, got.converged), (iterations, converged));
                            if tolerance.is_some() && centered && explicit_epsilon.is_none() {
                                assert!(got.converged && got.iterations < 60, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// In-place harmonic functions and random walks equal their allocating loops in
/// scores (bitwise), predictions, iterations and `converged`.
#[test]
fn in_place_homophily_baselines_match_the_allocating_loops_bitwise() {
    for k in [1, 2, 3, 5, 9] {
        for weighted in [false, true] {
            let (graph, seeds) = fixture(k, weighted, 50 + k as u64);
            for (max_iterations, tolerance) in [(7, 0.0), (300, 1e-6)] {
                for threads in THREADS {
                    let case = format!("k={k} weighted={weighted} {threads:?} {max_iterations}");
                    let config = HarmonicConfig {
                        max_iterations,
                        tolerance,
                        threads,
                    };
                    let got = harmonic_functions(&graph, &seeds, &config).unwrap();
                    let (beliefs, iterations, converged) =
                        harmonic_allocating(&graph, &seeds, &config).unwrap();
                    assert_eq!(bits(&got.beliefs), bits(&beliefs), "harmonic {case}");
                    assert_eq!(got.predictions, label(&beliefs), "harmonic {case}");
                    assert_eq!((got.iterations, got.converged), (iterations, converged));

                    let config = RandomWalkConfig {
                        max_iterations,
                        tolerance,
                        threads,
                        ..RandomWalkConfig::default()
                    };
                    let got = multi_rank_walk(&graph, &seeds, &config).unwrap();
                    let (scores, iterations, converged) =
                        random_walk_allocating(&graph, &seeds, &config).unwrap();
                    assert_eq!(bits(&got.scores), bits(&scores), "rw {case}");
                    assert_eq!(got.predictions, label(&scores), "rw {case}");
                    assert_eq!((got.iterations, got.converged), (iterations, converged));
                }
            }
        }
    }
}
