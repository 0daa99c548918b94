//! Random walks with restarts (MultiRankWalk-style baseline).
//!
//! Section 2.4 of the paper: homophily-based SSL methods run one personalized random
//! walk per class,
//!
//! ```text
//! F ← ᾱ U + α W_col F
//! ```
//!
//! where `U` holds the per-class normalized seed distributions and `W_col` is the
//! column-normalized adjacency matrix. After convergence, each node takes the class
//! with the maximum score. The method assumes homophily and therefore fails on
//! heterophilous graphs — which is exactly the comparison the paper draws (Fig. 6i).

use crate::harmonic::uniform_fallback_for_zero_rows;
use crate::linbp::label;
use fg_graph::{Graph, GraphError, Result, SeedLabels};
use fg_sparse::{vector, DenseMatrix, Threads};

/// Configuration for random walks with restarts.
#[derive(Debug, Clone)]
pub struct RandomWalkConfig {
    /// Probability of continuing the walk (the paper's `α`); `1 - α` is the restart
    /// (teleport) probability.
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// Early-stopping tolerance on the maximum absolute score change.
    pub tolerance: f64,
    /// Thread policy for the sparse kernels. The parallel kernels are bit-identical
    /// to the serial ones, so this only changes wall-clock time, never the result.
    pub threads: Threads,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        RandomWalkConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-8,
            threads: Threads::Serial,
        }
    }
}

/// Result of a random-walk labeling run.
#[derive(Debug, Clone)]
pub struct RandomWalkResult {
    /// Final per-class ranking scores (`n x k`).
    pub scores: DenseMatrix,
    /// Predicted class per node.
    pub predictions: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Run MultiRankWalk: one random walk with restarts per class, teleporting to that
/// class's seed nodes.
///
/// Unlabeled nodes the walks can never visit — isolated nodes, and nodes with no path
/// from any seed — would otherwise keep an all-zero score row that [`label`] silently
/// ties to class 0, inflating class-0 recall. Those rows fall back to the uniform
/// score `1/k`, making "no information" explicit in the scores (the argmax still
/// resolves to class 0 through `label`'s documented deterministic tie-break).
pub fn multi_rank_walk(
    graph: &Graph,
    seeds: &SeedLabels,
    config: &RandomWalkConfig,
) -> Result<RandomWalkResult> {
    let n = graph.num_nodes();
    let k = seeds.k();
    if seeds.n() != n {
        return Err(GraphError::InvalidLabels(format!(
            "seed labels cover {} nodes but graph has {}",
            seeds.n(),
            n
        )));
    }
    if !(0.0..1.0).contains(&config.damping) {
        return Err(GraphError::InvalidParameter(format!(
            "damping must be in [0, 1), got {}",
            config.damping
        )));
    }

    // Teleport matrix U: column c is the normalized indicator of class-c seed nodes.
    let mut teleport = DenseMatrix::zeros(n, k);
    let counts = seeds.class_counts();
    for i in 0..n {
        if let Some(c) = seeds.get(i) {
            if counts[c] > 0 {
                teleport.set(i, c, 1.0 / counts[c] as f64);
            }
        }
    }

    let w_col = graph.adjacency().column_normalized();
    let alpha = config.damping;
    let restart = 1.0 - alpha;

    // F ← ᾱ U + α W_col F on two n x k buffers allocated once: the walk step
    // lands in `next`, which becomes F.
    let mut f = teleport.clone();
    let mut next = DenseMatrix::zeros(n, k);
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..config.max_iterations {
        w_col
            .spmm_dense_into(&f, config.threads, &mut next)
            .map_err(GraphError::Sparse)?;
        for (v, &u) in next.data_mut().iter_mut().zip(teleport.data()) {
            *v = u * restart + *v * alpha;
        }
        let delta = vector::max_abs_diff(f.data(), next.data());
        std::mem::swap(&mut f, &mut next);
        iterations += 1;
        if delta <= config.tolerance {
            converged = true;
            break;
        }
    }

    uniform_fallback_for_zero_rows(&mut f, seeds);
    let predictions = label(&f);
    Ok(RandomWalkResult {
        scores: f,
        predictions,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::unlabeled_accuracy;
    use fg_graph::Labeling;

    /// Two homophilous clusters joined by a single bridge edge.
    fn two_clusters() -> (Graph, Labeling, SeedLabels) {
        let edges = [
            // cluster A: 0..4 (complete-ish)
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (0, 3),
            // cluster B: 4..8
            (4, 5),
            (4, 6),
            (5, 6),
            (6, 7),
            (4, 7),
            // bridge
            (3, 4),
        ];
        let graph = Graph::from_edges(8, &edges).unwrap();
        let labeling = Labeling::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
        let seeds = SeedLabels::new(
            vec![Some(0), None, None, None, None, Some(1), None, None],
            2,
        )
        .unwrap();
        (graph, labeling, seeds)
    }

    #[test]
    fn homophilous_clusters_are_recovered() {
        let (graph, labeling, seeds) = two_clusters();
        let result = multi_rank_walk(&graph, &seeds, &RandomWalkConfig::default()).unwrap();
        let acc = unlabeled_accuracy(&result.predictions, &labeling, &seeds);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(result.converged);
    }

    #[test]
    fn heterophilous_bipartite_graph_defeats_random_walks() {
        // On a bipartite (pure heterophily) graph the homophily assumption is wrong and
        // the walk mislabels roughly everything near the opposite seed.
        let edges = [
            (0, 4),
            (0, 5),
            (1, 4),
            (1, 6),
            (2, 5),
            (2, 7),
            (3, 6),
            (3, 7),
        ];
        let graph = Graph::from_edges(8, &edges).unwrap();
        let labeling = Labeling::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
        let seeds = SeedLabels::new(
            vec![Some(0), None, None, None, Some(1), None, None, None],
            2,
        )
        .unwrap();
        let result = multi_rank_walk(&graph, &seeds, &RandomWalkConfig::default()).unwrap();
        let acc = unlabeled_accuracy(&result.predictions, &labeling, &seeds);
        assert!(acc < 0.75, "random walks should struggle, got {acc}");
    }

    #[test]
    fn invalid_damping_rejected() {
        let (graph, _, seeds) = two_clusters();
        let cfg = RandomWalkConfig {
            damping: 1.5,
            ..RandomWalkConfig::default()
        };
        assert!(multi_rank_walk(&graph, &seeds, &cfg).is_err());
    }

    #[test]
    fn size_mismatch_rejected() {
        let (graph, _, _) = two_clusters();
        let seeds = SeedLabels::new(vec![None; 3], 2).unwrap();
        assert!(multi_rank_walk(&graph, &seeds, &RandomWalkConfig::default()).is_err());
    }

    #[test]
    fn scores_decay_with_distance_from_seed() {
        let (graph, _, seeds) = two_clusters();
        let result = multi_rank_walk(&graph, &seeds, &RandomWalkConfig::default()).unwrap();
        // Node 1 (adjacent to the class-0 seed) should score higher for class 0 than
        // node 7 (far away in the other cluster).
        assert!(result.scores.get(1, 0) > result.scores.get(7, 0));
    }
}
