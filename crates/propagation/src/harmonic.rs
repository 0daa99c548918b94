//! Harmonic-functions label propagation (Zhu, Ghahramani & Lafferty 2003).
//!
//! The classic homophily-based SSL method used as the "Homophily" baseline in Fig. 6i of
//! the paper: beliefs of unlabeled nodes are repeatedly replaced by the (degree-
//! normalized) average of their neighbors' beliefs while labeled nodes stay clamped to
//! their observed one-hot labels.

use crate::linbp::label;
use fg_graph::{Graph, GraphError, Result, SeedLabels};
use fg_sparse::{vector, DenseMatrix, Threads};

/// Configuration for harmonic-functions propagation.
#[derive(Debug, Clone)]
pub struct HarmonicConfig {
    /// Maximum number of averaging iterations.
    pub max_iterations: usize,
    /// Early-stopping tolerance on the maximum absolute belief change.
    pub tolerance: f64,
    /// Thread policy for the sparse kernels. The parallel kernels are bit-identical
    /// to the serial ones, so this only changes wall-clock time, never the result.
    pub threads: Threads,
}

impl Default for HarmonicConfig {
    fn default() -> Self {
        HarmonicConfig {
            max_iterations: 200,
            tolerance: 1e-8,
            threads: Threads::Serial,
        }
    }
}

/// Result of harmonic-functions propagation.
#[derive(Debug, Clone)]
pub struct HarmonicResult {
    /// Final beliefs (`n x k`), rows of labeled nodes clamped to their labels.
    pub beliefs: DenseMatrix,
    /// Predicted class per node.
    pub predictions: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Run harmonic-functions propagation (the homophily baseline).
///
/// Unlabeled nodes that never receive any mass — isolated nodes, and nodes in
/// components containing no seed — would otherwise keep an all-zero belief row that
/// [`label`] silently ties to class 0, inflating class-0 recall. Those rows fall back
/// to the uniform belief `1/k`, which makes "no information" explicit in the beliefs
/// (the argmax still resolves to class 0 through `label`'s documented deterministic
/// tie-break).
pub fn harmonic_functions(
    graph: &Graph,
    seeds: &SeedLabels,
    config: &HarmonicConfig,
) -> Result<HarmonicResult> {
    let n = graph.num_nodes();
    if seeds.n() != n {
        return Err(GraphError::InvalidLabels(format!(
            "seed labels cover {} nodes but graph has {}",
            seeds.n(),
            n
        )));
    }
    let w_row = graph.adjacency().row_normalized();
    let labeled: Vec<(usize, usize)> = (0..n).filter_map(|i| Some((i, seeds.get(i)?))).collect();

    // F ← W_row F with labeled rows clamped, on two n x k buffers allocated once.
    let mut f = seeds.to_matrix();
    let mut next = DenseMatrix::zeros(n, seeds.k());
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..config.max_iterations {
        w_row
            .spmm_dense_into(&f, config.threads, &mut next)
            .map_err(GraphError::Sparse)?;
        // Clamp labeled nodes back to their observed one-hot labels.
        for &(i, c) in &labeled {
            let row = next.row_mut(i);
            row.fill(0.0);
            row[c] = 1.0;
        }
        iterations += 1;
        let delta = vector::max_abs_diff(f.data(), next.data());
        std::mem::swap(&mut f, &mut next);
        if delta <= config.tolerance {
            converged = true;
            break;
        }
    }

    uniform_fallback_for_zero_rows(&mut f, seeds);
    let predictions = label(&f);
    Ok(HarmonicResult {
        beliefs: f,
        predictions,
        iterations,
        converged,
    })
}

/// Replace the all-zero belief rows of unlabeled nodes with the uniform distribution
/// `1/k`. Zero rows arise exactly for nodes no seed mass can reach (isolated nodes,
/// seedless components); leaving them at zero would present "no information" as a
/// maximally confident all-zero row.
pub(crate) fn uniform_fallback_for_zero_rows(f: &mut DenseMatrix, seeds: &SeedLabels) {
    let k = f.cols();
    if k == 0 {
        return;
    }
    let uniform = 1.0 / k as f64;
    for i in 0..f.rows() {
        if seeds.get(i).is_none() && f.row(i).iter().all(|&v| v == 0.0) {
            for v in f.row_mut(i) {
                *v = uniform;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::unlabeled_accuracy;
    use fg_graph::Labeling;

    fn two_clusters() -> (Graph, Labeling, SeedLabels) {
        let edges = [
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (0, 3),
            (4, 5),
            (4, 6),
            (5, 6),
            (6, 7),
            (4, 7),
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
    fn homophilous_graph_is_labeled_correctly() {
        let (graph, labeling, seeds) = two_clusters();
        let result = harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).unwrap();
        let acc = unlabeled_accuracy(&result.predictions, &labeling, &seeds);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(result.converged);
    }

    #[test]
    fn labeled_nodes_stay_clamped() {
        let (graph, _, seeds) = two_clusters();
        let result = harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).unwrap();
        assert_eq!(result.beliefs.get(0, 0), 1.0);
        assert_eq!(result.beliefs.get(0, 1), 0.0);
        assert_eq!(result.beliefs.get(5, 1), 1.0);
    }

    #[test]
    fn heterophilous_graph_defeats_harmonic_functions() {
        // Bipartite heterophily: the smoothness assumption is exactly wrong.
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
        let result = harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).unwrap();
        let acc = unlabeled_accuracy(&result.predictions, &labeling, &seeds);
        assert!(acc < 0.75, "harmonic functions should struggle, got {acc}");
    }

    #[test]
    fn beliefs_stay_in_unit_interval() {
        let (graph, _, seeds) = two_clusters();
        let result = harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).unwrap();
        for &v in result.beliefs.data() {
            assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let (graph, _, _) = two_clusters();
        let seeds = SeedLabels::new(vec![None; 2], 2).unwrap();
        assert!(harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).is_err());
    }
}
