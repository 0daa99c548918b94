//! Regression tests for zero-degree / unreachable nodes.
//!
//! Before the uniform-belief fallback, `harmonic_functions` and `multi_rank_walk`
//! left isolated and seed-unreachable unlabeled nodes with all-zero belief rows,
//! which `label()` silently tied to class 0 — inflating class-0 recall in every
//! sweep that sampled such a graph. These tests pin the fixed behavior across all
//! four propagation backends: finite beliefs everywhere, and an explicit uniform
//! row (not a silent zero row) wherever no seed mass can reach.

use fg_graph::{Graph, SeedLabels};
use fg_propagation::{
    harmonic_functions, multi_rank_walk, HarmonicConfig, PropagatorOptions, RandomWalkConfig,
    PROPAGATORS,
};
use fg_sparse::DenseMatrix;

/// Two labeled clusters (0..4 class 0, 4..8 class 1), one isolated node (8), and a
/// seedless two-node component (9–10).
fn graph_with_unreachable_nodes() -> (Graph, SeedLabels) {
    let edges = [
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 3),
        (4, 5),
        (4, 6),
        (5, 6),
        (6, 7),
        (3, 4),
        (9, 10),
    ];
    let graph = Graph::from_edges(11, &edges).unwrap();
    let mut labels = vec![None; 11];
    labels[0] = Some(0);
    labels[5] = Some(1);
    let seeds = SeedLabels::new(labels, 2).unwrap();
    (graph, seeds)
}

#[test]
fn harmonic_gives_unreachable_nodes_uniform_beliefs() {
    let (graph, seeds) = graph_with_unreachable_nodes();
    let result = harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).unwrap();
    for &node in &[8usize, 9, 10] {
        assert_eq!(
            result.beliefs.row(node),
            &[0.5, 0.5],
            "node {node} should fall back to the uniform belief"
        );
    }
    // Reachable nodes keep informative (non-uniform) beliefs.
    assert!(result.beliefs.get(1, 0) > result.beliefs.get(1, 1));
    assert!(result.beliefs.get(7, 1) > result.beliefs.get(7, 0));
}

#[test]
fn random_walk_gives_unreachable_nodes_uniform_scores() {
    let (graph, seeds) = graph_with_unreachable_nodes();
    let result = multi_rank_walk(&graph, &seeds, &RandomWalkConfig::default()).unwrap();
    for &node in &[8usize, 9, 10] {
        assert_eq!(
            result.scores.row(node),
            &[0.5, 0.5],
            "node {node} should fall back to the uniform score"
        );
    }
    assert!(result.scores.get(1, 0) > result.scores.get(1, 1));
}

#[test]
fn no_backend_produces_nan_or_zero_rows_on_isolated_nodes() {
    let (graph, seeds) = graph_with_unreachable_nodes();
    let h = DenseMatrix::from_rows(&[vec![0.8, 0.2], vec![0.2, 0.8]]).unwrap();
    for backend in PROPAGATORS.build_all(&PropagatorOptions::default()) {
        let outcome = backend.propagate(&graph, &seeds, &h).unwrap();
        let name = backend.name();
        for &v in outcome.beliefs.data() {
            assert!(v.is_finite(), "{name} produced a non-finite belief");
        }
        assert_eq!(outcome.predictions.len(), graph.num_nodes());
        // The compatibility-free homophily baselines must expose "no information"
        // as an exactly uniform row rather than a silent all-zero row.
        if name == "Harmonic" || name == "RandomWalk" {
            for &node in &[8usize, 9, 10] {
                assert_eq!(outcome.beliefs.row(node), &[0.5, 0.5], "{name} node {node}");
            }
        }
    }
}

#[test]
fn isolated_labeled_node_keeps_its_label() {
    // A labeled isolated node must stay clamped to its observed label, not be
    // overwritten by the uniform fallback.
    let graph = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
    let seeds = SeedLabels::new(vec![Some(0), None, None, Some(1)], 2).unwrap();
    let harmonic = harmonic_functions(&graph, &seeds, &HarmonicConfig::default()).unwrap();
    assert_eq!(harmonic.beliefs.row(3), &[0.0, 1.0]);
    assert_eq!(harmonic.predictions[3], 1);
    let rw = multi_rank_walk(&graph, &seeds, &RandomWalkConfig::default()).unwrap();
    // The class-1 walk teleports all of its mass to node 3.
    assert!(rw.scores.get(3, 1) > rw.scores.get(3, 0));
    assert_eq!(rw.predictions[3], 1);
}
