//! Full loopy Belief Propagation (BP).
//!
//! The reference algorithm LinBP linearizes (Section 2.2 of the paper). BP maintains a
//! `k`-dimensional message per directed edge and iterates
//!
//! ```text
//! m_ij ← H (x_i ⊙ ∏_{v ∈ N(i) \ j} m_vi)          (normalized per message)
//! f_i  ← Z_i⁻¹ x_i ⊙ ∏_{j ∈ N(i)} m_ji
//! ```
//!
//! It is included as a baseline: it expresses the same arbitrary compatibilities but has
//! no convergence guarantee and is considerably more expensive per iteration, which is
//! exactly why the linearized variant is preferable in practice.

use crate::linbp::label;
use fg_graph::{Graph, GraphError, Result, SeedLabels};
use fg_sparse::{map_row_chunks, partition_rows_by_nnz, DenseMatrix, Threads};

/// Configuration for loopy belief propagation.
#[derive(Debug, Clone)]
pub struct BpConfig {
    /// Maximum number of message-passing iterations.
    pub max_iterations: usize,
    /// Early-stopping tolerance on the maximum absolute message change.
    pub tolerance: f64,
    /// Strength of the prior for labeled nodes: the one-hot prior is mixed with the
    /// uniform distribution as `(1 - prior_strength)/k + prior_strength·onehot`.
    pub prior_strength: f64,
    /// Damping factor in `[0, 1)`: new messages are blended with the previous ones to
    /// improve convergence on loopy graphs (0 disables damping).
    pub damping: f64,
    /// Thread policy for the message-update loop. Every directed-edge message in an
    /// iteration depends only on the *previous* iteration's messages, so the update
    /// parallelizes over disjoint message ranges with bit-identical results.
    pub threads: Threads,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            max_iterations: 50,
            tolerance: 1e-6,
            prior_strength: 0.9,
            damping: 0.1,
            threads: Threads::Serial,
        }
    }
}

/// Result of a loopy BP run.
#[derive(Debug, Clone)]
pub struct BpResult {
    /// Final (normalized) beliefs per node.
    pub beliefs: DenseMatrix,
    /// Predicted class per node.
    pub predictions: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether messages converged before the iteration budget.
    pub converged: bool,
}

/// Run loopy belief propagation with the given compatibility matrix.
pub fn propagate_bp(
    graph: &Graph,
    seeds: &SeedLabels,
    h: &DenseMatrix,
    config: &BpConfig,
) -> Result<BpResult> {
    let n = graph.num_nodes();
    let k = seeds.k();
    if seeds.n() != n {
        return Err(GraphError::InvalidLabels(format!(
            "seed labels cover {} nodes but graph has {}",
            seeds.n(),
            n
        )));
    }
    if h.rows() != k || h.cols() != k {
        return Err(GraphError::InvalidCompatibility(format!(
            "H is {}x{} but k = {}",
            h.rows(),
            h.cols(),
            k
        )));
    }

    // Node priors.
    let uniform = 1.0 / k as f64;
    let mut priors = DenseMatrix::filled(n, k, uniform);
    for i in 0..n {
        if let Some(c) = seeds.get(i) {
            for j in 0..k {
                let v = (1.0 - config.prior_strength) * uniform
                    + if j == c { config.prior_strength } else { 0.0 };
                priors.set(i, j, v);
            }
            normalize_row(&mut priors, i);
        }
    }

    // Directed-edge message bookkeeping: for each node, the list of incident directed
    // edges (messages *into* the node) and the reverse-edge index for echo exclusion.
    let mut edge_from = Vec::new();
    let mut edge_to = Vec::new();
    for u in 0..n {
        for &v in graph.neighbors(u) {
            edge_from.push(u);
            edge_to.push(v as usize);
        }
    }
    let num_messages = edge_from.len();
    // incoming[v] lists message indices with edge_to == v.
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in 0..num_messages {
        incoming[edge_to[e]].push(e);
    }
    // reverse[e] is the index of the opposite-direction message.
    let mut reverse = vec![usize::MAX; num_messages];
    {
        use std::collections::HashMap;
        let mut index: HashMap<(usize, usize), usize> = HashMap::with_capacity(num_messages);
        for e in 0..num_messages {
            index.insert((edge_from[e], edge_to[e]), e);
        }
        for e in 0..num_messages {
            reverse[e] = *index
                .get(&(edge_to[e], edge_from[e]))
                .expect("graph adjacency is symmetric");
        }
    }

    // Messages start uniform.
    let mut messages = vec![uniform; num_messages * k];
    let mut next_messages = messages.clone();

    let mut iterations = 0;
    let mut converged = false;
    // Updating message e costs O(deg(source) · k + k²): the product over all
    // incoming messages of the source node dominates. Count-balanced message ranges
    // therefore serialize on one worker for power-law graphs (a hub's messages are
    // both numerous and individually expensive); instead, build a prefix sum of
    // per-message costs and split it evenly — the same nnz-balancing scheme
    // `partition_rows_by_nnz` applies to CSR rows. The partition only decides which
    // worker computes which disjoint message slot, so the result stays bit-identical
    // to the serial loop for any split.
    let mut cost_prefix = Vec::with_capacity(num_messages + 1);
    cost_prefix.push(0usize);
    for &from in &edge_from {
        let per_message = incoming[from].len() + 1;
        cost_prefix.push(cost_prefix.last().unwrap() + per_message);
    }
    let ranges = partition_rows_by_nnz(&cost_prefix, config.threads.count_for(num_messages));
    for _ in 0..config.max_iterations {
        // Every message update reads only the previous iteration's `messages` and
        // writes one disjoint k-wide slot of `next_messages`, so the loop distributes
        // over message ranges (one scoped thread each) with bit-identical results;
        // with a single range it runs inline exactly like the serial loop.
        let deltas = map_row_chunks(&mut next_messages, k, &ranges, |message_range, chunk| {
            let mut max_delta = 0.0f64;
            for (local, e) in message_range.enumerate() {
                let i = edge_from[e];
                // Product of priors and all incoming messages except the echo from
                // the recipient (the reverse edge).
                let mut prod: Vec<f64> = priors.row(i).to_vec();
                for &inc in &incoming[i] {
                    if inc == reverse[e] {
                        continue;
                    }
                    for (p, &m) in prod.iter_mut().zip(&messages[inc * k..(inc + 1) * k]) {
                        *p *= m;
                    }
                }
                // Modulate through H: out_c = sum_e H[c][e] * prod[e].
                let mut out = vec![0.0; k];
                for (c, o) in out.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (e2, &p) in prod.iter().enumerate() {
                        acc += h.get(e2, c) * p;
                    }
                    *o = acc;
                }
                // Normalize and damp.
                let s: f64 = out.iter().sum();
                if s > 0.0 {
                    for o in out.iter_mut() {
                        *o /= s;
                    }
                } else {
                    for o in out.iter_mut() {
                        *o = uniform;
                    }
                }
                for (j, o) in out.iter().enumerate() {
                    let old = messages[e * k + j];
                    let blended = config.damping * old + (1.0 - config.damping) * o;
                    chunk[local * k + j] = blended;
                    max_delta = max_delta.max((blended - old).abs());
                }
            }
            max_delta
        });
        let max_delta = deltas.into_iter().fold(0.0f64, f64::max);
        std::mem::swap(&mut messages, &mut next_messages);
        iterations += 1;
        if max_delta <= config.tolerance {
            converged = true;
            break;
        }
    }

    // Final beliefs.
    let mut beliefs = DenseMatrix::zeros(n, k);
    for (i, incoming_edges) in incoming.iter().enumerate() {
        let mut belief: Vec<f64> = priors.row(i).to_vec();
        for &inc in incoming_edges {
            for (b, &m) in belief.iter_mut().zip(&messages[inc * k..(inc + 1) * k]) {
                *b *= m;
            }
        }
        let s: f64 = belief.iter().sum();
        for (j, b) in belief.iter().enumerate() {
            beliefs.set(i, j, if s > 0.0 { b / s } else { uniform });
        }
    }

    let predictions = label(&beliefs);
    Ok(BpResult {
        beliefs,
        predictions,
        iterations,
        converged,
    })
}

fn normalize_row(m: &mut DenseMatrix, i: usize) {
    let s: f64 = m.row(i).iter().sum();
    if s > 0.0 {
        for v in m.row_mut(i) {
            *v /= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{CompatibilityMatrix, Labeling};

    fn bipartite() -> (Graph, Labeling, SeedLabels) {
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
        (graph, labeling, seeds)
    }

    #[test]
    fn bp_recovers_heterophilous_classes() {
        let (graph, labeling, seeds) = bipartite();
        let h = CompatibilityMatrix::from_rows(&[vec![0.1, 0.9], vec![0.9, 0.1]])
            .unwrap()
            .into_dense();
        let result = propagate_bp(&graph, &seeds, &h, &BpConfig::default()).unwrap();
        let acc = crate::metrics::unlabeled_accuracy(&result.predictions, &labeling, &seeds);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(result.converged);
    }

    #[test]
    fn bp_beliefs_are_normalized() {
        let (graph, _, seeds) = bipartite();
        let h = CompatibilityMatrix::uniform(2).unwrap().into_dense();
        let result = propagate_bp(&graph, &seeds, &h, &BpConfig::default()).unwrap();
        for i in 0..graph.num_nodes() {
            let s: f64 = result.beliefs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bp_agrees_with_linbp_on_small_graph() {
        // On a tree-like fragment with informative H both methods should produce the
        // same labels for the unlabeled nodes.
        let (graph, labeling, seeds) = bipartite();
        let h = CompatibilityMatrix::from_rows(&[vec![0.2, 0.8], vec![0.8, 0.2]])
            .unwrap()
            .into_dense();
        let bp = propagate_bp(&graph, &seeds, &h, &BpConfig::default()).unwrap();
        let lin =
            crate::linbp::propagate(&graph, &seeds, &h, &crate::linbp::LinBpConfig::default())
                .unwrap();
        let bp_acc = crate::metrics::unlabeled_accuracy(&bp.predictions, &labeling, &seeds);
        let lin_acc = crate::metrics::unlabeled_accuracy(&lin.predictions, &labeling, &seeds);
        assert!((bp_acc - lin_acc).abs() < 1e-9);
    }

    #[test]
    fn bp_validates_dimensions() {
        let (graph, _, _) = bipartite();
        let bad_seeds = SeedLabels::new(vec![None; 3], 2).unwrap();
        let h = CompatibilityMatrix::uniform(2).unwrap().into_dense();
        assert!(propagate_bp(&graph, &bad_seeds, &h, &BpConfig::default()).is_err());
        let seeds = SeedLabels::new(vec![None; 8], 2).unwrap();
        let bad_h = DenseMatrix::zeros(3, 3);
        assert!(propagate_bp(&graph, &seeds, &bad_h, &BpConfig::default()).is_err());
    }

    #[test]
    fn cost_balanced_partition_is_bit_identical_on_hub_graphs() {
        // A star with a pendant chain: the hub's messages each cost O(deg(hub)·k)
        // while the chain messages are near-free — the worst case for the old
        // count-balanced split. Results must stay bit-identical at any thread count.
        let mut edges: Vec<(usize, usize)> = (1..=20).map(|leaf| (0usize, leaf)).collect();
        edges.extend([(20, 21), (21, 22), (22, 23)]);
        let graph = Graph::from_edges(24, &edges).unwrap();
        let mut observed = vec![None; 24];
        observed[1] = Some(0);
        observed[23] = Some(1);
        let seeds = SeedLabels::new(observed, 2).unwrap();
        let h = CompatibilityMatrix::from_rows(&[vec![0.3, 0.7], vec![0.7, 0.3]])
            .unwrap()
            .into_dense();
        let serial = propagate_bp(&graph, &seeds, &h, &BpConfig::default()).unwrap();
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            let parallel = propagate_bp(
                &graph,
                &seeds,
                &h,
                &BpConfig {
                    threads,
                    ..BpConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                serial.beliefs.data(),
                parallel.beliefs.data(),
                "{threads:?}"
            );
            assert_eq!(serial.predictions, parallel.predictions, "{threads:?}");
            assert_eq!(serial.iterations, parallel.iterations, "{threads:?}");
        }
    }

    #[test]
    fn bp_with_no_seeds_is_uniform() {
        let (graph, _, _) = bipartite();
        let seeds = SeedLabels::new(vec![None; 8], 2).unwrap();
        let h = CompatibilityMatrix::from_rows(&[vec![0.3, 0.7], vec![0.7, 0.3]])
            .unwrap()
            .into_dense();
        let result = propagate_bp(&graph, &seeds, &h, &BpConfig::default()).unwrap();
        for i in 0..8 {
            for j in 0..2 {
                assert!((result.beliefs.get(i, j) - 0.5).abs() < 1e-6);
            }
        }
    }
}
