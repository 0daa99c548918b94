//! The undirected graph type used throughout the workspace.
//!
//! A [`Graph`] owns the symmetric weighted adjacency matrix `W` (CSR), its diagonal
//! degree matrix `D`, and basic structural statistics. Everything downstream — label
//! propagation, path summarization, estimation — consumes graphs through this type.

use crate::error::{GraphError, Result};
use crate::fingerprint::{Fingerprint, FingerprintBuilder};
use fg_sparse::{CsrMatrix, Edge, Span};
use std::sync::OnceLock;

/// An undirected, optionally weighted graph backed by a symmetric CSR adjacency matrix.
#[derive(Debug, Clone)]
pub struct Graph {
    adjacency: CsrMatrix,
    num_edges: usize,
    /// Lazily computed structural fingerprint. Content-derived, so cloning the cached
    /// value along with the graph is always valid; the graph is immutable after
    /// construction.
    fingerprint: OnceLock<Fingerprint>,
    /// Lazily computed `ρ(W)`, memoized like the fingerprint. The Lanczos
    /// estimate's outcome is kept whole, so an error would recur exactly as the
    /// computation would repeat it.
    spectral_radius: OnceLock<fg_sparse::Result<f64>>,
}

impl Graph {
    /// Build a graph from an undirected edge list. Each `(u, v)` pair is inserted in
    /// both directions with weight 1. Self-loops are rejected, parallel edges are merged.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        Self::from_edge_list(n, edges)
    }

    /// Build a graph from a weighted undirected edge list. Edges are checked in
    /// order: endpoints must be nodes of the graph, self-loops are rejected, and
    /// weights must be finite. Parallel edges are merged by summing their weights in
    /// input order; an edge whose copies sum to zero is dropped.
    pub fn from_weighted_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        Self::from_edge_list(n, edges)
    }

    /// [`Graph::from_weighted_edges`] for any [`Edge`] type: unweighted pairs weigh
    /// 1, and `u32` endpoints are read as they are. A node count above
    /// [`MAX_NODES`] is rejected before anything is allocated.
    pub fn from_edge_list<E: Edge>(n: usize, edges: &[E]) -> Result<Self> {
        check_node_count(n)?;
        for &e in edges {
            let ((u, v), w) = (e.endpoints(), e.weight());
            if u >= n {
                return Err(GraphError::NodeOutOfBounds { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfBounds { node: v, n });
            }
            if u == v {
                return Err(GraphError::InvalidEdge(format!(
                    "self-loop on node {u} is not allowed"
                )));
            }
            if !w.is_finite() {
                return Err(GraphError::InvalidEdge(format!(
                    "non-finite weight {w} on edge ({u}, {v})"
                )));
            }
        }
        let adjacency = CsrMatrix::from_undirected_edges(n, edges);
        let num_edges = adjacency.nnz() / 2;
        Ok(Graph {
            adjacency,
            num_edges,
            fingerprint: OnceLock::new(),
            spectral_radius: OnceLock::new(),
        })
    }

    /// Wrap an existing symmetric adjacency matrix.
    pub fn from_adjacency(adjacency: CsrMatrix) -> Result<Self> {
        if !adjacency.is_square() {
            return Err(GraphError::InvalidAdjacency(format!(
                "must be square, got {}x{}",
                adjacency.rows(),
                adjacency.cols()
            )));
        }
        if !adjacency.is_symmetric(1e-9) {
            return Err(GraphError::InvalidAdjacency("must be symmetric".into()));
        }
        if adjacency.diagonal().iter().any(|&d| d != 0.0) {
            return Err(GraphError::InvalidAdjacency(
                "must have an empty diagonal (no self-loops)".into(),
            ));
        }
        let num_edges = adjacency.nnz() / 2;
        Ok(Graph {
            adjacency,
            num_edges,
            fingerprint: OnceLock::new(),
            spectral_radius: OnceLock::new(),
        })
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Average degree `d = 2m / n`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_nodes() as f64
        }
    }

    /// The symmetric adjacency matrix `W`.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// The weighted degree of node `i` (sum of incident edge weights).
    pub fn degree(&self, i: usize) -> f64 {
        self.adjacency.row_entries(i).map(|(_, w)| w).sum()
    }

    /// Weighted degrees of all nodes (the diagonal of `D`).
    pub fn degrees(&self) -> Vec<f64> {
        self.adjacency.row_sums()
    }

    /// The diagonal degree matrix `D`.
    pub fn degree_matrix(&self) -> CsrMatrix {
        CsrMatrix::from_diagonal(&self.degrees())
    }

    /// The diagonal matrix `D - I` used by the non-backtracking recurrence (Prop. 4.3).
    pub fn degree_minus_identity(&self) -> CsrMatrix {
        let diag: Vec<f64> = self.degrees().iter().map(|&d| d - 1.0).collect();
        CsrMatrix::from_diagonal(&diag)
    }

    /// Neighbors of node `i` (column indices of row `i`), in increasing order.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.adjacency.row_indices(i)
    }

    /// Neighbors of node `i` together with edge weights, in increasing order.
    pub fn neighbors_weighted(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adjacency.row_entries(i)
    }

    /// Whether an edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency.get(u, v) != 0.0
    }

    /// Iterate over each undirected edge once as `(u, v, weight)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adjacency.iter().filter(|&(u, v, _)| u < v)
    }

    /// Estimated spectral radius of `W` (needed for LinBP's scaling factor, Eq. 2).
    ///
    /// Computed by [`fg_sparse::spectral_radius_sparse`] (Lanczos) on first use,
    /// never at construction, and memoized: every later call on this graph or on a
    /// clone made after the first call returns the bit-identical value without
    /// another SpMV. The graph is immutable, so the value can never go stale.
    pub fn spectral_radius(&self) -> Result<f64> {
        self.spectral_radius
            .get_or_init(|| fg_sparse::spectral_radius_sparse(&self.adjacency))
            .clone()
            .map_err(GraphError::Sparse)
    }

    /// Count of isolated (degree-zero) nodes.
    pub fn num_isolated_nodes(&self) -> usize {
        (0..self.num_nodes())
            .filter(|&i| self.adjacency.row_nnz(i) == 0)
            .count()
    }

    /// Deterministic structural [`Fingerprint`] of this graph: a 128-bit content hash
    /// over the CSR shape, `indptr`, `indices`, and the exact `f64` bit patterns of
    /// the edge weights (domain tag `fg-graph-csr-v1`). Each index is hashed as an
    /// 8-byte word and an unweighted graph hashes 1.0 per stored entry, so the key
    /// does not depend on the in-memory layout.
    ///
    /// Two independently loaded copies of the same graph share one fingerprint, and
    /// any structural difference — an extra edge, a changed weight, a different node
    /// count — produces a different one (up to 128-bit hash collisions). Computed in
    /// `O(n + m)` on first use and memoized; the graph is immutable after
    /// construction, so the cached value can never go stale. The first call records
    /// a `fingerprint` span whose `bytes` arg is the length of the hashed stream, so
    /// a trace shows who paid for a key.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fingerprint.get_or_init(|| {
            // Shape, offsets, indices and weights, one 8-byte word each.
            let words = 2 + self.adjacency.indptr().len() + 2 * self.adjacency.nnz();
            let _span = Span::enter_with("fingerprint", &[("bytes", 8 * words as u64)]);
            let mut h = FingerprintBuilder::new(b"fg-graph-csr-v1");
            h.write_usize(self.adjacency.rows());
            h.write_usize(self.adjacency.cols());
            for &p in self.adjacency.indptr() {
                h.write_usize(p);
            }
            for &i in self.adjacency.indices() {
                h.write_usize(i as usize);
            }
            let values = self.adjacency.values();
            for p in 0..self.adjacency.nnz() {
                h.write_f64(values.map_or(1.0, |v| v[p]));
            }
            h.finish()
        })
    }
}

/// Largest node count a [`Graph`] can have: node ids are stored as `u32`.
pub const MAX_NODES: usize = fg_sparse::MAX_DIM;

/// Reject a node count above [`MAX_NODES`]. Every loader calls this before it
/// allocates anything sized by `n`.
pub fn check_node_count(n: usize) -> Result<()> {
    if n > MAX_NODES {
        return Err(GraphError::TooManyNodes { n });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Mutex;

    /// Trace captures are process-global, so the tests that arm one serialize.
    static CAPTURE: Mutex<()> = Mutex::new(());

    /// The args of every `name` span `work` records on this thread.
    fn span_args(name: &str, work: impl FnOnce()) -> Vec<Vec<(&'static str, u64)>> {
        let _guard = CAPTURE.lock().unwrap();
        fg_obs::start_capture();
        {
            let _probe = Span::enter("probe");
            work();
        }
        let trace = fg_obs::finish_capture();
        let tid = trace
            .records
            .iter()
            .find(|r| r.name == "probe")
            .unwrap()
            .tid;
        trace
            .records
            .into_iter()
            .filter(|r| r.tid == tid && r.name == name)
            .map(|r| r.args)
            .collect()
    }

    fn triangle_plus_pendant() -> Graph {
        // Triangle 0-1-2 plus pendant node 3 attached to node 2.
        Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn from_edges_basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_edges_rejects_out_of_bounds() {
        assert!(Graph::from_edges(2, &[(0, 5)]).is_err());
        assert!(Graph::from_edges(2, &[(5, 0)]).is_err());
        // Either endpoint is checked, edge by edge, before anything is built.
        let err = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (2, 3, 1.0), (7, 0, 1.0)]);
        assert_eq!(
            err.unwrap_err(),
            GraphError::NodeOutOfBounds { node: 3, n: 3 }
        );
        let err = Graph::from_weighted_edges(3, &[(4, 1, 1.0)]);
        assert_eq!(
            err.unwrap_err(),
            GraphError::NodeOutOfBounds { node: 4, n: 3 }
        );
    }

    #[test]
    fn from_weighted_edges_rejects_non_finite_weights() {
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, w)]).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid edge: non-finite weight {w} on edge (1, 2)")
            );
        }
    }

    #[test]
    fn from_edges_rejects_self_loops() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 1)])
                .unwrap_err()
                .to_string(),
            "invalid edge: self-loop on node 1 is not allowed"
        );
    }

    #[test]
    fn node_counts_beyond_u32_ids_are_rejected_before_allocating() {
        let n = MAX_NODES + 1;
        let err = Graph::from_edges(n, &[]).unwrap_err();
        assert_eq!(err, GraphError::TooManyNodes { n });
        assert_eq!(
            err.to_string(),
            "node count 4294967296 exceeds the limit of 4294967295 nodes"
        );
        assert!(Graph::from_weighted_edges(usize::MAX, &[(0, 1, 1.0)]).is_err());
        assert!(Graph::from_edge_list(n, &[(0u32, 1u32)]).is_err());
        let config = GeneratorConfig::balanced(n, 1.0, 2, 2.0).unwrap();
        let err = generate(&config, &mut StdRng::seed_from_u64(1)).unwrap_err();
        assert_eq!(err, GraphError::TooManyNodes { n });
    }

    #[test]
    fn parallel_edges_are_merged() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.adjacency().get(0, 1), 2.0); // weights accumulate
        assert_eq!(g.adjacency().entry_bytes(), 12); // 2.0 needs the value array
    }

    #[test]
    fn weighted_edges() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 0.5)]).unwrap();
        assert_eq!(g.degree(1), 3.0);
        assert_eq!(g.adjacency().get(2, 1), 0.5);
        assert_eq!(g.adjacency().entry_bytes(), 12);
        let nbrs: Vec<(usize, f64)> = g.neighbors_weighted(1).collect();
        assert_eq!(nbrs, vec![(0, 2.5), (2, 0.5)]);
    }

    #[test]
    fn from_adjacency_validation() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(Graph::from_adjacency(sym).is_ok());
        let text = |m: CsrMatrix| Graph::from_adjacency(m).unwrap_err().to_string();
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert_eq!(text(asym), "invalid adjacency matrix: must be symmetric");
        let non_square = CsrMatrix::zeros(2, 3);
        assert_eq!(
            text(non_square),
            "invalid adjacency matrix: must be square, got 2x3"
        );
        let self_loop = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        assert_eq!(
            text(self_loop),
            "invalid adjacency matrix: must have an empty diagonal (no self-loops)"
        );
    }

    #[test]
    fn degrees_and_degree_matrix() {
        let g = triangle_plus_pendant();
        assert_eq!(g.degrees(), vec![2.0, 2.0, 3.0, 1.0]);
        let d = g.degree_matrix();
        assert_eq!(d.get(2, 2), 3.0);
        assert_eq!(d.nnz(), 4);
        let dmi = g.degree_minus_identity();
        assert_eq!(dmi.get(2, 2), 2.0);
        assert_eq!(dmi.get(3, 3), 0.0); // 1 - 1 = 0 is dropped
    }

    #[test]
    fn neighbors_and_edges() {
        let g = triangle_plus_pendant();
        assert_eq!(g.adjacency().entry_bytes(), 4);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        let nbrs: Vec<(usize, f64)> = g.neighbors_weighted(2).collect();
        assert_eq!(nbrs, vec![(0, 1.0), (1, 1.0), (3, 1.0)]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn spectral_radius_of_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert!((g.spectral_radius().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn memoized_spectral_radius_is_bit_identical_to_the_lanczos_estimate() {
        let g = triangle_plus_pendant();
        let direct = fg_sparse::spectral_radius_sparse(g.adjacency())
            .unwrap()
            .to_bits();
        // Repeated calls, a clone taken after the memo is filled, and an
        // independently built copy (cold memo) all agree to the bit.
        let estimates = span_args("spectral_radius", || {
            assert_eq!(g.spectral_radius().unwrap().to_bits(), direct);
            assert_eq!(g.spectral_radius().unwrap().to_bits(), direct);
            assert_eq!(g.clone().spectral_radius().unwrap().to_bits(), direct);
        });
        assert_eq!(estimates.len(), 1, "one estimate per graph: {estimates:?}");
        let copy = triangle_plus_pendant();
        assert_eq!(copy.spectral_radius().unwrap().to_bits(), direct);
    }

    #[test]
    fn lanczos_converges_within_20_spmvs_on_the_batch_exact_graph() {
        // The end-to-end benchmark's `batch_exact` graph.
        let config = GeneratorConfig::balanced(30_000, 20.0, 3, 8.0).unwrap();
        let g = generate(&config, &mut StdRng::seed_from_u64(101))
            .unwrap()
            .graph;
        let estimates = span_args("spectral_radius", || {
            g.spectral_radius().unwrap();
        });
        let [args] = estimates.as_slice() else {
            panic!("expected one estimate, got {estimates:?}");
        };
        let arg = |key| args.iter().find(|(k, _)| *k == key).unwrap().1;
        assert_eq!(arg("nnz"), g.adjacency().nnz() as u64);
        assert_eq!(arg("converged"), 1);
        assert!(arg("spmvs") <= 20, "{} SpMVs", arg("spmvs"));
    }

    #[test]
    fn spectral_radius_bits_survive_the_row_kernel_spmv() {
        // SpMV runs the k = 1 SpMM row kernel, whose empty rows read +0.0 where
        // the former iterator sum read -0.0. The estimates are pinned to that
        // former SpMV's bits: on graphs without and with isolated nodes, unit
        // and weighted.
        let generated = |n, degree, seed| {
            let config = GeneratorConfig::balanced(n, degree, 3, 8.0).unwrap();
            generate(&config, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .graph
        };
        let sparse = {
            let config = GeneratorConfig::balanced(3000, 2.0, 3, 3.0).unwrap();
            generate(&config, &mut StdRng::seed_from_u64(7))
                .unwrap()
                .graph
        };
        assert_eq!(sparse.num_isolated_nodes(), 483);
        let weighted =
            Graph::from_weighted_edges(7, &[(0, 1, 2.5), (1, 2, 1.0), (2, 0, 0.5), (3, 4, 1.0)])
                .unwrap();
        let small = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]).unwrap();
        for (g, bits) in [
            (generated(30_000, 20.0, 101), 0x403a0ac6dd1b1806u64),
            (sparse, 0x401042b75b17956a),
            (weighted, 0x40072314f4c86f74),
            (small, 0x4000000000000000),
        ] {
            assert_eq!(g.spectral_radius().unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn isolated_nodes_counted() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
        assert_eq!(g.num_isolated_nodes(), 3);
    }

    #[test]
    fn fingerprints_follow_content_not_identity() {
        let g1 = triangle_plus_pendant();
        let g2 = triangle_plus_pendant();
        // Independently constructed copies of the same structure share a fingerprint,
        // and the memoized value is stable across calls and clones.
        // The first call hashes the 23 words of the CSR (shape, 5 offsets, 8
        // indices, 8 weights) under one span; the memo answers the second.
        let hashes = span_args("fingerprint", || {
            assert_eq!(g1.fingerprint(), g2.fingerprint());
            assert_eq!(g1.fingerprint(), g1.fingerprint());
        });
        assert_eq!(hashes, vec![vec![("bytes", 184)]; 2]);
        assert_eq!(g1.clone().fingerprint(), g1.fingerprint());
        // Edge order in the input list does not matter (CSR canonicalizes).
        let reordered = Graph::from_edges(4, &[(2, 3), (0, 2), (1, 2), (0, 1)]).unwrap();
        assert_eq!(reordered.fingerprint(), g1.fingerprint());
        // Any structural change produces a different fingerprint.
        let extra_edge = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]).unwrap();
        assert_ne!(extra_edge.fingerprint(), g1.fingerprint());
        let reweighted =
            Graph::from_weighted_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
                .unwrap();
        assert_ne!(reweighted.fingerprint(), g1.fingerprint());
        let extra_node = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        assert_ne!(extra_node.fingerprint(), g1.fingerprint());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }
}
