//! Synthetic graph generator with planted compatibilities.
//!
//! This reproduces the paper's generator (Section 5): a variant of the stochastic
//! block-model that (1) controls the degree distribution of the resulting graph and
//! (2) plants the desired class-compatibility structure by construction, so that the
//! relative frequencies of edges between classes match the requested `H` (exactly for
//! balanced classes, approximately under class imbalance — the paper notes the same
//! caveat in Section 4.4, footnote 4).
//!
//! The input is the paper's tuple `(n, m, α, H, dist)`.

use crate::compatibility::CompatibilityMatrix;
use crate::degree::DegreeDistribution;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::labels::Labeling;
use fg_sparse::DenseMatrix;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Configuration of the synthetic graph generator: the paper's `(n, m, α, H, dist)`.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of nodes.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Node label distribution `α` (fractions per class, must sum to 1).
    pub alpha: Vec<f64>,
    /// Planted compatibility matrix.
    pub h: CompatibilityMatrix,
    /// Degree-distribution family.
    pub distribution: DegreeDistribution,
}

impl GeneratorConfig {
    /// The paper's standard synthetic setup: `n` nodes, average degree `d`, `k` balanced
    /// classes, `h`-skew compatibilities, power-law degrees (coefficient 0.3).
    pub fn balanced(n: usize, avg_degree: f64, k: usize, h_skew: f64) -> Result<Self> {
        let h = CompatibilityMatrix::h_skew(k, h_skew)?;
        Ok(GeneratorConfig {
            n,
            m: ((n as f64 * avg_degree) / 2.0).round() as usize,
            alpha: vec![1.0 / k as f64; k],
            h,
            distribution: DegreeDistribution::paper_power_law(),
        })
    }

    /// Same as [`GeneratorConfig::balanced`] but with uniform degrees.
    pub fn balanced_uniform(n: usize, avg_degree: f64, k: usize, h_skew: f64) -> Result<Self> {
        let mut cfg = Self::balanced(n, avg_degree, k, h_skew)?;
        cfg.distribution = DegreeDistribution::Uniform;
        Ok(cfg)
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.h.k()
    }

    fn validate(&self) -> Result<()> {
        crate::check_node_count(self.n)?;
        if self.n == 0 {
            return Err(GraphError::InvalidGeneratorConfig(
                "n must be positive".into(),
            ));
        }
        if self.alpha.len() != self.k() {
            return Err(GraphError::InvalidGeneratorConfig(format!(
                "alpha has {} entries but H has k = {}",
                self.alpha.len(),
                self.k()
            )));
        }
        if self.alpha.iter().any(|&a| a < 0.0) {
            return Err(GraphError::InvalidGeneratorConfig(
                "alpha entries must be non-negative".into(),
            ));
        }
        let total: f64 = self.alpha.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(GraphError::InvalidGeneratorConfig(format!(
                "alpha must sum to 1, sums to {total}"
            )));
        }
        if self.n < self.k() {
            return Err(GraphError::InvalidGeneratorConfig(
                "need at least one node per class".into(),
            ));
        }
        let max_edges = self.n * (self.n - 1) / 2;
        if self.m > max_edges {
            return Err(GraphError::InvalidGeneratorConfig(format!(
                "m = {} exceeds the maximum {} for a simple graph on {} nodes",
                self.m, max_edges, self.n
            )));
        }
        Ok(())
    }
}

/// A generated graph together with its ground-truth labeling and the planted `H`.
#[derive(Debug, Clone)]
pub struct SyntheticGraph {
    /// The generated graph.
    pub graph: Graph,
    /// Ground-truth labels for every node.
    pub labeling: Labeling,
    /// The compatibility matrix that was planted.
    pub planted_h: CompatibilityMatrix,
}

/// Per-class cumulative weight index for weighted node sampling.
struct ClassSampler {
    nodes: Vec<usize>,
    cumulative: Vec<f64>,
}

impl ClassSampler {
    fn new(nodes: Vec<usize>, weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(nodes.len());
        let mut acc = 0.0;
        for &node in &nodes {
            acc += weights[node].max(1e-12);
            cumulative.push(acc);
        }
        ClassSampler { nodes, cumulative }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty class");
        let target = rng.gen::<f64>() * total;
        let idx = self.cumulative.partition_point(|&c| c < target);
        self.nodes[idx.min(self.nodes.len() - 1)]
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Generate a synthetic graph with planted compatibilities.
///
/// The construction proceeds in three steps:
/// 1. assign class sizes from `α` (largest-remainder rounding) and shuffle node ids;
/// 2. derive the target number of edges per class pair from `α` and `H`
///    (`E_ce ∝ (α_c + α_e)/2 · H_ce`, symmetrized);
/// 3. for each class pair, sample endpoints proportionally to their target degree
///    weights, rejecting self-loops and duplicate edges.
pub fn generate<R: Rng + ?Sized>(config: &GeneratorConfig, rng: &mut R) -> Result<SyntheticGraph> {
    config.validate()?;
    let n = config.n;
    let k = config.k();

    // ---- Step 1: class assignment -------------------------------------------------
    let mut class_sizes: Vec<usize> = config
        .alpha
        .iter()
        .map(|&a| (a * n as f64).floor() as usize)
        .collect();
    // Give every class at least one node, then distribute the remainder by largest
    // fractional part.
    for s in class_sizes.iter_mut() {
        if *s == 0 {
            *s = 1;
        }
    }
    let mut assigned: usize = class_sizes.iter().sum();
    let mut fractional: Vec<(usize, f64)> = config
        .alpha
        .iter()
        .enumerate()
        .map(|(c, &a)| (c, a * n as f64 - (a * n as f64).floor()))
        .collect();
    fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut fi = 0;
    while assigned < n {
        class_sizes[fractional[fi % k].0] += 1;
        assigned += 1;
        fi += 1;
    }
    while assigned > n {
        // Remove from the largest class while keeping at least one node per class.
        let largest = (0..k).max_by_key(|&c| class_sizes[c]).expect("k > 0");
        if class_sizes[largest] > 1 {
            class_sizes[largest] -= 1;
            assigned -= 1;
        } else {
            break;
        }
    }

    let mut node_ids: Vec<usize> = (0..n).collect();
    node_ids.shuffle(rng);
    let mut labels = vec![0usize; n];
    let mut cursor = 0;
    for (class, &size) in class_sizes.iter().enumerate() {
        for &node in &node_ids[cursor..cursor + size] {
            labels[node] = class;
        }
        cursor += size;
    }
    let labeling = Labeling::new(labels, k)?;

    // ---- Step 2: target edge counts per class pair ---------------------------------
    let weights = config.distribution.relative_weights(n)?;
    // Shuffle degree weights over nodes so degree is independent of node id / class.
    let mut weight_perm: Vec<usize> = (0..n).collect();
    weight_perm.shuffle(rng);
    let node_weights: Vec<f64> = (0..n).map(|i| weights[weight_perm[i]]).collect();

    // Target *undirected* edge counts per class pair. The measured (gold-standard)
    // statistics matrix counts each within-class edge twice (once per direction), so the
    // diagonal targets are halved to make the row-normalized measurement match `H`.
    let mut pair_weight = DenseMatrix::zeros(k, k);
    for c in 0..k {
        for e in c..k {
            let base = (config.alpha[c] + config.alpha[e]) / 2.0 * config.h.get(c, e);
            let w = if c == e { base / 2.0 } else { base };
            pair_weight.set(c, e, w);
        }
    }
    let total_weight: f64 = (0..k)
        .map(|c| (c..k).map(|e| pair_weight.get(c, e)).sum::<f64>())
        .sum();
    if total_weight <= 0.0 {
        return Err(GraphError::InvalidGeneratorConfig(
            "compatibility matrix and alpha produce no edges".into(),
        ));
    }

    // ---- Step 3: sample edges ------------------------------------------------------
    let samplers: Vec<ClassSampler> = (0..k)
        .map(|c| ClassSampler::new(labeling.nodes_of_class(c), &node_weights))
        .collect();

    let mut edge_set: HashSet<u64> = HashSet::with_capacity(config.m * 2);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(config.m);
    let encode = |u: usize, v: usize| -> u64 {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        (a as u64) << 32 | b as u64
    };

    for c in 0..k {
        for e in c..k {
            if samplers[c].len() == 0 || samplers[e].len() == 0 {
                continue;
            }
            // Intra-class pairs with a single node cannot host an edge.
            if c == e && samplers[c].len() < 2 {
                continue;
            }
            let target = (config.m as f64 * pair_weight.get(c, e) / total_weight).round() as usize;
            let mut placed = 0;
            let mut attempts = 0usize;
            let max_attempts = target.saturating_mul(30) + 100;
            while placed < target && attempts < max_attempts {
                attempts += 1;
                let u = samplers[c].sample(rng);
                let v = samplers[e].sample(rng);
                if u == v {
                    continue;
                }
                let key = encode(u, v);
                if edge_set.insert(key) {
                    edges.push((u, v));
                    placed += 1;
                }
            }
        }
    }

    // The set only rejected duplicates; free it before the CSR is assembled.
    drop(edge_set);
    let graph = Graph::from_edges(n, &edges)?;
    Ok(SyntheticGraph {
        graph,
        labeling,
        planted_h: config.h.clone(),
    })
}

/// Measure the empirical (gold-standard) compatibility matrix of a fully labeled graph:
/// the row-normalized class-to-class edge-count matrix `|M|_row` with
/// `M = Xᵀ W X` (Section 5.3, "we retrieve the GS compatibilities from the relative
/// label distribution on the fully labeled graph").
pub fn measure_compatibilities(graph: &Graph, labeling: &Labeling) -> Result<DenseMatrix> {
    if labeling.n() != graph.num_nodes() {
        return Err(GraphError::InvalidLabels(format!(
            "labeling has {} nodes but graph has {}",
            labeling.n(),
            graph.num_nodes()
        )));
    }
    let k = labeling.k();
    let mut m = DenseMatrix::zeros(k, k);
    for (u, v, w) in graph.edges() {
        let cu = labeling.class_of(u);
        let cv = labeling.class_of(v);
        m.add_at(cu, cv, w);
        m.add_at(cv, cu, w);
    }
    Ok(m.row_normalized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_config_construction() {
        let cfg = GeneratorConfig::balanced(1000, 10.0, 3, 3.0).unwrap();
        assert_eq!(cfg.n, 1000);
        assert_eq!(cfg.m, 5000);
        assert_eq!(cfg.k(), 3);
        assert!((cfg.alpha.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_validation_errors() {
        let mut cfg = GeneratorConfig::balanced(100, 5.0, 3, 3.0).unwrap();
        cfg.alpha = vec![0.5, 0.5]; // wrong length
        assert!(generate(&cfg, &mut StdRng::seed_from_u64(0)).is_err());

        let mut cfg = GeneratorConfig::balanced(100, 5.0, 3, 3.0).unwrap();
        cfg.alpha = vec![0.5, 0.4, 0.4]; // does not sum to 1
        assert!(generate(&cfg, &mut StdRng::seed_from_u64(0)).is_err());

        let mut cfg = GeneratorConfig::balanced(100, 5.0, 3, 3.0).unwrap();
        cfg.n = 0;
        assert!(generate(&cfg, &mut StdRng::seed_from_u64(0)).is_err());

        let mut cfg = GeneratorConfig::balanced(10, 5.0, 3, 3.0).unwrap();
        cfg.m = 1000; // more than n(n-1)/2
        assert!(generate(&cfg, &mut StdRng::seed_from_u64(0)).is_err());
    }

    #[test]
    fn generated_graph_has_requested_size() {
        let cfg = GeneratorConfig::balanced(500, 10.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let syn = generate(&cfg, &mut rng).unwrap();
        assert_eq!(syn.graph.num_nodes(), 500);
        // Rejection sampling may fall a little short of m, but not by much.
        let m = syn.graph.num_edges() as f64;
        assert!(m > cfg.m as f64 * 0.9, "too few edges: {m}");
        assert!(m <= cfg.m as f64 * 1.05);
        assert_eq!(syn.labeling.n(), 500);
    }

    #[test]
    fn generated_classes_are_balanced() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let syn = generate(&cfg, &mut rng).unwrap();
        let counts = syn.labeling.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), 300);
        for &c in &counts {
            assert!((c as i64 - 100).unsigned_abs() <= 1);
        }
    }

    #[test]
    fn class_imbalance_is_respected() {
        let mut cfg = GeneratorConfig::balanced(600, 10.0, 3, 3.0).unwrap();
        cfg.alpha = vec![1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0];
        let mut rng = StdRng::seed_from_u64(11);
        let syn = generate(&cfg, &mut rng).unwrap();
        let dist = syn.labeling.class_distribution();
        assert!((dist[0] - 1.0 / 6.0).abs() < 0.02);
        assert!((dist[2] - 0.5).abs() < 0.02);
    }

    #[test]
    fn planted_compatibilities_are_recovered_on_balanced_graph() {
        // On a reasonably dense balanced graph the measured GS matrix must be close to
        // the planted H.
        let cfg = GeneratorConfig::balanced_uniform(2000, 20.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let syn = generate(&cfg, &mut rng).unwrap();
        let measured = measure_compatibilities(&syn.graph, &syn.labeling).unwrap();
        let dist = syn.planted_h.l2_distance(&measured).unwrap();
        assert!(
            dist < 0.1,
            "planted vs measured L2 distance too large: {dist}"
        );
    }

    #[test]
    fn homophily_graph_has_dominant_diagonal() {
        let mut cfg = GeneratorConfig::balanced(1000, 15.0, 3, 1.0).unwrap();
        cfg.h = CompatibilityMatrix::homophily(3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let syn = generate(&cfg, &mut rng).unwrap();
        let measured = measure_compatibilities(&syn.graph, &syn.labeling).unwrap();
        for c in 0..3 {
            for e in 0..3 {
                if c != e {
                    assert!(measured.get(c, c) > measured.get(c, e));
                }
            }
        }
    }

    #[test]
    fn power_law_produces_skewed_degrees() {
        let cfg = GeneratorConfig::balanced(2000, 20.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let syn = generate(&cfg, &mut rng).unwrap();
        let mut degrees = syn.graph.degrees();
        degrees.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Max degree should clearly exceed the average for a power-law family.
        let avg = syn.graph.average_degree();
        assert!(degrees[0] > 1.5 * avg, "max {} vs avg {avg}", degrees[0]);
    }

    #[test]
    fn measure_compatibilities_validates_sizes() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let l = Labeling::new(vec![0, 1], 2).unwrap();
        assert!(measure_compatibilities(&g, &l).is_err());
    }

    #[test]
    fn measured_matrix_rows_sum_to_one() {
        let cfg = GeneratorConfig::balanced(500, 10.0, 4, 5.0).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let syn = generate(&cfg, &mut rng).unwrap();
        let measured = measure_compatibilities(&syn.graph, &syn.labeling).unwrap();
        for s in measured.row_sums() {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn generation_is_deterministic_for_fixed_seed() {
        let cfg = GeneratorConfig::balanced(200, 6.0, 3, 3.0).unwrap();
        let a = generate(&cfg, &mut StdRng::seed_from_u64(123)).unwrap();
        let b = generate(&cfg, &mut StdRng::seed_from_u64(123)).unwrap();
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.labeling.as_slice(), b.labeling.as_slice());
    }
}
