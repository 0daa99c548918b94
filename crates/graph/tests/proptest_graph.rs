//! Property-style tests for graph construction, compatibility matrices, and the
//! synthetic generator.
//!
//! The build environment has no access to crates.io, so instead of `proptest` these
//! run each property over a deterministic sweep of seeded random inputs.

use fg_graph::{
    generate, measure_compatibilities, CompatibilityMatrix, DegreeDistribution, GeneratorConfig,
    Graph, Labeling,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn graph_from_edges_is_symmetric() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(usize, usize)> = (0..rng.gen_index(60))
            .map(|_| (rng.gen_index(20), rng.gen_index(20)))
            .collect();
        let filtered: Vec<(usize, usize)> = edges.into_iter().filter(|(u, v)| u != v).collect();
        let g = Graph::from_edges(20, &filtered).unwrap();
        assert!(g.adjacency().is_symmetric(0.0), "seed {seed}");
        // Handshake lemma: sum of degrees equals 2m (unit weights, duplicates merged add weight).
        let total_weight: f64 = g.degrees().iter().sum();
        let stored: f64 = g.adjacency().iter().map(|(_, _, w)| w).sum();
        assert!((total_weight - stored).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn h_skew_always_valid() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let k = 2 + rng.gen_index(6);
        let h = 1.0 + rng.gen::<f64>() * 19.0;
        let m = CompatibilityMatrix::h_skew(k, h).unwrap();
        assert!(m.as_dense().is_doubly_stochastic(1e-9), "k {k} h {h}");
        assert!(m.as_dense().is_symmetric(1e-9), "k {k} h {h}");
        assert_eq!(m.k(), k);
    }
}

#[test]
fn homophily_matrix_always_valid() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..64 {
        let k = 2 + rng.gen_index(6);
        let h = 1.1 + rng.gen::<f64>() * 18.9;
        let m = CompatibilityMatrix::homophily(k, h).unwrap();
        assert!(m.as_dense().is_doubly_stochastic(1e-9), "k {k} h {h}");
        assert!(m.is_homophilous(), "k {k} h {h}");
    }
}

#[test]
fn compatibility_powers_stay_doubly_stochastic() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..64 {
        let k = 2 + rng.gen_index(4);
        let h = 1.0 + rng.gen::<f64>() * 9.0;
        let p = 1 + rng.gen_index(5);
        let m = CompatibilityMatrix::h_skew(k, h).unwrap();
        let mp = m.pow(p);
        assert!(mp.is_doubly_stochastic(1e-8), "k {k} h {h} p {p}");
        assert!(mp.is_symmetric(1e-8), "k {k} h {h} p {p}");
    }
}

#[test]
fn stratified_sampling_fraction() {
    let labels: Vec<usize> = (0..300).map(|i| i % 3).collect();
    let labeling = Labeling::new(labels, 3).unwrap();
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = 0.05 + rng.gen::<f64>() * 0.95;
        let seeds = labeling.stratified_sample(f, &mut rng);
        let realized = seeds.label_fraction();
        assert!(
            (realized - f).abs() < 0.05 + 3.0 / 300.0,
            "seed {seed} f {f}"
        );
        // Every seed label matches ground truth.
        for (i, o) in seeds.as_slice().iter().enumerate() {
            if let Some(c) = o {
                assert_eq!(*c, labeling.class_of(i), "seed {seed} node {i}");
            }
        }
    }
}

#[test]
fn degree_distribution_weights_normalized() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..64 {
        let n = 1 + rng.gen_index(499);
        let exp = rng.gen::<f64>() * 2.0;
        let w = DegreeDistribution::PowerLaw { exponent: exp }
            .relative_weights(n)
            .unwrap();
        assert_eq!(w.len(), n);
        assert!(
            (w.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "n {n} exp {exp}"
        );
        assert!(w.iter().all(|&x| x > 0.0), "n {n} exp {exp}");
    }
}

#[test]
fn generator_respects_node_and_class_counts() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60 + rng.gen_index(240);
        let k = 2 + rng.gen_index(3);
        let h = 2.0 + rng.gen::<f64>() * 6.0;
        let cfg = GeneratorConfig::balanced(n, 6.0, k, h).unwrap();
        let syn = generate(&cfg, &mut rng).unwrap();
        assert_eq!(syn.graph.num_nodes(), n, "seed {seed}");
        assert_eq!(syn.labeling.n(), n, "seed {seed}");
        let counts = syn.labeling.class_counts();
        assert_eq!(counts.len(), k, "seed {seed}");
        assert!(counts.iter().all(|&c| c > 0), "seed {seed}");
        // No self loops by construction.
        assert!(
            syn.graph.adjacency().diagonal().iter().all(|&d| d == 0.0),
            "seed {seed}"
        );
    }
}

#[test]
fn measured_gs_is_row_stochastic() {
    for seed in 0..24u64 {
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let syn = generate(&cfg, &mut rng).unwrap();
        let gs = measure_compatibilities(&syn.graph, &syn.labeling).unwrap();
        for s in gs.row_sums() {
            // A class with no incident edges would give a zero row; with d=8 that is
            // practically impossible, but allow it formally.
            assert!(s.abs() < 1e-9 || (s - 1.0).abs() < 1e-9, "seed {seed}");
        }
    }
}
