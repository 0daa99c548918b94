//! Integration tests for the unified propagation layer: every `Propagator` backend
//! running through `Pipeline` on one seeded synthetic graph, registry lookup,
//! LinBP-vs-BP agreement, centering invariance at scale, convergence behaviour, and
//! the homophily sanity check of Fig. 6i.

use fg_core::prelude::*;
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn synthetic(n: usize, d: f64, k: usize, h: f64, seed: u64) -> fg_graph::SyntheticGraph {
    let cfg = GeneratorConfig::balanced(n, d, k, h).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&cfg, &mut rng).unwrap()
}

/// A homophilous synthetic graph, so the compatibility-free baselines (harmonic
/// functions, random walks) are also in their operating regime.
fn homophilous(n: usize, k: usize, skew: f64, seed: u64) -> fg_graph::SyntheticGraph {
    let mut cfg = GeneratorConfig::balanced(n, 12.0, k, 1.0).unwrap();
    cfg.h = CompatibilityMatrix::homophily(k, skew).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&cfg, &mut rng).unwrap()
}

#[test]
fn all_four_propagators_run_through_pipeline_and_beat_random() {
    // The satellite contract: one seeded graph, all four backends through `Pipeline`,
    // each clearly above the random baseline, with consistent outcome metadata.
    let syn = homophilous(1500, 3, 8.0, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let random = fg_propagation::random_baseline(3);

    let backends: Vec<Box<dyn Propagator>> = vec![
        Box::new(LinBp::default()),
        Box::new(LoopyBp::default()),
        Box::new(Harmonic::default()),
        Box::new(RandomWalk::default()),
    ];
    for backend in backends {
        let name = backend.name();
        let uses_h = backend.uses_compatibilities();
        let mut builder = Pipeline::on(&syn.graph).seeds(&seeds).propagator(backend);
        if uses_h {
            builder = builder.compatibilities("planted", syn.planted_h.as_dense());
        }
        let report = builder.run().unwrap();

        // Consistent PropagationOutcome metadata across backends.
        assert_eq!(report.propagator, name);
        assert_eq!(report.outcome.method, name);
        assert_eq!(report.outcome.predictions.len(), syn.graph.num_nodes());
        assert_eq!(report.outcome.beliefs.rows(), syn.graph.num_nodes());
        assert_eq!(report.outcome.beliefs.cols(), 3);
        assert!(report.outcome.iterations >= 1);
        assert_eq!(report.outcome.epsilon.is_some(), name == "LinBP");
        assert_eq!(report.estimator, if uses_h { "planted" } else { "none" });

        let acc = report.accuracy(&syn.labeling, &seeds);
        assert!(
            acc > random + 0.15,
            "{name}: accuracy {acc} not clearly above random baseline {random}"
        );
    }
}

#[test]
fn registry_backends_match_direct_construction() {
    let syn = homophilous(600, 2, 6.0, 17);
    let mut rng = StdRng::seed_from_u64(18);
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    for name in PROPAGATORS.names() {
        let via_registry = PROPAGATORS
            .build(name, &PropagatorOptions::default())
            .unwrap();
        let uses_h = via_registry.uses_compatibilities();
        let mut builder = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .propagator(via_registry);
        if uses_h {
            builder = builder.compatibilities("planted", syn.planted_h.as_dense());
        }
        let report = builder.run().unwrap();
        assert_eq!(report.outcome.predictions.len(), 600, "{name}");
    }
}

#[test]
fn linbp_and_loopy_bp_agree_on_moderate_graphs() {
    let syn = synthetic(500, 8.0, 3, 8.0, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    let h = syn.planted_h.as_dense();

    let lin = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .compatibilities("planted", h)
        .propagator(LinBp::default())
        .run()
        .unwrap();
    let bp = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .compatibilities("planted", h)
        .propagator(LoopyBp::default())
        .run()
        .unwrap();

    let lin_acc = lin.accuracy(&syn.labeling, &seeds);
    let bp_acc = bp.accuracy(&syn.labeling, &seeds);
    // The linearization is an approximation; accuracies should be in the same ballpark.
    assert!(
        (lin_acc - bp_acc).abs() < 0.15,
        "LinBP accuracy {lin_acc} vs BP accuracy {bp_acc}"
    );
    assert!(lin_acc > 0.5);
}

#[test]
fn centering_invariance_holds_on_generated_graphs() {
    // Theorem 3.1 at integration scale.
    let syn = synthetic(2000, 12.0, 4, 5.0, 13);
    let mut rng = StdRng::seed_from_u64(14);
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let h = syn.planted_h.as_dense();
    let base = LinBpConfig {
        tolerance: None,
        max_iterations: 8,
        ..LinBpConfig::default()
    };
    let centered = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .compatibilities("planted", h)
        .propagator(LinBp::new(LinBpConfig {
            centered: true,
            ..base.clone()
        }))
        .run()
        .unwrap();
    let uncentered = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .compatibilities("planted", h)
        .propagator(LinBp::new(LinBpConfig {
            centered: false,
            ..base
        }))
        .run()
        .unwrap();
    assert_eq!(centered.outcome.predictions, uncentered.outcome.predictions);
}

#[test]
fn convergent_scaling_reaches_fixed_point() {
    let syn = synthetic(1000, 10.0, 3, 3.0, 23);
    let mut rng = StdRng::seed_from_u64(24);
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let report = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .compatibilities("planted", syn.planted_h.as_dense())
        .propagator(LinBp::new(LinBpConfig {
            max_iterations: 300,
            tolerance: Some(1e-9),
            ..LinBpConfig::default()
        }))
        .run()
        .unwrap();
    assert!(
        report.outcome.converged,
        "LinBP did not converge in 300 iterations"
    );
    // The fixed point satisfies F = X + εWFH up to tolerance: check the residual energy.
    assert!(report.outcome.beliefs.max_abs().is_finite());
}

#[test]
fn homophily_baselines_work_on_homophilous_graphs_only() {
    // Fig. 6i in both directions: on a homophilous graph the harmonic-functions method
    // is competitive; on a heterophilous graph it collapses while GS-LinBP does not.
    let homophilous_syn = homophilous(2000, 3, 8.0, 33);
    let mut rng = StdRng::seed_from_u64(34);
    let seeds_h = homophilous_syn.labeling.stratified_sample(0.05, &mut rng);

    let harmonic_h_acc = Pipeline::on(&homophilous_syn.graph)
        .seeds(&seeds_h)
        .propagator(Harmonic::default())
        .run()
        .unwrap()
        .accuracy(&homophilous_syn.labeling, &seeds_h);
    assert!(
        harmonic_h_acc > 0.6,
        "harmonic accuracy on homophily {harmonic_h_acc}"
    );

    let heterophilous = synthetic(2000, 15.0, 3, 8.0, 43);
    let seeds_het = heterophilous.labeling.stratified_sample(0.05, &mut rng);
    let harmonic_het_acc = Pipeline::on(&heterophilous.graph)
        .seeds(&seeds_het)
        .propagator(Harmonic::default())
        .run()
        .unwrap()
        .accuracy(&heterophilous.labeling, &seeds_het);
    let gs_acc = Pipeline::on(&heterophilous.graph)
        .seeds(&seeds_het)
        .compatibilities("GS", heterophilous.planted_h.as_dense())
        .run()
        .unwrap()
        .accuracy(&heterophilous.labeling, &seeds_het);
    assert!(
        gs_acc > harmonic_het_acc + 0.2,
        "GS-LinBP {gs_acc} should dominate harmonic functions {harmonic_het_acc} under heterophily"
    );
}

#[test]
fn propagation_accuracy_increases_with_label_fraction() {
    let syn = synthetic(3000, 15.0, 3, 3.0, 53);
    let mut rng = StdRng::seed_from_u64(54);
    let mut last_acc = 0.0;
    let mut increases = 0;
    let fractions = [0.001, 0.01, 0.1, 0.5];
    for &f in &fractions {
        let seeds = syn.labeling.stratified_sample(f, &mut rng);
        let acc = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .compatibilities("planted", syn.planted_h.as_dense())
            .run()
            .unwrap()
            .accuracy(&syn.labeling, &seeds);
        if acc >= last_acc - 0.02 {
            increases += 1;
        }
        last_acc = acc;
    }
    // Accuracy should be (weakly) monotone in f for nearly every step.
    assert!(increases >= 3, "accuracy did not grow with label fraction");
    assert!(last_acc > 0.8, "accuracy at f = 0.5 is only {last_acc}");
}

#[test]
fn multi_rank_walk_handles_generated_homophilous_graph() {
    let syn = homophilous(1500, 3, 10.0, 63);
    let mut rng = StdRng::seed_from_u64(64);
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let acc = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .propagator(RandomWalk::default())
        .run()
        .unwrap()
        .accuracy(&syn.labeling, &seeds);
    assert!(
        acc > 0.6,
        "random walk accuracy {acc} on a homophilous graph"
    );
}
