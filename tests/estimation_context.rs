//! Integration tests for the summary-centric estimation layer: the thread-parallel
//! `summarize_with` must be **bit-identical** to the serial `summarize` at any thread
//! count (`assert_eq!` on raw `f64` data, no tolerance), the `EstimationContext`
//! cache must answer prefix requests exactly as a fresh summarization would, and the
//! factorized path must agree with the explicit (unfactorized) evaluation order for
//! both counting modes (the Fig. 5b consistency check), run through the context.

use fg_core::prelude::*;
use fg_core::{
    explicit_adjacency_power, explicit_nb_power, statistics_from_explicit, summarize_with,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The seeded graph family the sweeps run on (`GeneratorConfig::balanced`, varying
/// size / degree / classes / skew / seed), with a stratified 10% seed set each.
fn sweep_graphs() -> Vec<(Graph, SeedLabels)> {
    [
        (400usize, 10.0f64, 3usize, 3.0f64, 1u64),
        (300, 8.0, 3, 3.0, 3),
        (250, 6.0, 2, 8.0, 5),
    ]
    .iter()
    .map(|&(n, d, k, h, seed)| {
        let cfg = GeneratorConfig::balanced(n, d, k, h).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        (syn.graph, seeds)
    })
    .collect()
}

/// A graph past the 4096-row chunk of the `M = Xᵀ N` reduction (three chunks), so
/// the parallel path merges worker partials instead of taking the one-chunk
/// serial shortcut.
fn chunked_graph() -> (Graph, SeedLabels) {
    let cfg = GeneratorConfig::balanced(9000, 6.0, 3, 3.0).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    (syn.graph, seeds)
}

fn summary_configs() -> Vec<SummaryConfig> {
    let mut configs = Vec::new();
    for non_backtracking in [true, false] {
        for variant in NormalizationVariant::all() {
            configs.push(SummaryConfig {
                max_length: 5,
                non_backtracking,
                variant,
                ..SummaryConfig::default()
            });
        }
    }
    configs
}

#[test]
fn parallel_summarize_is_bit_identical_at_every_thread_count() {
    for (graph, seeds) in sweep_graphs().into_iter().chain([chunked_graph()]) {
        for config in summary_configs() {
            let serial = summarize(&graph, &seeds, &config).unwrap();
            for threads in [
                Threads::Serial,
                Threads::Fixed(2),
                Threads::Fixed(4),
                Threads::Auto,
            ] {
                let parallel = summarize_with(&graph, &seeds, &config, threads).unwrap();
                for l in 1..=config.max_length {
                    assert_eq!(
                        serial.count(l).unwrap().data(),
                        parallel.count(l).unwrap().data(),
                        "counts diverge at length {l} with {threads:?} ({config:?})"
                    );
                    assert_eq!(
                        serial.statistic(l).unwrap().data(),
                        parallel.statistic(l).unwrap().data(),
                        "statistics diverge at length {l} with {threads:?} ({config:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn cached_lmax5_context_answers_lmax3_requests_identically() {
    for (graph, seeds) in sweep_graphs() {
        let ctx = EstimationContext::new(&graph, &seeds);
        ctx.warm(&SummaryConfig::with_max_length(5)).unwrap();
        assert_eq!(ctx.summary_computations(), 1);
        // A shorter request — and any normalization variant — is a pure cache hit
        // and must be bit-identical to a fresh summarize call.
        for variant in NormalizationVariant::all() {
            let config = SummaryConfig {
                max_length: 3,
                non_backtracking: true,
                variant,
                ..SummaryConfig::default()
            };
            let cached = ctx.summary(&config).unwrap();
            let fresh = summarize(&graph, &seeds, &config).unwrap();
            assert_eq!(cached.max_length(), 3);
            for l in 1..=3 {
                assert_eq!(
                    cached.count(l).unwrap().data(),
                    fresh.count(l).unwrap().data(),
                    "cached counts diverge at length {l}"
                );
                assert_eq!(
                    cached.statistic(l).unwrap().data(),
                    fresh.statistic(l).unwrap().data(),
                    "cached statistics diverge at length {l} ({variant:?})"
                );
            }
        }
        assert_eq!(ctx.summary_computations(), 1);
    }
}

#[test]
fn context_summaries_match_explicit_computation_for_both_modes() {
    // Fig. 5b consistency: the factorized summaries served by the context agree with
    // the explicit (materialized W^l / W^l_NB) evaluation order at every l <= 5.
    let (graph, seeds) = sweep_graphs().remove(0);
    let ctx = EstimationContext::new(&graph, &seeds).threads(Threads::Fixed(4));
    for non_backtracking in [true, false] {
        let config = SummaryConfig {
            max_length: 5,
            non_backtracking,
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        };
        let summary = ctx.summary(&config).unwrap();
        for l in 1..=5 {
            let power = if non_backtracking {
                explicit_nb_power(&graph, l).unwrap()
            } else {
                explicit_adjacency_power(&graph, l).unwrap()
            };
            let expected = statistics_from_explicit(&power, &seeds, config.variant).unwrap();
            assert!(
                summary.statistic(l).unwrap().approx_eq(&expected, 1e-9),
                "factorized vs explicit mismatch at length {l} (nb = {non_backtracking})"
            );
        }
    }
    // One computation per counting mode, regardless of how many lengths were read.
    assert_eq!(ctx.summary_computations(), 2);
}

#[test]
fn estimators_are_bit_identical_through_the_context() {
    // The refactor's core guarantee: every estimator produces the same H whether it
    // summarizes the graph itself or pulls statistics from a shared cached context —
    // serial or parallel.
    let (graph, seeds) = sweep_graphs().remove(1);
    let estimators: Vec<Box<dyn CompatibilityEstimator>> = vec![
        Box::new(MyopicCompatibilityEstimation::default()),
        Box::new(LinearCompatibilityEstimation::default()),
        Box::new(DistantCompatibilityEstimation::default()),
        Box::new(DceWithRestarts::default()),
    ];
    for threads in [Threads::Serial, Threads::Fixed(4)] {
        let ctx = EstimationContext::new(&graph, &seeds).threads(threads);
        for estimator in &estimators {
            let direct = estimator.estimate(&graph, &seeds).unwrap();
            let via_context = estimator.estimate_with_context(&ctx).unwrap();
            assert_eq!(
                direct.data(),
                via_context.data(),
                "{} diverges through the context at {threads:?}",
                estimator.name()
            );
        }
    }
}

/// Write a seeded graph + stratified seed labels to disk and load them back twice,
/// producing two fully independent allocations of identical content.
fn write_and_load_twice(dir: &std::path::Path) -> ((Graph, SeedLabels), (Graph, SeedLabels)) {
    std::fs::create_dir_all(dir).unwrap();
    let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    let edges_path = dir.join("edges.tsv");
    let labels_path = dir.join("seeds.tsv");
    fg_datasets::write_edge_list(&edges_path, &syn.graph).unwrap();
    let mut label_lines = String::new();
    for (node, observed) in seeds.as_slice().iter().enumerate() {
        if let Some(class) = observed {
            label_lines.push_str(&format!("{node}\t{class}\n"));
        }
    }
    std::fs::write(&labels_path, label_lines).unwrap();
    let n = syn.graph.num_nodes();
    let load = || {
        (
            fg_datasets::read_edge_list(&edges_path, n).unwrap(),
            fg_datasets::read_labels(&labels_path, n, 3).unwrap(),
        )
    };
    (load(), load())
}

#[test]
fn independently_loaded_copies_share_one_summary_via_fingerprints() {
    // The PR's acceptance criterion: two copies of the same dataset loaded from disk
    // into different allocations share one cached summary because the cache is keyed
    // by content fingerprint, not pointer identity.
    let dir = std::env::temp_dir().join("fg_fp_share_test");
    let ((g1, s1), (g2, s2)) = write_and_load_twice(&dir);
    assert!(!std::ptr::eq(&g1, &g2));
    assert_eq!(g1.fingerprint(), g2.fingerprint());
    assert_eq!(s1.fingerprint(), s2.fingerprint());

    let cache = SummaryCache::shared();
    let ctx1 = EstimationContext::with_cache(&g1, &s1, Arc::clone(&cache));
    let ctx2 = EstimationContext::with_cache(&g2, &s2, Arc::clone(&cache));
    let config = SummaryConfig::with_max_length(5);
    let first = ctx1.summary(&config).unwrap();
    let second = ctx2.summary(&config).unwrap();
    // One computation serves both copies, bit-identically.
    assert_eq!(ctx1.summary_computations(), 1);
    assert_eq!(ctx2.summary_computations(), 0);
    for l in 1..=5 {
        assert_eq!(
            first.count(l).unwrap().data(),
            second.count(l).unwrap().data(),
            "copies diverge at length {l}"
        );
    }

    // A Pipeline on copy 2 accepts the context built on copy 1 (no pointer-identity
    // rejection) and is served from the shared cache without recomputing.
    let report = Pipeline::on(&g2)
        .seeds(&s2)
        .context(&ctx1)
        .estimator(DceWithRestarts::default())
        .run()
        .unwrap();
    assert_eq!(report.summary_computations, 0);
    assert_eq!(ctx1.summary_computations(), 1);
    let fresh = DceWithRestarts::default().estimate(&g2, &s2).unwrap();
    assert_eq!(report.estimated_h.data(), fresh.data());

    // Content addressing is strict: a context over a *different* seed set is still
    // rejected even though the graph matches.
    let mut rng = StdRng::seed_from_u64(31);
    let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
    let other = generate(&cfg, &mut rng).unwrap();
    let other_seeds = other.labeling.stratified_sample(0.1, &mut rng);
    let mismatched = EstimationContext::new(&g1, &other_seeds);
    assert!(Pipeline::on(&g1)
        .seeds(&s1)
        .context(&mismatched)
        .estimator(DceWithRestarts::default())
        .run()
        .is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprints_are_stable_across_reloads_and_sensitive_to_content() {
    let dir = std::env::temp_dir().join("fg_fp_stability_test");
    let ((g1, s1), (g2, s2)) = write_and_load_twice(&dir);
    // Stability: re-loading produces the same fingerprints every time.
    assert_eq!(g1.fingerprint(), g2.fingerprint());
    assert_eq!(s1.fingerprint(), s2.fingerprint());
    assert_eq!(g1.fingerprint(), g1.clone().fingerprint());

    // Sensitivity: perturbing the content changes the fingerprint.
    let mut perturbed_edges: Vec<(usize, usize, f64)> =
        g1.adjacency().iter().filter(|&(u, v, _)| u < v).collect();
    perturbed_edges.pop().unwrap();
    let smaller = Graph::from_weighted_edges(g1.num_nodes(), &perturbed_edges).unwrap();
    assert_ne!(smaller.fingerprint(), g1.fingerprint());

    let mut relabeled = s1.as_slice().to_vec();
    let flip = relabeled
        .iter()
        .position(|o| o.is_some())
        .expect("has seeds");
    relabeled[flip] = Some((relabeled[flip].unwrap() + 1) % 3);
    let relabeled = SeedLabels::new(relabeled, 3).unwrap();
    assert_ne!(relabeled.fingerprint(), s1.fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn with_threads_preserves_every_estimator_output() {
    let (graph, seeds) = sweep_graphs().remove(2);
    let estimators: Vec<Box<dyn CompatibilityEstimator>> = vec![
        Box::new(MyopicCompatibilityEstimation::default()),
        Box::new(LinearCompatibilityEstimation::default()),
        Box::new(DistantCompatibilityEstimation::default()),
        Box::new(DceWithRestarts::default()),
        Box::new(HoldoutEstimation::default()),
    ];
    for estimator in &estimators {
        let serial = estimator.estimate(&graph, &seeds).unwrap();
        let threaded = estimator
            .with_threads(Threads::Fixed(4))
            .estimate(&graph, &seeds)
            .unwrap();
        assert_eq!(
            serial.data(),
            threaded.data(),
            "{} changes under with_threads",
            estimator.name()
        );
        assert_eq!(
            estimator.name(),
            estimator.with_threads(Threads::Auto).name()
        );
    }
}
