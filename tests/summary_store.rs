//! Integration tests for the persistent summary store: fingerprint-keyed files must
//! round-trip **bit-identically** (`assert_eq!` on raw `f64` data, no tolerance),
//! serve second processes with zero summarizations, and reject corrupt or mismatched
//! files loudly — recomputing instead of returning damaged statistics.

use fg_core::prelude::*;
use fg_core::{EntryMeta, GraphSummary, SummaryKey};
use std::sync::Arc;

fn seeded_instance(seed: u64) -> (Graph, Labeling, SeedLabels) {
    let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    (syn.graph, syn.labeling, seeds)
}

fn temp_store(name: &str) -> Arc<SummaryStore> {
    let dir = std::env::temp_dir().join(format!("fg_root_store_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    Arc::new(SummaryStore::open(dir).unwrap())
}

#[test]
fn concurrent_prefix_upgrades_by_two_sessions_leave_a_valid_store() {
    // Two "sessions" (independent contexts over independent caches, one shared
    // store directory) repeatedly extend the same stored summary to *different*
    // lmax. The unique-temp-file + atomic-rename write path must keep the store
    // file valid at every instant, and each session must keep producing summaries
    // bit-identical to a cold computation.
    let (graph, _, seeds) = seeded_instance(21);
    let store = temp_store("concurrent_upgrade");
    let reference_short = summarize(&graph, &seeds, &SummaryConfig::with_max_length(2)).unwrap();
    let reference_long = summarize(&graph, &seeds, &SummaryConfig::with_max_length(6)).unwrap();

    std::thread::scope(|scope| {
        let session = |max_length: usize, reference: &GraphSummary| {
            let store = Arc::clone(&store);
            let graph = &graph;
            let seeds = &seeds;
            let reference = reference.clone();
            scope.spawn(move || {
                for _ in 0..12 {
                    // A fresh cache each round simulates a new session that reads
                    // whatever prefix is on disk and writes back its own length.
                    let ctx = EstimationContext::new(graph, seeds).store(Arc::clone(&store));
                    let summary = ctx
                        .summary(&SummaryConfig::with_max_length(max_length))
                        .unwrap();
                    for l in 1..=max_length {
                        assert_eq!(
                            summary.count(l).unwrap().data(),
                            reference.count(l).unwrap().data(),
                            "session lmax={max_length} diverged at length {l}"
                        );
                    }
                }
            })
        };
        let a = session(2, &reference_short);
        let b = session(6, &reference_long);
        a.join().unwrap();
        b.join().unwrap();
    });

    // Whatever rename landed last, the surviving file parses and serves one of
    // the two lengths bit-identically, and no temp files are stranded.
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), 1, "{entries:?}");
    let Some(EntryMeta::Summary(meta)) = &entries[0].meta else {
        panic!("file is not a valid summary: {entries:?}");
    };
    assert!(meta.max_length == 2 || meta.max_length == 6, "{meta:?}");
    let key = SummaryKey(graph.fingerprint(), seeds.fingerprint(), true);
    let loaded = store.load(&key).unwrap().unwrap();
    let reference = if loaded.len() == 2 {
        &reference_short
    } else {
        &reference_long
    };
    for (l, counts) in loaded.iter().enumerate() {
        assert_eq!(counts.data(), reference.count(l + 1).unwrap().data());
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn warm_path_round_trip_is_bit_identical_for_both_modes_and_all_variants() {
    let (graph, _, seeds) = seeded_instance(3);
    let store = temp_store("round_trip");
    for non_backtracking in [true, false] {
        let config = SummaryConfig {
            max_length: 5,
            non_backtracking,
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        };
        // Cold context computes and persists.
        let cold = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        let fresh = cold.summary(&config).unwrap();
        assert_eq!(cold.summary_computations(), 1, "nb={non_backtracking}");

        // A fresh cache (new process) is served from disk: zero computations, and
        // every length / variant combination is bit-identical to the fresh result.
        let warm = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        for variant in NormalizationVariant::all() {
            let served = warm
                .summary(&SummaryConfig {
                    max_length: 5,
                    non_backtracking,
                    variant,
                    ..SummaryConfig::default()
                })
                .unwrap();
            for l in 1..=5 {
                assert_eq!(
                    served.count(l).unwrap().data(),
                    fresh.count(l).unwrap().data(),
                    "stored counts diverge at length {l} (nb={non_backtracking})"
                );
                let expected = summarize(
                    &graph,
                    &seeds,
                    &SummaryConfig {
                        max_length: 5,
                        non_backtracking,
                        variant,
                        ..SummaryConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    served.statistic(l).unwrap().data(),
                    expected.statistic(l).unwrap().data(),
                    "stored statistics diverge at length {l} ({variant:?})"
                );
            }
        }
        assert_eq!(warm.summary_computations(), 0, "nb={non_backtracking}");
        assert_eq!(warm.store_hits(), 1, "nb={non_backtracking}");
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn estimators_are_bit_identical_through_the_warm_store() {
    // End-to-end warm-path proof at the estimator level: an H estimated from
    // disk-served statistics equals the directly computed one bit for bit.
    let (graph, _, seeds) = seeded_instance(5);
    let store = temp_store("estimators");
    let warmup = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
    warmup.warm(&SummaryConfig::with_max_length(5)).unwrap();

    let served_ctx = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
    let estimators: Vec<Box<dyn CompatibilityEstimator>> = vec![
        Box::new(MyopicCompatibilityEstimation::default()),
        Box::new(DistantCompatibilityEstimation::default()),
        Box::new(DceWithRestarts::default()),
    ];
    for estimator in &estimators {
        let direct = estimator.estimate(&graph, &seeds).unwrap();
        let via_store = estimator.estimate_with_context(&served_ctx).unwrap();
        assert_eq!(direct.data(), via_store.data(), "{}", estimator.name());
    }
    assert_eq!(served_ctx.summary_computations(), 0);
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn corrupted_and_mismatched_files_are_rejected_and_recomputed() {
    let (graph, _, seeds) = seeded_instance(7);
    let store = temp_store("reject");
    let config = SummaryConfig::with_max_length(4);
    let writer = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
    let expected = writer.summary(&config).unwrap();
    let key = SummaryKey(graph.fingerprint(), seeds.fingerprint(), true);
    let path = store.path(&key);

    // Corruption: flip a payload byte. load() must error, the context must fall back
    // to recomputation with correct results.
    let good = std::fs::read(&path).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x55;
    std::fs::write(&path, &bad).unwrap();
    assert!(store.load(&key).is_err());
    let recovering = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
    let recovered = recovering.summary(&config).unwrap();
    assert_eq!(recovering.summary_computations(), 1);
    assert_eq!(recovering.store_hits(), 0);
    for l in 1..=4 {
        assert_eq!(
            recovered.count(l).unwrap().data(),
            expected.count(l).unwrap().data()
        );
    }

    // Mismatch: a valid file copied under another dataset's name must be rejected,
    // not served (its embedded fingerprints disagree with the request).
    let (other_graph, _, other_seeds) = seeded_instance(11);
    let foreign = SummaryKey(other_graph.fingerprint(), other_seeds.fingerprint(), true);
    std::fs::write(&path, &good).unwrap();
    std::fs::copy(&path, store.path(&foreign)).unwrap();
    let err = store.load(&foreign).unwrap_err();
    assert!(err.to_string().contains("fingerprints"), "{err}");
    let foreign_ctx = EstimationContext::new(&other_graph, &other_seeds).store(Arc::clone(&store));
    let foreign_summary = foreign_ctx.summary(&config).unwrap();
    assert_eq!(foreign_ctx.summary_computations(), 1);
    let foreign_fresh = summarize(&other_graph, &other_seeds, &config).unwrap();
    for l in 1..=4 {
        assert_eq!(
            foreign_summary.count(l).unwrap().data(),
            foreign_fresh.count(l).unwrap().data()
        );
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn pipelines_share_summaries_across_processes_via_the_store() {
    // Two pipeline invocations (fresh caches each, as separate processes would have)
    // on the same dataset: the second performs zero summarizations and produces
    // byte-identical predictions.
    let (graph, labeling, seeds) = seeded_instance(13);
    let store = temp_store("pipelines");

    let run = || {
        Pipeline::on(&graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .summary_store(Arc::clone(&store))
            .run()
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first.summary_computations, 1);
    assert_eq!(first.summary_store_hits, 0);
    assert_eq!(second.summary_computations, 0);
    // The first run also persisted its optimized H, so the second run is served
    // at the H level and never consults the summary files.
    assert_eq!(second.summary_store_hits, 0);
    assert_eq!(second.optimize_store_hits, 1);
    assert_eq!(second.estimated_h.data(), first.estimated_h.data());
    assert_eq!(second.outcome.predictions, first.outcome.predictions);
    assert_eq!(second.outcome.beliefs.data(), first.outcome.beliefs.data());
    assert_eq!(
        second.accuracy(&labeling, &seeds),
        first.accuracy(&labeling, &seeds)
    );
    std::fs::remove_dir_all(store.dir()).ok();
}
