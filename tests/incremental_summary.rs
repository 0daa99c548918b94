//! Acceptance tests for the incremental serving layer: for any sequence of seed
//! mutations, the [`DeltaSummary`] statistics — and the estimated `H` built on them —
//! are bit-identical to a cold `summarize_with` + `estimate` on the final seed set,
//! across both counting modes and 1/2/4/auto threads.

use factorized_graphs::core::incremental::{DeltaSummary, SeedMutation};
use factorized_graphs::core::{summarize_with, SummaryConfig};
use factorized_graphs::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Deterministic sweep cases: (generator seed, n, degree, k, skew, seed fraction).
fn sweep_cases() -> Vec<(u64, usize, f64, usize, f64, f64)> {
    vec![
        (3, 400, 8.0, 3, 8.0, 0.05),
        (11, 600, 6.0, 2, 3.0, 0.02),
        (29, 500, 10.0, 4, 5.0, 0.1),
    ]
}

fn build_case(case: (u64, usize, f64, usize, f64, f64)) -> (Arc<Graph>, SeedLabels, Labeling) {
    let (seed, n, degree, k, skew, fraction) = case;
    let cfg = GeneratorConfig::balanced(n, degree, k, skew).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(fraction, &mut rng);
    (Arc::new(syn.graph), seeds, syn.labeling)
}

/// Drive a random but seeded mutation stream (biased toward additions, with
/// removals and relabels mixed in) against the engine; returns the mutations.
fn mutation_stream(
    engine: &mut DeltaSummary,
    truth: &Labeling,
    steps: usize,
    rng_seed: u64,
) -> usize {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let k = truth.k();
    let mut applied = 0;
    for _ in 0..steps {
        let labeled = engine.seeds().labeled_nodes();
        let unlabeled = engine.seeds().unlabeled_nodes();
        let mutation = match rng.gen_index(4) {
            0 | 1 if !unlabeled.is_empty() => {
                let node = unlabeled[rng.gen_index(unlabeled.len())];
                SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                }
            }
            2 if labeled.len() > k => SeedMutation::Remove {
                node: labeled[rng.gen_index(labeled.len())],
            },
            _ if !labeled.is_empty() => SeedMutation::Relabel {
                node: labeled[rng.gen_index(labeled.len())],
                label: rng.gen_index(k),
            },
            _ => continue,
        };
        let outcome = engine.apply(&[mutation]).unwrap();
        assert_eq!(outcome.full_recomputes, 0, "delta path must not fall back");
        applied += 1;
    }
    applied
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn delta_summaries_are_bit_identical_to_cold_summaries_across_modes_and_threads() {
    let thread_policies = [
        Threads::Serial,
        Threads::Fixed(2),
        Threads::Fixed(4),
        Threads::Auto,
    ];
    for case in sweep_cases() {
        for non_backtracking in [true, false] {
            let (graph, seeds, truth) = build_case(case);
            let mut engine = DeltaSummary::new(
                Arc::clone(&graph),
                seeds,
                5,
                non_backtracking,
                Threads::Serial,
            )
            .unwrap();
            let applied = mutation_stream(&mut engine, &truth, 40, case.0 ^ 0xabcd);
            assert!(applied > 0);
            assert_eq!(engine.stats().full_summarizations, 1);
            assert_eq!(engine.stats().delta_mutations, applied);

            // The maintained counts equal a cold summarization of the final seed
            // set, bit for bit, at every thread count.
            let final_seeds = engine.seeds().clone();
            for threads in thread_policies {
                let config = SummaryConfig {
                    max_length: 5,
                    non_backtracking,
                    variant: NormalizationVariant::RowStochastic,
                    ..SummaryConfig::default()
                };
                let cold = summarize_with(&graph, &final_seeds, &config, threads).unwrap();
                for l in 1..=5 {
                    assert_eq!(
                        bits(&engine.counts()[l - 1]),
                        bits(cold.count(l).unwrap()),
                        "case {case:?} nb={non_backtracking} {threads:?} length {l}"
                    );
                }
                // Statistics (all three normalization variants) follow the counts.
                for variant in NormalizationVariant::all() {
                    let delta_summary = engine
                        .summary(&SummaryConfig {
                            max_length: 5,
                            non_backtracking,
                            variant,
                            ..SummaryConfig::default()
                        })
                        .unwrap();
                    let cold = summarize_with(
                        &graph,
                        &final_seeds,
                        &SummaryConfig {
                            max_length: 5,
                            non_backtracking,
                            variant,
                            ..SummaryConfig::default()
                        },
                        threads,
                    )
                    .unwrap();
                    for l in 1..=5 {
                        assert_eq!(
                            bits(delta_summary.statistic(l).unwrap()),
                            bits(cold.statistic(l).unwrap()),
                            "statistics diverge: {case:?} {variant:?} length {l}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn estimated_h_through_published_counts_matches_cold_estimation() {
    // The serving path: mutate, publish into a shared cache, estimate through a
    // context. The resulting H must be bit-identical to cold estimation on the
    // final seed set — for the full estimator spread.
    for case in sweep_cases().into_iter().take(2) {
        let (graph, seeds, truth) = build_case(case);
        let mut engine =
            DeltaSummary::new(Arc::clone(&graph), seeds, 5, true, Threads::Serial).unwrap();
        mutation_stream(&mut engine, &truth, 25, case.0 ^ 0x5eed);
        let final_seeds = engine.seeds().clone();

        let cache = SummaryCache::shared();
        engine.publish_to(&cache);
        let ctx =
            EstimationContext::with_cache(&graph, &final_seeds, std::sync::Arc::clone(&cache));
        for method in ["mce", "dce", "dcer"] {
            let estimator = factorized_graphs::core::estimator_by_name(method).unwrap();
            let served = estimator.estimate_with_context(&ctx).unwrap();
            let cold = estimator.estimate(&graph, &final_seeds).unwrap();
            assert_eq!(
                bits(&served),
                bits(&cold),
                "case {case:?} method {method}: served H diverges from cold H"
            );
        }
        // Everything above was answered from the published counts.
        assert_eq!(ctx.summary_computations(), 0);
        assert_eq!(engine.stats().full_summarizations, 1);
    }
}

#[test]
fn amortization_counters_prove_delta_updates_beat_full_recomputes() {
    // Counter-level acceptance (no wall-clock): after warm-up, a single-seed
    // mutation performs zero full summarizations, and its touched rows are a small
    // fraction of what one recomputation would touch.
    let (graph, seeds, truth) = build_case((7, 2000, 5.0, 3, 8.0, 0.01));
    let mut engine =
        DeltaSummary::new(Arc::clone(&graph), seeds, 5, true, Threads::Serial).unwrap();
    let full_before = engine.stats().full_summarizations;
    let node = engine.seeds().unlabeled_nodes()[0];
    let outcome = engine
        .apply(&[SeedMutation::Add {
            node,
            label: truth.class_of(node),
        }])
        .unwrap();
    assert_eq!(engine.stats().full_summarizations, full_before);
    assert!(outcome.rows_touched > 0);
    assert!(
        outcome.rows_touched < engine.stats().full_rows_per_summarization,
        "delta rows {} should undercut full rows {}",
        outcome.rows_touched,
        engine.stats().full_rows_per_summarization
    );

    // The fig3b generator at n = 50k (d = 5, k = 3, h = 8, f = 0.01). A mutation's
    // ℓmax-hop ball (≈ d + d² + … + d⁵ rows) does not grow with n, so here it must
    // stay within 5% of the n·ℓmax rows one full recomputation touches.
    let (graph, seeds, truth) = build_case((3, 50_000, 5.0, 3, 8.0, 0.01));
    // Seed additions at distinct random unlabeled nodes, drawn from seed 17.
    let additions = |engine: &DeltaSummary, count: usize| -> Vec<SeedMutation> {
        let mut rng = StdRng::seed_from_u64(17);
        let mut unlabeled = engine.seeds().unlabeled_nodes();
        (0..count)
            .map(|_| {
                let node = unlabeled.swap_remove(rng.gen_index(unlabeled.len()));
                SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                }
            })
            .collect()
    };
    // (non-backtracking, mutations, mutations per `apply`): a 20-mutation stream in
    // each counting mode, then one 16-mutation batch.
    for (non_backtracking, count, per_apply) in [(true, 20, 1), (false, 20, 1), (true, 16, 16)] {
        let mut engine = DeltaSummary::new(
            Arc::clone(&graph),
            seeds.clone(),
            5,
            non_backtracking,
            Threads::Serial,
        )
        .unwrap();
        let full_before = engine.stats().full_summarizations;
        let mut rows = 0;
        for chunk in additions(&engine, count).chunks(per_apply) {
            let outcome = engine.apply(chunk).unwrap();
            assert_eq!(outcome.full_recomputes, 0, "nb={non_backtracking}");
            rows += outcome.rows_touched;
        }
        assert_eq!(engine.stats().full_summarizations, full_before);
        let full_rows = engine.stats().full_rows_per_summarization;
        let ratio = rows as f64 / count as f64 / full_rows as f64;
        assert!(
            ratio <= 0.05,
            "nb={non_backtracking}, {per_apply} per apply: delta rows per mutation are \
             {ratio:.4} of a full recompute ({full_rows} rows)"
        );
        let config = SummaryConfig {
            max_length: 5,
            non_backtracking,
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        };
        let cold = summarize_with(&graph, engine.seeds(), &config, Threads::Serial).unwrap();
        for l in 1..=5 {
            assert_eq!(
                bits(&engine.counts()[l - 1]),
                bits(cold.count(l).unwrap()),
                "nb={non_backtracking}, {per_apply} per apply: length {l}"
            );
        }
    }
}
