//! The sweeps the rows of [`crate::figures::ROWS`] run, each returning its table:
//! the accuracy- and L2-vs-sparsity sweep over a set of estimators that most rows
//! run, the propagation-backend sweep of Fig. 6i and the graph-construction sweep.
//!
//! The sweep drives the estimation + propagation stages through `fg_core::Pipeline`
//! and propagates with LinBP (the paper's setting).
//!
//! Estimator cells that share a seeded graph also share one `EstimationContext`: the
//! context is warmed to the largest summary any estimator in the set needs, so the
//! `O(m·k·ℓmax)` summarization runs exactly once per (fraction, repetition) cell group
//! no matter how many estimators are compared (the paper's "estimation is cheap
//! preprocessing" claim, applied to the whole sweep).

use crate::harness::{time_it, ExperimentTable};
use fg_core::prelude::*;
use fg_core::{CoreError, Result, ESTIMATORS};
use fg_graph::CompatibilityMatrix;
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use fg_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The estimator columns of most accuracy figures: the gold standard and the
/// paper's four estimators (Holdout is orders of magnitude slower, so only the
/// panels that time it run it).
pub const STANDARD_SET: [&str; 5] = ["GS", "LCE", "MCE", "DCE", "DCEr"];

/// A registry estimator by spec, at the registry's defaults.
pub fn estimator(spec: &str) -> Result<Box<dyn CompatibilityEstimator>> {
    ESTIMATORS
        .by_spec(spec, &EstimatorOptions::default())
        .map_err(CoreError::InvalidConfig)
}

/// The estimator of each sweep column: `"GS"` (measured from the full labeling)
/// and `"Heuristic"` (the two-value heuristic on the gold standard), which need
/// the ground truth, are built here; every other name is a registry spec.
pub fn estimator_set(
    columns: &[&str],
    labeling: &Labeling,
    gold: &DenseMatrix,
) -> Result<Vec<Box<dyn CompatibilityEstimator>>> {
    let build = |column: &&str| -> Result<Box<dyn CompatibilityEstimator>> {
        Ok(match *column {
            "GS" => Box::new(GoldStandard::new(labeling.clone())),
            // The measured gold standard is row-stochastic but (under class
            // imbalance) not exactly doubly stochastic; project it onto the
            // doubly-stochastic polytope (clamping away negatives) so the
            // heuristic sees the same high/low structure the paper assumes.
            "Heuristic" => Box::new(
                TwoValueHeuristic::new(project_gold_for_heuristic(gold), 0.5)
                    .expect("0.5 is a valid spread"),
            ),
            spec => estimator(spec)?,
        })
    };
    columns.iter().map(build).collect()
}

/// Project the measured (row-stochastic) gold standard onto a valid symmetric
/// doubly-stochastic compatibility matrix: symmetrize, clamp a small positive floor, and
/// run Sinkhorn–Knopp row/column scalings. Preserves which entries are high vs low,
/// which is all the two-value heuristic needs.
fn project_gold_for_heuristic(gold: &DenseMatrix) -> CompatibilityMatrix {
    let k = gold.rows();
    let mut m = gold.add(&gold.transpose()).expect("same shape").scaled(0.5);
    for v in m.data_mut() {
        *v = v.max(1e-4);
    }
    for _ in 0..500 {
        m = m.row_normalized();
        m = m.transpose().row_normalized().transpose();
    }
    let sym = m.add(&m.transpose()).expect("same shape").scaled(0.5);
    CompatibilityMatrix::new(sym)
        .unwrap_or_else(|_| CompatibilityMatrix::uniform(k).expect("k > 0"))
}

/// Warm a shared estimation context to the largest summary any estimator in the set
/// requires (per counting mode), so the whole comparison summarizes the graph exactly
/// once per mode — shorter-prefix and other-variant requests then hit the cache.
/// Takes the estimators that will actually run, so the warmed prefix can never drift
/// from the measured set.
pub fn warm_context_for(
    ctx: &EstimationContext<'_>,
    estimators: &[Box<dyn CompatibilityEstimator>],
) -> Result<()> {
    // Index 0: plain paths, index 1: non-backtracking.
    let mut max_length = [0usize; 2];
    for estimator in estimators {
        if let Some(config) = estimator.summary_requirements() {
            let mode = usize::from(config.non_backtracking);
            max_length[mode] = max_length[mode].max(config.max_length);
        }
    }
    for (mode, &length) in max_length.iter().enumerate() {
        if length > 0 {
            ctx.warm(&SummaryConfig {
                max_length: length,
                non_backtracking: mode == 1,
                variant: NormalizationVariant::default(),
                ..SummaryConfig::default()
            })?;
        }
    }
    Ok(())
}

/// The number a sparsity sweep tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// End-to-end macro accuracy over the unlabeled nodes.
    Accuracy,
    /// L2 distance of the estimate from the gold standard.
    L2,
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// An accuracy-vs-label-sparsity sweep with LinBP (the paper's setting), as a table
/// with one row per fraction and one column per estimator (see [`estimator_set`])
/// holding the mean `metric` over the repetitions. Every estimator sees the same
/// stratified seed draws, and one cell group shares one summary (see
/// [`warm_context_for`]).
#[allow(clippy::too_many_arguments)]
pub fn sparsity_table(
    name: &str,
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    columns: &[&str],
    repetitions: usize,
    seed: u64,
    metric: Metric,
) -> Result<ExperimentTable> {
    let gold = measure_compatibilities(graph, labeling)?;
    let estimators = estimator_set(columns, labeling, &gold)?;
    let mut table = ExperimentTable::new(name, &format!("f,{}", columns.join(",")));
    for (fi, &fraction) in fractions.iter().enumerate() {
        let mut values = vec![Vec::new(); columns.len()];
        for rep in 0..repetitions.max(1) {
            let mut rng = StdRng::seed_from_u64(seed ^ ((fi as u64) << 32) ^ rep as u64);
            let seeds = labeling.stratified_sample(fraction, &mut rng);
            let ctx = EstimationContext::new(graph, &seeds);
            warm_context_for(&ctx, &estimators)?;
            for ((column, estimator), values) in columns.iter().zip(&estimators).zip(&mut values) {
                let report = Pipeline::on(graph)
                    .seeds(&seeds)
                    .context(&ctx)
                    .estimator(estimator)
                    .estimator_label(*column)
                    .propagator(LinBp::default())
                    .run()?;
                values.push(match metric {
                    Metric::Accuracy => report.accuracy(labeling, &seeds),
                    Metric::L2 => report.estimated_h.frobenius_distance(&gold)?,
                });
            }
        }
        let mut row = vec![format!("{fraction}")];
        row.extend(values.iter().map(|v| format!("{:.3}", mean(v))));
        table.push_row(row);
    }
    Ok(table)
}

/// A propagation-backend sweep: one row per fraction, one accuracy column per
/// backend (a `PROPAGATORS` name, headed by the backend's own name). Every backend
/// propagates the measured gold standard from the same seed draw, so the columns
/// differ by propagation alone (Fig. 6i). An unknown name fails before any work
/// runs.
pub fn backend_table(
    name: &str,
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    backends: &[&str],
    seed: u64,
) -> Result<ExperimentTable> {
    let defaults = PropagatorOptions::default();
    let build = |name: &&str| PROPAGATORS.build(name, &defaults);
    let backends = backends
        .iter()
        .map(build)
        .collect::<std::result::Result<Vec<_>, _>>();
    let backends = backends.map_err(CoreError::InvalidConfig)?;
    let gold = measure_compatibilities(graph, labeling)?;
    let names: Vec<String> = backends.iter().map(|b| b.name()).collect();
    let mut table = ExperimentTable::new(name, &format!("f,{}", names.join(",")));
    for (fi, &fraction) in fractions.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ ((fi as u64) << 32));
        let seeds = labeling.stratified_sample(fraction, &mut rng);
        let mut row = vec![format!("{fraction}")];
        for backend in &backends {
            let report = Pipeline::on(graph)
                .seeds(&seeds)
                .compatibilities("GS", &gold)
                .propagator(backend)
                .run()?;
            row.push(format!("{:.3}", report.accuracy(labeling, &seeds)));
        }
        table.push_row(row);
    }
    Ok(table)
}

/// A graph-construction sweep: one row per builder spec (a `BUILDERS` spec, named
/// by the builder) with the graph's nodes and edges, the `column` estimator's mean
/// LinBP accuracy at `fraction` over the repetitions (a one-fraction
/// [`sparsity_table`]) and the construction time. Every builder is scored on the
/// same seed draws, so accuracy differences come from the graph alone. An unknown
/// spec fails before any work runs.
#[allow(clippy::too_many_arguments)]
pub fn construction_table(
    name: &str,
    features: &DenseMatrix,
    labeling: &Labeling,
    specs: &[&str],
    column: &str,
    fraction: f64,
    repetitions: usize,
    seed: u64,
) -> Result<ExperimentTable> {
    let builders = specs
        .iter()
        .map(|spec| fg_datasets::construction_by_name(spec));
    let builders = builders.collect::<std::result::Result<Vec<_>, _>>();
    let builders = builders.map_err(CoreError::InvalidConfig)?;
    let header = "builder,nodes,edges,accuracy,construct_s";
    let mut table = ExperimentTable::new(name, header);
    for builder in builders {
        let (graph, construct_time) = time_it(|| builder.build(features));
        let graph = graph?;
        let (fractions, accuracy) = ([fraction], Metric::Accuracy);
        let t = sparsity_table(
            "",
            &graph,
            labeling,
            &fractions,
            &[column],
            repetitions,
            seed,
            accuracy,
        )?;
        table.push_row(vec![
            builder.name(),
            graph.num_nodes().to_string(),
            graph.num_edges().to_string(),
            t.rows[0][1].clone(),
            format!("{:.4}", construct_time.as_secs_f64()),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_combinations() {
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let syn = generate(&cfg, &mut rng).unwrap();
        let kinds = ["GS", "MCE", "DCEr"];
        for metric in [Metric::Accuracy, Metric::L2] {
            let (graph, labeling) = (&syn.graph, &syn.labeling);
            let table = sparsity_table("unit", graph, labeling, &[0.05, 0.2], &kinds, 1, 7, metric)
                .unwrap();
            assert_eq!(table.headers, vec!["f", "GS", "MCE", "DCEr"]);
            assert_eq!(table.rows.len(), 2);
            for kind in kinds {
                for v in table.column(kind) {
                    assert!(v >= 0.0 && (metric == Metric::L2 || v <= 1.0), "{v}");
                }
            }
        }
        // The gold standard is its own estimate: zero L2 error.
        let table = sparsity_table(
            "unit",
            &syn.graph,
            &syn.labeling,
            &[0.2],
            &kinds,
            1,
            7,
            Metric::L2,
        );
        assert_eq!(table.unwrap().get("0.2", "GS"), 0.0);
    }

    #[test]
    fn backend_sweep_covers_registry_backends() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let syn = generate(&cfg, &mut rng).unwrap();
        let (graph, labeling) = (&syn.graph, &syn.labeling);
        let backends = ["linbp", "harmonic", "rw"];
        let table = backend_table("unit", graph, labeling, &[0.1, 0.3], &backends, 11).unwrap();
        assert_eq!(table.headers, vec!["f", "LinBP", "Harmonic", "RandomWalk"]);
        assert_eq!(table.rows.len(), 2);
        for header in &table.headers[1..] {
            for v in table.column(header) {
                assert!((0.0..=1.0).contains(&v), "{header}: {v}");
            }
        }
        assert!(backend_table("unit", graph, labeling, &[0.1], &["nope"], 1).is_err());
    }

    #[test]
    fn cell_group_with_mce_dce_dcer_summarizes_exactly_once() {
        // Acceptance criterion: a sweep cell that evaluates MCE + DCE + DCEr on one
        // seeded graph calls summarize exactly once (counter on the shared cache).
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
        let gold = measure_compatibilities(&syn.graph, &syn.labeling).unwrap();
        let estimators = estimator_set(&["MCE", "DCE", "DCEr"], &syn.labeling, &gold).unwrap();

        let ctx = EstimationContext::new(&syn.graph, &seeds);
        warm_context_for(&ctx, &estimators).unwrap();
        for estimator in &estimators {
            // Context-served estimates must equal the standalone ones bit-for-bit.
            let cached = estimator.estimate_with_context(&ctx).unwrap();
            let fresh = estimator.estimate(&syn.graph, &seeds).unwrap();
            assert_eq!(cached.data(), fresh.data(), "{}", estimator.name());
        }
        assert_eq!(ctx.summary_computations(), 1);
    }

    #[test]
    fn construction_sweep_scores_builders_on_shared_seed_draws() {
        let config = fg_datasets::BlobConfig {
            nodes: 120,
            classes: 3,
            dims: 4,
            spread: 1.2,
            spread_skew: 1.0,
            seed: 5,
        };
        let (features, labeling) = fg_datasets::synthesize_blobs(&config).unwrap();
        let specs = ["Knn(k=6)", "Knn(k=6,weighting=heat)"];
        let sweep = |specs: &[&str]| {
            construction_table("unit", &features, &labeling, specs, "MCE", 0.1, 2, 9)
        };
        let table = sweep(&specs).unwrap();
        let header = ["builder", "nodes", "edges", "accuracy", "construct_s"];
        assert_eq!(table.headers, header);
        assert_eq!(table.rows.len(), specs.len());
        assert!(
            table.rows[0][0].starts_with("Knn(k=6,"),
            "{}",
            table.rows[0][0]
        );
        assert!(table
            .column("accuracy")
            .iter()
            .all(|v| (0.0..=1.0).contains(v)));
        assert!(table.column("edges").iter().all(|v| *v > 0.0));
        assert!(table.column("nodes").iter().all(|v| *v == 120.0));
        // Each builder's accuracy is a sparsity sweep of its graph on the shared draws.
        for (spec, row) in specs.iter().zip(&table.rows) {
            let graph = fg_datasets::construction_by_name(spec).unwrap();
            let graph = graph.build(&features).unwrap();
            let (mce, accuracy) = (["MCE"], Metric::Accuracy);
            let alone = sparsity_table("", &graph, &labeling, &[0.1], &mce, 2, 9, accuracy);
            assert_eq!(row[3], alone.unwrap().rows[0][1], "{spec}");
        }
        // Unknown builders fail before any work runs.
        assert!(sweep(&["Knn(k=6)", "nope"]).is_err());
    }

    #[test]
    fn estimator_kind_names() {
        // The standard columns are registry names, bar the gold standard.
        for name in &STANDARD_SET[1..] {
            let built = estimator(name).unwrap().name();
            assert!(built.starts_with(name), "{name} built {built}");
        }
        assert!(estimator("GS").is_err());
    }

    #[test]
    fn estimator_set_builds_all_kinds() {
        let labeling = Labeling::new(vec![0, 1, 2, 0, 1, 2], 3).unwrap();
        let gold = CompatibilityMatrix::h_skew(3, 3.0).unwrap().into_dense();
        let columns = [&STANDARD_SET[..], &["holdout(b=2)", "Heuristic"]].concat();
        let set = estimator_set(&columns, &labeling, &gold).unwrap();
        assert_eq!(set.len(), 7);
        assert_eq!(set[4].name(), "DCEr(r=10,l=5,lambda=10)");
        assert_eq!(set[5].name(), "Holdout(b=2)");
        assert_eq!(set[6].name(), "Heuristic");
        // A spec the registry refuses fails the set.
        assert!(estimator_set(&["dcer(r=0x)"], &labeling, &gold).is_err());
    }
}
