//! Reusable experiment sweeps: accuracy-vs-sparsity and L2-error-vs-sparsity curves over
//! a configurable set of estimators, plus propagation-backend comparisons. These back
//! most of the figure binaries (Fig. 3a, 6e, 6i, 6j, 7a–h, 12, 14).
//!
//! All sweeps drive the estimation + propagation stages through `fg_core::Pipeline`,
//! so any estimator × propagator combination can be measured; the propagation backend
//! defaults to LinBP (the paper's setting) and can be swapped per sweep.
//!
//! Estimator cells that share a seeded graph also share one `EstimationContext`: the
//! context is warmed to the largest summary any estimator in the set needs, so the
//! `O(m·k·ℓmax)` summarization runs exactly once per (fraction, repetition) cell group
//! no matter how many estimators are compared (the paper's "estimation is cheap
//! preprocessing" claim, applied to the whole sweep).

use crate::harness::ExperimentTable;
use fg_core::prelude::*;
use fg_core::Result;
use fg_graph::{CompatibilityMatrix, FactorConfig};
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use fg_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// The estimator families compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Gold standard: measured from the fully labeled graph.
    GoldStandard,
    /// Linear compatibility estimation (Eq. 8).
    Lce,
    /// Myopic compatibility estimation (Eq. 12).
    Mce,
    /// Distant compatibility estimation, single start (Eq. 13/14).
    Dce,
    /// DCE with restarts (Section 4.8).
    Dcer,
    /// The Holdout baseline (Eq. 7).
    Holdout,
    /// Two-value heuristic (Appendix E.1).
    Heuristic,
}

impl EstimatorKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::GoldStandard => "GS",
            EstimatorKind::Lce => "LCE",
            EstimatorKind::Mce => "MCE",
            EstimatorKind::Dce => "DCE",
            EstimatorKind::Dcer => "DCEr",
            EstimatorKind::Holdout => "Holdout",
            EstimatorKind::Heuristic => "Heuristic",
        }
    }

    /// The default comparison set used in the accuracy figures (Holdout excluded because
    /// it is orders of magnitude slower; add it explicitly where the paper does).
    pub fn standard_set() -> Vec<EstimatorKind> {
        vec![
            EstimatorKind::GoldStandard,
            EstimatorKind::Lce,
            EstimatorKind::Mce,
            EstimatorKind::Dce,
            EstimatorKind::Dcer,
        ]
    }
}

/// Build a concrete estimator for a kind, given the ground-truth labeling (needed only
/// by the GS and Heuristic baselines).
pub fn estimator_set(
    kinds: &[EstimatorKind],
    labeling: &Labeling,
    gold: &DenseMatrix,
) -> Vec<(EstimatorKind, Box<dyn CompatibilityEstimator>)> {
    kinds
        .iter()
        .map(|&kind| {
            let est: Box<dyn CompatibilityEstimator> = match kind {
                EstimatorKind::GoldStandard => Box::new(GoldStandard::new(labeling.clone())),
                EstimatorKind::Lce => Box::new(LinearCompatibilityEstimation::default()),
                EstimatorKind::Mce => Box::new(MyopicCompatibilityEstimation::default()),
                EstimatorKind::Dce => Box::new(DistantCompatibilityEstimation::default()),
                EstimatorKind::Dcer => Box::new(DceWithRestarts::default()),
                EstimatorKind::Holdout => Box::new(HoldoutEstimation::default()),
                EstimatorKind::Heuristic => {
                    // The measured gold standard is row-stochastic but (under class
                    // imbalance) not exactly doubly stochastic; project it onto the
                    // doubly-stochastic polytope (clamping away negatives) so the
                    // heuristic sees the same high/low structure the paper assumes.
                    let gold_matrix = project_gold_for_heuristic(gold);
                    Box::new(
                        TwoValueHeuristic::new(gold_matrix, 0.5).expect("0.5 is a valid spread"),
                    )
                }
            };
            (kind, est)
        })
        .collect()
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
pub fn warm_context_for<'e, I>(ctx: &EstimationContext<'_>, estimators: I) -> Result<()>
where
    I: IntoIterator<Item = &'e (dyn CompatibilityEstimator + 'e)>,
{
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

/// One measured point of an estimator sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Label fraction `f`.
    pub fraction: f64,
    /// Estimator name (owned, so sweeps can attach parameterized labels).
    pub estimator: String,
    /// Propagation backend used for the end-to-end accuracy.
    pub propagator: String,
    /// End-to-end macro accuracy over the unlabeled nodes.
    pub accuracy: f64,
    /// L2 distance of the estimate from the gold standard; `None` when the
    /// propagation backend ignores `H` and the estimation stage was skipped.
    pub l2_error: Option<f64>,
    /// Wall-clock time of the estimation step.
    pub estimation_time: Duration,
}

/// Run an accuracy-vs-label-sparsity sweep with LinBP (the paper's setting): for every
/// fraction and estimator, sample a stratified seed set, estimate `H`, propagate, and
/// record accuracy, L2 error and estimation time.
pub fn accuracy_vs_sparsity(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    kinds: &[EstimatorKind],
    repetitions: usize,
    seed: u64,
) -> Result<Vec<SweepOutcome>> {
    accuracy_vs_sparsity_with(
        graph,
        labeling,
        fractions,
        kinds,
        &LinBp::default(),
        repetitions,
        seed,
    )
}

/// [`accuracy_vs_sparsity`] with an explicit propagation backend, so figure binaries
/// can sweep estimators under any `Propagator` implementation.
pub fn accuracy_vs_sparsity_with(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    kinds: &[EstimatorKind],
    propagator: &dyn Propagator,
    repetitions: usize,
    seed: u64,
) -> Result<Vec<SweepOutcome>> {
    accuracy_vs_sparsity_stored(
        graph,
        labeling,
        fractions,
        kinds,
        propagator,
        repetitions,
        seed,
        None,
    )
}

/// [`accuracy_vs_sparsity_with`] backed by a persistent [`SummaryStore`]: every
/// `(fraction, repetition)` cell group's context uses the store as a
/// read-through / write-back tier, so a re-run of the same sweep (same graph, same
/// `seed` — the per-cell seed sets are derived deterministically from it) answers
/// every summarization from disk. Outcomes are bit-identical with or without a
/// store.
#[allow(clippy::too_many_arguments)]
pub fn accuracy_vs_sparsity_stored(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    kinds: &[EstimatorKind],
    propagator: &dyn Propagator,
    repetitions: usize,
    seed: u64,
    store: Option<&Arc<SummaryStore>>,
) -> Result<Vec<SweepOutcome>> {
    let gold = measure_compatibilities(graph, labeling)?;
    let estimators = estimator_set(kinds, labeling, &gold);
    let mut outcomes = Vec::new();
    for (fi, &fraction) in fractions.iter().enumerate() {
        for rep in 0..repetitions.max(1) {
            let mut rng = StdRng::seed_from_u64(seed ^ ((fi as u64) << 32) ^ rep as u64);
            let seeds = labeling.stratified_sample(fraction, &mut rng);
            // All estimators in this cell group share one cached graph summary
            // (unless the backend ignores H, in which case estimation is skipped
            // entirely and warming would be wasted work).
            let mut ctx = EstimationContext::new(graph, &seeds);
            if let Some(store) = store {
                ctx = ctx.store(Arc::clone(store));
            }
            if propagator.uses_compatibilities() {
                warm_context_for(&ctx, estimators.iter().map(|(_, e)| e.as_ref()))?;
            }
            for (kind, estimator) in &estimators {
                let report = Pipeline::on(graph)
                    .seeds(&seeds)
                    .context(&ctx)
                    .estimator(estimator)
                    .estimator_label(kind.name())
                    .propagator(propagator)
                    .run()?;
                // When the backend ignores H the pipeline skips estimation and the
                // consumed matrix is a uniform placeholder — there is no estimator
                // L2 error to report.
                let l2_error = if propagator.uses_compatibilities() {
                    Some(report.estimated_h.frobenius_distance(&gold)?)
                } else {
                    None
                };
                outcomes.push(SweepOutcome {
                    fraction,
                    accuracy: report.accuracy(labeling, &seeds),
                    l2_error,
                    estimation_time: report.estimation_time,
                    estimator: report.estimator,
                    propagator: report.propagator,
                });
            }
        }
    }
    Ok(outcomes)
}

/// Distribute independent sweep cells across `threads` scoped worker threads via
/// the shared atomic work queue of
/// [`fg_sparse::run_ordered_cells`], reassembling the
/// per-cell results in their original order. Each cell is re-derived from its index
/// alone (seeded RNGs are rebuilt per cell), so the output is identical to the
/// serial loop regardless of which worker picks up which cell.
pub fn run_cells_parallel<T, F>(cell_count: usize, threads: Threads, run_cell: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    fg_sparse::run_ordered_cells(cell_count, threads, run_cell)
}

/// [`accuracy_vs_sparsity_with`] distributing the independent (fraction × repetition)
/// cell groups across worker threads. Each group runs its whole estimator comparison
/// against one shared [`EstimationContext`] — the same summary-sharing the serial
/// sweep does — and every group reseeds its RNG from its own indices, exactly as the
/// serial loop does, so the returned outcomes are identical to the serial ones (in
/// the same order); only the wall-clock timing fields can differ.
#[allow(clippy::too_many_arguments)]
pub fn accuracy_vs_sparsity_parallel(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    kinds: &[EstimatorKind],
    propagator: &(dyn Propagator + Sync),
    repetitions: usize,
    seed: u64,
    threads: Threads,
) -> Result<Vec<SweepOutcome>> {
    accuracy_vs_sparsity_parallel_stored(
        graph,
        labeling,
        fractions,
        kinds,
        propagator,
        repetitions,
        seed,
        threads,
        None,
    )
}

/// [`accuracy_vs_sparsity_parallel`] backed by a persistent [`SummaryStore`]
/// (the parallel counterpart of [`accuracy_vs_sparsity_stored`]): each worker's cell
/// group reads and writes the shared store, so a repeated sweep over the same
/// `(graph, seeds)` cells is served from disk no matter which worker owned the cell
/// on the previous run. Outcomes stay identical to the serial, store-less sweep.
#[allow(clippy::too_many_arguments)]
pub fn accuracy_vs_sparsity_parallel_stored(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    kinds: &[EstimatorKind],
    propagator: &(dyn Propagator + Sync),
    repetitions: usize,
    seed: u64,
    threads: Threads,
    store: Option<&Arc<SummaryStore>>,
) -> Result<Vec<SweepOutcome>> {
    if threads.count() <= 1 {
        return accuracy_vs_sparsity_stored(
            graph,
            labeling,
            fractions,
            kinds,
            propagator,
            repetitions,
            seed,
            store,
        );
    }
    let gold = measure_compatibilities(graph, labeling)?;
    let reps = repetitions.max(1);
    // Group layout mirrors the serial loop nesting: fraction, then repetition; the
    // estimators of one group run together so they can share a summary.
    let mut groups = Vec::with_capacity(fractions.len() * reps);
    for fi in 0..fractions.len() {
        for rep in 0..reps {
            groups.push((fi, rep));
        }
    }
    let per_group: Vec<Vec<SweepOutcome>> = run_cells_parallel(groups.len(), threads, |cell| {
        let (fi, rep) = groups[cell];
        let fraction = fractions[fi];
        let mut rng = StdRng::seed_from_u64(seed ^ ((fi as u64) << 32) ^ rep as u64);
        let seeds = labeling.stratified_sample(fraction, &mut rng);
        let estimators = estimator_set(kinds, labeling, &gold);
        let mut ctx = EstimationContext::new(graph, &seeds);
        if let Some(store) = store {
            ctx = ctx.store(Arc::clone(store));
        }
        if propagator.uses_compatibilities() {
            warm_context_for(&ctx, estimators.iter().map(|(_, e)| e.as_ref()))?;
        }
        let mut outcomes = Vec::with_capacity(estimators.len());
        for (kind, estimator) in &estimators {
            let report = Pipeline::on(graph)
                .seeds(&seeds)
                .context(&ctx)
                .estimator(estimator)
                .estimator_label(kind.name())
                .propagator(propagator)
                .run()?;
            let l2_error = if propagator.uses_compatibilities() {
                Some(report.estimated_h.frobenius_distance(&gold)?)
            } else {
                None
            };
            outcomes.push(SweepOutcome {
                fraction,
                accuracy: report.accuracy(labeling, &seeds),
                l2_error,
                estimation_time: report.estimation_time,
                estimator: report.estimator,
                propagator: report.propagator,
            });
        }
        Ok(outcomes)
    })?;
    Ok(per_group.into_iter().flatten().collect())
}

/// Convenience wrapper returning only L2 errors (the Fig. 6e / Fig. 14 metric).
pub fn l2_vs_sparsity(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    kinds: &[EstimatorKind],
    repetitions: usize,
    seed: u64,
) -> Result<Vec<SweepOutcome>> {
    accuracy_vs_sparsity(graph, labeling, fractions, kinds, repetitions, seed)
}

/// One measured point of a graph-construction sweep.
#[derive(Debug, Clone)]
pub struct ConstructionOutcome {
    /// Rendered builder name (round-trips through the construction registry).
    pub builder: String,
    /// Nodes of the constructed graph.
    pub nodes: usize,
    /// Undirected edges of the constructed graph.
    pub edges: usize,
    /// End-to-end macro accuracy over the unlabeled nodes.
    pub accuracy: f64,
    /// Wall-clock time of the graph construction (shared by every repetition of
    /// one builder — the graph is built once and reused).
    pub construction_time: Duration,
}

/// Compare graph-construction backends on one labeled feature matrix: every spec is
/// resolved through the `fg_datasets` construction registry, builds a graph from
/// `features` once, and the constructed graph is classified end-to-end (stratified
/// seed sample → estimator → LinBP) `repetitions` times. The seed draws are derived
/// from the repetition index alone, so every builder is scored against the *same*
/// seed sets — the comparison is paired, and accuracy differences come from the
/// graph alone.
pub fn accuracy_vs_construction(
    features: &DenseMatrix,
    labeling: &Labeling,
    specs: &[&str],
    kind: EstimatorKind,
    fraction: f64,
    repetitions: usize,
    seed: u64,
) -> Result<Vec<ConstructionOutcome>> {
    let mut outcomes = Vec::new();
    for spec in specs {
        let builder =
            fg_datasets::construction_by_name(spec).map_err(fg_core::CoreError::InvalidConfig)?;
        let (graph, construction_time) = {
            let start = std::time::Instant::now();
            let graph = builder.build(features)?;
            (graph, start.elapsed())
        };
        let gold = measure_compatibilities(&graph, labeling)?;
        let estimators = estimator_set(&[kind], labeling, &gold);
        let (kind, estimator) = &estimators[0];
        for rep in 0..repetitions.max(1) {
            let mut rng = StdRng::seed_from_u64(seed ^ rep as u64);
            let seeds = labeling.stratified_sample(fraction, &mut rng);
            let report = Pipeline::on(&graph)
                .seeds(&seeds)
                .estimator(estimator)
                .estimator_label(kind.name())
                .propagator(LinBp::default())
                .run()?;
            outcomes.push(ConstructionOutcome {
                builder: builder.name(),
                nodes: graph.num_nodes(),
                edges: graph.num_edges(),
                accuracy: report.accuracy(labeling, &seeds),
                construction_time,
            });
        }
    }
    Ok(outcomes)
}

/// Aggregate construction-sweep outcomes into a table: one row per builder (in
/// first-appearance order), averaging accuracy over repetitions.
pub fn construction_to_table(name: &str, outcomes: &[ConstructionOutcome]) -> ExperimentTable {
    let mut builders: Vec<&str> = Vec::new();
    for o in outcomes {
        if !builders.contains(&o.builder.as_str()) {
            builders.push(&o.builder);
        }
    }
    let mut table = ExperimentTable::new(
        name,
        &["builder", "nodes", "edges", "accuracy", "construct_s"],
    );
    for builder in builders {
        let matching: Vec<&ConstructionOutcome> =
            outcomes.iter().filter(|o| o.builder == builder).collect();
        let mean = matching.iter().map(|o| o.accuracy).sum::<f64>() / matching.len() as f64;
        let first = matching[0];
        table.push_row(vec![
            builder.to_string(),
            first.nodes.to_string(),
            first.edges.to_string(),
            format!("{mean:.3}"),
            format!("{:.4}", first.construction_time.as_secs_f64()),
        ]);
    }
    table
}

/// One measured point of a propagation-backend sweep.
#[derive(Debug, Clone)]
pub struct BackendOutcome {
    /// Label fraction `f`.
    pub fraction: f64,
    /// Propagation backend name.
    pub propagator: String,
    /// Macro accuracy over the unlabeled nodes.
    pub accuracy: f64,
    /// Iterations the backend executed.
    pub iterations: usize,
    /// Whether the backend converged before its iteration budget.
    pub converged: bool,
    /// Wall-clock time of the propagation step.
    pub propagation_time: Duration,
}

/// Compare propagation backends (looked up by registry name) at several label
/// fractions, holding the compatibility input fixed at the measured gold standard —
/// isolating propagation quality from estimation quality, as in Fig. 6i.
pub fn accuracy_vs_backend(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    backends: &[&str],
    repetitions: usize,
    seed: u64,
) -> Result<Vec<BackendOutcome>> {
    let gold = measure_compatibilities(graph, labeling)?;
    // Resolve every backend up front so a typo'd name fails before any work runs.
    let resolved: Vec<_> = backends
        .iter()
        .map(|name| {
            PROPAGATORS
                .build(name, &PropagatorOptions::default())
                .map_err(fg_core::CoreError::InvalidConfig)
        })
        .collect::<Result<_>>()?;
    let mut outcomes = Vec::new();
    for (fi, &fraction) in fractions.iter().enumerate() {
        for rep in 0..repetitions.max(1) {
            let mut rng = StdRng::seed_from_u64(seed ^ ((fi as u64) << 32) ^ rep as u64);
            let seeds = labeling.stratified_sample(fraction, &mut rng);
            for propagator in &resolved {
                let report = Pipeline::on(graph)
                    .seeds(&seeds)
                    .compatibilities("GS", &gold)
                    .propagator(propagator)
                    .run()?;
                outcomes.push(BackendOutcome {
                    fraction,
                    accuracy: report.accuracy(labeling, &seeds),
                    iterations: report.outcome.iterations,
                    converged: report.outcome.converged,
                    propagation_time: report.propagation_time,
                    propagator: report.propagator,
                });
            }
        }
    }
    Ok(outcomes)
}

/// [`accuracy_vs_backend`] distributing the independent (fraction × repetition ×
/// backend) sweep cells across worker threads. Identical outcomes to the serial
/// sweep, in the same order; only the wall-clock timing fields can differ.
pub fn accuracy_vs_backend_parallel(
    graph: &Graph,
    labeling: &Labeling,
    fractions: &[f64],
    backends: &[&str],
    repetitions: usize,
    seed: u64,
    threads: Threads,
) -> Result<Vec<BackendOutcome>> {
    if threads.count() <= 1 {
        return accuracy_vs_backend(graph, labeling, fractions, backends, repetitions, seed);
    }
    // Resolve every backend name up front so a typo fails before any work runs.
    for name in backends {
        PROPAGATORS
            .entry(name)
            .map_err(fg_core::CoreError::InvalidConfig)?;
    }
    let gold = measure_compatibilities(graph, labeling)?;
    let reps = repetitions.max(1);
    let mut cells = Vec::with_capacity(fractions.len() * reps * backends.len());
    for fi in 0..fractions.len() {
        for rep in 0..reps {
            for &backend in backends {
                cells.push((fi, rep, backend));
            }
        }
    }
    run_cells_parallel(cells.len(), threads, |cell| {
        let (fi, rep, backend) = cells[cell];
        let fraction = fractions[fi];
        let mut rng = StdRng::seed_from_u64(seed ^ ((fi as u64) << 32) ^ rep as u64);
        let seeds = labeling.stratified_sample(fraction, &mut rng);
        let propagator = PROPAGATORS
            .build(backend, &PropagatorOptions::default())
            .expect("backend names pre-validated");
        let report = Pipeline::on(graph)
            .seeds(&seeds)
            .compatibilities("GS", &gold)
            .propagator(propagator)
            .run()?;
        Ok(BackendOutcome {
            fraction,
            accuracy: report.accuracy(labeling, &seeds),
            iterations: report.outcome.iterations,
            converged: report.outcome.converged,
            propagation_time: report.propagation_time,
            propagator: report.propagator,
        })
    })
}

/// Aggregate backend-sweep outcomes into a table: one row per fraction, one accuracy
/// column per backend, averaging over repetitions.
pub fn backends_to_table(
    name: &str,
    outcomes: &[BackendOutcome],
    backends: &[&str],
) -> ExperimentTable {
    let mut fractions: Vec<f64> = outcomes.iter().map(|o| o.fraction).collect();
    fractions.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fractions.dedup();
    let display_names: Vec<String> = backends
        .iter()
        .map(|b| {
            PROPAGATORS
                .build(b, &PropagatorOptions::default())
                .map_or_else(|_| b.to_string(), |p| p.name())
        })
        .collect();
    let mut headers = vec!["f".to_string()];
    headers.extend(display_names.iter().cloned());
    let mut table = ExperimentTable {
        name: name.to_string(),
        headers,
        rows: Vec::new(),
    };
    for &f in &fractions {
        let mut row = vec![format!("{f}")];
        for display in &display_names {
            let values: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.fraction == f && &o.propagator == display)
                .map(|o| o.accuracy)
                .collect();
            let mean = if values.is_empty() {
                f64::NAN
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            row.push(format!("{mean:.3}"));
        }
        table.push_row(row);
    }
    table
}

/// Aggregate sweep outcomes into a table: one row per fraction, one column per
/// estimator, averaging over repetitions. `metric` selects accuracy or L2 error.
pub fn outcomes_to_table(
    name: &str,
    outcomes: &[SweepOutcome],
    kinds: &[EstimatorKind],
    metric: fn(&SweepOutcome) -> f64,
) -> ExperimentTable {
    let mut fractions: Vec<f64> = outcomes.iter().map(|o| o.fraction).collect();
    fractions.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fractions.dedup();
    let mut headers = vec!["f".to_string()];
    headers.extend(kinds.iter().map(|k| k.name().to_string()));
    let mut table = ExperimentTable {
        name: name.to_string(),
        headers,
        rows: Vec::new(),
    };
    for &f in &fractions {
        let mut row = vec![format!("{f}")];
        for kind in kinds {
            let values: Vec<f64> = outcomes
                .iter()
                // Sweeps with a compatibility-free backend record the estimator as
                // e.g. "MCE (skipped)"; strip the notice so those rows still land
                // in the right column.
                .filter(|o| {
                    let label = o
                        .estimator
                        .strip_suffix(" (skipped)")
                        .unwrap_or(&o.estimator);
                    o.fraction == f && label == kind.name()
                })
                .map(metric)
                .collect();
            let mean = if values.is_empty() {
                f64::NAN
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            row.push(format!("{mean:.3}"));
        }
        table.push_row(row);
    }
    table
}

/// One measured point of a counting-rank sweep (`rank == None` is the exact
/// backend baseline every low-rank row is compared against).
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// Spectral rank of the counting backend; `None` for exact counting.
    pub rank: Option<usize>,
    /// Macro accuracy over the unlabeled nodes after LinBP propagation.
    pub accuracy: f64,
    /// Element-wise L2 distance between the estimated `H` and the exact-backend
    /// estimate (0 for the baseline row by construction).
    pub h_l2_vs_exact: f64,
    /// Wall-clock time of the summarization stage (includes the one-time
    /// eigensolve for low-rank rows on a cold cache).
    pub summarize_time: Duration,
}

/// Compare DCE under the exact counting backend against the low-rank spectral
/// backend at each requested rank, on one seeded graph. Every cell runs the
/// full estimate-then-propagate pipeline, so the sweep measures the end-to-end
/// accuracy cost of rank truncation — the empirical side of the
/// `accuracy_vs_rank` acceptance gate (some `r ≤ 64` within a couple of points
/// of exact).
pub fn accuracy_vs_rank(
    graph: &Graph,
    labeling: &Labeling,
    fraction: f64,
    ranks: &[usize],
    seed: u64,
) -> Result<Vec<RankOutcome>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let seeds = labeling.stratified_sample(fraction, &mut rng);
    let mut outcomes = Vec::with_capacity(ranks.len() + 1);
    let mut exact_h: Option<DenseMatrix> = None;
    for rank in std::iter::once(None).chain(ranks.iter().copied().map(Some)) {
        let mut config = DceConfig::default();
        if let Some(r) = rank {
            config.backend = CountingBackend::LowRank(FactorConfig::with_rank(r));
        }
        let report = Pipeline::on(graph)
            .seeds(&seeds)
            .estimator(DistantCompatibilityEstimation::new(config))
            .propagator(LinBp::default())
            .run()?;
        let h_l2_vs_exact = match &exact_h {
            None => {
                exact_h = Some(report.estimated_h.clone());
                0.0
            }
            Some(h) => report.l2_from(h)?,
        };
        outcomes.push(RankOutcome {
            rank,
            accuracy: report.accuracy(labeling, &seeds),
            h_l2_vs_exact,
            summarize_time: report.summarize_time,
        });
    }
    Ok(outcomes)
}

/// Aggregate rank-sweep outcomes into a table: one row per backend, exact first.
pub fn ranks_to_table(name: &str, outcomes: &[RankOutcome]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        name,
        &["backend", "accuracy", "h_l2_vs_exact", "summarize_s"],
    );
    for o in outcomes {
        table.push_row(vec![
            match o.rank {
                None => "exact".to_string(),
                Some(r) => format!("rank={r}"),
            },
            format!("{:.3}", o.accuracy),
            format!("{:.4}", o.h_l2_vs_exact),
            format!("{:.4}", o.summarize_time.as_secs_f64()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_combinations() {
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let syn = generate(&cfg, &mut rng).unwrap();
        let kinds = [
            EstimatorKind::GoldStandard,
            EstimatorKind::Mce,
            EstimatorKind::Dcer,
        ];
        let outcomes =
            accuracy_vs_sparsity(&syn.graph, &syn.labeling, &[0.05, 0.2], &kinds, 1, 7).unwrap();
        assert_eq!(outcomes.len(), 2 * kinds.len());
        for o in &outcomes {
            assert!(o.accuracy >= 0.0 && o.accuracy <= 1.0);
            assert!(o.l2_error.unwrap() >= 0.0);
            assert_eq!(o.propagator, "LinBP");
        }
        let table = outcomes_to_table("unit_sweep", &outcomes, &kinds, |o| o.accuracy);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.headers.len(), 1 + kinds.len());
    }

    #[test]
    fn sweep_accepts_any_propagation_backend() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let syn = generate(&cfg, &mut rng).unwrap();
        let kinds = [EstimatorKind::Mce];
        let outcomes = accuracy_vs_sparsity_with(
            &syn.graph,
            &syn.labeling,
            &[0.2],
            &kinds,
            &RandomWalk::default(),
            1,
            5,
        )
        .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].propagator, "RandomWalk");
        // The estimation stage is skipped for a compatibility-free backend: the
        // label records it and there is no estimator L2 error.
        assert_eq!(outcomes[0].estimator, "MCE (skipped)");
        assert!(outcomes[0].l2_error.is_none());
        // The "(skipped)" notice must not knock the row out of its table column.
        let table = outcomes_to_table("unit_skip", &outcomes, &kinds, |o| o.accuracy);
        assert_ne!(table.rows[0][1], "NaN");
    }

    #[test]
    fn backend_sweep_covers_registry_backends() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let syn = generate(&cfg, &mut rng).unwrap();
        let backends = ["linbp", "harmonic", "rw"];
        let outcomes =
            accuracy_vs_backend(&syn.graph, &syn.labeling, &[0.1, 0.3], &backends, 1, 11).unwrap();
        assert_eq!(outcomes.len(), 2 * backends.len());
        for o in &outcomes {
            assert!(o.iterations >= 1);
            assert!((0.0..=1.0).contains(&o.accuracy));
        }
        let table = backends_to_table("unit_backends", &outcomes, &backends);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.headers, vec!["f", "LinBP", "Harmonic", "RandomWalk"]);
        assert!(accuracy_vs_backend(&syn.graph, &syn.labeling, &[0.1], &["nope"], 1, 1).is_err());
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let syn = generate(&cfg, &mut rng).unwrap();
        let kinds = [EstimatorKind::GoldStandard, EstimatorKind::Mce];
        let fractions = [0.05, 0.2];
        let serial =
            accuracy_vs_sparsity(&syn.graph, &syn.labeling, &fractions, &kinds, 2, 13).unwrap();
        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(4)] {
            let parallel = accuracy_vs_sparsity_parallel(
                &syn.graph,
                &syn.labeling,
                &fractions,
                &kinds,
                &LinBp::default(),
                2,
                13,
                threads,
            )
            .unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.fraction, p.fraction, "{threads:?}");
                assert_eq!(s.estimator, p.estimator, "{threads:?}");
                assert_eq!(s.propagator, p.propagator, "{threads:?}");
                assert_eq!(s.accuracy, p.accuracy, "{threads:?}");
                assert_eq!(s.l2_error, p.l2_error, "{threads:?}");
            }
        }
    }

    #[test]
    fn parallel_backend_sweep_matches_serial_exactly() {
        let cfg = GeneratorConfig::balanced(250, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let syn = generate(&cfg, &mut rng).unwrap();
        let backends = ["linbp", "harmonic", "rw"];
        let serial =
            accuracy_vs_backend(&syn.graph, &syn.labeling, &[0.1, 0.3], &backends, 2, 31).unwrap();
        let parallel = accuracy_vs_backend_parallel(
            &syn.graph,
            &syn.labeling,
            &[0.1, 0.3],
            &backends,
            2,
            31,
            Threads::Fixed(4),
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.fraction, p.fraction);
            assert_eq!(s.propagator, p.propagator);
            assert_eq!(s.accuracy, p.accuracy);
            assert_eq!(s.iterations, p.iterations);
            assert_eq!(s.converged, p.converged);
        }
        // Unknown backends fail up front, before any worker runs.
        assert!(accuracy_vs_backend_parallel(
            &syn.graph,
            &syn.labeling,
            &[0.1],
            &["nope"],
            1,
            1,
            Threads::Fixed(2)
        )
        .is_err());
    }

    #[test]
    fn stored_sweep_is_identical_and_second_run_hits_disk() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let syn = generate(&cfg, &mut rng).unwrap();
        let kinds = [EstimatorKind::Mce, EstimatorKind::Dcer];
        let fractions = [0.05, 0.2];
        let dir = std::env::temp_dir().join("fg_sweep_store");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SummaryStore::open(&dir).unwrap());

        let plain =
            accuracy_vs_sparsity(&syn.graph, &syn.labeling, &fractions, &kinds, 1, 17).unwrap();
        for threads in [Threads::Serial, Threads::Fixed(2)] {
            let stored = accuracy_vs_sparsity_parallel_stored(
                &syn.graph,
                &syn.labeling,
                &fractions,
                &kinds,
                &LinBp::default(),
                1,
                17,
                threads,
                Some(&store),
            )
            .unwrap();
            // Persisting summaries never changes a sweep outcome.
            assert_eq!(plain.len(), stored.len());
            for (p, s) in plain.iter().zip(&stored) {
                assert_eq!(p.estimator, s.estimator, "{threads:?}");
                assert_eq!(p.accuracy, s.accuracy, "{threads:?}");
                assert_eq!(p.l2_error, s.l2_error, "{threads:?}");
            }
        }
        // One summary per (fraction, repetition) cell group, plus one persisted
        // H estimate per content-addressable estimator in each group.
        let entries = store.entries().unwrap();
        let count_suffix =
            |suffix: &str| entries.iter().filter(|e| e.file.ends_with(suffix)).count();
        assert_eq!(count_suffix(".fgsum"), fractions.len());
        assert_eq!(count_suffix(".fgh"), fractions.len() * kinds.len());
        // A repeated sweep cell is served from disk: rebuilding one cell's context
        // against the store answers its warm-up without any computation.
        // The first cell's RNG seed: sweep seed 17, fraction index 0, repetition 0.
        let mut rng = StdRng::seed_from_u64(17);
        let seeds = syn.labeling.stratified_sample(fractions[0], &mut rng);
        let ctx = EstimationContext::new(&syn.graph, &seeds).store(Arc::clone(&store));
        ctx.warm(&SummaryConfig::with_max_length(5)).unwrap();
        assert_eq!(ctx.summary_computations(), 0);
        assert_eq!(ctx.store_hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
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
        let kinds = [EstimatorKind::Mce, EstimatorKind::Dce, EstimatorKind::Dcer];
        let estimators = estimator_set(&kinds, &syn.labeling, &gold);

        let ctx = EstimationContext::new(&syn.graph, &seeds);
        warm_context_for(&ctx, estimators.iter().map(|(_, e)| e.as_ref())).unwrap();
        for (_, estimator) in &estimators {
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
        let outcomes =
            accuracy_vs_construction(&features, &labeling, &specs, EstimatorKind::Mce, 0.1, 2, 9)
                .unwrap();
        assert_eq!(outcomes.len(), specs.len() * 2);
        for o in &outcomes {
            assert!((0.0..=1.0).contains(&o.accuracy));
            assert!(o.edges > 0);
            assert_eq!(o.nodes, 120);
        }
        let table = construction_to_table("unit_construction", &outcomes);
        assert_eq!(table.rows.len(), specs.len());
        assert!(table.rows[0][0].starts_with("Knn(k=6,"));
        // Unknown builders fail before any work runs.
        assert!(accuracy_vs_construction(
            &features,
            &labeling,
            &["nope"],
            EstimatorKind::Mce,
            0.1,
            1,
            1
        )
        .is_err());
    }

    #[test]
    fn estimator_kind_names() {
        assert_eq!(EstimatorKind::Dcer.name(), "DCEr");
        assert_eq!(EstimatorKind::standard_set().len(), 5);
    }

    #[test]
    fn estimator_set_builds_all_kinds() {
        let labeling = Labeling::new(vec![0, 1, 2, 0, 1, 2], 3).unwrap();
        let gold = CompatibilityMatrix::h_skew(3, 3.0).unwrap().into_dense();
        let kinds = [
            EstimatorKind::GoldStandard,
            EstimatorKind::Lce,
            EstimatorKind::Mce,
            EstimatorKind::Dce,
            EstimatorKind::Dcer,
            EstimatorKind::Holdout,
            EstimatorKind::Heuristic,
        ];
        let set = estimator_set(&kinds, &labeling, &gold);
        assert_eq!(set.len(), 7);
        assert_eq!(set[6].1.name(), "Heuristic");
    }

    #[test]
    fn rank_sweep_compares_backends_against_the_exact_baseline() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let synthetic = generate(&cfg, &mut rng).unwrap();
        let outcomes =
            accuracy_vs_rank(&synthetic.graph, &synthetic.labeling, 0.2, &[8, 16], 11).unwrap();
        assert_eq!(outcomes.len(), 3);
        // The baseline row is the exact backend and anchors the L2 column.
        assert_eq!(outcomes[0].rank, None);
        assert_eq!(outcomes[0].h_l2_vs_exact, 0.0);
        for o in &outcomes {
            assert!((0.0..=1.0).contains(&o.accuracy), "accuracy out of range");
            assert!(o.h_l2_vs_exact.is_finite());
        }
        let table = ranks_to_table("unit_ranks", &outcomes);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.rows[0][0], "exact");
        assert_eq!(table.rows[2][0], "rank=16");
    }
}
