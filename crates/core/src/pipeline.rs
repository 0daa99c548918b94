//! End-to-end estimation + propagation pipeline.
//!
//! The paper's headline workflow (Problem 1.2): given a sparsely labeled graph with
//! unknown compatibilities, first *estimate* `H` (a cheap preprocessing step), then
//! *propagate* the seed labels using the estimate. The [`Pipeline`] builder wires any
//! [`CompatibilityEstimator`] to any [`Propagator`] backend:
//!
//! ```text
//! Pipeline::on(&graph)
//!     .seeds(&seeds)
//!     .estimator(DceWithRestarts::default())
//!     .propagator(LinBp::default())      // or LoopyBp / Harmonic / RandomWalk
//!     .run()?
//! ```
//!
//! The result is a [`PipelineReport`] with per-stage wall-clock timings, the
//! propagation outcome (iterations, convergence, `ε`), and accuracy hooks — the
//! numbers reported in the paper's scalability experiments.

use crate::context::{Estimate, EstimationContext};
use crate::error::{CoreError, Result};
use crate::estimators::CompatibilityEstimator;
use crate::store::SummaryStore;
use fg_graph::{Graph, Labeling, SeedLabels};
use fg_obs::{Span, Trace};
use fg_propagation::{LinBp, PropagationOutcome, Propagator};
use fg_sparse::{DenseMatrix, Threads};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of an end-to-end [`Pipeline`] run: which stages ran, what they produced,
/// and how long each took.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Name of the estimation stage (estimator name, the label given to explicit
    /// compatibilities, or `"none"` when the backend ignores `H`).
    pub estimator: String,
    /// Name of the propagation backend that labeled the nodes.
    pub propagator: String,
    /// The compatibility matrix the propagation stage consumed.
    pub estimated_h: DenseMatrix,
    /// The unified propagation outcome (beliefs, predictions, iterations,
    /// convergence, `ε`).
    pub outcome: PropagationOutcome,
    /// Wall-clock time of the estimation stage (zero when `H` was supplied
    /// explicitly or not needed). Always `summarize_time + optimize_time`.
    pub estimation_time: Duration,
    /// Wall-clock time of the graph-summarization half of the estimation stage (the
    /// `O(m·k·ℓmax)` part; zero for estimators that consume no factorized summary and
    /// near-zero when a shared [`EstimationContext`] already holds the summary).
    pub summarize_time: Duration,
    /// Wall-clock time of the optimization half of the estimation stage (the
    /// graph-size-independent `k x k` fit).
    pub optimize_time: Duration,
    /// Wall-clock time of the propagation stage.
    pub propagation_time: Duration,
    /// How many `O(m·k·ℓmax)` summarizations this run actually performed (cache and
    /// store misses during the estimation stage). Zero when the summary came from a
    /// pre-warmed shared context or the persistent store — the warm-path proof the
    /// CI cache job asserts.
    pub summary_computations: usize,
    /// How many summary requests this run answered from a persistent
    /// [`SummaryStore`] instead of recomputing.
    pub summary_store_hits: usize,
    /// Whether this run served the estimated `H` itself from a persistent
    /// [`SummaryStore`] (`1`) instead of optimizing (`0`) — the warm path that skips
    /// *both* halves of the estimation stage. Only content-addressable estimators
    /// (see [`CompatibilityEstimator::content_addressable`]) participate.
    pub optimize_store_hits: usize,
    /// Macro-averaged accuracy on the unlabeled nodes (unweighted mean of per-class
    /// recalls), recorded by [`PipelineReport::evaluate`] when ground truth is
    /// available.
    pub accuracy: Option<f64>,
    /// Micro (plain) accuracy on the unlabeled nodes — the paper's "fraction of the
    /// remaining nodes that receive correct labels" — recorded by
    /// [`PipelineReport::evaluate`] alongside the macro value.
    pub micro_accuracy: Option<f64>,
    /// Fraction of unlabeled nodes whose belief row carries no information, so the
    /// abstain-aware labeling declines to predict. Recorded by
    /// [`PipelineReport::evaluate_abstain`].
    pub abstention_rate: Option<f64>,
    /// Macro-averaged accuracy on the unlabeled nodes with abstentions charged as
    /// misses (the abstain-aware counterpart of [`accuracy`](PipelineReport::accuracy)
    /// that does not inflate class-0 recall). Recorded by
    /// [`PipelineReport::evaluate_abstain`] when ground truth is available.
    pub abstaining_macro_accuracy: Option<f64>,
    /// The span capture of this run when tracing was requested via
    /// [`Pipeline::trace`]: every `pipeline → estimate → summarize → spmm` scope
    /// with monotonic timings. Render it with [`Trace::chrome_json`]
    /// (`chrome://tracing` / Perfetto) or read the aggregated span tree in
    /// [`PipelineReport::to_json`]'s `span_tree` field. Tracing only observes
    /// wall-clock time — predictions are byte-identical with it on or off.
    pub trace: Option<Trace>,
}

impl PipelineReport {
    /// End-to-end macro-averaged accuracy on the unlabeled nodes (computed on the
    /// fly; use [`PipelineReport::evaluate`] to also record it in the report).
    pub fn accuracy(&self, truth: &Labeling, seeds: &SeedLabels) -> f64 {
        self.outcome.accuracy(truth, seeds)
    }

    /// End-to-end micro accuracy on the unlabeled nodes (computed on the fly; use
    /// [`PipelineReport::evaluate`] to also record it in the report).
    pub fn micro_accuracy(&self, truth: &Labeling, seeds: &SeedLabels) -> f64 {
        self.outcome.micro_accuracy(truth, seeds)
    }

    /// Compute both accuracy variants against ground truth, record them in the
    /// report (so they appear in [`PipelineReport::to_json`]), and return the
    /// macro-averaged value.
    pub fn evaluate(&mut self, truth: &Labeling, seeds: &SeedLabels) -> f64 {
        let acc = self.accuracy(truth, seeds);
        self.accuracy = Some(acc);
        self.micro_accuracy = Some(self.micro_accuracy(truth, seeds));
        acc
    }

    /// Record the abstain-aware metrics: the abstention rate over the unlabeled
    /// nodes (always computable) and, when ground truth is supplied, the
    /// macro-averaged accuracy with abstentions charged as misses. Both appear in
    /// [`PipelineReport::to_json`] once recorded; returns the abstention rate.
    pub fn evaluate_abstain(&mut self, seeds: &SeedLabels, truth: Option<&Labeling>) -> f64 {
        let abstaining = self.outcome.predictions_or_abstain();
        let rate = fg_propagation::abstention_rate(&abstaining, &seeds.unlabeled_nodes());
        self.abstention_rate = Some(rate);
        if let Some(truth) = truth {
            self.abstaining_macro_accuracy = Some(self.outcome.abstaining_accuracy(truth, seeds));
        }
        rate
    }

    /// L2 (Frobenius) distance between the consumed compatibility matrix and a
    /// reference matrix (typically the gold standard).
    pub fn l2_from(&self, reference: &DenseMatrix) -> Result<f64> {
        Ok(self.estimated_h.frobenius_distance(reference)?)
    }

    /// Total wall-clock time across both stages.
    pub fn total_time(&self) -> Duration {
        self.estimation_time + self.propagation_time
    }

    /// Serialize the report (stage names, timings, iterations, convergence info, and
    /// the recorded accuracy if any) as a JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"estimator\":{}", json_string(&self.estimator)),
            format!("\"propagator\":{}", json_string(&self.propagator)),
            format!(
                "\"estimation_seconds\":{:.6}",
                self.estimation_time.as_secs_f64()
            ),
            format!(
                "\"summarize_seconds\":{:.6}",
                self.summarize_time.as_secs_f64()
            ),
            format!(
                "\"optimize_seconds\":{:.6}",
                self.optimize_time.as_secs_f64()
            ),
            format!(
                "\"propagation_seconds\":{:.6}",
                self.propagation_time.as_secs_f64()
            ),
            format!("\"summary_computations\":{}", self.summary_computations),
            format!("\"summary_store_hits\":{}", self.summary_store_hits),
            format!("\"optimize_store_hits\":{}", self.optimize_store_hits),
            format!("\"iterations\":{}", self.outcome.iterations),
            format!("\"converged\":{}", self.outcome.converged),
            format!(
                "\"epsilon\":{}",
                match self.outcome.epsilon {
                    Some(e) => format!("{e}"),
                    None => "null".to_string(),
                }
            ),
            format!("\"nodes\":{}", self.outcome.predictions.len()),
            format!("\"classes\":{}", self.estimated_h.rows()),
        ];
        if let Some(acc) = self.accuracy {
            fields.push(format!("\"accuracy\":{acc}"));
        }
        if let Some(acc) = self.micro_accuracy {
            fields.push(format!("\"micro_accuracy\":{acc}"));
        }
        if let Some(rate) = self.abstention_rate {
            fields.push(format!("\"abstention_rate\":{rate}"));
        }
        if let Some(acc) = self.abstaining_macro_accuracy {
            fields.push(format!("\"abstaining_macro_accuracy\":{acc}"));
        }
        if let Some(trace) = &self.trace {
            let nodes: Vec<String> = trace
                .aggregate()
                .iter()
                .map(|node| {
                    format!(
                        "{{\"path\":{},\"depth\":{},\"count\":{},\"seconds\":{:.6}}}",
                        json_string(&node.path),
                        node.depth,
                        node.count,
                        node.total_ns as f64 / 1e9
                    )
                })
                .collect();
            fields.push(format!("\"span_tree\":[{}]", nodes.join(",")));
        }
        format!("{{{}}}", fields.join(","))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How the propagation stage obtains its compatibility matrix.
enum HSource<'a> {
    /// Run a [`CompatibilityEstimator`] on the seeded graph.
    Estimate(Box<dyn CompatibilityEstimator + 'a>),
    /// Use an explicitly supplied matrix (the gold-standard / heuristic comparisons).
    Explicit(String, &'a DenseMatrix),
}

/// Fluent builder for an estimation + propagation run.
///
/// Required: a graph ([`Pipeline::on`]) and seed labels ([`Pipeline::seeds`]).
/// The `H` source is either an [`estimator`](Pipeline::estimator) or explicit
/// [`compatibilities`](Pipeline::compatibilities); backends that ignore `H`
/// (harmonic functions, random walks) need neither. The propagation backend
/// defaults to [`LinBp`] with default configuration.
pub struct Pipeline<'a> {
    graph: &'a Graph,
    seeds: Option<&'a SeedLabels>,
    h_source: Option<HSource<'a>>,
    estimator_label: Option<String>,
    propagator: Option<Box<dyn Propagator + 'a>>,
    propagator_label: Option<String>,
    threads: Option<Threads>,
    estimation_threads: Option<Threads>,
    context: Option<&'a EstimationContext<'a>>,
    summary_cache: Option<Arc<crate::context::SummaryCache>>,
    summary_store: Option<Arc<SummaryStore>>,
    trace: bool,
}

impl<'a> Pipeline<'a> {
    /// Start a pipeline on the given graph.
    pub fn on(graph: &'a Graph) -> Self {
        Pipeline {
            graph,
            seeds: None,
            h_source: None,
            estimator_label: None,
            propagator: None,
            propagator_label: None,
            threads: None,
            estimation_threads: None,
            context: None,
            summary_cache: None,
            summary_store: None,
            trace: false,
        }
    }

    /// The observed seed labels (required).
    pub fn seeds(mut self, seeds: &'a SeedLabels) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Estimate `H` with the given estimator. Accepts owned estimators, references,
    /// and boxed trait objects alike. Replaces any previously set `H` source.
    pub fn estimator(mut self, estimator: impl CompatibilityEstimator + 'a) -> Self {
        self.h_source = Some(HSource::Estimate(Box::new(estimator)));
        self
    }

    /// Skip estimation and propagate with an explicitly supplied compatibility
    /// matrix, labeled `name` in the report (e.g. `"GS"`). Replaces any previously
    /// set `H` source.
    pub fn compatibilities(mut self, name: impl Into<String>, h: &'a DenseMatrix) -> Self {
        self.h_source = Some(HSource::Explicit(name.into(), h));
        self
    }

    /// Override the estimator name recorded in the report (e.g. `"DCEr(r=10)"`).
    pub fn estimator_label(mut self, label: impl Into<String>) -> Self {
        self.estimator_label = Some(label.into());
        self
    }

    /// The propagation backend (defaults to [`LinBp`] with default configuration).
    /// Accepts owned backends, references, and boxed trait objects alike.
    pub fn propagator(mut self, propagator: impl Propagator + 'a) -> Self {
        self.propagator = Some(Box::new(propagator));
        self
    }

    /// Override the propagator name recorded in the report (e.g. `"LinBP(s=0.1)"`).
    pub fn propagator_label(mut self, label: impl Into<String>) -> Self {
        self.propagator_label = Some(label.into());
        self
    }

    /// Run the propagation stage under the given [`Threads`] policy. The parallel
    /// kernels are bit-identical to the serial ones, so this changes wall-clock time
    /// only, never the reported beliefs or predictions. When not called, the backend
    /// keeps whatever policy its own config carries.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Run the estimation stage under the given [`Threads`] policy (summarization and
    /// any other parallel estimator kernels). Like [`Pipeline::threads`] this changes
    /// wall-clock time only — the parallel kernels are bit-identical to the serial
    /// ones. When a shared [`context`](Pipeline::context) is supplied, the context's
    /// own policy governs the cached summarization and this setting only reaches the
    /// estimator's non-context kernels.
    pub fn estimation_threads(mut self, threads: Threads) -> Self {
        self.estimation_threads = Some(threads);
        self
    }

    /// Run the estimation stage against a shared [`EstimationContext`], so several
    /// pipelines (e.g. one per estimator in a comparison run) reuse one cached graph
    /// summary instead of each re-summarizing the graph. The context must describe
    /// the same graph and seed labels this pipeline runs on **by content**: matching
    /// is by [`Fingerprint`](fg_graph::Fingerprint), so a context built on an
    /// independently loaded copy of the same data is accepted;
    /// [`run`](Pipeline::run) rejects a context whose fingerprints differ.
    pub fn context(mut self, context: &'a EstimationContext<'a>) -> Self {
        self.context = Some(context);
        self
    }

    /// Attach a persistent [`SummaryStore`] to the estimation stage: when no shared
    /// [`context`](Pipeline::context) is supplied, the pipeline's private
    /// [`EstimationContext`] uses it as a read-through / write-back tier, so repeated
    /// invocations on the same dataset (even across processes) skip summarization
    /// entirely with bit-identical results. Ignored when a shared context is
    /// supplied — the context's own store configuration governs.
    pub fn summary_store(mut self, store: Arc<SummaryStore>) -> Self {
        self.summary_store = Some(store);
        self
    }

    /// Share an in-memory [`SummaryCache`](crate::context::SummaryCache) across
    /// pipelines on *different* `(graph, seeds)` pairs: the pipeline's private
    /// [`EstimationContext`] is built on this cache instead of a fresh one, so runs
    /// that happen to load the same dataset deduplicate their summarization (keyed by
    /// content fingerprint) while runs on distinct datasets overlap. This is the
    /// manifest-runner / serving-session variant of [`context`](Pipeline::context),
    /// which shares a *fully built* context for one fixed pair. Ignored when a
    /// shared context is supplied. The report counts only this run's own work, so
    /// sharing a cache never adds another run's work to its numbers.
    pub fn summary_cache(mut self, cache: Arc<crate::context::SummaryCache>) -> Self {
        self.summary_cache = Some(cache);
        self
    }

    /// Capture a hierarchical span trace of this run ([`fg_obs::start_capture`] /
    /// [`fg_obs::finish_capture`] around the stages), recorded into
    /// [`PipelineReport::trace`]. The capture is process-wide, so concurrent
    /// pipelines with tracing enabled would interleave into one capture — the
    /// intended owner is a single CLI invocation (`fg classify --trace-out`) or
    /// test. Tracing never changes results (a root test pins the predictions
    /// byte-identical with tracing on and off).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Execute both stages and collect the [`PipelineReport`].
    pub fn run(self) -> Result<PipelineReport> {
        let capture = self.trace;
        if capture {
            fg_obs::start_capture();
        }
        let result = self.run_stages();
        // Disarm on every path (including errors) so a failed traced run never
        // leaves the process-wide collector armed.
        let trace = if capture {
            Some(fg_obs::finish_capture())
        } else {
            None
        };
        let mut report = result?;
        report.trace = trace;
        Ok(report)
    }

    fn run_stages(self) -> Result<PipelineReport> {
        let pipeline_span = Span::enter("pipeline");
        let seeds = self.seeds.ok_or_else(|| {
            CoreError::InvalidConfig("Pipeline requires seed labels: call .seeds(...)".into())
        })?;
        let mut propagator: Box<dyn Propagator + 'a> = match self.propagator {
            Some(p) => p,
            None => Box::new(LinBp::default()),
        };
        if let Some(threads) = self.threads {
            propagator = propagator.with_threads(threads);
        }

        if let Some(ctx) = self.context {
            // A shared context must describe this pipeline's inputs, or its cached
            // statistics would silently belong to a different problem. Matching is by
            // content fingerprint — pointer equality is only a fast path that skips
            // hashing — so separately loaded copies of the same data are accepted.
            let graph_matches = std::ptr::eq(ctx.graph(), self.graph)
                || ctx.graph_fingerprint() == self.graph.fingerprint();
            let seeds_matches =
                std::ptr::eq(ctx.seeds(), seeds) || ctx.seed_fingerprint() == seeds.fingerprint();
            if !graph_matches || !seeds_matches {
                return Err(CoreError::InvalidConfig(
                    "the shared EstimationContext was built on a different graph or \
                     seed set (content fingerprints do not match) than this pipeline \
                     runs on"
                        .into(),
                ));
            }
        }

        // An uninformative placeholder for backends that never read H.
        let uniform_h = |seeds: &SeedLabels| {
            let k = seeds.k();
            Estimate::unmeasured(DenseMatrix::filled(k, k, 1.0 / k as f64))
        };
        let (estimate, estimator_name) = match self.h_source {
            Some(HSource::Estimate(estimator)) if !propagator.uses_compatibilities() => {
                // The backend ignores H: skip the (potentially expensive)
                // estimation stage entirely and record that it was skipped.
                let base = self.estimator_label.unwrap_or_else(|| estimator.name());
                (uniform_h(seeds), format!("{base} (skipped)"))
            }
            Some(HSource::Estimate(estimator)) => {
                let estimator: Box<dyn CompatibilityEstimator + 'a> = match self.estimation_threads
                {
                    Some(threads) => estimator.with_threads(threads),
                    None => estimator,
                };
                let name = self.estimator_label.unwrap_or_else(|| estimator.name());
                // Every estimation run goes through a context (a private one when
                // no shared context was supplied), which serves a persisted H
                // first and otherwise times the summarize and optimize halves.
                let owned_ctx;
                let ctx: &EstimationContext<'_> = match self.context {
                    Some(shared) => shared,
                    None => {
                        let threads = self.estimation_threads.unwrap_or(Threads::Serial);
                        let mut built = match &self.summary_cache {
                            Some(cache) => {
                                EstimationContext::with_cache(self.graph, seeds, Arc::clone(cache))
                            }
                            None => EstimationContext::new(self.graph, seeds),
                        }
                        .threads(threads);
                        if let Some(store) = &self.summary_store {
                            built = built.store(Arc::clone(store));
                        }
                        owned_ctx = built;
                        &owned_ctx
                    }
                };
                let estimate = match ctx.stored_estimate(&*estimator) {
                    Some(stored) => stored,
                    None => ctx.estimate(&*estimator, true)?,
                };
                (estimate, name)
            }
            Some(HSource::Explicit(name, h)) => (
                Estimate::unmeasured(h.clone()),
                self.estimator_label.unwrap_or(name),
            ),
            None if !propagator.uses_compatibilities() => (uniform_h(seeds), "none".to_string()),
            None => {
                return Err(CoreError::InvalidConfig(format!(
                    "propagation backend '{}' needs a compatibility matrix: call \
                     .estimator(...) or .compatibilities(...)",
                    propagator.name()
                )));
            }
        };
        let Estimate {
            h,
            work,
            summarize_time,
            optimize_time,
        } = estimate;

        let propagate_span = Span::enter("propagate");
        let prop_start = Instant::now();
        let outcome = propagator
            .propagate(self.graph, seeds, &h)
            .map_err(CoreError::Graph)?;
        let propagation_time = prop_start.elapsed();
        drop(propagate_span);
        drop(pipeline_span);

        Ok(PipelineReport {
            estimator: estimator_name,
            propagator: self.propagator_label.unwrap_or_else(|| propagator.name()),
            estimated_h: h,
            outcome,
            estimation_time: summarize_time + optimize_time,
            summarize_time,
            optimize_time,
            propagation_time,
            summary_computations: work.summary_computations,
            summary_store_hits: work.store_hits,
            optimize_store_hits: work.estimate_store_hits,
            accuracy: None,
            micro_accuracy: None,
            abstention_rate: None,
            abstaining_macro_accuracy: None,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{DceWithRestarts, GoldStandard};
    use crate::store::EstimateKey;
    use fg_graph::{generate, GeneratorConfig};
    use fg_propagation::{Harmonic, LinBpConfig, LoopyBp, RandomWalk};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_dcer_matches_gold_standard_closely() {
        let cfg = GeneratorConfig::balanced(2000, 15.0, 3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.03, &mut rng);

        let gs_result = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(GoldStandard::new(syn.labeling.clone()))
            .run()
            .unwrap();
        let dcer_result = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .run()
            .unwrap();

        let gs_acc = gs_result.accuracy(&syn.labeling, &seeds);
        let dcer_acc = dcer_result.accuracy(&syn.labeling, &seeds);
        assert!(
            dcer_acc > gs_acc - 0.08,
            "DCEr accuracy {dcer_acc} should be close to GS accuracy {gs_acc}"
        );
        assert!(gs_acc > 0.5, "GS accuracy {gs_acc} suspiciously low");
        assert_eq!(dcer_result.estimator, "DCEr(r=10,l=5,lambda=10)");
        assert_eq!(dcer_result.propagator, "LinBP");
        assert!(dcer_result.estimation_time > Duration::ZERO);
        // The estimation stage is split into its summarize and optimize halves.
        assert!(dcer_result.summarize_time > Duration::ZERO);
        assert!(dcer_result.optimize_time > Duration::ZERO);
        assert_eq!(
            dcer_result.estimation_time,
            dcer_result.summarize_time + dcer_result.optimize_time
        );
    }

    #[test]
    fn explicit_compatibilities_skip_estimation() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let result = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .compatibilities("GS", syn.planted_h.as_dense())
            .run()
            .unwrap();
        assert_eq!(result.estimation_time, Duration::ZERO);
        assert_eq!(result.estimator, "GS");
        let l2 = result.l2_from(syn.planted_h.as_dense()).unwrap();
        assert!(l2 < 1e-12);
    }

    #[test]
    fn any_estimator_propagator_combination_runs() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let backends: Vec<Box<dyn Propagator>> = vec![
            Box::new(LinBp::default()),
            Box::new(LoopyBp::default()),
            Box::new(Harmonic::default()),
            Box::new(RandomWalk::default()),
        ];
        for backend in backends {
            let name = backend.name();
            let report = Pipeline::on(&syn.graph)
                .seeds(&seeds)
                .estimator(DceWithRestarts::default())
                .propagator(backend)
                .run()
                .unwrap();
            assert_eq!(report.propagator, name);
            assert_eq!(report.outcome.predictions.len(), syn.graph.num_nodes());
        }
    }

    #[test]
    fn compatibility_free_backends_need_no_estimator() {
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(27);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let report = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .propagator(Harmonic::default())
            .run()
            .unwrap();
        assert_eq!(report.estimator, "none");
        assert_eq!(report.estimation_time, Duration::ZERO);
    }

    #[test]
    fn estimation_is_skipped_for_compatibility_free_backends() {
        // An estimator combined with a backend that ignores H must not pay the
        // estimation cost; the report says so explicitly.
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let report = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .propagator(RandomWalk::default())
            .run()
            .unwrap();
        assert_eq!(report.estimator, "DCEr(r=10,l=5,lambda=10) (skipped)");
        assert_eq!(report.estimation_time, Duration::ZERO);
        // The label override is preserved in the skip notice.
        let labeled = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .estimator_label("DCEr(r=10)")
            .propagator(Harmonic::default())
            .run()
            .unwrap();
        assert_eq!(labeled.estimator, "DCEr(r=10) (skipped)");
    }

    #[test]
    fn threads_policy_does_not_change_results() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        for backend in fg_propagation::PROPAGATORS.build_all(&Default::default()) {
            let name = backend.name();
            let serial = Pipeline::on(&syn.graph)
                .seeds(&seeds)
                .estimator(DceWithRestarts::default())
                .propagator(&backend)
                .run()
                .unwrap();
            let threaded = Pipeline::on(&syn.graph)
                .seeds(&seeds)
                .estimator(DceWithRestarts::default())
                .propagator(&backend)
                .threads(Threads::Fixed(4))
                .run()
                .unwrap();
            assert_eq!(
                serial.outcome.beliefs.data(),
                threaded.outcome.beliefs.data(),
                "{name}"
            );
            assert_eq!(serial.outcome.predictions, threaded.outcome.predictions);
            assert_eq!(serial.propagator, threaded.propagator, "{name}");
        }
    }

    #[test]
    fn evaluate_records_micro_and_macro() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let seeds = SeedLabels::new(vec![Some(0), None, None, Some(1)], 2).unwrap();
        let truth = Labeling::new(vec![0, 0, 1, 1], 2).unwrap();
        let h = DenseMatrix::from_rows(&[vec![0.8, 0.2], vec![0.2, 0.8]]).unwrap();
        let mut report = Pipeline::on(&graph)
            .seeds(&seeds)
            .compatibilities("planted", &h)
            .run()
            .unwrap();
        assert!(report.accuracy.is_none() && report.micro_accuracy.is_none());
        report.evaluate(&truth, &seeds);
        assert!(report.accuracy.is_some());
        assert!(report.micro_accuracy.is_some());
        let json = report.to_json();
        assert!(json.contains("\"accuracy\":"));
        assert!(json.contains("\"micro_accuracy\":"));
    }

    #[test]
    fn builder_validates_inputs() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let seeds = SeedLabels::new(vec![Some(0), None, None, Some(1)], 2).unwrap();
        // Missing seeds.
        assert!(matches!(
            Pipeline::on(&graph).run(),
            Err(CoreError::InvalidConfig(_))
        ));
        // LinBP without any H source.
        assert!(matches!(
            Pipeline::on(&graph).seeds(&seeds).run(),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn labels_override_stage_names_and_serialize() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let seeds = SeedLabels::new(vec![Some(0), None, None, Some(1)], 2).unwrap();
        let truth = Labeling::new(vec![0, 0, 1, 1], 2).unwrap();
        let h = DenseMatrix::from_rows(&[vec![0.8, 0.2], vec![0.2, 0.8]]).unwrap();
        let mut report = Pipeline::on(&graph)
            .seeds(&seeds)
            .compatibilities("planted", &h)
            .estimator_label("planted \"exact\"")
            .propagator(LinBp::new(LinBpConfig::default()))
            .propagator_label("LinBP(default)")
            .run()
            .unwrap();
        assert_eq!(report.estimator, "planted \"exact\"");
        assert_eq!(report.propagator, "LinBP(default)");
        report.evaluate(&truth, &seeds);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"estimator\":\"planted \\\"exact\\\"\""));
        assert!(json.contains("\"propagator\":\"LinBP(default)\""));
        assert!(json.contains("\"accuracy\":"));
        assert!(json.contains("\"iterations\":"));
        assert!(json.contains("\"converged\":"));
        assert!(json.contains("\"epsilon\":"));
    }

    #[test]
    fn shared_context_summarizes_once_across_estimators() {
        use crate::estimators::{DistantCompatibilityEstimation, MyopicCompatibilityEstimation};

        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);

        let ctx = EstimationContext::new(&syn.graph, &seeds);
        // Warm to the largest requirement so the MCE / DCE / DCEr comparison run
        // shares exactly one summarization.
        ctx.warm(&DceWithRestarts::default().config.summary_config())
            .unwrap();

        let estimators: Vec<Box<dyn CompatibilityEstimator>> = vec![
            Box::new(MyopicCompatibilityEstimation::default()),
            Box::new(DistantCompatibilityEstimation::default()),
            Box::new(DceWithRestarts::default()),
        ];
        for estimator in estimators {
            let fresh = estimator.estimate(&syn.graph, &seeds).unwrap();
            let report = Pipeline::on(&syn.graph)
                .seeds(&seeds)
                .context(&ctx)
                .estimator(estimator)
                .run()
                .unwrap();
            // Context-served estimates are bit-identical to fresh ones.
            assert_eq!(
                report.estimated_h.data(),
                fresh.data(),
                "{}",
                report.estimator
            );
        }
        assert_eq!(ctx.summary_computations(), 1);
    }

    #[test]
    fn context_on_equal_content_is_accepted_across_allocations() {
        // Fingerprint matching: a context built on *clones* of the pipeline's graph
        // and seeds (different pointers, same content) is accepted and its cache is
        // reused — the old pointer-identity rejection is gone.
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let graph_copy = syn.graph.clone();
        let seeds_copy = seeds.clone();
        let ctx = EstimationContext::new(&graph_copy, &seeds_copy);
        ctx.warm(&DceWithRestarts::default().config.summary_config())
            .unwrap();

        let report = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .context(&ctx)
            .estimator(DceWithRestarts::default())
            .run()
            .unwrap();
        // Served entirely from the pre-warmed shared cache: zero computations in
        // this run, and the estimate equals a fresh standalone one bit-for-bit.
        assert_eq!(report.summary_computations, 0);
        assert_eq!(ctx.summary_computations(), 1);
        let fresh = DceWithRestarts::default()
            .estimate(&syn.graph, &seeds)
            .unwrap();
        assert_eq!(report.estimated_h.data(), fresh.data());
    }

    #[test]
    fn summary_store_makes_second_run_computation_free() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(73);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let dir = std::env::temp_dir().join("fg_pipeline_store");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(crate::store::SummaryStore::open(&dir).unwrap());

        let cold = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .summary_store(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(cold.summary_computations, 1);
        assert_eq!(cold.summary_store_hits, 0);
        assert_eq!(cold.optimize_store_hits, 0);

        // Fully warm: the persisted H estimate answers the whole estimation stage,
        // so neither the summary nor the optimizer runs.
        let warm = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .summary_store(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(warm.summary_computations, 0);
        assert_eq!(warm.summary_store_hits, 0);
        assert_eq!(warm.optimize_store_hits, 1);
        assert_eq!(warm.estimation_time, Duration::ZERO);
        // The warm path is bit-identical: same estimate, same predictions.
        assert_eq!(warm.estimated_h.data(), cold.estimated_h.data());
        assert_eq!(warm.outcome.predictions, cold.outcome.predictions);
        assert_eq!(warm.outcome.beliefs.data(), cold.outcome.beliefs.data());
        let json = warm.to_json();
        assert!(json.contains("\"summary_computations\":0"));
        assert!(json.contains("\"optimize_store_hits\":1"));

        // With only the H entry removed, the run falls back to the stored summary
        // (the pre-existing warm tier) and re-optimizes to the same matrix.
        let name = DceWithRestarts::default().name();
        assert!(store
            .remove(&EstimateKey(
                syn.graph.fingerprint(),
                seeds.fingerprint(),
                &name
            ))
            .unwrap());
        let half_warm = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .summary_store(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(half_warm.summary_computations, 0);
        assert_eq!(half_warm.summary_store_hits, 1);
        assert_eq!(half_warm.optimize_store_hits, 0);
        assert_eq!(half_warm.estimated_h.data(), cold.estimated_h.data());
        // ... and it re-persisted the estimate for the next run.
        assert!(store
            .load(&EstimateKey(
                syn.graph.fingerprint(),
                seeds.fingerprint(),
                &name
            ))
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_content_addressable_estimators_bypass_the_h_store() {
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(79);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let dir = std::env::temp_dir().join("fg_pipeline_h_gs");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(crate::store::SummaryStore::open(&dir).unwrap());

        // The gold standard reads the full labeling, which the (graph, seeds, name)
        // key cannot see — two runs must both measure, and nothing lands on disk.
        for _ in 0..2 {
            let report = Pipeline::on(&syn.graph)
                .seeds(&seeds)
                .estimator(GoldStandard::new(syn.labeling.clone()))
                .summary_store(Arc::clone(&store))
                .run()
                .unwrap();
            assert_eq!(report.optimize_store_hits, 0);
        }
        assert!(store
            .load(&EstimateKey(
                syn.graph.fingerprint(),
                seeds.fingerprint(),
                "GS"
            ))
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_context_is_rejected() {
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(63);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let other_seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let ctx = EstimationContext::new(&syn.graph, &other_seeds);
        let result = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .context(&ctx)
            .estimator(DceWithRestarts::default())
            .run();
        assert!(matches!(result, Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn estimation_threads_do_not_change_results() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(65);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let serial = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .run()
            .unwrap();
        let threaded = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .estimation_threads(Threads::Fixed(4))
            .run()
            .unwrap();
        assert_eq!(serial.estimated_h.data(), threaded.estimated_h.data());
        assert_eq!(serial.outcome.predictions, threaded.outcome.predictions);
        assert_eq!(serial.estimator, threaded.estimator);
    }

    #[test]
    fn json_reports_summarize_and_optimize_timings() {
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(67);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let report = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .run()
            .unwrap();
        let json = report.to_json();
        assert!(json.contains("\"summarize_seconds\":"));
        assert!(json.contains("\"optimize_seconds\":"));
        assert!(json.contains("\"estimation_seconds\":"));
    }

    #[test]
    fn boxed_and_borrowed_estimators_work() {
        let cfg = GeneratorConfig::balanced(200, 8.0, 2, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(37);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let owned = DceWithRestarts::default();
        let by_ref = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(&owned)
            .run()
            .unwrap();
        let boxed: Box<dyn CompatibilityEstimator> = Box::new(DceWithRestarts::default());
        let by_box = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(boxed)
            .run()
            .unwrap();
        assert_eq!(by_ref.estimator, by_box.estimator);
    }
}
