//! The batch workloads. One op is one run of the paper's pipeline, called layer
//! by layer through the public API in the order `Pipeline::run` uses, so every
//! layer gets its own bench-side span.

use crate::data::{panel_accuracy, GraphShape, Planted, PANEL_STREAM};
use crate::layers::{self, Breakdown};
use crate::report::{peak_rss_mb, put, put_end_to_end, Latencies, RunResult, Values};
use crate::{stream_seed, Settings, Tally};
use fg_core::prelude::*;
use fg_core::{estimator_by_name_with, EstimatorOptions};
use fg_datasets::{synthesize_blobs, BlobConfig, GraphBuilder, KnnBuilder};
use fg_graph::FactorConfig;
use fg_obs::Span;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Kernel threads of timed ops. On the 2-core measuring host, 2 threads were
/// slower than 1 (140 vs 130 ms median op over eight runs) and three times
/// noisier from run to run, so the 2-thread path runs only in the
/// `batch_exact` oracle.
const THREADS: Threads = Threads::Serial;

/// Graph seeds: the graph structure is fixed (see `Planted::generate`).
const EXACT_GRAPH: u64 = 101;
const QUARTER_GRAPH: u64 = 102;

const EXACT: GraphShape = GraphShape {
    nodes: 30_000,
    degree: 20.0,
    classes: 3,
    h_skew: 8.0,
    seed_fraction: 0.01,
};

const EXACT_SMOKE: GraphShape = GraphShape {
    nodes: 2_000,
    ..EXACT
};

/// Seed samples in `batch_exact`'s accuracy panel.
const EXACT_PANEL_DRAWS: u64 = 8;

/// Gaussian blobs and construction/estimation settings of `batch_lowrank`.
struct LowRankShape {
    nodes: usize,
    dims: usize,
    classes: usize,
    knn: usize,
    rank: usize,
    seed_fraction: f64,
    /// Graph size of the full-rank oracle (its eigensolve runs at rank = n).
    oracle_nodes: usize,
}

const LOWRANK: LowRankShape = LowRankShape {
    nodes: 500,
    dims: 16,
    classes: 3,
    knn: 10,
    rank: 28,
    seed_fraction: 0.05,
    oracle_nodes: 200,
};

const LOWRANK_SMOKE: LowRankShape = LowRankShape {
    nodes: 150,
    rank: 6,
    oracle_nodes: 40,
    ..LOWRANK
};

/// Blob graphs, and seed samples per graph, in `batch_lowrank`'s accuracy
/// panel. Samples are cheap once the graph's factor is cached, so the panel
/// takes many of them to keep one DCEr flip (0.28 on one sample) small.
const LOWRANK_PANEL_GRAPHS: u64 = 3;
const LOWRANK_PANEL_DRAWS: u64 = 32;

/// When a run of ops stops.
#[derive(Clone, Copy)]
enum Stop {
    After(usize),
    For(Duration),
}

/// Run `op` until `stop` (at least once). `op` returns how long its timed
/// section took, so it can prepare inputs untimed, and whether its output
/// checked out.
fn repeat(
    stop: Stop,
    tally: &mut Tally,
    mismatch: &str,
    mut op: impl FnMut() -> (Duration, Result<bool, String>),
) -> Latencies {
    let started = Instant::now();
    let mut latencies = Latencies::default();
    loop {
        let (elapsed, outcome) = op();
        latencies.push(elapsed);
        tally.check(outcome, mismatch);
        let done = match stop {
            Stop::After(n) => latencies.len() >= n,
            Stop::For(budget) => started.elapsed() >= budget,
        };
        if done {
            return latencies;
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Trace `run` and read the per-layer breakdown off the capture.
fn traced<T>(run: impl FnOnce() -> T) -> (T, Breakdown) {
    fg_obs::start_capture();
    let out = run();
    let trace = fg_obs::finish_capture();
    (out, Breakdown::from_trace(&trace))
}

/// What one op produced.
struct OpOutput {
    h: DenseMatrix,
    outcome: PropagationOutcome,
    factor_iterations: usize,
}

impl OpOutput {
    /// Bit-for-bit equality of `H`, beliefs and predictions.
    fn same_as(&self, h: &DenseMatrix, outcome: &PropagationOutcome) -> bool {
        let bits = |m: &DenseMatrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.h) == bits(h)
            && bits(&self.outcome.beliefs) == bits(&outcome.beliefs)
            && self.outcome.predictions == outcome.predictions
    }
}

fn estimator(spec: &str, threads: Threads) -> Result<Box<dyn CompatibilityEstimator>, String> {
    let options = EstimatorOptions {
        threads: Some(threads),
        ..EstimatorOptions::default()
    };
    estimator_by_name_with(spec, &options)
}

/// Estimate `H` and propagate, one span per public call: the context, the
/// factor (low-rank mode only), the summary, the optimization, propagation.
fn estimate_and_propagate(
    graph: &Graph,
    seeds: &SeedLabels,
    estimator: &dyn CompatibilityEstimator,
    threads: Threads,
) -> Result<OpOutput, String> {
    let ctx = {
        let _span = Span::enter(layers::CONTEXT);
        EstimationContext::new(graph, seeds).threads(threads)
    };
    let config = estimator
        .summary_requirements()
        .expect("the benchmark's estimators consume summaries");
    let mut factor_iterations = 0;
    if let CountingBackend::LowRank(factor_config) = config.backend {
        let _span = Span::enter(layers::FACTOR);
        let factor = ctx.factor(&factor_config).map_err(|e| e.to_string())?;
        factor_iterations = factor.iterations();
    }
    {
        let _span = Span::enter(layers::SUMMARIZE);
        ctx.warm(&config).map_err(|e| e.to_string())?;
    }
    let h = {
        let _span = Span::enter(layers::OPTIMIZE);
        estimator
            .estimate_with_context(&ctx)
            .map_err(|e| e.to_string())?
    };
    let _span = Span::enter(layers::PROPAGATE);
    let outcome = LinBp::default()
        .with_threads(threads)
        .propagate(graph, seeds, &h)
        .map_err(|e| e.to_string())?;
    Ok(OpOutput {
        h,
        outcome,
        factor_iterations,
    })
}

/// One `batch_exact` op: parse the edge and seed files, estimate, propagate.
fn exact_op(
    data: &Planted,
    estimator: &dyn CompatibilityEstimator,
    threads: Threads,
) -> Result<OpOutput, String> {
    let _op = Span::enter(layers::OP);
    let (graph, seeds) = {
        let _span = Span::enter(layers::PARSE);
        let graph = fg_datasets::read_edge_list(&data.edges, data.nodes);
        let seeds = fg_datasets::read_labels(&data.labels, data.nodes, data.classes);
        (
            graph.map_err(|e| e.to_string())?,
            seeds.map_err(|e| e.to_string())?,
        )
    };
    estimate_and_propagate(&graph, &seeds, estimator, threads)
}

/// Per-layer values of a traced phase, shared by both batch workloads.
fn put_layers(values: &mut Values, b: &Breakdown, untraced: &Latencies, traced: &Latencies) {
    for (layer, metric) in [
        (layers::PARSE, "datasets.io.parse_ms"),
        (layers::BUILD, "datasets.construct.build_ms"),
        (layers::CONTEXT, "core.context.fingerprint_ms"),
        (layers::FACTOR, "graph.lowrank.factor_ms"),
        (layers::SUMMARIZE, "core.paths.summarize_ms"),
        (layers::OPTIMIZE, "core.estimators.optimize_ms"),
        (layers::PROPAGATE, "propagation.propagate_ms"),
    ] {
        put(values, metric, b.layer_ms(layer), b.ops);
    }
    put(values, "sparse.spmm_ms", b.per_op(b.spmm_ns) / 1e6, b.ops);
    put(
        values,
        "sparse.spmm_calls",
        b.per_op(b.spmm_calls as u64),
        b.ops,
    );
    put(values, "trace.coverage", b.coverage(), b.ops);
    let overhead = 100.0 * (traced.percentile_ms(50.0) / untraced.percentile_ms(50.0) - 1.0);
    put(values, "trace.overhead_pct", overhead, traced.len());
}

/// `batch_exact`: parse an edge and seed file, then DCEr + LinBP in exact mode.
pub fn exact(settings: &Settings, work: &Path) -> Result<RunResult, String> {
    let shape = if settings.smoke { &EXACT_SMOKE } else { &EXACT };
    let label_seed = stream_seed(settings.seed, EXACT_GRAPH);
    let data = Planted::generate(shape, "exact", EXACT_GRAPH, label_seed, work)?;
    let dcer = estimator("dcer", THREADS)?;
    let mut tally = Tally::default();

    // Before timing: a 2-thread layer-by-layer op reproduces a serial Pipeline
    // run bit for bit, and so must every op after it.
    let reference = data.pipeline(&data.seeds)?;
    let two_threads = estimator("dcer", Threads::Fixed(2))?;
    let out = exact_op(&data, two_threads.as_ref(), Threads::Fixed(2));
    tally.check(
        out.map(|o| o.same_as(&reference.estimated_h, &reference.outcome)),
        "2-thread op differs from the serial pipeline",
    );
    let ops = |stop: Stop, tally: &mut Tally, data: &Planted, reference: &PipelineReport| {
        repeat(stop, tally, "op differs from the serial pipeline", || {
            let (elapsed, out) = timed(|| exact_op(data, dcer.as_ref(), THREADS));
            let out = out.map(|o| o.same_as(&reference.estimated_h, &reference.outcome));
            (elapsed, out)
        })
    };
    // The warm-up ops are this workload's setup.
    let setup = ops(
        Stop::After(settings.setups()),
        &mut tally,
        &data,
        &reference,
    );

    let mut values = Values::new();
    if !settings.trace {
        let timed_ops = ops(Stop::For(settings.budget()), &mut tally, &data, &reference);
        let rss = peak_rss_mb()?;
        let draws = settings.panel(EXACT_PANEL_DRAWS);
        let accuracy = data.panel_accuracy(dcer.as_ref(), draws)?;
        let busy = timed_ops.total();
        let accuracy = (accuracy, draws as usize);
        put_end_to_end(&mut values, &setup, &timed_ops, busy, rss, accuracy);
        return Ok(tally.finish(false, values));
    }

    // Traced run, in thirds: untraced ops, traced ops, then traced ops at n/4
    // for the paper's cost model (summarize grows with m, optimize stays flat).
    let third = Stop::For(settings.budget() / 3);
    let untraced = ops(third, &mut tally, &data, &reference);
    let (traced_ops, full) = traced(|| ops(third, &mut tally, &data, &reference));
    let quarter_shape = GraphShape {
        nodes: shape.nodes / 4,
        ..*shape
    };
    let quarter_seed = stream_seed(settings.seed, QUARTER_GRAPH);
    let quarter = Planted::generate(&quarter_shape, "quarter", QUARTER_GRAPH, quarter_seed, work)?;
    let quarter_reference = quarter.pipeline(&quarter.seeds)?;
    ops(Stop::After(1), &mut tally, &quarter, &quarter_reference); // untraced warm-up
    let (_, small) = traced(|| ops(third, &mut tally, &quarter, &quarter_reference));

    put_layers(&mut values, &full, &untraced, &traced_ops);
    let iterations = reference.outcome.iterations as f64;
    put(&mut values, "propagation.iterations", iterations, 1);
    let growth = |layer| full.layer_ms(layer) / small.layer_ms(layer);
    let (summarize, optimize) = (growth(layers::SUMMARIZE), growth(layers::OPTIMIZE));
    put(
        &mut values,
        "cost_model.summarize_growth",
        summarize,
        small.ops,
    );
    put(
        &mut values,
        "cost_model.optimize_growth",
        optimize,
        small.ops,
    );
    Ok(tally.finish(true, values))
}

/// One `batch_lowrank` input: a blob cloud and its seed sample.
struct Blobs {
    features: DenseMatrix,
    truth: Labeling,
    seeds: SeedLabels,
}

impl Blobs {
    fn generate(shape: &LowRankShape, nodes: usize, seed: u64) -> Result<Blobs, String> {
        let (features, truth) = synthesize_blobs(&BlobConfig {
            nodes,
            classes: shape.classes,
            dims: shape.dims,
            seed,
            ..BlobConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1));
        let seeds = truth.stratified_sample(shape.seed_fraction, &mut rng);
        Ok(Blobs {
            features,
            truth,
            seeds,
        })
    }
}

/// One `batch_lowrank` op: construct the kNN graph, then DCEr in low-rank
/// mode (eigensolve, factor recurrence, optimization) and LinBP.
fn lowrank_op(
    blobs: &Blobs,
    builder: &KnnBuilder,
    estimator: &dyn CompatibilityEstimator,
) -> Result<OpOutput, String> {
    let _op = Span::enter(layers::OP);
    let graph = {
        let _span = Span::enter(layers::BUILD);
        builder.build(&blobs.features).map_err(|e| e.to_string())?
    };
    estimate_and_propagate(&graph, &blobs.seeds, estimator, THREADS)
}

/// The full-rank oracle: at rank = n the low-rank path counts equal the exact
/// ones. Returns the largest difference over all lengths, relative to the
/// largest exact count of that length (absolute where no path of that length
/// joins two seeds). `H` itself is no oracle: DCEr's argmin over restarts can
/// flip between near-equal minima on a 1e-13 perturbation.
fn full_rank_count_gap(
    shape: &LowRankShape,
    builder: &KnnBuilder,
    seed: u64,
) -> Result<f64, String> {
    let blobs = Blobs::generate(shape, shape.oracle_nodes, seed)?;
    let graph = builder.build(&blobs.features).map_err(|e| e.to_string())?;
    let ctx = EstimationContext::new(&graph, &blobs.seeds);
    let exact = DceWithRestarts::default().config.summary_config();
    let full_rank = SummaryConfig {
        backend: CountingBackend::LowRank(FactorConfig::with_rank(graph.num_nodes())),
        ..exact
    };
    let exact = ctx.summary(&exact).map_err(|e| e.to_string())?;
    let full_rank = ctx.summary(&full_rank).map_err(|e| e.to_string())?;
    let mut worst = 0.0f64;
    for l in 1..=exact.max_length() {
        let e = exact.count(l).expect("l <= lmax").data();
        let a = full_rank.count(l).expect("l <= lmax").data();
        let scale = e.iter().fold(1.0, |m: f64, x| m.max(x.abs()));
        let gap = e
            .iter()
            .zip(a)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        worst = worst.max(gap / scale);
    }
    Ok(worst)
}

/// Per-op observations of the low-rank ops since the last reset.
#[derive(Default)]
struct LowRankStats {
    factor_iterations: Vec<f64>,
    propagation_iterations: Vec<f64>,
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// `batch_lowrank`: kNN construction, then DCEr(mode=lowrank) + LinBP on a
/// fresh blob set per op.
pub fn lowrank(settings: &Settings) -> Result<RunResult, String> {
    let shape = if settings.smoke {
        &LOWRANK_SMOKE
    } else {
        &LOWRANK
    };
    let builder = KnnBuilder {
        k: shape.knn,
        threads: THREADS,
        ..KnnBuilder::default()
    };
    let mut tally = Tally::default();
    let gap = full_rank_count_gap(shape, &builder, stream_seed(settings.seed, 0))?;
    tally.check(
        Ok(gap <= 1e-8),
        &format!("full-rank counts differ from exact by {gap:e}"),
    );

    let spec = format!("dcer(mode=lowrank,rank={})", shape.rank);
    let dcer = estimator(&spec, THREADS)?;
    let mut next_blobs = 0u64;
    let mut ops = |stop: Stop, tally: &mut Tally, stats: &mut LowRankStats| {
        repeat(stop, tally, "low-rank op left nodes unlabeled", || {
            next_blobs += 1;
            let seed = stream_seed(settings.seed, next_blobs);
            let blobs = Blobs::generate(shape, shape.nodes, seed).expect("valid blob shape");
            let (elapsed, out) = timed(|| lowrank_op(&blobs, &builder, dcer.as_ref()));
            let out = out.map(|o| {
                stats.factor_iterations.push(o.factor_iterations as f64);
                stats
                    .propagation_iterations
                    .push(o.outcome.iterations as f64);
                o.outcome.predictions.len() == shape.nodes
            });
            (elapsed, out)
        })
    };
    let setup = ops(
        Stop::After(settings.setups()),
        &mut tally,
        &mut LowRankStats::default(),
    );
    let mut values = Values::new();
    if !settings.trace {
        let mut stats = LowRankStats::default();
        let timed_ops = ops(Stop::For(settings.budget()), &mut tally, &mut stats);
        let rss = peak_rss_mb()?;
        let graphs = settings.panel(LOWRANK_PANEL_GRAPHS);
        let draws = settings.panel(LOWRANK_PANEL_DRAWS);
        let mut accuracy = 0.0;
        for g in 0..graphs {
            let blobs = Blobs::generate(shape, shape.nodes, stream_seed(PANEL_STREAM, g))?;
            let graph = builder.build(&blobs.features).map_err(|e| e.to_string())?;
            let fraction = shape.seed_fraction;
            accuracy += panel_accuracy(&graph, &blobs.truth, fraction, dcer.as_ref(), draws)?;
        }
        let busy = timed_ops.total();
        let accuracy = (accuracy / graphs as f64, (graphs * draws) as usize);
        put_end_to_end(&mut values, &setup, &timed_ops, busy, rss, accuracy);
        return Ok(tally.finish(false, values));
    }

    let half = Stop::For(settings.budget() / 2);
    let untraced = ops(half, &mut tally, &mut LowRankStats::default());
    let mut stats = LowRankStats::default();
    let (traced_ops, breakdown) = traced(|| ops(half, &mut tally, &mut stats));
    put_layers(&mut values, &breakdown, &untraced, &traced_ops);
    let n = stats.factor_iterations.len();
    let factor_iterations = mean(&stats.factor_iterations);
    put(
        &mut values,
        "graph.lowrank.iterations",
        factor_iterations,
        n,
    );
    let iterations = mean(&stats.propagation_iterations);
    put(&mut values, "propagation.iterations", iterations, n);
    Ok(tally.finish(true, values))
}
