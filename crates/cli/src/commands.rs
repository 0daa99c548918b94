//! Implementation of the CLI subcommands.
//!
//! Each command is a plain function over an [`ArgMap`] so the logic is unit-testable
//! without spawning the binary. Errors are strings suitable for printing to stderr.
//!
//! Estimation (`--method`) and propagation (`--propagator` / `propagate --method`)
//! backends are resolved by name through their registries (`fg_core::ESTIMATORS`
//! and `fg_propagation::PROPAGATORS`), so every estimator and `Propagator` in
//! the workspace is reachable from the command line — including fully parameterized
//! estimator specs like `--method "DCEr(r=10,l=5,lambda=0.1)"`.

use crate::args::ArgMap;
use crate::matrix_io;
use fg_core::prelude::*;
use fg_core::{EntryMeta, GraphKey, ESTIMATORS};
use fg_datasets::{synthesize, DatasetId};
use fg_graph::spec::{Kind, SpecOptions};
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

type CommandResult = Result<String, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Load the graph (`--edges`, `--nodes`) and seed labels (`--labels`, `--classes`) shared
/// by the estimation / propagation / classification commands.
fn load_graph_and_labels(args: &ArgMap) -> Result<(Graph, SeedLabels, usize), String> {
    let n: usize = args.require_parsed("nodes").map_err(err)?;
    let k: usize = args.require_parsed("classes").map_err(err)?;
    let edges_path: String = args.require("edges").map_err(err)?.to_string();
    let labels_path: String = args.require("labels").map_err(err)?.to_string();
    let graph = fg_datasets::read_edge_list(Path::new(&edges_path), n).map_err(err)?;
    let seeds = fg_datasets::read_labels(Path::new(&labels_path), n, k).map_err(err)?;
    Ok((graph, seeds, k))
}

/// Build the estimator selected by `--method` (default `dcer`) through the fg-core
/// estimator registry, together with its display label (the estimator's own
/// parameterized name, e.g. `"DCEr(r=10,l=5,lambda=10)"`).
///
/// `--method` accepts a plain registry name (`dcer`) or a fully parameterized spec
/// (`"DCEr(r=10,l=5,lambda=0.1)"`); every key of the estimator table is also a
/// flag (`--lmax`, `--mode`, `--rank`, …) supplying a default that spec
/// parameters override. `--threads` covers the estimation stage: the
/// summarization kernels run in parallel with bit-identical output.
fn build_estimator(args: &ArgMap) -> Result<(Box<dyn CompatibilityEstimator>, String), String> {
    let method = args.get("method").unwrap_or("dcer");
    let defaults = EstimatorOptions {
        threads: args.get_parsed("threads").map_err(err)?,
        ..EstimatorOptions::default()
    };
    let defaults =
        ESTIMATORS.options(defaults, |key| Ok(args.get(key.name).map(str::to_string)))?;
    let estimator = ESTIMATORS.by_spec(method, &defaults)?;
    let label = estimator.name();
    Ok((estimator, label))
}

/// Build the propagation backend selected by `option_name` (default `linbp`) through
/// the propagation registry, applying the propagator table's flags
/// (`--iterations`, `--tolerance`, `--damping`) and `--threads`. `--threads`
/// accepts a worker count, `auto` (one worker per hardware thread), or `serial`;
/// the parallel kernels are bit-identical to the serial ones, so it never changes
/// the predictions.
fn build_propagator(args: &ArgMap, option_name: &str) -> Result<Box<dyn Propagator>, String> {
    let method = args.get(option_name).unwrap_or("linbp");
    let opts = PropagatorOptions {
        threads: args.get_parsed("threads").map_err(err)?,
        ..PropagatorOptions::default()
    };
    let opts = PROPAGATORS.options(opts, |key| Ok(args.get(key.name).map(str::to_string)))?;
    PROPAGATORS.build(method, &opts)
}

/// `fg generate`: create a synthetic planted-compatibility graph and write it as an edge
/// list plus a full label file.
pub fn cmd_generate(args: &ArgMap) -> CommandResult {
    let n: usize = args.require_parsed("nodes").map_err(err)?;
    let degree: f64 = args.get_parsed_or("degree", 10.0).map_err(err)?;
    let k: usize = args.get_parsed_or("classes", 3).map_err(err)?;
    let skew: f64 = args.get_parsed_or("skew", 3.0).map_err(err)?;
    let seed: u64 = args.get_parsed_or("seed", 0).map_err(err)?;
    let out_edges: String = args.require("out-edges").map_err(err)?.to_string();
    let out_labels: String = args.require("out-labels").map_err(err)?.to_string();

    let mut config = if args.has_flag("uniform-degrees") {
        GeneratorConfig::balanced_uniform(n, degree, k, skew).map_err(err)?
    } else {
        GeneratorConfig::balanced(n, degree, k, skew).map_err(err)?
    };
    if let Some(alpha) = args.get_float_list("alpha").map_err(err)? {
        config.alpha = alpha;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let synthetic = generate(&config, &mut rng).map_err(err)?;

    fg_datasets::write_edge_list(Path::new(&out_edges), &synthetic.graph).map_err(err)?;
    std::fs::write(
        Path::new(&out_labels),
        fg_datasets::format_labels(&synthetic.labeling),
    )
    .map_err(err)?;
    Ok(format!(
        "generated graph with {} nodes and {} edges (planted skew {skew}); wrote {out_edges} and {out_labels}",
        synthetic.graph.num_nodes(),
        synthetic.graph.num_edges()
    ))
}

/// `fg dataset`: write one of the real-world dataset substitutes to disk. The dataset
/// can be named positionally (`fg dataset Cora ...`) or with `--name`.
pub fn cmd_dataset(args: &ArgMap) -> CommandResult {
    let name: String = match args.positional().first() {
        Some(positional) => positional.clone(),
        None => args.require("name").map_err(err)?.to_string(),
    };
    let id = DatasetId::parse(&name).ok_or_else(|| {
        format!(
            "unknown dataset '{name}' (expected one of {:?})",
            DatasetId::all().map(|d| d.name())
        )
    })?;
    let scale: f64 = args.get_parsed_or("scale", 0.05).map_err(err)?;
    let seed: u64 = args.get_parsed_or("seed", 0).map_err(err)?;
    let out_edges: String = args.require("out-edges").map_err(err)?.to_string();
    let out_labels: String = args.require("out-labels").map_err(err)?.to_string();

    let instance = synthesize(id, scale, seed).map_err(err)?;
    fg_datasets::write_edge_list(Path::new(&out_edges), &instance.graph).map_err(err)?;
    std::fs::write(
        Path::new(&out_labels),
        fg_datasets::format_labels(&instance.labeling),
    )
    .map_err(err)?;
    Ok(format!(
        "wrote {} substitute ({} nodes, {} edges, k = {}) to {out_edges} / {out_labels}",
        id.name(),
        instance.graph.num_nodes(),
        instance.graph.num_edges(),
        instance.spec.k
    ))
}

/// `fg construct`: build a graph from a dense feature matrix — read from a file
/// (`--features`, one row per node, labels column last, `?` = unlabeled) or
/// synthesized as Gaussian blobs (`--blobs N`) — and write it as an edge list.
/// The builder is selected by name or parameterized spec (`--builder
/// 'Knn(k=10,metric=cosine)'`) through the construction registry; `--threads`
/// parallelizes the per-node work with bit-identical output at any count.
pub fn cmd_construct(args: &ArgMap) -> CommandResult {
    let builder_spec = args.get("builder").unwrap_or("knn").to_string();
    let threads = args
        .get_parsed_or("threads", Threads::Serial)
        .map_err(err)?;
    let out_edges: String = args.require("out-edges").map_err(err)?.to_string();

    let (features, labels) = match args.get("features") {
        Some(path) => {
            let data = fg_datasets::read_features(Path::new(path)).map_err(err)?;
            (data.features, data.labels)
        }
        None => {
            let nodes: usize = args.require_parsed("blobs").map_err(|_| {
                "fg construct needs an input: --features FILE or --blobs N".to_string()
            })?;
            let config = fg_datasets::BlobConfig {
                nodes,
                classes: args.get_parsed_or("classes", 3).map_err(err)?,
                dims: args.get_parsed_or("dims", 4).map_err(err)?,
                spread: args.get_parsed_or("spread", 1.0).map_err(err)?,
                spread_skew: args.get_parsed_or("spread-skew", 1.0).map_err(err)?,
                seed: args.get_parsed_or("seed", 0).map_err(err)?,
            };
            let (features, truth) = fg_datasets::synthesize_blobs(&config).map_err(err)?;
            let labels = truth.as_slice().iter().map(|&c| Some(c)).collect();
            (features, labels)
        }
    };
    let builder = fg_datasets::BUILDERS.by_spec(
        &builder_spec,
        &fg_datasets::ConstructionOptions {
            threads: Some(threads),
            ..Default::default()
        },
    )?;
    // With --summary-cache, constructed graphs are content-addressed by the
    // feature matrix's fingerprint plus the parameterized builder spec: a warm
    // run loads the finished edge list instead of repeating the O(n^2 d) build.
    let store = open_summary_store(args)?;
    let features_fp = fg_datasets::features_fingerprint(&features);
    let spec_name = builder.name();
    let key = GraphKey(features_fp, &spec_name, features.rows());
    let cached = store.as_ref().and_then(|s| match s.load(&key) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("warning: {e}; reconstructing");
            None
        }
    });
    let from_cache = cached.is_some();
    let graph = match cached {
        Some(graph) => graph,
        None => {
            let graph = builder.build(&features).map_err(err)?;
            if let Some(s) = &store {
                if let Err(e) = s.save(&key, &graph) {
                    eprintln!("warning: cannot persist the constructed graph: {e}");
                }
            }
            graph
        }
    };
    fg_datasets::write_edge_list(Path::new(&out_edges), &graph).map_err(err)?;
    if let Some(out) = args.get("out-features") {
        fg_datasets::write_features(Path::new(out), &features, &labels).map_err(err)?;
    }
    if let Some(out) = args.get("out-labels") {
        let mut text = String::from("# node\tclass\n");
        for (i, label) in labels.iter().enumerate() {
            if let Some(c) = label {
                text.push_str(&format!("{i}\t{c}\n"));
            }
        }
        std::fs::write(Path::new(out), text).map_err(err)?;
    }
    Ok(format!(
        "constructed graph with {}{} ({} nodes, {} edges, mean degree {:.2}); wrote {out_edges}",
        spec_name,
        if from_cache { " [cached]" } else { "" },
        graph.num_nodes(),
        graph.num_edges(),
        graph.average_degree()
    ))
}

/// Open the persistent summary store selected by `--summary-cache DIR` (absent =
/// caching disabled; the flag form `--summary-cache` uses the default directory
/// `target/experiments/summaries`).
fn open_summary_store(args: &ArgMap) -> Result<Option<Arc<SummaryStore>>, String> {
    let dir = match args.get("summary-cache") {
        Some(dir) => std::path::PathBuf::from(dir),
        None if args.has_flag("summary-cache") => SummaryStore::default_dir(),
        None => return Ok(None),
    };
    Ok(Some(Arc::new(SummaryStore::open(dir).map_err(err)?)))
}

/// Render both registries for `fg estimate --list-methods`: estimators with their
/// aliases and fully parameterized default names, then propagation backends.
fn list_methods() -> String {
    let mut out = vec!["ESTIMATORS (fg estimate/classify --method):".to_string()];
    let defaults = EstimatorOptions::default();
    for spec in ESTIMATORS.entries() {
        let built = (spec.build)(&defaults);
        let aliases = if spec.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", spec.aliases.join(", "))
        };
        out.push(format!("  {:<8} {}{aliases}", spec.name, spec.description));
        out.push(format!("           defaults: {}", built.name()));
    }
    out.push(String::new());
    out.push("PROPAGATORS (fg propagate --method / classify --propagator):".to_string());
    for spec in PROPAGATORS.entries() {
        let aliases = if spec.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", spec.aliases.join(", "))
        };
        out.push(format!("  {:<8} {}{aliases}", spec.name, spec.description));
    }
    out.push(String::new());
    out.push(
        "Parameterized estimator specs are accepted anywhere a name is, e.g. \
         --method 'DCEr(r=10,l=5,lambda=10)'."
            .to_string(),
    );
    out.join("\n")
}

/// `fg estimate`: estimate the compatibility matrix from a partially labeled graph.
/// With `--summary-cache DIR` the factorized path counts are persisted and reused
/// across invocations (bit-identical results, zero summarizations when warm); with
/// `--list-methods` the estimator and propagator registries are printed instead.
pub fn cmd_estimate(args: &ArgMap) -> CommandResult {
    if args.has_flag("list-methods") {
        return Ok(list_methods());
    }
    let (graph, seeds, _) = load_graph_and_labels(args)?;
    let (estimator, label) = build_estimator(args)?;
    let store = open_summary_store(args)?;
    let (h, cache_note) = match &store {
        None => (estimator.estimate(&graph, &seeds).map_err(err)?, None),
        Some(store) => {
            let threads = args
                .get_parsed::<Threads>("threads")
                .map_err(err)?
                .unwrap_or(Threads::Serial);
            let ctx = EstimationContext::new(&graph, &seeds)
                .threads(threads)
                .store(Arc::clone(store));
            let h = estimator.estimate_with_context(&ctx).map_err(err)?;
            let mut note = format!(
                "summary computations: {} (store hits: {}, cache dir {})",
                ctx.summary_computations(),
                ctx.store_hits(),
                store.dir().display()
            );
            let cache = ctx.cache();
            if cache.factor_computations() + cache.factor_store_hits() > 0 {
                note.push_str(&format!(
                    "\nlow-rank eigensolves: {} (factor store hits: {})",
                    cache.factor_computations(),
                    cache.factor_store_hits()
                ));
            }
            (h, Some(note))
        }
    };
    let rendered = matrix_io::format_matrix(&h);
    if let Some(out) = args.get("out") {
        matrix_io::write_matrix(Path::new(out), &h).map_err(err)?;
    }
    let mut report = format!(
        "estimated compatibilities with {label} from {} labeled nodes:\n{rendered}",
        seeds.num_labeled()
    );
    if let Some(note) = cache_note {
        report.push_str(&note);
    }
    Ok(report)
}

/// `fg propagate`: label the remaining nodes with any propagation backend
/// (`--method linbp|bp|harmonic|rw`). LinBP and loopy BP consume an explicit
/// compatibility matrix file (`--compat`); the homophily baselines need none.
pub fn cmd_propagate(args: &ArgMap) -> CommandResult {
    let (graph, seeds, k) = load_graph_and_labels(args)?;
    let propagator = build_propagator(args, "method")?;

    let explicit_h;
    let mut pipeline = Pipeline::on(&graph).seeds(&seeds);
    if propagator.uses_compatibilities() {
        let compat_path: String = args
            .require("compat")
            .map_err(|_| {
                format!(
                    "propagation method '{}' requires --compat H_FILE",
                    propagator.name()
                )
            })?
            .to_string();
        explicit_h = matrix_io::read_matrix(Path::new(&compat_path)).map_err(err)?;
        if explicit_h.rows() != k {
            return Err(format!(
                "compatibility matrix is {}x{} but --classes is {k}",
                explicit_h.rows(),
                explicit_h.cols()
            ));
        }
        pipeline = pipeline.compatibilities(compat_path, &explicit_h);
    }
    let report = pipeline.propagator(propagator).run().map_err(err)?;

    if let Some(out) = args.get("out") {
        matrix_io::write_predictions(Path::new(out), &report.outcome.predictions).map_err(err)?;
    }
    let epsilon = match report.outcome.epsilon {
        Some(e) => format!("epsilon = {e:.4}, "),
        None => String::new(),
    };
    Ok(format!(
        "propagated labels to {} nodes with {} in {} iterations ({epsilon}converged = {})",
        graph.num_nodes(),
        report.propagator,
        report.outcome.iterations,
        report.outcome.converged
    ))
}

/// `fg classify`: end-to-end estimation + propagation with any estimator × propagator
/// combination; optionally evaluate against a ground-truth label file.
pub fn cmd_classify(args: &ArgMap) -> CommandResult {
    let (graph, seeds, k) = load_graph_and_labels(args)?;
    let (estimator, label) = build_estimator(args)?;
    let propagator = build_propagator(args, "propagator")?;
    let mut pipeline = Pipeline::on(&graph)
        .seeds(&seeds)
        .estimator(estimator)
        .estimator_label(label)
        .propagator(propagator);
    // --threads covers both stages: the propagator got it via build_propagator, and
    // the estimation stage (summarize + optimize) takes it here. Bit-identical output
    // at any thread count.
    if let Some(threads) = args.get_parsed::<Threads>("threads").map_err(err)? {
        pipeline = pipeline.estimation_threads(threads);
    }
    // --summary-cache persists the factorized path counts; repeated invocations on
    // the same dataset then skip summarization with bit-identical predictions.
    let store = open_summary_store(args)?;
    if let Some(store) = &store {
        pipeline = pipeline.summary_store(Arc::clone(store));
    }
    // --trace-out captures the span hierarchy (pipeline → estimate → summarize →
    // spmm) as Chrome trace-event JSON. Tracing only observes wall-clock time:
    // predictions are byte-identical with and without it.
    let trace_out = args.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        pipeline = pipeline.trace(true);
    }
    let mut report = pipeline.run().map_err(err)?;
    if let Some(out) = args.get("out") {
        matrix_io::write_predictions(Path::new(out), &report.outcome.predictions).map_err(err)?;
    }
    let mut rendered = format!(
        "classified {} nodes with {} + {} (estimation {:?}, propagation {:?})",
        graph.num_nodes(),
        report.estimator,
        report.propagator,
        report.estimation_time,
        report.propagation_time
    );
    if let Some(store) = &store {
        rendered.push_str(&format!(
            "\nsummary computations: {} (store hits: {}, estimate hits: {}, cache dir {})",
            report.summary_computations,
            report.summary_store_hits,
            report.optimize_store_hits,
            store.dir().display()
        ));
    }
    if let Some(path) = &trace_out {
        let trace = report.trace.as_ref().expect("tracing was enabled");
        std::fs::write(path, trace.chrome_json()).map_err(err)?;
        rendered.push_str(&format!(
            "\nwrote Chrome trace ({} spans) to {}",
            trace.len(),
            path.display()
        ));
    }
    let mut truth_labeling = None;
    if let Some(truth_path) = args.get("truth") {
        let truth_seeds =
            fg_datasets::read_labels(Path::new(truth_path), graph.num_nodes(), k).map_err(err)?;
        let labels: Option<Vec<usize>> = truth_seeds.as_slice().iter().copied().collect();
        match labels {
            Some(full) => {
                let truth = Labeling::new(full, k).map_err(err)?;
                let accuracy = report.evaluate(&truth, &seeds);
                let micro = report.micro_accuracy.unwrap_or(accuracy);
                rendered.push_str(&format!(
                    "\nmacro accuracy on unlabeled nodes: {accuracy:.4}\
                     \nmicro accuracy on unlabeled nodes: {micro:.4}"
                ));
                truth_labeling = Some(truth);
            }
            None => {
                rendered.push_str("\n(truth file does not label every node; skipping accuracy)")
            }
        }
    }
    // --abstain surfaces the PR 4 abstain-aware metrics: the abstention rate is
    // always computable, the abstaining macro accuracy needs ground truth.
    if args.has_flag("abstain") {
        let rate = report.evaluate_abstain(&seeds, truth_labeling.as_ref());
        rendered.push_str(&format!("\nabstention rate on unlabeled nodes: {rate:.4}"));
        if let Some(acc) = report.abstaining_macro_accuracy {
            rendered.push_str(&format!("\nabstaining macro accuracy: {acc:.4}"));
        }
    }
    if args.has_flag("json") {
        rendered.push('\n');
        rendered.push_str(&report.to_json());
    }
    Ok(rendered)
}

/// `fg cache`: inspect (`ls`) or empty (`clear`) a persistent summary-cache
/// directory (`--dir DIR`, default `target/experiments/summaries`).
pub fn cmd_cache(args: &ArgMap) -> CommandResult {
    let action = args
        .positional()
        .first()
        .map(|s| s.as_str())
        .ok_or("usage: fg cache <ls|clear> [--dir DIR]")?;
    let dir = args
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(SummaryStore::default_dir);
    let store = SummaryStore::open(&dir).map_err(err)?;
    match action {
        "ls" => {
            let entries = store.entries().map_err(err)?;
            if args.has_flag("json") {
                return Ok(cache_entries_json(&store, entries));
            }
            if entries.is_empty() {
                return Ok(format!("summary cache {} is empty", dir.display()));
            }
            let mut out = vec![format!(
                "summary cache {} ({} file{}):",
                dir.display(),
                entries.len(),
                if entries.len() == 1 { "" } else { "s" }
            )];
            let short = |fp: fg_graph::Fingerprint| fp.to_hex()[..12].to_string();
            for entry in entries {
                let description = match entry.meta {
                    Some(EntryMeta::Summary(meta)) => format!(
                        "k={} lmax={} mode={} graph={}.. seeds={}..",
                        meta.k,
                        meta.max_length,
                        if meta.non_backtracking { "nb" } else { "all" },
                        short(meta.graph_fp),
                        short(meta.seed_fp)
                    ),
                    Some(EntryMeta::Estimate(meta)) => format!(
                        "H estimate k={} estimator={} graph={}.. seeds={}..",
                        meta.k,
                        meta.estimator,
                        short(meta.graph_fp),
                        short(meta.seed_fp)
                    ),
                    Some(EntryMeta::Graph(meta)) => format!(
                        "constructed graph nodes={} edges={} builder={} features={}..",
                        meta.nodes,
                        meta.edges,
                        meta.builder,
                        short(meta.features_fp)
                    ),
                    Some(EntryMeta::Factor(meta)) => format!(
                        "low-rank factor rank={} nodes={} graph={}..",
                        meta.rank,
                        meta.nodes,
                        short(meta.graph_fp)
                    ),
                    None => "CORRUPT or unreadable".to_string(),
                };
                out.push(format!(
                    "  {}  {description} ({} bytes)",
                    entry.file, entry.bytes
                ));
            }
            Ok(out.join("\n"))
        }
        "clear" => {
            let removed = store.clear().map_err(err)?;
            Ok(format!(
                "removed {removed} summary file{} from {}",
                if removed == 1 { "" } else { "s" },
                dir.display()
            ))
        }
        "gc" => {
            let max_bytes = match args.get("max-bytes") {
                Some(raw) => Some(parse_bytes(raw)?),
                None => None,
            };
            let max_age = match args.get("max-age") {
                Some(raw) => Some(parse_age(raw)?),
                None => None,
            };
            if max_bytes.is_none() && max_age.is_none() {
                return Err(
                    "fg cache gc needs at least one bound: --max-bytes N[K|M|G] and/or \
                     --max-age SECS[m|h|d]"
                        .into(),
                );
            }
            let outcome = store.gc(max_bytes, max_age).map_err(err)?;
            Ok(format!(
                "gc {}: removed {} file{} ({} bytes), kept {} ({} bytes)",
                dir.display(),
                outcome.removed,
                if outcome.removed == 1 { "" } else { "s" },
                outcome.bytes_removed,
                outcome.kept,
                outcome.bytes_kept
            ))
        }
        other => Err(format!(
            "unknown cache action '{other}' (expected ls, clear, or gc)"
        )),
    }
}

/// Render `fg cache ls --json`: one JSON object per store entry (kind,
/// fingerprints, bytes, mtime) so operators can script against the store.
fn cache_entries_json(store: &SummaryStore, entries: Vec<fg_core::StoreEntry>) -> String {
    use fg_serve::Json;
    let items: Vec<Json> = entries
        .into_iter()
        .map(|entry| {
            let mtime_unix = std::fs::metadata(store.dir().join(&entry.file))
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_secs());
            let mut fields = vec![
                ("file", Json::str(entry.file.clone())),
                ("bytes", Json::num(entry.bytes as usize)),
                (
                    "mtime_unix",
                    match mtime_unix {
                        Some(secs) => Json::num(secs as usize),
                        None => Json::Null,
                    },
                ),
            ];
            let hex = |fp: fg_graph::Fingerprint| Json::str(fp.to_hex());
            match entry.meta {
                Some(EntryMeta::Summary(meta)) => fields.extend([
                    ("kind", Json::str("summary")),
                    ("k", Json::num(meta.k)),
                    ("lmax", Json::num(meta.max_length)),
                    (
                        "mode",
                        Json::str(if meta.non_backtracking { "nb" } else { "all" }),
                    ),
                    ("graph_fingerprint", hex(meta.graph_fp)),
                    ("seed_fingerprint", hex(meta.seed_fp)),
                ]),
                Some(EntryMeta::Estimate(meta)) => fields.extend([
                    ("kind", Json::str("h")),
                    ("k", Json::num(meta.k)),
                    ("estimator", Json::str(meta.estimator)),
                    ("graph_fingerprint", hex(meta.graph_fp)),
                    ("seed_fingerprint", hex(meta.seed_fp)),
                ]),
                Some(EntryMeta::Graph(meta)) => fields.extend([
                    ("kind", Json::str("graph")),
                    ("nodes", Json::num(meta.nodes)),
                    ("edges", Json::num(meta.edges)),
                    ("builder", Json::str(meta.builder)),
                    ("features_fingerprint", hex(meta.features_fp)),
                ]),
                Some(EntryMeta::Factor(meta)) => fields.extend([
                    ("kind", Json::str("factor")),
                    ("rank", Json::num(meta.rank)),
                    ("nodes", Json::num(meta.nodes)),
                    ("graph_fingerprint", hex(meta.graph_fp)),
                ]),
                None => fields.push(("kind", Json::str("corrupt"))),
            }
            Json::obj(fields)
        })
        .collect();
    Json::Arr(items).to_string()
}

/// Parse a byte count with an optional `K`/`M`/`G` suffix (powers of 1024).
fn parse_bytes(raw: &str) -> Result<u64, String> {
    let trimmed = raw.trim();
    let (digits, factor) = match trimmed.chars().last() {
        Some('k') | Some('K') => (&trimmed[..trimmed.len() - 1], 1024u64),
        Some('m') | Some('M') => (&trimmed[..trimmed.len() - 1], 1024 * 1024),
        Some('g') | Some('G') => (&trimmed[..trimmed.len() - 1], 1024 * 1024 * 1024),
        _ => (trimmed, 1),
    };
    let value: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte count '{raw}' (expected N, NK, NM, or NG)"))?;
    value
        .checked_mul(factor)
        .ok_or_else(|| format!("byte count '{raw}' overflows"))
}

/// Parse an age with an optional `s`/`m`/`h`/`d` suffix (seconds by default).
fn parse_age(raw: &str) -> Result<std::time::Duration, String> {
    let trimmed = raw.trim();
    let (digits, factor) = match trimmed.chars().last() {
        Some('s') => (&trimmed[..trimmed.len() - 1], 1u64),
        Some('m') => (&trimmed[..trimmed.len() - 1], 60),
        Some('h') => (&trimmed[..trimmed.len() - 1], 3600),
        Some('d') => (&trimmed[..trimmed.len() - 1], 86_400),
        _ => (trimmed, 1),
    };
    let value: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid age '{raw}' (expected SECS, Nm, Nh, or Nd)"))?;
    Ok(std::time::Duration::from_secs(value.saturating_mul(factor)))
}

/// `fg run`: execute every experiment declared in a manifest file (see
/// `crate::manifest` for the format), printing one report JSON per entry.
/// `--threads N|auto` distributes independent entries across workers through the
/// `fg_sparse::run_ordered_cells` work queue with one shared summary cache — output
/// is byte-identical to the serial order.
pub fn cmd_run(args: &ArgMap) -> CommandResult {
    let path = match args.positional().first() {
        Some(positional) => positional.clone(),
        None => args
            .require("manifest")
            .map_err(|_| "usage: fg run MANIFEST.toml [--threads N|auto]".to_string())?
            .to_string(),
    };
    let threads = args
        .get_parsed_or("threads", Threads::Serial)
        .map_err(err)?;
    crate::manifest::run_manifest_with(Path::new(&path), threads)
}

/// `fg serve`: host a long-lived serving session over stdin/stdout (default) or a
/// TCP listener (`--port P`, port 0 picks an ephemeral port). `--summary-cache
/// [DIR]` attaches the persistent store; `--threads` sets the kernel thread policy;
/// `--engine-states N` sizes each dataset's warm engine LRU. Transport limits are
/// `--max-connections`, `--max-request-bytes`, and `--max-requests` (per
/// connection; 0 = unlimited). `--metrics-port P` starts the Prometheus-style
/// scrape listener on a second socket; `--slow-request-ms N` logs requests at or
/// above the threshold to stderr. The TCP banner (`fg serve listening on ADDR`)
/// goes to stdout; in stdio mode the protocol owns stdout, so diagnostics (and
/// the `fg serve metrics on ADDR` banner) go to stderr.
pub fn cmd_serve(args: &ArgMap) -> CommandResult {
    let threads = args
        .get_parsed_or("threads", Threads::Serial)
        .map_err(err)?;
    let store = open_summary_store(args)?;
    let mut session = fg_serve::Session::new(threads, store);
    if let Some(capacity) = args.get_parsed::<usize>("engine-states").map_err(err)? {
        session = session.with_engine_states(capacity);
    }
    // --slow-request-ms logs one stderr line per request at or above the
    // threshold (0 logs every request — the CI smoke mode).
    if let Some(millis) = args.get_parsed::<u64>("slow-request-ms").map_err(err)? {
        session = session.with_slow_request_millis(millis);
    }
    let session = std::sync::Arc::new(session);
    let defaults = fg_serve::ServeLimits::default();
    let limits = fg_serve::ServeLimits {
        max_connections: args
            .get_parsed_or("max-connections", defaults.max_connections)
            .map_err(err)?,
        max_line_bytes: args
            .get_parsed_or("max-request-bytes", defaults.max_line_bytes)
            .map_err(err)?,
        max_requests_per_connection: args
            .get_parsed_or("max-requests", defaults.max_requests_per_connection)
            .map_err(err)?,
    };
    // --metrics-port starts the Prometheus-style scrape listener on a second
    // socket. It shares the session's registry but never touches session state,
    // so the protocol port stays byte-deterministic while being scraped.
    if let Some(metrics_port) = args.get_parsed::<u16>("metrics-port").map_err(err)? {
        let host = args.get("host").unwrap_or("127.0.0.1");
        let addr = fg_serve::MetricsServer::spawn(session.metrics(), (host, metrics_port), limits)
            .map_err(|e| format!("cannot bind metrics listener {host}:{metrics_port}: {e}"))?;
        eprintln!("fg serve metrics on {addr}");
    }
    match args.get_parsed::<u16>("port").map_err(err)? {
        Some(port) => {
            let host = args.get("host").unwrap_or("127.0.0.1");
            let server = fg_serve::TcpServer::bind_with(session, (host, port), limits)
                .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
            let addr = server.local_addr().map_err(err)?;
            println!("fg serve listening on {addr}");
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            server.run().map_err(err)?;
            Ok(String::new())
        }
        None => {
            eprintln!("fg serve: reading JSON-lines requests from stdin");
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            fg_serve::serve_lines_with(&session, stdin.lock(), stdout.lock(), &limits)
                .map_err(err)?;
            Ok("fg serve: session closed".to_string())
        }
    }
}

/// `fg client`: one-shot JSON-lines request sender for a running `fg serve` TCP
/// session. Requests come from positional arguments (one JSON object each) or, when
/// none are given, stdin. Responses are printed one per line;
/// `--predictions-out FILE` additionally writes the last response that carries
/// predictions in the same `node<TAB>class` format as `fg classify --out`.
pub fn cmd_client(args: &ArgMap) -> CommandResult {
    client_with_input(args, std::io::stdin())
}

/// [`cmd_client`] reading its stdin requests from `input`.
fn client_with_input(args: &ArgMap, mut input: impl std::io::Read) -> CommandResult {
    let port: u16 = args.require_parsed("port").map_err(err)?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let requests: Vec<String> = if args.positional().is_empty() {
        let mut buffer = String::new();
        input.read_to_string(&mut buffer).map_err(err)?;
        buffer
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect()
    } else {
        args.positional().to_vec()
    };
    if requests.is_empty() {
        return Err("no requests: pass JSON objects as arguments or on stdin".into());
    }
    let responses = fg_serve::send_requests((host, port), &requests)
        .map_err(|e| format!("cannot reach fg serve at {host}:{port}: {e}"))?;
    if let Some(out) = args.get("predictions-out") {
        let rendered = responses
            .iter()
            .rev()
            .find_map(|r| fg_serve::predictions_to_file_format(r))
            .ok_or("no response carried predictions; nothing to write")?;
        std::fs::write(Path::new(out), rendered).map_err(err)?;
    }
    Ok(responses.join("\n"))
}

/// Top-level usage string.
pub fn usage() -> String {
    let usage = [
        "fg — factorized graph representations for SSL from sparse data",
        "",
        "USAGE: fg <command> [options]",
        "",
        "COMMANDS:",
        "  generate   --nodes N [--degree D] [--classes K] [--skew H] [--alpha a,b,..]",
        "             [--uniform-degrees] [--seed S] --out-edges FILE --out-labels FILE",
        "  dataset    [NAME | --name NAME]  (Cora|Citeseer|Hep-Th|MovieLens|Enron|",
        "             Prop-37|Pokec-Gender|Flickr)",
        "             [--scale X] [--seed S] --out-edges FILE --out-labels FILE",
        "  construct  [--features FILE | --blobs N [--classes K] [--dims D]",
        "             [--spread S] [--seed S]] [--builder knn|sparsereg |",
        "             'Knn(k=10,metric=cosine,weighting=heat,sym=union)']",
        "             [--threads N|auto] [--summary-cache [DIR]] --out-edges FILE",
        "             [--out-labels FILE] [--out-features FILE]",
        "             build a graph from a dense feature matrix (file rows:",
        "             f_1,..,f_d,label with '?' = unlabeled) or synthesized Gaussian",
        "             blobs; output is bit-identical at any thread count;",
        "             --summary-cache reuses constructed graphs keyed by the",
        "             feature-matrix fingerprint + builder spec",
        "  estimate   --edges FILE --nodes N --classes K --labels FILE",
        "             [--method dcer|dce|mce|lce|holdout | 'DCEr(r=10,l=5,lambda=10)']",
        "             [ESTIMATOR OPTIONS] [--threads N|auto] [--summary-cache [DIR]]",
        "             [--out H_FILE] [--list-methods]",
        "             (--mode lowrank, or a bare --rank R, counts paths through a",
        "              rank-R spectral factor: edge-count-independent per length,",
        "              persisted as .fgv entries by --summary-cache)",
        "  propagate  --edges FILE --nodes N --classes K --labels FILE",
        "             [--method linbp|bp|harmonic|rw] [--compat H_FILE]",
        "             [PROPAGATOR OPTIONS] [--threads N|auto] [--out PREDICTIONS]",
        "             (--compat is required for linbp and bp, ignored by harmonic and rw)",
        "  classify   --edges FILE --nodes N --classes K --labels FILE",
        "             [--method ...] [--propagator linbp|bp|harmonic|rw] [ESTIMATOR OPTIONS]",
        "             [PROPAGATOR OPTIONS] [--threads N|auto]",
        "             [--summary-cache [DIR]] [--truth FULL_LABELS] [--out PREDICTIONS]",
        "             [--json] [--trace-out TRACE.json]",
        "             (--threads parallelizes estimation and propagation alike;",
        "              output is bit-identical at any thread count; --trace-out",
        "              writes the nested span capture — pipeline, estimate,",
        "              summarize, spmm, per-worker chunks — as Chrome trace-event",
        "              JSON for chrome://tracing or Perfetto, and adds a span_tree",
        "              to --json; predictions are byte-identical with it on or off)",
        "  run        MANIFEST.toml [--threads N|auto]   execute a config-file",
        "             experiment manifest (datasets, estimators, propagators, threads,",
        "             cache dir; one report JSON per [[run]] entry; --threads runs",
        "             independent entries in parallel, byte-identical to serial)",
        "  serve      [--port P [--host H]] [--summary-cache [DIR]] [--threads N|auto]",
        "             [--engine-states N] [--max-connections N] [--max-request-bytes N]",
        "             [--max-requests N] [--metrics-port P] [--slow-request-ms N]",
        "             long-lived serving session over stdin/stdout (default) or TCP;",
        "             JSON-lines commands: load, unload, seed, estimate, classify,",
        "             stats (each takes an optional \"dataset\" name; warm reads on a",
        "             dataset run concurrently, mutations are exclusive).",
        "             Seed mutations update the factorized summaries incrementally —",
        "             after warm-up, requests report zero full summarizations.",
        "             --metrics-port exposes Prometheus-format metrics (per-command",
        "             latency histograms, per-dataset cache/engine counters,",
        "             lock-wait histograms, connection gauge) on a second listener;",
        "             --slow-request-ms logs slow requests to stderr (0 = all).",
        "  client     --port P [--host H] [--predictions-out FILE] [REQUEST...]",
        "             one-shot sender for fg serve (requests as args or on stdin)",
        "  cache      ls|clear|gc [--dir DIR] [--json] [--max-bytes N[K|M|G]]",
        "             [--max-age AGE]",
        "             inspect, empty, or garbage-collect (LRU by mtime) a summary",
        "             cache (default dir: target/experiments/summaries);",
        "             ls --json emits one machine-readable object per entry",
        "             (kind, fingerprints, bytes, mtime)",
        "",
        "  --summary-cache persists factorized path counts, estimated H matrices,",
        "  and constructed graphs keyed by content fingerprints: repeated",
        "  invocations on the same dataset skip summarization, optimization, and",
        "  graph construction entirely, with bit-identical results.",
        "  classify --abstain adds the abstention rate and abstaining macro accuracy",
        "  to the text and --json reports.",
    ]
    .join("\n");
    [
        usage,
        key_lines::<EstimatorOptions>(
            "ESTIMATOR OPTIONS (estimate, classify; also serve estimate/classify fields,\n\
             manifest keys, and keys inside a --method spec):",
        ),
        key_lines::<PropagatorOptions>(
            "PROPAGATOR OPTIONS (propagate, classify; also serve classify fields and\n\
             manifest keys):",
        ),
    ]
    .join("\n\n")
}

/// The usage lines of one key table, rendered from its rows.
fn key_lines<O: SpecOptions>(heading: &str) -> String {
    let mut lines = vec![heading.to_string()];
    for key in O::KEYS {
        let value = match key.kind {
            Kind::Count { .. } => "N".to_string(),
            Kind::Number => "X".to_string(),
            Kind::Choice(words) => words.join("|"),
            Kind::Flag => "true|false".to_string(),
        };
        let flag = format!("--{} {value}", key.name);
        let aliases = match key.aliases {
            [] => String::new(),
            aliases => format!("; in specs also {}", aliases.join(", ")),
        };
        lines.push(format!("  {flag:<24}{}{aliases}", key.help));
    }
    lines.join("\n")
}

/// Dispatch a subcommand by name.
pub fn run(command: &str, args: &ArgMap) -> CommandResult {
    match command {
        "generate" => cmd_generate(args),
        "dataset" => cmd_dataset(args),
        "construct" => cmd_construct(args),
        "estimate" => cmd_estimate(args),
        "propagate" => cmd_propagate(args),
        "classify" => cmd_classify(args),
        "run" => cmd_run(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "cache" => cmd_cache(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

#[cfg(test)]
mod option_parity;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(tokens: &[&str]) -> ArgMap {
        ArgMap::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fg_cli_cmd_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn out_of_range_builder_and_propagator_parameters_name_a_parameter() {
        let dir = temp_dir("bad_parameters");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        std::fs::write(&edges, "0\t1\n1\t2\n").unwrap();
        std::fs::write(&labels, "0\t0\n2\t1\n").unwrap();
        let propagate = args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--labels",
            labels.to_str().unwrap(),
            "--nodes",
            "3",
            "--classes",
            "2",
            "--method",
            "rw",
            "--damping",
            "1.5",
        ]);
        assert_eq!(
            cmd_propagate(&propagate).unwrap_err(),
            "graph error: invalid parameter: damping must be in [0, 1), got 1.5"
        );
        let out = dir.join("constructed.tsv");
        let construct = args(&[
            "--blobs",
            "30",
            "--builder",
            "Knn(k=0)",
            "--out-edges",
            out.to_str().unwrap(),
        ]);
        assert_eq!(
            cmd_construct(&construct).unwrap_err(),
            "invalid parameter: kNN construction needs k >= 1"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_counts_beyond_u32_ids_are_refused_on_every_command() {
        let dir = temp_dir("oversized_nodes");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        std::fs::write(&edges, "0\t1\n").unwrap();
        std::fs::write(&labels, "0\t0\n1\t1\n").unwrap();
        let expected = "node count 4294967296 exceeds the limit of 4294967295 nodes";
        let files = [
            "--edges",
            edges.to_str().unwrap(),
            "--labels",
            labels.to_str().unwrap(),
            "--classes",
            "2",
            "--nodes",
            "4294967296",
        ];
        for (command, method) in [
            (cmd_estimate as fn(&ArgMap) -> CommandResult, "mce"),
            (cmd_classify, "mce"),
            (cmd_propagate, "harmonic"),
        ] {
            let err = command(&args(&[&files[..], &["--method", method]].concat())).unwrap_err();
            assert_eq!(err, expected, "{method}");
        }
        let out = dir.join("out.tsv");
        let generate = args(&[
            "--nodes",
            "4294967296",
            "--out-edges",
            out.to_str().unwrap(),
            "--out-labels",
            out.to_str().unwrap(),
        ]);
        assert_eq!(cmd_generate(&generate).unwrap_err(), expected);
        let manifest = dir.join("m.toml");
        std::fs::write(
            &manifest,
            format!(
                "[[run]]\nname = \"huge\"\nedges = \"{}\"\nlabels = \"{}\"\nnodes = 4294967296\nclasses = 2\n",
                edges.display(),
                labels.display()
            ),
        )
        .unwrap();
        let err = crate::manifest::run_manifest(&manifest).unwrap_err();
        assert!(err.contains(expected), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_then_classify_end_to_end() {
        let dir = temp_dir("end_to_end");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        let out = cmd_generate(&args(&[
            "--nodes",
            "400",
            "--degree",
            "12",
            "--classes",
            "3",
            "--skew",
            "8",
            "--seed",
            "1",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("400 nodes"));
        assert!(edges.exists() && labels.exists());

        // Build a sparse seed file by keeping every 10th label.
        let full = std::fs::read_to_string(&labels).unwrap();
        let sparse: String = full
            .lines()
            .filter(|l| !l.starts_with('#'))
            .enumerate()
            .filter(|(i, _)| i % 10 == 0)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let seed_path = dir.join("seeds.tsv");
        std::fs::write(&seed_path, sparse).unwrap();

        let predictions = dir.join("pred.tsv");
        let report = cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "400",
            "--classes",
            "3",
            "--labels",
            seed_path.to_str().unwrap(),
            "--truth",
            labels.to_str().unwrap(),
            "--method",
            "dcer",
            "--json",
            "--out",
            predictions.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("macro accuracy"));
        assert!(report.contains("DCEr(r=10,l=5,lambda=10)"));
        assert!(report.contains("\"propagator\":\"LinBP\""));
        assert!(report.contains("\"summarize_seconds\":"));
        assert!(report.contains("\"optimize_seconds\":"));
        assert!(predictions.exists());
        // Accuracy should be far above random on this strongly heterophilous graph.
        let accuracy: f64 = report
            .split("macro accuracy on unlabeled nodes: ")
            .nth(1)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(accuracy > 0.4, "accuracy {accuracy}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimate_and_propagate_commands() {
        let dir = temp_dir("estimate_propagate");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "10",
            "--classes",
            "3",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let h_path = dir.join("h.txt");
        let report = cmd_estimate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "mce",
            "--out",
            h_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("MCE"));
        assert!(h_path.exists());

        let pred_path = dir.join("pred.tsv");
        let report = cmd_propagate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--compat",
            h_path.to_str().unwrap(),
            "--out",
            pred_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("propagated labels"));
        assert!(report.contains("LinBP"));
        assert!(pred_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_propagation_backend_runs_from_the_cli() {
        let dir = temp_dir("backends");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "200",
            "--degree",
            "8",
            "--classes",
            "2",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let h_path = dir.join("h.txt");
        cmd_estimate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "200",
            "--classes",
            "2",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "mce",
            "--out",
            h_path.to_str().unwrap(),
        ]))
        .unwrap();

        for (method, needs_compat, expect) in [
            ("linbp", true, "LinBP"),
            ("bp", true, "LoopyBP"),
            ("harmonic", false, "Harmonic"),
            ("rw", false, "RandomWalk"),
        ] {
            let mut argv = vec![
                "--edges",
                edges.to_str().unwrap(),
                "--nodes",
                "200",
                "--classes",
                "2",
                "--labels",
                labels.to_str().unwrap(),
                "--method",
                method,
            ];
            if needs_compat {
                argv.extend(["--compat", h_path.to_str().unwrap()]);
            }
            let report = cmd_propagate(&args(&argv)).unwrap();
            assert!(report.contains(expect), "{method}: {report}");

            // The same backend is reachable end-to-end through classify.
            let classify = cmd_classify(&args(&[
                "--edges",
                edges.to_str().unwrap(),
                "--nodes",
                "200",
                "--classes",
                "2",
                "--labels",
                labels.to_str().unwrap(),
                "--method",
                "mce",
                "--propagator",
                method,
            ]))
            .unwrap();
            assert!(classify.contains(expect), "{method}: {classify}");
        }

        // linbp and bp refuse to run without a compatibility matrix.
        let missing = cmd_propagate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "200",
            "--classes",
            "2",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "linbp",
        ]));
        assert!(missing.is_err());
        assert!(missing.unwrap_err().contains("--compat"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_option_does_not_change_predictions() {
        let dir = temp_dir("threads");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "8",
            "--classes",
            "3",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let mut predictions = Vec::new();
        for threads in ["1", "4", "auto"] {
            let out = dir.join(format!("pred_{threads}.tsv"));
            cmd_classify(&args(&[
                "--edges",
                edges.to_str().unwrap(),
                "--nodes",
                "300",
                "--classes",
                "3",
                "--labels",
                labels.to_str().unwrap(),
                "--method",
                "mce",
                "--threads",
                threads,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            predictions.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(predictions[0], predictions[1]);
        assert_eq!(predictions[0], predictions[2]);
        // fg estimate honors --threads too, and writes the exact serial H file.
        let mut estimates = Vec::new();
        for threads in ["1", "4"] {
            let out = dir.join(format!("h_{threads}.txt"));
            cmd_estimate(&args(&[
                "--edges",
                edges.to_str().unwrap(),
                "--nodes",
                "300",
                "--classes",
                "3",
                "--labels",
                labels.to_str().unwrap(),
                "--method",
                "dcer",
                "--threads",
                threads,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            estimates.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(estimates[0], estimates[1]);
        // Bogus thread specs are rejected with a helpful message.
        let bad = build_propagator(&args(&["--threads", "lots"]), "propagator")
            .map(|_| ())
            .unwrap_err();
        assert!(bad.contains("threads"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_cache_warm_path_is_computation_free_and_bit_identical() {
        let dir = temp_dir("summary_cache");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "8",
            "--classes",
            "3",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let cache_dir = dir.join("summaries");
        let base = [
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "dcer",
            "--summary-cache",
            cache_dir.to_str().unwrap(),
        ];

        // fg estimate: cold run computes once, warm run not at all; H files match.
        let h_cold = dir.join("h_cold.txt");
        let h_warm = dir.join("h_warm.txt");
        let mut argv = base.to_vec();
        argv.extend(["--out", h_cold.to_str().unwrap()]);
        let cold = cmd_estimate(&args(&argv)).unwrap();
        assert!(cold.contains("summary computations: 1"), "{cold}");
        let mut argv = base.to_vec();
        argv.extend(["--out", h_warm.to_str().unwrap()]);
        let warm = cmd_estimate(&args(&argv)).unwrap();
        assert!(warm.contains("summary computations: 0"), "{warm}");
        assert!(warm.contains("store hits: 1"), "{warm}");
        assert_eq!(
            std::fs::read(&h_cold).unwrap(),
            std::fs::read(&h_warm).unwrap()
        );

        // fg classify rides the same cache: zero computations, identical predictions
        // to a cache-less run.
        let pred_cached = dir.join("pred_cached.tsv");
        let mut argv = base.to_vec();
        argv.extend(["--out", pred_cached.to_str().unwrap()]);
        let classify = cmd_classify(&args(&argv)).unwrap();
        assert!(classify.contains("summary computations: 0"), "{classify}");
        let pred_plain = dir.join("pred_plain.tsv");
        let plain = cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "dcer",
            "--out",
            pred_plain.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!plain.contains("summary computations"));
        assert_eq!(
            std::fs::read(&pred_cached).unwrap(),
            std::fs::read(&pred_plain).unwrap()
        );

        // fg cache ls lists both entries (the path summary and the persisted H
        // estimate the cold run stored); clear removes them.
        let ls = cmd_cache(&args(&["ls", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(ls.contains("k=3 lmax=5 mode=nb"), "{ls}");
        assert!(ls.contains("H estimate k=3"), "{ls}");
        assert!(ls.contains("estimator=DCEr"), "{ls}");
        let cleared = cmd_cache(&args(&["clear", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(cleared.contains("removed 2"), "{cleared}");
        let empty = cmd_cache(&args(&["ls", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(empty.contains("empty"), "{empty}");
        // Bad action errors.
        assert!(cmd_cache(&args(&["frob"])).is_err());
        assert!(cmd_cache(&args(&[])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lowrank_estimate_persists_the_factor_and_skips_the_eigensolve() {
        let dir = temp_dir("lowrank_estimate");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "8",
            "--classes",
            "3",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let cache_dir = dir.join("summaries");
        let base = [
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "dce",
            "--rank",
            "8",
            "--summary-cache",
            cache_dir.to_str().unwrap(),
        ];

        // Cold run: one eigensolve, persisted as a .fgv entry.
        let h_cold = dir.join("h_cold.txt");
        let mut argv = base.to_vec();
        argv.extend(["--out", h_cold.to_str().unwrap()]);
        let cold = cmd_estimate(&args(&argv)).unwrap();
        assert!(
            cold.contains("DCE(l=5,lambda=10,mode=lowrank,rank=8)"),
            "{cold}"
        );
        assert!(
            cold.contains("low-rank eigensolves: 1 (factor store hits: 0)"),
            "{cold}"
        );

        // Warm run: the factor comes from disk — zero eigensolves — and the
        // estimate is bit-identical.
        let h_warm = dir.join("h_warm.txt");
        let mut argv = base.to_vec();
        argv.extend(["--out", h_warm.to_str().unwrap()]);
        let warm = cmd_estimate(&args(&argv)).unwrap();
        assert!(
            warm.contains("low-rank eigensolves: 0 (factor store hits: 1)"),
            "{warm}"
        );
        assert_eq!(
            std::fs::read(&h_cold).unwrap(),
            std::fs::read(&h_warm).unwrap()
        );

        // fg cache ls renders the .fgv entry; clear removes it with the rest.
        let ls = cmd_cache(&args(&["ls", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(ls.contains("low-rank factor rank=8 nodes=300"), "{ls}");
        let cleared = cmd_cache(&args(&["clear", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(cleared.contains("removed"), "{cleared}");

        // --mode exact overrides a configured rank; bad --mode values error.
        let exact = cmd_estimate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "dce",
            "--mode",
            "exact",
            "--rank",
            "8",
        ]))
        .unwrap();
        assert!(exact.contains("DCE(l=5,lambda=10)"), "{exact}");
        let bad = cmd_estimate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--mode",
            "spectral",
        ]))
        .unwrap_err();
        assert!(bad.contains("exact or lowrank"), "{bad}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_gc_enforces_bounds_from_the_cli() {
        let dir = temp_dir("cache_gc");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "200",
            "--degree",
            "8",
            "--classes",
            "3",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let cache_dir = dir.join("summaries");
        cmd_estimate(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "200",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "mce",
            "--summary-cache",
            cache_dir.to_str().unwrap(),
        ]))
        .unwrap();
        // A generous size bound keeps the file; --max-bytes 0 collects it.
        let kept = cmd_cache(&args(&[
            "gc",
            "--dir",
            cache_dir.to_str().unwrap(),
            "--max-bytes",
            "1G",
            "--max-age",
            "7d",
        ]))
        .unwrap();
        assert!(kept.contains("removed 0 files"), "{kept}");
        assert!(kept.contains("kept 1"), "{kept}");
        let collected = cmd_cache(&args(&[
            "gc",
            "--dir",
            cache_dir.to_str().unwrap(),
            "--max-bytes",
            "0",
        ]))
        .unwrap();
        assert!(collected.contains("removed 1 file"), "{collected}");
        let empty = cmd_cache(&args(&["ls", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(empty.contains("empty"), "{empty}");
        // Bounds are required and validated.
        assert!(
            cmd_cache(&args(&["gc", "--dir", cache_dir.to_str().unwrap()]))
                .unwrap_err()
                .contains("at least one bound")
        );
        assert!(cmd_cache(&args(&[
            "gc",
            "--dir",
            cache_dir.to_str().unwrap(),
            "--max-bytes",
            "lots"
        ]))
        .is_err());
        assert_eq!(parse_bytes("2K").unwrap(), 2048);
        assert_eq!(parse_bytes("3M").unwrap(), 3 * 1024 * 1024);
        assert_eq!(parse_bytes("1g").unwrap(), 1 << 30);
        assert_eq!(parse_age("90").unwrap().as_secs(), 90);
        assert_eq!(parse_age("5m").unwrap().as_secs(), 300);
        assert_eq!(parse_age("2h").unwrap().as_secs(), 7200);
        assert_eq!(parse_age("1d").unwrap().as_secs(), 86_400);
        assert!(parse_age("soon").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_abstain_flag_reports_abstain_metrics() {
        let dir = temp_dir("abstain");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "8",
            "--classes",
            "3",
            "--seed",
            "2",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let full = std::fs::read_to_string(&labels).unwrap();
        let sparse: String = full
            .lines()
            .filter(|l| !l.starts_with('#'))
            .enumerate()
            .filter(|(i, _)| i % 10 == 0)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let seed_path = dir.join("seeds.tsv");
        std::fs::write(&seed_path, sparse).unwrap();

        // With truth: both abstain metrics, in text and JSON.
        let report = cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            seed_path.to_str().unwrap(),
            "--truth",
            labels.to_str().unwrap(),
            "--method",
            "mce",
            "--abstain",
            "--json",
        ]))
        .unwrap();
        assert!(
            report.contains("abstention rate on unlabeled nodes:"),
            "{report}"
        );
        assert!(report.contains("abstaining macro accuracy:"), "{report}");
        assert!(report.contains("\"abstention_rate\":"), "{report}");
        assert!(
            report.contains("\"abstaining_macro_accuracy\":"),
            "{report}"
        );

        // Without truth: the rate still appears, the accuracy cannot.
        let no_truth = cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            seed_path.to_str().unwrap(),
            "--method",
            "mce",
            "--abstain",
            "--json",
        ]))
        .unwrap();
        assert!(no_truth.contains("abstention rate on unlabeled nodes:"));
        assert!(!no_truth.contains("abstaining macro accuracy:"));
        // Without the flag neither metric is reported.
        let plain = cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            seed_path.to_str().unwrap(),
            "--method",
            "mce",
            "--json",
        ]))
        .unwrap();
        assert!(!plain.contains("abstention"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_drives_a_served_session_and_matches_batch_classify() {
        const TEST: &str = "client_drives_a_served_session_and_matches_batch_classify";
        let dir = temp_dir("serve_client");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "8",
            "--classes",
            "3",
            "--seed",
            "9",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        let full = std::fs::read_to_string(&labels).unwrap();
        let sparse: String = full
            .lines()
            .filter(|l| !l.starts_with('#'))
            .enumerate()
            .filter(|(i, _)| i % 10 == 0)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let seed_path = dir.join("seeds.tsv");
        std::fs::write(&seed_path, sparse).unwrap();

        // In-process TCP server on an ephemeral port (what `fg serve --port 0`
        // spawns); cmd_client is the exact production client path.
        let session = std::sync::Arc::new(fg_serve::Session::new(Threads::Serial, None));
        let addr = fg_serve::TcpServer::spawn(session, "127.0.0.1:0").unwrap();
        let port = addr.port().to_string();

        let pred_served = dir.join("pred_served.tsv");
        let load = format!(
            "{{\"cmd\":\"load\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":300,\"classes\":3}}",
            edges.display(),
            seed_path.display()
        );
        let client_args = args(&[
            &load,
            "{\"cmd\":\"classify\",\"method\":\"mce\"}",
            "{\"cmd\":\"stats\"}",
            "--port",
            &port,
            "--predictions-out",
            pred_served.to_str().unwrap(),
        ]);
        let output = fg_serve::with_watchdog(TEST, 3, move || cmd_client(&client_args)).unwrap();
        assert_eq!(output.lines().count(), 3, "{output}");
        assert!(output.contains("\"summary_computations\":1"), "{output}");

        // The served predictions match the batch CLI byte for byte.
        let pred_batch = dir.join("pred_batch.tsv");
        cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            seed_path.to_str().unwrap(),
            "--method",
            "mce",
            "--out",
            pred_batch.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&pred_served).unwrap(),
            std::fs::read(&pred_batch).unwrap()
        );

        // Client-side validation errors; an empty stdin holds no requests.
        assert!(
            client_with_input(&args(&["--port", &port]), std::io::empty())
                .unwrap_err()
                .contains("no requests")
        );
        assert!(cmd_client(&args(&["{\"cmd\":\"ping\"}", "--port", "1"]))
            .unwrap_err()
            .contains("cannot reach"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_methods_covers_both_registries() {
        let out = cmd_estimate(&args(&["--list-methods"])).unwrap();
        for name in ["mce", "lce", "dce", "dcer", "holdout"] {
            assert!(out.contains(name), "estimator '{name}' missing:\n{out}");
        }
        for name in ["linbp", "bp", "harmonic", "rw"] {
            assert!(out.contains(name), "propagator '{name}' missing:\n{out}");
        }
        // Aliases and parameterized defaults are shown.
        assert!(out.contains("dce-r"), "{out}");
        assert!(out.contains("loopy-bp"), "{out}");
        assert!(out.contains("DCEr(r=10,l=5,lambda=10)"), "{out}");
    }

    #[test]
    fn list_methods_text_is_pinned() {
        // The one output that walks the registry entries directly: names, aliases,
        // descriptions and default estimator names, byte for byte.
        let expected = "\
ESTIMATORS (fg estimate/classify --method):
  mce      Myopic Compatibility Estimation from neighbor statistics (Eq. 12) (aliases: myopic)
           defaults: MCE
  lce      Linear Compatibility Estimation from the LinBP energy (Eq. 8) (aliases: linear)
           defaults: LCE
  dce      Distant Compatibility Estimation from length-l path statistics (Eq. 13/14) (aliases: distant)
           defaults: DCE(l=5,lambda=10)
  dcer     DCE with restarts — the paper's recommended method (Section 4.8) (aliases: dce-r, dce_r)
           defaults: DCEr(r=10,l=5,lambda=10)
  holdout  Holdout baseline: black-box propagation inside a search (Eq. 7) (aliases: hold-out)
           defaults: Holdout(b=1)

PROPAGATORS (fg propagate --method / classify --propagator):
  linbp    Linearized Belief Propagation (the paper's method; uses H) (aliases: linearized-bp, linearized_bp)
  bp       Full loopy Belief Propagation (reference method; uses H) (aliases: loopybp, loopy-bp, loopy_bp)
  harmonic Harmonic-functions label propagation (homophily baseline; ignores H) (aliases: harmonic-functions, homophily)
  rw       MultiRankWalk random walks with restarts (homophily baseline; ignores H) (aliases: randomwalk, random-walk, random_walk, mrw)

Parameterized estimator specs are accepted anywhere a name is, e.g. --method 'DCEr(r=10,l=5,lambda=10)'.";
        assert_eq!(cmd_estimate(&args(&["--list-methods"])).unwrap(), expected);
    }

    #[test]
    fn manifest_run_reproduces_a_classify_invocation() {
        let dir = temp_dir("manifest_equiv");
        let edges = dir.join("edges.tsv");
        let labels = dir.join("labels.tsv");
        cmd_generate(&args(&[
            "--nodes",
            "300",
            "--degree",
            "8",
            "--classes",
            "3",
            "--seed",
            "4",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        // Direct CLI invocation.
        let pred_cli = dir.join("pred_cli.tsv");
        cmd_classify(&args(&[
            "--edges",
            edges.to_str().unwrap(),
            "--nodes",
            "300",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "mce",
            "--out",
            pred_cli.to_str().unwrap(),
        ]))
        .unwrap();
        // Equivalent manifest entry (file mode, same estimator and backend).
        let manifest = dir.join("exp.toml");
        std::fs::write(
            &manifest,
            "[[run]]\n\
             name = \"same-as-cli\"\n\
             edges = \"edges.tsv\"\n\
             labels = \"labels.tsv\"\n\
             nodes = 300\n\
             classes = 3\n\
             estimator = \"mce\"\n\
             propagator = \"linbp\"\n\
             out = \"pred_manifest.tsv\"\n",
        )
        .unwrap();
        let report = cmd_run(&args(&[manifest.to_str().unwrap()])).unwrap();
        assert!(report.contains("\"name\":\"same-as-cli\""), "{report}");
        assert!(report.contains("\"estimator\":\"MCE\""), "{report}");
        // The manifest run reproduces the CLI predictions byte for byte.
        assert_eq!(
            std::fs::read(&pred_cli).unwrap(),
            std::fs::read(dir.join("pred_manifest.tsv")).unwrap()
        );
        // Missing manifest path errors helpfully.
        assert!(cmd_run(&args(&[])).unwrap_err().contains("usage"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn construct_command_builds_graphs_from_features() {
        let dir = temp_dir("construct");
        let features = dir.join("blobs.csv");
        let labels = dir.join("blob_labels.tsv");
        let edges_serial = dir.join("edges_serial.tsv");
        // Blob synthesis persists its features and labels, so downstream commands
        // (and CI) can reuse them without any other tool.
        let report = cmd_construct(&args(&[
            "--blobs",
            "90",
            "--classes",
            "3",
            "--dims",
            "4",
            "--spread",
            "0.8",
            "--seed",
            "7",
            "--builder",
            "knn",
            "--out-edges",
            edges_serial.to_str().unwrap(),
            "--out-features",
            features.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("Knn(k=10"), "{report}");
        assert!(report.contains("90 nodes"), "{report}");
        assert!(features.exists() && labels.exists() && edges_serial.exists());

        // Re-constructing from the persisted feature file, in parallel, with a
        // parameterized spec produces byte-identical edge lists to serial.
        for (threads, out) in [("4", "edges_par.tsv"), ("auto", "edges_auto.tsv")] {
            let out = dir.join(out);
            cmd_construct(&args(&[
                "--features",
                features.to_str().unwrap(),
                "--threads",
                threads,
                "--out-edges",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            assert_eq!(
                std::fs::read(&edges_serial).unwrap(),
                std::fs::read(&out).unwrap(),
                "--threads {threads} diverged"
            );
        }

        // The sparse-regularized builder runs end to end too.
        let sparse_out = dir.join("edges_sparse.tsv");
        let report = cmd_construct(&args(&[
            "--features",
            features.to_str().unwrap(),
            "--builder",
            "SparseReg(k=6,alpha=0.05)",
            "--out-edges",
            sparse_out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("SparseReg(k=6,alpha=0.05"), "{report}");
        assert!(sparse_out.exists());

        // The constructed graph classifies through the normal pipeline.
        let classify = cmd_classify(&args(&[
            "--edges",
            edges_serial.to_str().unwrap(),
            "--nodes",
            "90",
            "--classes",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--method",
            "mce",
        ]))
        .unwrap();
        assert!(classify.contains("classified 90 nodes"), "{classify}");

        // Error paths: no input, unknown builder, malformed spec.
        assert!(cmd_construct(&args(&["--out-edges", "x"]))
            .unwrap_err()
            .contains("--features FILE or --blobs N"));
        assert!(cmd_construct(&args(&[
            "--blobs",
            "20",
            "--builder",
            "nope",
            "--out-edges",
            "x"
        ]))
        .unwrap_err()
        .contains("unknown construction method"));
        assert!(cmd_construct(&args(&[
            "--blobs",
            "20",
            "--builder",
            "knn(k=10",
            "--out-edges",
            "x"
        ]))
        .unwrap_err()
        .contains("unterminated"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn construct_command_caches_graphs_by_feature_fingerprint() {
        let dir = temp_dir("construct_cache");
        let features = dir.join("blobs.csv");
        let cache_dir = dir.join("summaries");
        let edges_cold = dir.join("edges_cold.tsv");
        let edges_warm = dir.join("edges_warm.tsv");
        let base = |out: &Path| {
            vec![
                "--features".to_string(),
                features.to_str().unwrap().to_string(),
                "--summary-cache".to_string(),
                cache_dir.to_str().unwrap().to_string(),
                "--out-edges".to_string(),
                out.to_str().unwrap().to_string(),
            ]
        };
        cmd_construct(&args(&[
            "--blobs",
            "60",
            "--classes",
            "3",
            "--dims",
            "4",
            "--seed",
            "3",
            "--out-features",
            features.to_str().unwrap(),
            "--out-edges",
            dir.join("seed_edges.tsv").to_str().unwrap(),
        ]))
        .unwrap();

        // Cold: builds and persists the graph, content-addressed by the feature
        // matrix fingerprint + builder spec.
        let cold_args = base(&edges_cold);
        let argv: Vec<&str> = cold_args.iter().map(String::as_str).collect();
        let cold = cmd_construct(&args(&argv)).unwrap();
        assert!(!cold.contains("[cached]"), "{cold}");
        let ls = cmd_cache(&args(&["ls", "--dir", cache_dir.to_str().unwrap()])).unwrap();
        assert!(ls.contains("constructed graph nodes=60"), "{ls}");
        assert!(ls.contains("builder=Knn(k=10"), "{ls}");

        // Warm: the O(n²·d) build is skipped, output is byte-identical.
        let warm_args = base(&edges_warm);
        let argv: Vec<&str> = warm_args.iter().map(String::as_str).collect();
        let warm = cmd_construct(&args(&argv)).unwrap();
        assert!(warm.contains("[cached]"), "{warm}");
        assert_eq!(
            std::fs::read(&edges_cold).unwrap(),
            std::fs::read(&edges_warm).unwrap()
        );

        // A different builder spec is a different cache key.
        let other = dir.join("edges_other.tsv");
        let mut argv = base(&other);
        argv.extend(["--builder".to_string(), "Knn(k=5)".to_string()]);
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let miss = cmd_construct(&args(&argv)).unwrap();
        assert!(!miss.contains("[cached]"), "{miss}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_command_writes_substitute() {
        let dir = temp_dir("dataset");
        let edges = dir.join("cora_edges.tsv");
        let labels = dir.join("cora_labels.tsv");
        let report = cmd_dataset(&args(&[
            "--name",
            "Cora",
            "--scale",
            "0.2",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("Cora"));
        assert!(edges.exists() && labels.exists());

        // The dataset name also works positionally.
        let report = cmd_dataset(&args(&[
            "Citeseer",
            "--scale",
            "0.2",
            "--out-edges",
            edges.to_str().unwrap(),
            "--out-labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("Citeseer"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_paths() {
        // Unknown command.
        assert!(run("bogus", &args(&[])).is_err());
        // Help works and documents the propagation backends.
        let help = run("help", &args(&[])).unwrap();
        assert!(help.contains("USAGE"));
        assert!(help.contains("linbp|bp|harmonic|rw"));
        // Unknown estimation / propagation methods.
        assert!(build_estimator(&args(&["--method", "nope"])).is_err());
        assert!(build_propagator(&args(&["--propagator", "nope"]), "propagator").is_err());
        // Missing required options.
        assert!(cmd_generate(&args(&["--nodes", "10"])).is_err());
        assert!(cmd_dataset(&args(&[
            "--name",
            "NotADataset",
            "--out-edges",
            "x",
            "--out-labels",
            "y"
        ]))
        .is_err());
        // Known estimator methods build, with dynamic labels.
        for method in ["mce", "lce", "dce", "dcer", "holdout"] {
            assert!(build_estimator(&args(&["--method", method])).is_ok());
        }
        let (_, label) = build_estimator(&args(&["--method", "dcer", "--restarts", "7"])).unwrap();
        assert_eq!(label, "DCEr(r=7,l=5,lambda=10)");
        // Fully parameterized specs parse; spec keys beat the flag defaults.
        let (_, label) = build_estimator(&args(&[
            "--method",
            "DCEr(r=3,l=2,lambda=0.5)",
            "--restarts",
            "7",
        ]))
        .unwrap();
        assert_eq!(label, "DCEr(r=3,l=2,lambda=0.5)");
        assert!(build_estimator(&args(&["--method", "dcer(r=oops)"])).is_err());
        assert!(build_estimator(&args(&["--variant", "9"])).is_err());
        let (_, label) = build_estimator(&args(&["--method", "mce", "--variant", "2"])).unwrap();
        assert_eq!(label, "MCE(variant=2)");
        // Known propagator methods build through the registry.
        for method in ["linbp", "bp", "harmonic", "rw"] {
            assert!(build_propagator(&args(&["--method", method]), "method").is_ok());
        }
    }
}
