//! Experiment manifests: `fg run manifest.toml`.
//!
//! A manifest declares a list of end-to-end classification experiments — dataset,
//! estimator spec, propagation backend, thread policy, summary-cache directory — in a
//! config file, and `fg run` drives each entry through the same
//! [`Pipeline`] the `classify` command uses, emitting one
//! [`PipelineReport`] JSON object per entry. Sweeping
//! parameters by editing a file (and re-running reproducibly, with warm summary
//! caches) replaces ad-hoc shell loops around the CLI.
//!
//! # Format
//!
//! A small TOML subset, parsed without external dependencies: top-level `key = value`
//! pairs are defaults applied to every entry (every key except the per-run-only
//! `name` / `out` / `report`; entry keys always win, and an entry's own dataset keys
//! pick its dataset mode before defaults-level ones do), each `[[run]]` table is one
//! experiment, and values may be strings, integers, floats, or booleans (`#` starts
//! a comment). Relative paths are resolved against the manifest's directory.
//!
//! ```toml
//! # defaults for every run
//! summary-cache = "target/experiments/summaries"
//! threads = "auto"
//! estimator = "DCEr(r=10,l=5,lambda=10)"
//! propagator = "linbp"
//!
//! [[run]]                       # file-based dataset
//! name = "cora"
//! edges = "cora_edges.tsv"
//! labels = "cora_seeds.tsv"
//! nodes = 2708
//! classes = 7
//! truth = "cora_labels.tsv"     # optional: evaluate accuracy
//! out = "cora_pred.tsv"         # optional: write predictions
//! report = "cora_report.json"   # optional: write the report JSON
//!
//! [[run]]                       # synthetic planted-compatibility graph
//! name = "synthetic-h8"
//! nodes = 2000
//! degree = 12.0
//! classes = 3
//! skew = 8.0
//! seed = 1
//! fraction = 0.05               # stratified seed-label fraction
//! estimator = "mce"
//!
//! [[run]]                       # real-world dataset substitute
//! name = "pokec"
//! dataset = "Pokec-Gender"
//! scale = 0.02
//! fraction = 0.1
//!
//! [construct]                   # graph construction defaults (feature mode)
//! features = "digits.csv"
//! builder = "Knn(k=10,weighting=heat)"
//!
//! [[run]]                       # built from the raw feature matrix above
//! name = "digits-knn"
//! ```
//!
//! Entry keys: `name`, dataset selection (`edges`+`labels`+`nodes`+`classes`, or
//! `dataset` plus `scale`, or `nodes` plus `degree`/`classes`/`skew` for the generator,
//! or `features` plus `builder` to construct a graph from a raw feature matrix;
//! `seed` and `fraction` apply to the synthetic and feature modes), `estimator`
//! plus every estimator key (`restarts`, `lmax`, `lambda`, `splits`, `variant`,
//! `nb`, `mode`, `rank`; keys inside the `estimator` spec win), `propagator`
//! plus every propagator key (`iterations`, `tolerance`, `damping`), `threads`,
//! `summary-cache`, `truth`, `out`, `report`. The option keys are the key
//! tables of `fg_core::ESTIMATORS` and `fg_propagation::PROPAGATORS`, so they
//! mean what the same CLI flags, serve fields and spec keys mean. A
//! `[construct]` section supplies feature-mode defaults (`features`, `builder`,
//! `classes`) that apply when neither the entry nor the top-level defaults
//! pick another dataset mode. Unknown keys, unknown sections, and
//! malformed values are rejected with the offending line number.

use fg_core::prelude::*;
use fg_core::{EstimatorOptions, GraphKey, ESTIMATORS};
use fg_datasets::{synthesize, DatasetId};
use fg_graph::spec::{Key, Kind, SpecOptions};
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use fg_serve::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A parsed manifest value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Value {
    /// The refusal of this value where `expected` was wanted.
    fn not(&self, expected: &str) -> String {
        let got = match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        };
        format!("{expected}, got {got}")
    }
}

/// One `key = value` table with source line numbers for error messages.
#[derive(Debug, Clone, Default)]
struct Table {
    values: HashMap<String, (Value, usize)>,
}

impl Table {
    fn insert(&mut self, key: String, value: Value, line: usize) -> Result<(), String> {
        if self.values.contains_key(&key) {
            return Err(format!("line {line}: duplicate key '{key}'"));
        }
        self.values.insert(key, (value, line));
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&(Value, usize)> {
        self.values.get(key)
    }

    /// The value under `key` through `convert`, which says what the value must
    /// be when it refuses it.
    fn typed<T>(
        &self,
        key: &str,
        convert: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some((value, line)) = self.get(key) else {
            return Ok(None);
        };
        let refused = |must| format!("line {line}: key '{key}' must be {must}");
        convert(value).map(Some).map_err(refused)
    }

    fn string(&self, key: &str) -> Result<Option<String>, String> {
        self.typed(key, |value| match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(other.not("a string")),
        })
    }

    fn usize_value(&self, key: &str) -> Result<Option<usize>, String> {
        self.typed(key, |value| match value {
            Value::Int(i) => usize::try_from(*i).map_err(|_| "non-negative".to_string()),
            other => Err(other.not("an integer")),
        })
    }

    fn f64_value(&self, key: &str) -> Result<Option<f64>, String> {
        self.typed(key, |value| match value {
            Value::Float(v) => Ok(*v),
            Value::Int(i) => Ok(*i as f64),
            other => Err(other.not("a number")),
        })
    }

    /// The value of one options key, checked against the key's kind and handed
    /// over as text (a float's `to_string` parses back to the same bits).
    fn option_value<O>(&self, key: &Key<O>) -> Result<Option<String>, String> {
        self.typed(key.name, |value| match (key.kind, value) {
            (Kind::Count { .. } | Kind::Number, Value::Int(i)) => Ok(i.to_string()),
            (Kind::Number, Value::Float(v)) => Ok(v.to_string()),
            (Kind::Choice(_), Value::Str(word)) => Ok(word.clone()),
            (Kind::Flag, Value::Bool(flag)) => Ok(flag.to_string()),
            (Kind::Count { .. }, other) => Err(other.not("an integer")),
            (Kind::Number, other) => Err(other.not("a number")),
            (Kind::Choice(_), other) => Err(other.not("a string")),
            (Kind::Flag, other) => Err(other.not("a boolean")),
        })
    }
}

/// A manifest: global defaults, optional `[construct]` feature-mode defaults, and
/// one table per `[[run]]` entry.
#[derive(Debug, Default)]
struct Manifest {
    defaults: Table,
    construct: Table,
    runs: Vec<Table>,
}

/// Strip a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line}: unterminated string"))?;
        if inner.contains('"') {
            return Err(format!(
                "line {line}: embedded quotes are not supported in strings"
            ));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "" => return Err(format!("line {line}: missing value")),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(format!(
        "line {line}: cannot parse value '{raw}' (expected a quoted string, number, or boolean)"
    ))
}

/// Which table subsequent `key = value` lines land in while parsing.
enum Section {
    Defaults,
    Construct,
    Run(usize),
}

/// Parse manifest text into defaults + `[construct]` defaults + run tables.
fn parse_manifest(content: &str) -> Result<Manifest, String> {
    let mut manifest = Manifest::default();
    let mut current = Section::Defaults;
    for (idx, raw_line) in content.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[run]]" {
            manifest.runs.push(Table::default());
            current = Section::Run(manifest.runs.len() - 1);
            continue;
        }
        if line == "[construct]" {
            current = Section::Construct;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {line_no}: unknown section '{line}' (only [[run]] tables and one \
                 [construct] section are supported)"
            ));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected 'key = value', got '{line}'"))?;
        // Normalize `summary-cache` / `summary_cache` style spellings.
        let key = key.trim().to_ascii_lowercase().replace('-', "_");
        let value = parse_value(value, line_no)?;
        let table = match current {
            Section::Defaults => &mut manifest.defaults,
            Section::Construct => &mut manifest.construct,
            Section::Run(i) => &mut manifest.runs[i],
        };
        table.insert(key, value, line_no)?;
    }
    if manifest.runs.is_empty() {
        return Err("manifest declares no [[run]] entries".into());
    }
    Ok(manifest)
}

/// Keys understood in a `[[run]]` table besides the estimator and propagator
/// keys (defaults accept the same set minus the per-run ones, but validating
/// against one list keeps the error friendly).
const KNOWN_KEYS: &[&str] = &[
    "name",
    "edges",
    "labels",
    "nodes",
    "classes",
    "degree",
    "skew",
    "dataset",
    "scale",
    "features",
    "builder",
    "seed",
    "fraction",
    "estimator",
    "propagator",
    "threads",
    "summary_cache",
    "truth",
    "out",
    "report",
];

/// Keys that only make sense on an individual run: applying them as defaults would
/// make every entry write the same output file (or share one name), so they are
/// rejected at the top level instead of silently misbehaving.
const RUN_ONLY_KEYS: &[&str] = &["name", "out", "report"];

/// Keys a `[construct]` section may set: the feature-mode dataset selection only.
/// Pipeline-level knobs (estimator, threads, ...) belong in the top-level defaults.
const CONSTRUCT_KEYS: &[&str] = &["features", "builder", "classes"];

fn validate_keys(table: &Table, what: &str) -> Result<(), String> {
    let options = EstimatorOptions::KEYS.iter().map(|k| k.name);
    let options = options.chain(PropagatorOptions::KEYS.iter().map(|k| k.name));
    let known: Vec<&str> = match what {
        "[construct]" => CONSTRUCT_KEYS.to_vec(),
        _ => KNOWN_KEYS.iter().copied().chain(options).collect(),
    };
    for (key, (_, line)) in &table.values {
        if !known.contains(&key.as_str()) {
            return Err(format!(
                "line {line}: unknown {what} key '{key}' (expected one of {})",
                known.join(", ")
            ));
        }
        if what == "default" && RUN_ONLY_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "line {line}: key '{key}' is per-run only and cannot be a top-level default"
            ));
        }
    }
    Ok(())
}

/// Look a key up in the run table first, then the defaults.
macro_rules! entry_or_default {
    ($run:expr, $defaults:expr, $method:ident, $key:expr) => {
        match $run.$method($key)? {
            Some(v) => Some(v),
            None => $defaults.$method($key)?,
        }
    };
}

/// The materialized inputs of one run: graph, observed seed labels, and (when the
/// dataset mode implies it) the full ground truth.
struct RunData {
    graph: Graph,
    seeds: SeedLabels,
    truth: Option<Labeling>,
    classes: usize,
    dataset_label: String,
}

fn resolve_path(base: &Path, raw: &str) -> PathBuf {
    let p = Path::new(raw);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        base.join(p)
    }
}

fn load_run_data(
    run: &Table,
    defaults: &Table,
    construct: &Table,
    base: &Path,
) -> Result<RunData, String> {
    let seed = entry_or_default!(run, defaults, usize_value, "seed").unwrap_or(0) as u64;
    let fraction = entry_or_default!(run, defaults, f64_value, "fraction").unwrap_or(0.05);
    // Dataset-mode selection: keys set on the run itself pick the mode first (so one
    // run can override, say, a defaults-level edge file with its own generator spec);
    // only then do defaults-level keys select a mode shared by every run, and finally
    // a `[construct]` section's feature file catches entries that named no dataset at
    // all. Within a mode, every parameter falls back to the defaults table (and, for
    // feature-mode keys, the `[construct]` section) as documented.
    let mode_of = |table: &Table| -> Result<Option<&'static str>, String> {
        Ok(if table.string("features")?.is_some() {
            Some("features")
        } else if table.string("edges")?.is_some() {
            Some("edges")
        } else if table.string("dataset")?.is_some() {
            Some("dataset")
        } else if table.usize_value("nodes")?.is_some() {
            Some("nodes")
        } else {
            None
        })
    };
    let mode = match mode_of(run)? {
        Some(mode) => Some(mode),
        None => match mode_of(defaults)? {
            Some(mode) => Some(mode),
            None if construct.string("features")?.is_some() => Some("features"),
            None => None,
        },
    };
    if mode == Some("features") {
        return load_feature_run(run, defaults, construct, base, seed, fraction);
    }
    if mode == Some("edges") {
        // File mode: explicit edge list + observed labels.
        let edges = entry_or_default!(run, defaults, string, "edges").expect("mode key present");
        let nodes = entry_or_default!(run, defaults, usize_value, "nodes")
            .ok_or("file-based runs need 'nodes'")?;
        let classes = entry_or_default!(run, defaults, usize_value, "classes")
            .ok_or("file-based runs need 'classes'")?;
        let labels = entry_or_default!(run, defaults, string, "labels")
            .ok_or("file-based runs need 'labels'")?;
        let graph = fg_datasets::read_edge_list(&resolve_path(base, &edges), nodes).map_err(err)?;
        let seeds =
            fg_datasets::read_labels(&resolve_path(base, &labels), nodes, classes).map_err(err)?;
        let truth = match entry_or_default!(run, defaults, string, "truth") {
            Some(path) => {
                let full = fg_datasets::read_labels(&resolve_path(base, &path), nodes, classes)
                    .map_err(err)?;
                let labels: Option<Vec<usize>> = full.as_slice().iter().copied().collect();
                match labels {
                    Some(all) => Some(Labeling::new(all, classes).map_err(err)?),
                    None => return Err(format!("truth file '{path}' does not label every node")),
                }
            }
            None => None,
        };
        Ok(RunData {
            graph,
            seeds,
            truth,
            classes,
            dataset_label: edges,
        })
    } else if mode == Some("dataset") {
        // Real-world dataset substitute.
        let dataset =
            entry_or_default!(run, defaults, string, "dataset").expect("mode key present");
        let id =
            DatasetId::parse(&dataset).ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
        let scale = entry_or_default!(run, defaults, f64_value, "scale").unwrap_or(0.05);
        let instance = synthesize(id, scale, seed).map_err(err)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = instance.labeling.stratified_sample(fraction, &mut rng);
        Ok(RunData {
            graph: instance.graph,
            classes: instance.spec.k,
            seeds,
            truth: Some(instance.labeling),
            dataset_label: id.name().to_string(),
        })
    } else if mode == Some("nodes") {
        // Synthetic planted-compatibility generator.
        let nodes = entry_or_default!(run, defaults, usize_value, "nodes").expect("mode key");
        let degree = entry_or_default!(run, defaults, f64_value, "degree").unwrap_or(10.0);
        let classes = entry_or_default!(run, defaults, usize_value, "classes").unwrap_or(3);
        let skew = entry_or_default!(run, defaults, f64_value, "skew").unwrap_or(3.0);
        let config = GeneratorConfig::balanced(nodes, degree, classes, skew).map_err(err)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let synthetic = generate(&config, &mut rng).map_err(err)?;
        let seeds = synthetic.labeling.stratified_sample(fraction, &mut rng);
        Ok(RunData {
            graph: synthetic.graph,
            seeds,
            truth: Some(synthetic.labeling),
            classes,
            dataset_label: format!("synthetic(n={nodes},k={classes},h={skew},seed={seed})"),
        })
    } else {
        Err(
            "each [[run]] needs a dataset: 'edges' + 'labels' files, a 'dataset' \
             substitute name, 'nodes' for the synthetic generator, or 'features' \
             (directly or via a [construct] section) to build a graph from a \
             feature matrix"
                .into(),
        )
    }
}

/// Materialize a feature-mode run: load the raw feature matrix, build a graph with
/// the configured construction backend, and derive seeds/truth from the label column.
///
/// Feature-mode keys (`features`, `builder`, `classes`) resolve run → defaults →
/// `[construct]` section, so a single `[construct]` block can feed every entry while
/// individual runs swap in a different builder or feature file.
///
/// When the run configures a `summary-cache` directory, constructed graphs are
/// content-addressed there by `(feature-matrix fingerprint, builder spec)`: warm
/// runs load the persisted edge set instead of repeating the O(n²·d) build, and a
/// corrupt entry is reported and rebuilt rather than trusted.
fn load_feature_run(
    run: &Table,
    defaults: &Table,
    construct: &Table,
    base: &Path,
    seed: u64,
    fraction: f64,
) -> Result<RunData, String> {
    let lookup = |key: &str| -> Result<Option<String>, String> {
        Ok(match entry_or_default!(run, defaults, string, key) {
            Some(v) => Some(v),
            None => construct.string(key)?,
        })
    };
    let features_path = lookup("features")?.expect("mode key present");
    let builder_spec = lookup("builder")?.unwrap_or_else(|| "knn".into());
    let threads = match entry_or_default!(run, defaults, string, "threads") {
        Some(spec) => Some(spec.parse::<Threads>().map_err(err)?),
        None => None,
    };
    let data = fg_datasets::read_features(&resolve_path(base, &features_path)).map_err(err)?;
    let builder = fg_datasets::BUILDERS.by_spec(
        &builder_spec,
        &fg_datasets::ConstructionOptions {
            threads,
            ..Default::default()
        },
    )?;
    let store = match entry_or_default!(run, defaults, string, "summary_cache") {
        Some(cache_dir) => Some(SummaryStore::open(resolve_path(base, &cache_dir)).map_err(err)?),
        None => None,
    };
    let features_fp = fg_datasets::features_fingerprint(&data.features);
    let spec_name = builder.name();
    let key = GraphKey(features_fp, &spec_name, data.features.rows());
    let cached = store.as_ref().and_then(|s| {
        match s.load(&key) {
            Ok(found) => found,
            // A corrupt or foreign cache entry is loud but non-fatal: rebuild.
            Err(e) => {
                eprintln!("warning: {e}; reconstructing");
                None
            }
        }
    });
    let graph = match cached {
        Some(graph) => graph,
        None => {
            let graph = builder.build(&data.features).map_err(err)?;
            if let Some(s) = &store {
                if let Err(e) = s.save(&key, &graph) {
                    eprintln!("warning: cannot persist the constructed graph: {e}");
                }
            }
            graph
        }
    };
    let classes = match entry_or_default!(run, defaults, usize_value, "classes") {
        Some(k) => Some(k),
        None => construct.usize_value("classes")?,
    }
    .unwrap_or(data.num_classes);
    if classes == 0 {
        return Err(format!(
            "feature file '{features_path}' has no labeled rows; feature-mode runs \
             need at least one label or an explicit 'classes'"
        ));
    }
    // A fully labeled feature file is ground truth: sample a stratified seed set
    // from it (like the synthetic modes) and evaluate accuracy against the rest.
    // Partially labeled files contribute their labeled rows as the seed set.
    let truth: Option<Labeling> = if data.labels.iter().all(Option::is_some) {
        let all: Vec<usize> = data.labels.iter().map(|l| l.expect("checked")).collect();
        Some(Labeling::new(all, classes).map_err(err)?)
    } else {
        None
    };
    let seeds = match &truth {
        Some(truth) => {
            let mut rng = StdRng::seed_from_u64(seed);
            truth.stratified_sample(fraction, &mut rng)
        }
        None => data.seed_labels(Some(classes)).map_err(err)?,
    };
    Ok(RunData {
        graph,
        seeds,
        truth,
        classes,
        dataset_label: format!("construct({features_path},{})", builder.name()),
    })
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Execute every `[[run]]` entry of a manifest file serially. Returns one JSON
/// object per line: `{"name":...,"dataset":...,"report":{<PipelineReport>}}`.
#[cfg(test)]
pub fn run_manifest(path: &Path) -> Result<String, String> {
    run_manifest_with(path, Threads::Serial)
}

/// Execute every `[[run]]` entry of a manifest file, distributing independent
/// entries across worker threads through the shared-atomic work queue
/// (`fg_sparse::run_ordered_cells`, the same queue DCEr's restarts and the
/// graph builders use) when `--threads N|auto` resolves to more than one worker;
/// `Threads::Serial` streams entries one at a time (load → run → drop, so peak
/// memory stays one dataset). Returns one JSON object per line:
/// `{"name":...,"dataset":...,"report":{<PipelineReport>}}`.
///
/// All entries share one in-memory [`SummaryCache`] (plus whatever persistent
/// stores they configure), so entries on the same dataset summarize once no matter
/// which worker runs them. Output is **byte-identical to the serial order**: result
/// lines are reassembled in manifest order, per-run counters are key-scoped, and
/// entries whose datasets collide on the same `(graph, seeds)` fingerprints are
/// serialized in manifest order (a condvar turnstile per duplicated key), so the
/// first entry always does the computing exactly as it would serially. Entries on
/// distinct datasets run fully in parallel — the per-key cache locking means even
/// their summarizations overlap. The parallel path pre-loads every dataset to
/// derive the collision keys (peak memory is the sum of datasets, each dropped as
/// its entry finishes) — the price of `--threads`; the serial default keeps the
/// old one-at-a-time footprint.
pub fn run_manifest_with(path: &Path, threads: Threads) -> Result<String, String> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    let manifest = parse_manifest(&content)?;
    validate_keys(&manifest.defaults, "default")?;
    validate_keys(&manifest.construct, "[construct]")?;
    for run in &manifest.runs {
        validate_keys(run, "run")?;
    }
    let base = path.parent().unwrap_or(Path::new(".")).to_path_buf();
    let mut names = Vec::with_capacity(manifest.runs.len());
    for (index, run) in manifest.runs.iter().enumerate() {
        // A non-string `name` is a manifest error, not an anonymous run.
        names.push(
            run.string("name")?
                .unwrap_or_else(|| format!("run{}", index + 1)),
        );
    }
    let cache = SummaryCache::shared();

    if threads.count_for(manifest.runs.len()) <= 1 {
        // Serial: stream entries so only one dataset is resident at a time. The
        // shared cache still deduplicates repeated datasets across entries.
        let mut lines = Vec::with_capacity(manifest.runs.len());
        for (index, run) in manifest.runs.iter().enumerate() {
            let data = load_run_data(run, &manifest.defaults, &manifest.construct, &base)
                .map_err(|e| format!("run '{}': {e}", names[index]))?;
            lines.push(execute_run(
                run,
                &manifest.defaults,
                &base,
                &names[index],
                &data,
                &cache,
            )?);
        }
        return Ok(lines.join("\n"));
    }

    // Phase 1: materialize every entry's dataset (parallel across entries; each
    // cell is independent, so the loaded data is identical to serial loading).
    // Datasets sit in per-entry slots so each can be dropped when its run ends.
    let loaded: Vec<Result<RunData, String>> =
        fg_sparse::run_ordered_cells(manifest.runs.len(), threads, |index| {
            Ok::<_, String>(
                load_run_data(
                    &manifest.runs[index],
                    &manifest.defaults,
                    &manifest.construct,
                    &base,
                )
                .map_err(|e| format!("run '{}': {e}", names[index])),
            )
        })?;
    let mut data: Vec<std::sync::Mutex<Option<RunData>>> = Vec::with_capacity(loaded.len());
    for entry in loaded {
        data.push(std::sync::Mutex::new(Some(entry?)));
    }

    // Phase 2: for datasets that recur (same graph & seed fingerprints), build a
    // turnstile so colliding entries execute in manifest order — that pins the
    // "who computes, who hits the cache" counters to the serial outcome.
    let keys: Vec<(fg_graph::Fingerprint, fg_graph::Fingerprint)> = data
        .iter()
        .map(|slot| {
            let guard = slot.lock().expect("dataset slot poisoned");
            let d = guard.as_ref().expect("loaded above");
            (d.graph.fingerprint(), d.seeds.fingerprint())
        })
        .collect();
    let mut key_count: HashMap<_, usize> = HashMap::new();
    for key in &keys {
        *key_count.entry(*key).or_insert(0) += 1;
    }
    type Turnstile = Arc<(std::sync::Mutex<usize>, std::sync::Condvar)>;
    let mut turnstiles: HashMap<_, Turnstile> = HashMap::new();
    let mut positions: HashMap<_, usize> = HashMap::new();
    let gates: Vec<Option<(Turnstile, usize)>> = keys
        .iter()
        .map(|key| {
            if key_count[key] < 2 {
                return None;
            }
            let gate = Arc::clone(turnstiles.entry(*key).or_default());
            let pos = positions.entry(*key).or_insert(0);
            let this = *pos;
            *pos += 1;
            Some((gate, this))
        })
        .collect();

    // Phase 3: run the pipelines. One shared cache deduplicates summaries across
    // entries; report counters are per-key, so concurrent other-key work never
    // leaks into a run's own numbers.
    let outcomes: Vec<Result<String, String>> =
        fg_sparse::run_ordered_cells(manifest.runs.len(), threads, |index| {
            let gate = gates[index].clone();
            if let Some((gate, pos)) = &gate {
                let (lock, cvar) = &**gate;
                let mut turn = lock.lock().expect("manifest turnstile poisoned");
                while *turn < *pos {
                    turn = cvar.wait(turn).expect("manifest turnstile poisoned");
                }
            }
            // Take the dataset out of its slot so it is freed when this cell ends.
            let run_data = data[index]
                .lock()
                .expect("dataset slot poisoned")
                .take()
                .expect("each cell runs exactly once");
            let outcome = execute_run(
                &manifest.runs[index],
                &manifest.defaults,
                &base,
                &names[index],
                &run_data,
                &cache,
            );
            drop(run_data);
            if let Some((gate, _)) = &gate {
                // Advance the turnstile even on error, or waiters would hang.
                let (lock, cvar) = &**gate;
                *lock.lock().expect("manifest turnstile poisoned") += 1;
                cvar.notify_all();
            }
            Ok::<_, String>(outcome)
        })?;

    let mut lines = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        lines.push(outcome?);
    }
    Ok(lines.join("\n"))
}

/// Execute one prepared `[[run]]` entry against the shared summary cache,
/// returning its output line.
fn execute_run(
    run: &Table,
    defaults: &Table,
    base: &Path,
    name: &str,
    data: &RunData,
    cache: &Arc<SummaryCache>,
) -> Result<String, String> {
    let context = |e: String| format!("run '{name}': {e}");

    // Estimator through the registry (parameterized specs supported).
    let estimator_spec =
        entry_or_default!(run, defaults, string, "estimator").unwrap_or_else(|| "dcer".into());
    let threads = match entry_or_default!(run, defaults, string, "threads") {
        Some(spec) => Some(spec.parse::<Threads>().map_err(err).map_err(context)?),
        None => None,
    };
    // Every estimator and propagator key is read from the entry, then the
    // defaults; keys inside the estimator spec still win.
    let estimator_defaults = EstimatorOptions {
        threads,
        ..EstimatorOptions::default()
    };
    let estimator_defaults = ESTIMATORS
        .options(estimator_defaults, |key| {
            Ok(entry_or_default!(run, defaults, option_value, key))
        })
        .map_err(context)?;
    let estimator = ESTIMATORS
        .by_spec(&estimator_spec, &estimator_defaults)
        .map_err(context)?;
    let estimator_label = estimator.name();

    // Propagator through the propagation registry.
    let propagator_name =
        entry_or_default!(run, defaults, string, "propagator").unwrap_or_else(|| "linbp".into());
    let opts = PropagatorOptions {
        threads,
        ..PropagatorOptions::default()
    };
    let opts = PROPAGATORS
        .options(opts, |key| {
            Ok(entry_or_default!(run, defaults, option_value, key))
        })
        .map_err(context)?;
    let propagator = PROPAGATORS
        .build(&propagator_name, &opts)
        .map_err(context)?;

    let mut pipeline = Pipeline::on(&data.graph)
        .seeds(&data.seeds)
        .estimator(estimator)
        .estimator_label(estimator_label)
        .propagator(propagator)
        .summary_cache(Arc::clone(cache));
    if let Some(threads) = threads {
        pipeline = pipeline.estimation_threads(threads);
    }
    if let Some(cache_dir) = entry_or_default!(run, defaults, string, "summary_cache") {
        let store = SummaryStore::open(resolve_path(base, &cache_dir))
            .map_err(err)
            .map_err(context)?;
        pipeline = pipeline.summary_store(Arc::new(store));
    }
    let mut report = pipeline.run().map_err(err).map_err(context)?;
    if let Some(truth) = &data.truth {
        if truth.k() == data.classes {
            report.evaluate(truth, &data.seeds);
        }
    }
    if let Some(out) = run.string("out")? {
        crate::matrix_io::write_predictions(&resolve_path(base, &out), &report.outcome.predictions)
            .map_err(err)
            .map_err(context)?;
    }
    let line = format!(
        "{{\"name\":{},\"dataset\":{},\"report\":{}}}",
        Json::str(name),
        Json::str(data.dataset_label.as_str()),
        report.to_json()
    );
    if let Some(report_path) = run.string("report")? {
        std::fs::write(resolve_path(base, &report_path), format!("{line}\n"))
            .map_err(err)
            .map_err(context)?;
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fg_manifest_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parser_handles_defaults_runs_comments_and_types() {
        let manifest = parse_manifest(
            "# header comment\n\
             threads = \"auto\"   # inline comment\n\
             fraction = 0.1\n\
             \n\
             [[run]]\n\
             name = \"a\"\n\
             nodes = 500\n\
             skew = 8.0\n\
             [[run]]\n\
             name = \"b # not a comment\"\n\
             dataset = \"Cora\"\n",
        )
        .unwrap();
        assert_eq!(manifest.runs.len(), 2);
        assert_eq!(
            manifest.defaults.string("threads").unwrap(),
            Some("auto".to_string())
        );
        assert_eq!(manifest.defaults.f64_value("fraction").unwrap(), Some(0.1));
        assert_eq!(manifest.runs[0].usize_value("nodes").unwrap(), Some(500));
        assert_eq!(manifest.runs[0].f64_value("skew").unwrap(), Some(8.0));
        assert_eq!(
            manifest.runs[1].string("name").unwrap(),
            Some("b # not a comment".to_string())
        );
    }

    #[test]
    fn parser_rejects_malformed_input_with_line_numbers() {
        let assert_err = |content: &str, needle: &str| {
            let e = parse_manifest(content).unwrap_err();
            assert!(e.contains(needle), "'{e}' should mention '{needle}'");
        };
        assert_err("[[run]]\nkey value\n", "line 2");
        assert_err("[[run]]\nx = \"unterminated\n", "unterminated");
        assert_err("[[run]]\nx = maybe\n", "cannot parse");
        assert_err("[section]\n[[run]]\n", "unknown section");
        assert_err("[[run]]\na = 1\na = 2\n", "duplicate");
        assert_err("threads = \"auto\"\n", "no [[run]]");
        // Unknown keys are rejected during execution-side validation.
        let manifest = parse_manifest("[[run]]\nbogus = 1\n").unwrap();
        assert!(validate_keys(&manifest.runs[0], "run")
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn type_mismatches_are_reported() {
        let manifest = parse_manifest("[[run]]\nnodes = \"many\"\nname = 7\n").unwrap();
        assert!(manifest.runs[0].usize_value("nodes").is_err());
        assert!(manifest.runs[0].string("name").is_err());
        let negative = parse_manifest("[[run]]\nnodes = -4\n").unwrap();
        assert!(negative.runs[0].usize_value("nodes").is_err());
    }

    #[test]
    fn synthetic_manifest_runs_end_to_end() {
        let dir = temp_dir("synthetic");
        let manifest_path = dir.join("exp.toml");
        std::fs::write(
            &manifest_path,
            "estimator = \"mce\"\n\
             fraction = 0.1\n\
             [[run]]\n\
             name = \"small\"\n\
             nodes = 300\n\
             degree = 8.0\n\
             classes = 3\n\
             skew = 8.0\n\
             seed = 3\n\
             out = \"pred.tsv\"\n\
             report = \"report.json\"\n\
             [[run]]\n\
             name = \"rw-baseline\"\n\
             nodes = 200\n\
             propagator = \"rw\"\n",
        )
        .unwrap();
        let output = run_manifest(&manifest_path).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"small\""));
        assert!(lines[0].contains("\"estimator\":\"MCE\""));
        assert!(lines[0].contains("\"accuracy\":"));
        assert!(lines[1].contains("\"propagator\":\"RandomWalk\""));
        assert!(dir.join("pred.tsv").exists());
        let report = std::fs::read_to_string(dir.join("report.json")).unwrap();
        assert!(report.contains("\"name\":\"small\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_name_with_control_characters_renders_valid_json() {
        let dir = temp_dir("control_chars");
        let manifest_path = dir.join("exp.toml");
        std::fs::write(&manifest_path, "[[run]]\nname = \"a\tb\"\nnodes = 200\n").unwrap();
        let output = run_manifest(&manifest_path).unwrap();
        let parsed = Json::parse(&output).unwrap_or_else(|e| panic!("{e}: {output}"));
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("a\tb"));
        assert!(
            output.starts_with("{\"name\":\"a\\tb\",\"dataset\":"),
            "{output}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rank_key_selects_the_lowrank_backend() {
        let dir = temp_dir("rank_key");
        let manifest_path = dir.join("exp.toml");
        std::fs::write(
            &manifest_path,
            "fraction = 0.1\n\
             [[run]]\n\
             name = \"lowrank\"\n\
             nodes = 300\n\
             seed = 3\n\
             estimator = \"dce\"\n\
             rank = 8\n",
        )
        .unwrap();
        let output = run_manifest(&manifest_path).unwrap();
        assert!(
            output.contains("\"estimator\":\"DCE(l=5,lambda=10,mode=lowrank,rank=8)\""),
            "{output}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_summary_cache_is_warm_on_second_execution() {
        let dir = temp_dir("cache");
        let manifest_path = dir.join("exp.toml");
        std::fs::write(
            &manifest_path,
            "summary-cache = \"summaries\"\n\
             [[run]]\n\
             name = \"cached\"\n\
             nodes = 300\n\
             seed = 5\n\
             fraction = 0.1\n",
        )
        .unwrap();
        let cold = run_manifest(&manifest_path).unwrap();
        assert!(cold.contains("\"summary_computations\":1"), "{cold}");
        // The warm run hits the persisted H estimate, which answers before the
        // summaries are even consulted — no computation, no store reads.
        let warm = run_manifest(&manifest_path).unwrap();
        assert!(warm.contains("\"summary_computations\":0"), "{warm}");
        assert!(warm.contains("\"optimize_store_hits\":1"), "{warm}");
        assert!(dir.join("summaries").is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defaults_supply_dataset_keys_and_reject_per_run_only_ones() {
        let dir = temp_dir("defaults");
        let manifest_path = dir.join("exp.toml");
        // The dataset (generator mode) lives entirely in the defaults; entries only
        // override what differs.
        std::fs::write(
            &manifest_path,
            "nodes = 300\n\
             classes = 3\n\
             skew = 8.0\n\
             seed = 9\n\
             fraction = 0.1\n\
             estimator = \"mce\"\n\
             [[run]]\n\
             name = \"default-dataset\"\n\
             [[run]]\n\
             name = \"smaller\"\n\
             nodes = 200\n",
        )
        .unwrap();
        let output = run_manifest(&manifest_path).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("synthetic(n=300,k=3,h=8,seed=9)"),
            "{output}"
        );
        assert!(
            lines[1].contains("synthetic(n=200,k=3,h=8,seed=9)"),
            "{output}"
        );
        // Per-run-only keys cannot be defaults.
        std::fs::write(&manifest_path, "out = \"pred.tsv\"\n[[run]]\nnodes = 100\n").unwrap();
        let e = run_manifest(&manifest_path).unwrap_err();
        assert!(e.contains("per-run only"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Strip the wall-clock fields (the only run-to-run nondeterminism a report
    /// carries) so two executions can be compared byte for byte on everything else:
    /// names, datasets, counters, accuracies, iterations, epsilons.
    fn normalize_timings(output: &str) -> String {
        output
            .lines()
            .map(|line| {
                line.split(',')
                    .filter(|field| !field.contains("_seconds\":"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parallel_manifest_output_is_byte_identical_to_serial() {
        let dir = temp_dir("parallel");
        let manifest_path = dir.join("exp.toml");
        // Four entries: two share one dataset+seed set (cache collision — the
        // first computes, the second hits, in manifest order even under threads),
        // two are distinct; one writes predictions. A summary store is in play too.
        std::fs::write(
            &manifest_path,
            "summary-cache = \"summaries\"\n\
             estimator = \"mce\"\n\
             fraction = 0.1\n\
             [[run]]\n\
             name = \"a\"\n\
             nodes = 300\n\
             seed = 5\n\
             out = \"pred_a.tsv\"\n\
             [[run]]\n\
             name = \"a-again\"\n\
             nodes = 300\n\
             seed = 5\n\
             out = \"pred_a_again.tsv\"\n\
             [[run]]\n\
             name = \"b\"\n\
             nodes = 250\n\
             seed = 6\n\
             [[run]]\n\
             name = \"c\"\n\
             nodes = 200\n\
             seed = 7\n\
             propagator = \"rw\"\n",
        )
        .unwrap();
        let run_with = |threads: Threads, fresh_store: bool| {
            if fresh_store {
                std::fs::remove_dir_all(dir.join("summaries")).ok();
            }
            run_manifest_with(&manifest_path, threads).unwrap()
        };
        let serial = run_with(Threads::Serial, true);
        let serial_preds = std::fs::read(dir.join("pred_a.tsv")).unwrap();
        // The collision entries report computing exactly once, in manifest order.
        let lines: Vec<&str> = serial.lines().collect();
        assert!(lines[0].contains("\"summary_computations\":1"), "{serial}");
        assert!(lines[1].contains("\"summary_computations\":0"), "{serial}");
        assert_eq!(
            serial_preds,
            std::fs::read(dir.join("pred_a_again.tsv")).unwrap()
        );

        // Cold parallel run: identical output (modulo wall-clock), identical files.
        let parallel = run_with(Threads::Fixed(4), true);
        assert_eq!(normalize_timings(&serial), normalize_timings(&parallel));
        assert_eq!(serial_preds, std::fs::read(dir.join("pred_a.tsv")).unwrap());

        // Warm-store runs agree too (counters shift to the persisted H estimate,
        // deterministically — it answers before the summaries are consulted).
        let serial_warm = run_with(Threads::Serial, false);
        let parallel_warm = run_with(Threads::Fixed(4), false);
        assert!(serial_warm
            .lines()
            .next()
            .unwrap()
            .contains("\"optimize_store_hits\":1"));
        assert_eq!(
            normalize_timings(&serial_warm),
            normalize_timings(&parallel_warm)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn construct_section_parses_and_rejects_unknown_keys() {
        let manifest = parse_manifest(
            "[construct]\n\
             features = \"blobs.csv\"\n\
             builder = \"knn\"\n\
             [[run]]\n\
             name = \"a\"\n",
        )
        .unwrap();
        assert_eq!(
            manifest.construct.string("features").unwrap(),
            Some("blobs.csv".to_string())
        );
        let bad =
            parse_manifest("[construct]\nestimator = \"mce\"\n[[run]]\nnodes = 10\n").unwrap();
        let e = validate_keys(&bad.construct, "[construct]").unwrap_err();
        assert!(e.contains("unknown [construct] key 'estimator'"), "{e}");
    }

    #[test]
    fn construct_manifest_classifies_features_end_to_end_with_warm_cache() {
        let dir = temp_dir("construct");
        let config = fg_datasets::BlobConfig {
            nodes: 120,
            classes: 3,
            dims: 4,
            spread: 0.8,
            spread_skew: 1.0,
            seed: 11,
        };
        let (features, truth) = fg_datasets::synthesize_blobs(&config).unwrap();
        let labels: Vec<Option<usize>> = truth.as_slice().iter().map(|&c| Some(c)).collect();
        fg_datasets::write_features(&dir.join("blobs.csv"), &features, &labels).unwrap();
        let manifest_path = dir.join("exp.toml");
        std::fs::write(
            &manifest_path,
            "summary-cache = \"summaries\"\n\
             estimator = \"mce\"\n\
             fraction = 0.1\n\
             seed = 4\n\
             [construct]\n\
             features = \"blobs.csv\"\n\
             builder = \"Knn(k=8,weighting=heat)\"\n\
             [[run]]\n\
             name = \"blobs-heat\"\n\
             [[run]]\n\
             name = \"blobs-sparse\"\n\
             builder = \"SparseReg(k=8,alpha=0.05)\"\n",
        )
        .unwrap();
        // Cold run: the feature matrix is the only input on disk — no edge list
        // anywhere — and both entries classify it through the standard pipeline.
        let cold = run_manifest(&manifest_path).unwrap();
        let lines: Vec<&str> = cold.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("construct(blobs.csv,Knn(k=8,metric=euclidean,weighting=heat,"),
            "{cold}"
        );
        assert!(
            lines[1].contains("construct(blobs.csv,SparseReg(k=8,alpha=0.05,"),
            "{cold}"
        );
        for line in &lines {
            assert!(line.contains("\"summary_computations\":1"), "{cold}");
            assert!(line.contains("\"accuracy\":"), "{cold}");
        }
        // The cold run also persisted both constructed graphs, content-addressed
        // by (feature fingerprint, builder spec).
        let fgg_files: Vec<_> = std::fs::read_dir(dir.join("summaries"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "fgg"))
            .collect();
        assert_eq!(fgg_files.len(), 2, "{cold}");
        // Warm run: constructed graphs fingerprint deterministically, so the
        // persistent store answers both entries — the cached edge sets replace
        // the O(n²·d) builds and the persisted H estimates skip summarization
        // and optimization entirely.
        let warm = run_manifest(&manifest_path).unwrap();
        for line in warm.lines() {
            assert!(line.contains("\"summary_computations\":0"), "{warm}");
            assert!(line.contains("\"optimize_store_hits\":1"), "{warm}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partially_labeled_feature_runs_seed_from_the_labeled_rows() {
        let dir = temp_dir("construct_partial");
        let config = fg_datasets::BlobConfig {
            nodes: 90,
            classes: 3,
            dims: 4,
            spread: 0.6,
            spread_skew: 1.0,
            seed: 2,
        };
        let (features, truth) = fg_datasets::synthesize_blobs(&config).unwrap();
        // Keep one row in five labeled; the rest become '?' rows.
        let labels: Vec<Option<usize>> = truth
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| (i % 5 == 0).then_some(c))
            .collect();
        fg_datasets::write_features(&dir.join("part.csv"), &features, &labels).unwrap();
        let manifest_path = dir.join("exp.toml");
        std::fs::write(
            &manifest_path,
            "estimator = \"mce\"\n\
             [[run]]\n\
             name = \"partial\"\n\
             features = \"part.csv\"\n\
             builder = \"knn\"\n",
        )
        .unwrap();
        let output = run_manifest(&manifest_path).unwrap();
        // No ground truth => no accuracy field, but the run still classifies.
        assert!(!output.contains("\"accuracy\":"), "{output}");
        assert!(output.contains("\"summary_computations\":1"), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dataset_and_bad_specs_error_with_run_name() {
        let dir = temp_dir("errors");
        let path = dir.join("bad.toml");
        std::fs::write(&path, "[[run]]\nname = \"x\"\nestimator = \"mce\"\n").unwrap();
        let e = run_manifest(&path).unwrap_err();
        assert!(e.contains("run 'x'"), "{e}");
        assert!(e.contains("needs a dataset"), "{e}");
        std::fs::write(&path, "[[run]]\nnodes = 100\nestimator = \"nope\"\n").unwrap();
        assert!(run_manifest(&path).unwrap_err().contains("unknown"));
        std::fs::write(&path, "[[run]]\nnodes = 100\npropagator = \"nope\"\n").unwrap();
        assert_eq!(
            run_manifest(&path).unwrap_err(),
            "run 'run1': unknown propagation method 'nope' \
             (expected one of linbp, bp, harmonic, rw)"
        );
        assert!(run_manifest(&dir.join("absent.toml"))
            .unwrap_err()
            .contains("cannot read"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
