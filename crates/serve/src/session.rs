//! The long-lived serving [`Session`]: named datasets + seed state + incremental
//! summary engines + shared caches behind a JSON-lines command protocol.
//!
//! One session is shared by every connection of an `fg serve` process (that is the
//! point: the expensive state — graphs, [`DeltaSummary`] engines, the summary cache —
//! is paid once and amortized across requests). A session manages **multiple named
//! datasets** concurrently: each dataset lives behind its own reader/writer lock, so
//! warm `estimate`/`classify`/`stats` requests on published state proceed in
//! parallel (shared read locks), while `load`/`unload`/`seed` and cold
//! engine-building requests take the dataset's exclusive write lock. All
//! floating-point work runs through the bit-identical kernels and every engine is
//! published before a read path can see it, so each response is a deterministic
//! function of the per-dataset request history alone — clients driving disjoint
//! datasets get byte-identical response streams under any interleaving. Timings
//! never appear on this port at all: all wall-clock data (per-command latency
//! histograms, lock-wait histograms) lives in the session's
//! [`MetricsRegistry`], scraped over the separate metrics listener
//! ([`MetricsServer`](crate::MetricsServer)).
//!
//! Per dataset, a small LRU of engine states keyed by **seed-set fingerprint**
//! keeps recently-used seed configurations warm: a `seed` mutation forks the live
//! engines ([`DeltaSummary::fork`]) and folds the batch into the forks, so the
//! pre-mutation state stays resident and reverting a mutation is a pure cache hit
//! (`"engine_reused":true`, zero delta work). Seed fingerprints are maintained in
//! O(1) per mutation by the rolling scheme in [`SeedLabels`]; `stats` exposes the
//! per-dataset `seed_scratch_derivations` counter that proves the serving path
//! never falls back to an O(n) re-derivation.
//!
//! When a persistent [`SummaryStore`] is attached, estimates for the *loaded* seed
//! set are additionally served straight from persisted `H` entries
//! (`optimize_store_hits`), skipping both summarization and optimization.
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out. Requests name a command in `cmd`
//! and may carry an `id` of any JSON type, echoed verbatim in the response, plus an
//! optional `dataset` name (defaulting to `"default"`) selecting which dataset the
//! command addresses. Responses are `{"ok":true,"id":...,"result":{...}}` or
//! `{"ok":false,"id":...,"line":N,"error":"..."}` — malformed requests (bad JSON,
//! unknown commands, invalid parameters) produce an error response with the
//! connection's line number and never terminate the session.
//!
//! | command    | parameters                                                        |
//! |------------|-------------------------------------------------------------------|
//! | `ping`     | —                                                                 |
//! | `load`     | `edges`, `labels`, `nodes`, `classes`, `dataset` (optional name)  |
//! | `unload`   | `dataset` (optional name)                                         |
//! | `seed`     | `add` `[[node,label],..]`, `remove` `[node,..]`, `relabel` `[[node,label],..]` |
//! | `estimate` | `method` + every estimator key (`restarts`, `lmax`, `lambda`, `splits`, `variant`, `nb`, `mode`, `rank`) |
//! | `classify` | estimate's parameters + `propagator`, every propagator key (`iterations`, `tolerance`, `damping`), `nodes` (subset), `abstain` |
//! | `stats`    | —                                                                 |
//! | `shutdown` | — (closes this connection; the process keeps serving others)      |
//!
//! `seed` mutations are folded into the maintained summaries by the
//! [`DeltaSummary`] engines — after the first `estimate`/`classify` warm-up, a seed
//! change costs work proportional to the mutated node's neighborhood and subsequent
//! requests report `summary_computations: 0`, bit-identical to a cold batch run on
//! the same seed set.

use crate::json::Json;
use fg_core::incremental::{validate_mutations, DeltaSummary, SeedMutation};
use fg_core::prelude::*;
use fg_core::{EstimateKey, EstimatorOptions, SummaryKey, SummaryStore, ESTIMATORS};
use fg_graph::spec::{Key, Kind};
use fg_graph::Fingerprint;
use fg_obs::{default_latency_buckets, MetricsRegistry};
use fg_propagation::{Propagator, PropagatorOptions, PROPAGATORS};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Whether the serving loop should keep reading after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep the connection open.
    Continue,
    /// Close this connection after writing the response.
    Close,
}

/// The dataset name used when a request carries no `dataset` field.
pub const DEFAULT_DATASET: &str = "default";

/// How many seed-set engine states each dataset keeps warm by default.
const DEFAULT_ENGINE_STATES: usize = 4;

/// Every protocol command. Per-command stats keys and metric labels are drawn from
/// this set; any other `cmd` is recorded as `"unknown"`.
const COMMANDS: [&str; 8] = [
    "ping", "load", "unload", "seed", "estimate", "classify", "stats", "shutdown",
];

/// The engines maintained for one seed-set fingerprint: one slot per counting mode
/// (index 0 = plain paths, 1 = non-backtracking), created lazily by the first
/// estimator that needs the mode. An entry in the per-dataset LRU.
struct EngineState {
    seed_fp: Fingerprint,
    engines: [Option<DeltaSummary>; 2],
    /// Recency stamp from the session clock; atomic so warm reads can touch it
    /// under a shared read lock.
    last_used: AtomicU64,
    /// Row units it took to materialize this state: delta rows replayed at fork
    /// time, plus full-summarization rows for engines built from scratch. The
    /// LRU treats this as the state's rebuild cost — cheap-to-rebuild states
    /// evict first, recency only breaks ties — so an expensive fully summarized
    /// state is not sacrificed to keep a one-mutation fork warm.
    rebuild_rows: usize,
}

impl EngineState {
    fn full_summarizations(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.stats().full_summarizations)
            .sum()
    }
}

/// One loaded dataset plus its incremental machinery. Lives behind a `RwLock` in
/// the session's dataset map: warm reads share it, mutations own it.
struct Dataset {
    /// The map key this dataset lives under (the `dataset` label on its metrics).
    name: String,
    graph: Arc<Graph>,
    seeds: SeedLabels,
    classes: usize,
    label: String,
    /// LRU of engine states keyed by seed fingerprint. Every resident engine's
    /// counts are already published to the shared cache (and persisted to the
    /// store, when attached) — the read path never publishes.
    states: Vec<EngineState>,
    /// Fingerprint of the seed set as loaded from disk. Store entries for this
    /// fingerprint are shared with batch runs and future sessions on the same
    /// files, so pruning must never touch it — only the session's own intermediate
    /// (mutated) fingerprints are transient.
    initial_seed_fp: Fingerprint,
    /// The one intermediate (non-initial) seed fingerprint whose summaries are
    /// currently persisted, if any. Each new persist prunes the previous
    /// intermediate's files, so the store holds at most one transient state per
    /// dataset alongside the shared initial one.
    persisted_intermediate: Option<Fingerprint>,
    /// How many engine states the LRU has evicted over this dataset's lifetime.
    /// Exposed via `stats` so oscillating multi-tenant workloads — seed sets
    /// cycling faster than the LRU capacity, re-summarizing on every swing — are
    /// diagnosable from the outside.
    engine_evictions: usize,
}

impl Dataset {
    fn graph_fingerprint(&self) -> Fingerprint {
        self.graph.fingerprint()
    }

    fn state_index(&self, seed_fp: Fingerprint) -> Option<usize> {
        self.states.iter().position(|s| s.seed_fp == seed_fp)
    }

    fn full_summarizations(&self) -> usize {
        self.states
            .iter()
            .map(EngineState::full_summarizations)
            .sum()
    }
}

/// Aggregate per-command counters for `stats`. Deliberately holds **no timing**:
/// `stats` responses travel over the byte-deterministic protocol port, so they
/// report only counters that are a pure function of the request history. All
/// wall-clock aggregation (latency histograms, percentiles) lives in the
/// session's [`MetricsRegistry`], scraped over the separate metrics listener.
#[derive(Debug, Default, Clone)]
struct CommandStat {
    count: usize,
    errors: usize,
}

/// The result of one estimation, with the per-request work counters.
struct EstimateOutcome {
    h: DenseMatrix,
    estimator: String,
    /// Full summarizations this request caused (engine builds + cache misses).
    computations: usize,
    /// Summaries this request pulled from the persistent store.
    store_hits: usize,
    /// Whether this request was answered straight from a persisted `H` estimate.
    h_store_hits: usize,
}

/// A long-lived serving session (see the [module docs](self) for the protocol).
/// Shared across connections behind an `Arc`. Named datasets are independent:
/// requests on different datasets never contend beyond a brief map lookup, and
/// warm reads on the *same* dataset run concurrently under its shared read lock.
pub struct Session {
    threads: Threads,
    cache: Arc<SummaryCache>,
    store: Option<Arc<SummaryStore>>,
    /// How many seed-set engine states each dataset keeps warm (LRU capacity).
    engine_capacity: usize,
    datasets: RwLock<BTreeMap<String, Arc<RwLock<Dataset>>>>,
    requests: AtomicUsize,
    /// Full summarizations performed by engines that were since dropped (dataset
    /// reloads, lmax upgrades, LRU evictions) — keeps the session total monotone.
    retired_full_summarizations: AtomicUsize,
    /// Estimates answered straight from persisted `H` entries.
    h_store_hits: AtomicUsize,
    /// Monotone recency clock for the per-dataset engine LRUs.
    clock: AtomicU64,
    commands: Mutex<BTreeMap<&'static str, CommandStat>>,
    /// The session's metrics registry: per-command latency histograms, lock-wait
    /// histograms, and per-dataset cache/engine counters. Scraped over the
    /// metrics listener (`fg serve --metrics-port`); never consulted by the
    /// protocol port, so responses stay byte-deterministic.
    metrics: Arc<MetricsRegistry>,
    /// Requests slower than this many milliseconds log one stderr line
    /// (`u64::MAX` disables the slow-request log).
    slow_request_millis: AtomicU64,
    /// Test hook: invoked on every warm read while the dataset's shared read lock
    /// is held, so concurrency tests can prove warm reads overlap.
    warm_read_probe: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Session {
    /// Create a session with the given thread policy and optional persistent
    /// summary store.
    pub fn new(threads: Threads, store: Option<Arc<SummaryStore>>) -> Session {
        Session {
            threads,
            cache: SummaryCache::shared(),
            store,
            engine_capacity: DEFAULT_ENGINE_STATES,
            datasets: RwLock::new(BTreeMap::new()),
            requests: AtomicUsize::new(0),
            retired_full_summarizations: AtomicUsize::new(0),
            h_store_hits: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            commands: Mutex::new(BTreeMap::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            slow_request_millis: AtomicU64::new(u64::MAX),
            warm_read_probe: None,
        }
    }

    /// The session's metrics registry (shared with the metrics listener).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Log one stderr line for every request slower than `millis` milliseconds.
    /// A threshold of 0 logs every request (the CI smoke mode).
    pub fn with_slow_request_millis(self, millis: u64) -> Session {
        self.slow_request_millis.store(millis, Ordering::Relaxed);
        self
    }

    /// Set how many seed-set engine states each dataset keeps warm (clamped to at
    /// least one: the current seed set's engines are never evicted).
    pub fn with_engine_states(mut self, capacity: usize) -> Session {
        self.engine_capacity = capacity.max(1);
        self
    }

    /// Install a hook invoked on every warm read while the dataset's shared read
    /// lock is held. Concurrency tests use a barrier here to prove that warm reads
    /// from multiple connections genuinely overlap.
    #[doc(hidden)]
    pub fn set_warm_read_probe(&mut self, probe: Box<dyn Fn() + Send + Sync>) {
        self.warm_read_probe = Some(probe);
    }

    fn probe(&self) {
        if let Some(probe) = &self.warm_read_probe {
            probe();
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Record how long a lock acquisition waited, labeled by lock and operation.
    /// Lock contention is the one latency source the per-command histograms
    /// cannot attribute (a warm read stalled behind a writer looks identical to
    /// a slow kernel), so it gets its own histogram family.
    fn observe_lock_wait(&self, lock: &'static str, op: &'static str, start: Instant) {
        self.metrics
            .histogram(
                "fg_lock_wait_seconds",
                "Time spent waiting to acquire session RwLocks, by lock and operation.",
                &[("lock", lock), ("op", op)],
                default_latency_buckets(),
            )
            .observe_duration(start.elapsed());
    }

    /// Timed shared lock on the dataset map.
    fn map_read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<RwLock<Dataset>>>> {
        let start = Instant::now();
        let guard = self.datasets.read().expect("dataset map poisoned");
        self.observe_lock_wait("dataset_map", "read", start);
        guard
    }

    /// Timed exclusive lock on the dataset map.
    fn map_write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<RwLock<Dataset>>>> {
        let start = Instant::now();
        let guard = self.datasets.write().expect("dataset map poisoned");
        self.observe_lock_wait("dataset_map", "write", start);
        guard
    }

    /// Timed shared lock on one dataset.
    fn dataset_read<'l>(&self, handle: &'l RwLock<Dataset>) -> RwLockReadGuard<'l, Dataset> {
        let start = Instant::now();
        let guard = handle.read().expect("dataset poisoned");
        self.observe_lock_wait("dataset", "read", start);
        guard
    }

    /// Timed exclusive lock on one dataset.
    fn dataset_write<'l>(&self, handle: &'l RwLock<Dataset>) -> RwLockWriteGuard<'l, Dataset> {
        let start = Instant::now();
        let guard = handle.write().expect("dataset poisoned");
        self.observe_lock_wait("dataset", "write", start);
        guard
    }

    /// Fold one estimation outcome into the per-dataset counter families.
    fn record_estimate_metrics(&self, dataset: &str, outcome: &EstimateOutcome) {
        let labels = &[("dataset", dataset)];
        self.metrics
            .counter(
                "fg_summary_computations_total",
                "Full O(m*k*lmax) summarizations performed, by dataset.",
                labels,
            )
            .add(outcome.computations as u64);
        self.metrics
            .counter(
                "fg_store_hits_total",
                "Summaries served from the persistent store, by dataset.",
                labels,
            )
            .add(outcome.store_hits as u64);
        self.metrics
            .counter(
                "fg_optimize_store_hits_total",
                "Estimates served straight from persisted H entries, by dataset.",
                labels,
            )
            .add(outcome.h_store_hits as u64);
    }

    /// Handle one raw request line, producing the response line and the connection
    /// disposition. `line_no` is the 1-based line number within the connection,
    /// echoed in error responses so clients can pinpoint the offending request.
    pub fn handle_line(&self, line: &str, line_no: usize) -> (String, Flow) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return (
                error_response(&Json::Null, line_no, "empty request line").to_string(),
                Flow::Continue,
            );
        }
        let request = match Json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                return (
                    error_response(&Json::Null, line_no, &format!("invalid JSON: {e}")).to_string(),
                    Flow::Continue,
                );
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let cmd = match request.get("cmd").and_then(Json::as_str) {
            Some(c) => c.to_string(),
            None => {
                return (
                    error_response(&id, line_no, "request object needs a string 'cmd' field")
                        .to_string(),
                    Flow::Continue,
                );
            }
        };

        let start = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (outcome, flow) = match cmd.as_str() {
            "ping" => (Ok(Json::str("pong")), Flow::Continue),
            "load" => (self.cmd_load(&request), Flow::Continue),
            "unload" => (self.cmd_unload(&request), Flow::Continue),
            "seed" => (self.cmd_seed(&request), Flow::Continue),
            "estimate" => (self.cmd_estimate(&request), Flow::Continue),
            "classify" => (self.cmd_classify(&request), Flow::Continue),
            "stats" => (Ok(self.cmd_stats()), Flow::Continue),
            "shutdown" => (Ok(Json::str("closing connection")), Flow::Close),
            other => (
                Err(format!(
                    "unknown command '{other}' (expected ping, load, unload, seed, \
                     estimate, classify, stats, or shutdown)"
                )),
                Flow::Continue,
            ),
        };
        let elapsed = start.elapsed();
        // Stats keys and metric labels come from a fixed set: every unrecognized
        // name shares one "unknown" entry, so junk commands cannot grow them.
        let key = COMMANDS
            .into_iter()
            .find(|&known| known == cmd)
            .unwrap_or("unknown");
        {
            let mut commands = self.commands.lock().expect("command stats poisoned");
            let stat = commands.entry(key).or_default();
            stat.count += 1;
            if outcome.is_err() {
                stat.errors += 1;
            }
        }
        let labels = &[("cmd", key)];
        self.metrics
            .counter("fg_requests_total", "Requests handled, by command.", labels)
            .inc();
        if outcome.is_err() {
            self.metrics
                .counter(
                    "fg_request_errors_total",
                    "Requests answered with an error response, by command.",
                    labels,
                )
                .inc();
        }
        self.metrics
            .histogram(
                "fg_request_seconds",
                "Request handling latency, by command.",
                labels,
                default_latency_buckets(),
            )
            .observe_duration(elapsed);
        if elapsed.as_millis() as u64 >= self.slow_request_millis.load(Ordering::Relaxed) {
            eprintln!(
                "fg serve: slow request cmd={cmd} elapsed_ms={} line_bytes={}",
                elapsed.as_millis(),
                line.len()
            );
        }
        let response = match outcome {
            Ok(result) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("id", id),
                ("result", result),
            ]),
            Err(message) => error_response(&id, line_no, &message),
        };
        (response.to_string(), flow)
    }

    /// Look up a loaded dataset's handle by name (brief shared lock on the map).
    fn dataset_handle(&self, name: &str) -> Result<Arc<RwLock<Dataset>>, String> {
        self.map_read()
            .get(name)
            .cloned()
            .ok_or_else(|| missing_dataset(name))
    }

    /// `load`: read an edge list + seed label file into the named dataset,
    /// replacing any previous dataset of that name (whose cache entries and
    /// engines are retired).
    fn cmd_load(&self, request: &Json) -> Result<Json, String> {
        let name = dataset_name(request)?;
        let edges = required_str(request, "edges")?;
        let labels = required_str(request, "labels")?;
        let nodes = required_usize(request, "nodes")?;
        let classes = required_usize(request, "classes")?;
        let graph =
            fg_datasets::read_edge_list(Path::new(&edges), nodes).map_err(|e| e.to_string())?;
        let seeds = fg_datasets::read_labels(Path::new(&labels), nodes, classes)
            .map_err(|e| e.to_string())?;

        let initial_seed_fp = seeds.fingerprint();
        let dataset = Dataset {
            name: name.clone(),
            graph: Arc::new(graph),
            seeds,
            classes,
            label: edges.clone(),
            states: Vec::new(),
            initial_seed_fp,
            persisted_intermediate: None,
            engine_evictions: 0,
        };
        self.metrics
            .counter(
                "fg_dataset_loads_total",
                "Datasets loaded (including reloads), by dataset.",
                &[("dataset", &name)],
            )
            .inc();
        let result = Json::obj(vec![
            ("dataset", Json::str(name.clone())),
            ("nodes", Json::num(dataset.graph.num_nodes())),
            ("edges", Json::num(dataset.graph.num_edges())),
            ("classes", Json::num(classes)),
            ("labeled", Json::num(dataset.seeds.num_labeled())),
            (
                "graph_fingerprint",
                Json::str(dataset.graph_fingerprint().to_hex()),
            ),
            (
                "seed_fingerprint",
                Json::str(dataset.seeds.fingerprint().to_hex()),
            ),
        ]);
        let replaced = self
            .map_write()
            .insert(name, Arc::new(RwLock::new(dataset)));
        // Retire the replaced dataset outside the map lock: evict its cache
        // entries so the session cache does not grow across reloads, keep its
        // engines' work counters in the totals, and prune its transient store
        // files. Waits for in-flight readers of the old dataset to drain.
        if let Some(old) = replaced {
            let mut old = self.dataset_write(&old);
            self.retire_dataset(&mut old);
        }
        Ok(result)
    }

    /// `unload`: drop the named dataset, retiring its engines and cache entries.
    fn cmd_unload(&self, request: &Json) -> Result<Json, String> {
        let name = dataset_name(request)?;
        let removed = self
            .map_write()
            .remove(&name)
            .ok_or_else(|| missing_dataset(&name))?;
        let mut dataset = self.dataset_write(&removed);
        self.retire_dataset(&mut dataset);
        Ok(Json::obj(vec![
            ("dataset", Json::str(name)),
            ("unloaded", Json::Bool(true)),
        ]))
    }

    /// Evict a dataset's cache entries, fold its engines' work into the retired
    /// total, and prune its transient (intermediate-fingerprint) store files.
    fn retire_dataset(&self, dataset: &mut Dataset) {
        let graph_fp = dataset.graph_fingerprint();
        for state in &dataset.states {
            self.cache.remove(graph_fp, state.seed_fp);
        }
        self.retired_full_summarizations
            .fetch_add(dataset.full_summarizations(), Ordering::Relaxed);
        dataset.states.clear();
        if let (Some(store), Some(fp)) = (&self.store, dataset.persisted_intermediate.take()) {
            for non_backtracking in [false, true] {
                if let Err(e) = store.remove(&SummaryKey(graph_fp, fp, non_backtracking)) {
                    eprintln!("warning: could not prune superseded summary: {e}");
                }
            }
        }
    }

    /// Record that summaries for `fp` were just persisted: prune the previously
    /// persisted intermediate state's files (the loaded seed set's entries are
    /// shared with batch runs and always survive) and remember `fp` if it is
    /// itself intermediate.
    fn note_persisted(&self, dataset: &mut Dataset, fp: Fingerprint) {
        if let Some(store) = &self.store {
            if let Some(old) = dataset.persisted_intermediate {
                if old != fp {
                    for non_backtracking in [false, true] {
                        let key = SummaryKey(dataset.graph_fingerprint(), old, non_backtracking);
                        if let Err(e) = store.remove(&key) {
                            eprintln!("warning: could not prune superseded summary: {e}");
                        }
                    }
                }
            }
        }
        dataset.persisted_intermediate = (fp != dataset.initial_seed_fp).then_some(fp);
    }

    /// Shrink a dataset's engine LRU to capacity, never evicting `keep` (the
    /// current seed set's state). The victim is the state that is cheapest to
    /// rebuild (fewest row units replayed to materialize it), with recency
    /// breaking ties — pure recency would happily drop a fully summarized state
    /// to keep a one-mutation fork warm. Evicted engines' counters are retired
    /// and their cache entries dropped; persisted files are governed by
    /// [`note_persisted`](Self::note_persisted), not eviction.
    fn evict_excess(&self, dataset: &mut Dataset, keep: Fingerprint) {
        while dataset.states.len() > self.engine_capacity {
            let victim = dataset
                .states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.seed_fp != keep)
                .min_by_key(|(_, s)| (s.rebuild_rows, s.last_used.load(Ordering::Relaxed)))
                .map(|(i, _)| i);
            let Some(index) = victim else { break };
            let state = dataset.states.remove(index);
            dataset.engine_evictions += 1;
            self.metrics
                .counter(
                    "fg_engine_evictions_total",
                    "Engine states evicted from the per-dataset LRU, by dataset.",
                    &[("dataset", &dataset.name)],
                )
                .inc();
            self.retired_full_summarizations
                .fetch_add(state.full_summarizations(), Ordering::Relaxed);
            self.cache
                .remove(dataset.graph_fingerprint(), state.seed_fp);
        }
    }

    /// `seed`: apply a mutation batch to the named dataset under its exclusive
    /// write lock. The pre-mutation engines stay resident in the LRU (forks absorb
    /// the batch), so reverting a mutation later is a pure engine reuse.
    fn cmd_seed(&self, request: &Json) -> Result<Json, String> {
        let name = dataset_name(request)?;
        let mutations = parse_mutations(request)?;
        let handle = self.dataset_handle(&name)?;
        let mut dataset = self.dataset_write(&handle);
        validate_mutations(&dataset.seeds, &mutations).map_err(|e| e.to_string())?;

        let old_fp = dataset.seeds.fingerprint();
        // The post-mutation fingerprint decides between reusing a resident engine
        // state and forking; deriving it from a scratch clone is fine here — the
        // write path is exclusive, and the authoritative seed set below still
        // pays only O(1) rolling updates per mutation.
        let new_fp = {
            let mut trial = dataset.seeds.clone();
            apply_to_seeds(&mut trial, &mutations);
            trial.fingerprint()
        };

        let mut delta_applied = 0usize;
        let mut full_recomputes = 0usize;
        let mut rows_touched = 0usize;
        let engine_reused = dataset.state_index(new_fp).is_some();
        if engine_reused {
            self.metrics
                .counter(
                    "fg_engine_reuse_total",
                    "Seed mutations answered by a resident engine state, by dataset.",
                    &[("dataset", &name)],
                )
                .inc();
            let index = dataset.state_index(new_fp).expect("checked above");
            dataset.states[index]
                .last_used
                .store(self.tick(), Ordering::Relaxed);
        } else if let Some(index) = dataset.state_index(old_fp) {
            // Fork the live engines and fold the batch into the forks; the
            // pre-mutation state keeps its engines for a later revert.
            let mut forks = [None, None];
            for (slot, fork) in forks.iter_mut().enumerate() {
                if let Some(engine) = &dataset.states[index].engines[slot] {
                    let mut forked = engine.fork();
                    let outcome = forked.apply(&mutations).map_err(|e| e.to_string())?;
                    delta_applied += outcome.delta_applied;
                    full_recomputes += outcome.full_recomputes;
                    rows_touched += outcome.rows_touched;
                    *fork = Some(forked);
                }
            }
            if forks.iter().any(Option::is_some) {
                for engine in forks.iter().flatten() {
                    engine.publish_to(&self.cache);
                    if let Some(store) = &self.store {
                        if let Err(e) = engine.persist_to(store) {
                            eprintln!("warning: could not persist summary: {e}");
                        }
                    }
                }
                dataset.states.push(EngineState {
                    seed_fp: new_fp,
                    engines: forks,
                    last_used: AtomicU64::new(self.tick()),
                    rebuild_rows: rows_touched,
                });
                self.evict_excess(&mut dataset, new_fp);
                self.note_persisted(&mut dataset, new_fp);
            }
        }
        // The authoritative seed set mutates in place: each set_label folds the
        // change into the rolling fingerprint in O(1), which is what the
        // `seed_scratch_derivations` counter in `stats` certifies.
        apply_to_seeds(&mut dataset.seeds, &mutations);
        debug_assert_eq!(dataset.seeds.fingerprint(), new_fp);
        Ok(Json::obj(vec![
            ("mutations", Json::num(mutations.len())),
            ("labeled", Json::num(dataset.seeds.num_labeled())),
            (
                "seed_fingerprint",
                Json::str(dataset.seeds.fingerprint().to_hex()),
            ),
            ("engine_reused", Json::Bool(engine_reused)),
            ("delta_applied", Json::num(delta_applied)),
            ("full_recomputes", Json::num(full_recomputes)),
            ("rows_touched", Json::num(rows_touched)),
        ]))
    }

    /// Run an estimator through a cache-backed context on a dataset, counting this
    /// request's work via the key-scoped cache counters (deterministic under
    /// concurrency: distinct datasets never share a key's counters).
    fn estimate_with_ctx(
        &self,
        dataset: &Dataset,
        estimator: &dyn CompatibilityEstimator,
    ) -> Result<(DenseMatrix, usize, usize), String> {
        let graph_fp = dataset.graph_fingerprint();
        let seed_fp = dataset.seeds.fingerprint();
        let computations_before = self.cache.key_computations(graph_fp, seed_fp);
        let store_hits_before = self.cache.key_store_hits(graph_fp, seed_fp);
        let mut ctx =
            EstimationContext::with_cache(&dataset.graph, &dataset.seeds, Arc::clone(&self.cache))
                .threads(self.threads);
        if let Some(store) = &self.store {
            ctx = ctx.store(Arc::clone(store));
        }
        let h = estimator
            .estimate_with_context(&ctx)
            .map_err(|e| e.to_string())?;
        drop(ctx);
        let computations = self.cache.key_computations(graph_fp, seed_fp) - computations_before;
        let store_hits = self.cache.key_store_hits(graph_fp, seed_fp) - store_hits_before;
        Ok((h, computations, store_hits))
    }

    /// Attempt to answer an estimation without exclusive access: from a persisted
    /// `H` entry, from an estimator that needs no summaries, or from a resident
    /// published engine state. Returns `None` when the request needs the write
    /// path (engine build). Runs under the caller's shared read lock.
    fn warm_estimate(
        &self,
        dataset: &Dataset,
        estimator: &dyn CompatibilityEstimator,
    ) -> Result<Option<EstimateOutcome>, String> {
        let name = estimator.name();
        let seed_fp = dataset.seeds.fingerprint();
        if let Some(store) = &self.store {
            if estimator.content_addressable() {
                match store.load(&EstimateKey(dataset.graph_fingerprint(), seed_fp, &name)) {
                    Ok(Some(h)) => {
                        self.h_store_hits.fetch_add(1, Ordering::Relaxed);
                        self.probe();
                        return Ok(Some(EstimateOutcome {
                            h,
                            estimator: name,
                            computations: 0,
                            store_hits: 0,
                            h_store_hits: 1,
                        }));
                    }
                    Ok(None) => {}
                    // A corrupt or foreign store entry is loud but non-fatal:
                    // re-estimate from the live state.
                    Err(e) => eprintln!("warning: {e}; re-estimating"),
                }
            }
        }
        match estimator.summary_requirements() {
            None => {
                self.probe();
                let (h, computations, store_hits) = self.estimate_with_ctx(dataset, estimator)?;
                Ok(Some(EstimateOutcome {
                    h,
                    estimator: name,
                    computations,
                    store_hits,
                    h_store_hits: 0,
                }))
            }
            Some(requirements) => {
                let slot = usize::from(requirements.non_backtracking);
                let warm = dataset.state_index(seed_fp).is_some_and(|index| {
                    let state = &dataset.states[index];
                    let ready = state.engines[slot]
                        .as_ref()
                        .is_some_and(|e| e.max_length() >= requirements.max_length);
                    if ready {
                        state.last_used.store(self.tick(), Ordering::Relaxed);
                    }
                    ready
                });
                if !warm {
                    return Ok(None);
                }
                self.probe();
                let (h, computations, store_hits) = self.estimate_with_ctx(dataset, estimator)?;
                Ok(Some(EstimateOutcome {
                    h,
                    estimator: name,
                    computations,
                    store_hits,
                    h_store_hits: 0,
                }))
            }
        }
    }

    /// Ensure an engine for the current seed set satisfies `requirements`,
    /// building (or rebuilding longer) via one full summarization when needed and
    /// publishing + persisting the fresh counts. Returns how many engines this
    /// call built. Requires the caller's exclusive write lock.
    fn ensure_engine(
        &self,
        dataset: &mut Dataset,
        requirements: &SummaryConfig,
    ) -> Result<usize, String> {
        let seed_fp = dataset.seeds.fingerprint();
        let slot = usize::from(requirements.non_backtracking);
        let index = match dataset.state_index(seed_fp) {
            Some(index) => index,
            None => {
                dataset.states.push(EngineState {
                    seed_fp,
                    engines: [None, None],
                    last_used: AtomicU64::new(self.tick()),
                    rebuild_rows: 0,
                });
                self.evict_excess(&mut *dataset, seed_fp);
                dataset.state_index(seed_fp).expect("just inserted")
            }
        };
        let satisfied = dataset.states[index].engines[slot]
            .as_ref()
            .is_some_and(|e| e.max_length() >= requirements.max_length);
        if satisfied {
            dataset.states[index]
                .last_used
                .store(self.tick(), Ordering::Relaxed);
            return Ok(0);
        }
        // Maintain at least the paper's ℓmax = 5 so later default requests reuse
        // the same engine instead of forcing a rebuild.
        let target = requirements.max_length.max(5);
        if let Some(old) = dataset.states[index].engines[slot].take() {
            self.retired_full_summarizations
                .fetch_add(old.stats().full_summarizations, Ordering::Relaxed);
        }
        let engine = DeltaSummary::new(
            Arc::clone(&dataset.graph),
            dataset.seeds.clone(),
            target,
            requirements.non_backtracking,
            self.threads,
        )
        .map_err(|e| e.to_string())?;
        engine.publish_to(&self.cache);
        if let Some(store) = &self.store {
            if let Err(e) = engine.persist_to(store) {
                eprintln!("warning: could not persist summary: {e}");
            }
        }
        // A from-scratch engine raises the state's rebuild cost by the rows one
        // full summarization touches, making it a last-resort eviction victim.
        dataset.states[index].rebuild_rows += engine.stats().full_rows_per_summarization;
        dataset.states[index].engines[slot] = Some(engine);
        dataset.states[index]
            .last_used
            .store(self.tick(), Ordering::Relaxed);
        self.note_persisted(dataset, seed_fp);
        Ok(1)
    }

    /// The write-path estimation: re-check the warm path (another writer may have
    /// built the engine while this request waited on the lock), then build what is
    /// missing, estimate, and persist the loaded seed set's `H` for future
    /// store-served requests.
    fn cold_estimate(
        &self,
        dataset: &mut Dataset,
        estimator: &dyn CompatibilityEstimator,
    ) -> Result<EstimateOutcome, String> {
        if let Some(outcome) = self.warm_estimate(dataset, estimator)? {
            return Ok(outcome);
        }
        let mut built = 0usize;
        if let Some(requirements) = estimator.summary_requirements() {
            built = self.ensure_engine(dataset, &requirements)?;
        }
        let (h, computations, store_hits) = self.estimate_with_ctx(dataset, estimator)?;
        let seed_fp = dataset.seeds.fingerprint();
        if seed_fp == dataset.initial_seed_fp && estimator.content_addressable() {
            if let Some(store) = &self.store {
                let name = estimator.name();
                let key = EstimateKey(dataset.graph_fingerprint(), seed_fp, &name);
                if let Err(e) = store.save(&key, &h) {
                    eprintln!("warning: could not persist the estimate: {e}");
                }
            }
        }
        Ok(EstimateOutcome {
            h,
            estimator: estimator.name(),
            computations: computations + built,
            store_hits,
            h_store_hits: 0,
        })
    }

    /// `estimate`: compatibility estimation on the named dataset's current seed
    /// set — warm requests run under the shared read lock.
    fn cmd_estimate(&self, request: &Json) -> Result<Json, String> {
        let name = dataset_name(request)?;
        let handle = self.dataset_handle(&name)?;
        let estimator = build_estimator(request, self.threads)?;
        let warm = {
            let dataset = self.dataset_read(&handle);
            self.warm_estimate(&dataset, estimator.as_ref())?
        };
        let outcome = match warm {
            Some(outcome) => outcome,
            None => {
                let mut dataset = self.dataset_write(&handle);
                self.cold_estimate(&mut dataset, estimator.as_ref())?
            }
        };
        self.record_estimate_metrics(&name, &outcome);
        Ok(Json::obj(vec![
            ("estimator", Json::str(outcome.estimator)),
            ("h", matrix_to_json(&outcome.h)),
            ("summary_computations", Json::num(outcome.computations)),
            ("store_hits", Json::num(outcome.store_hits)),
            ("optimize_store_hits", Json::num(outcome.h_store_hits)),
        ]))
    }

    /// `classify`: end-to-end estimation + propagation, optionally restricted to a
    /// node subset and optionally abstain-aware. The warm path holds one shared
    /// read lock across estimation *and* propagation, so no mutation can slip
    /// between the two stages.
    fn cmd_classify(&self, request: &Json) -> Result<Json, String> {
        let name = dataset_name(request)?;
        let handle = self.dataset_handle(&name)?;
        let propagator_name = request
            .get("propagator")
            .and_then(Json::as_str)
            .unwrap_or("linbp");
        let opts = PropagatorOptions {
            threads: Some(self.threads),
            ..PropagatorOptions::default()
        };
        let opts = PROPAGATORS.options(opts, |key| option_field(request, key))?;
        let propagator = PROPAGATORS.build(propagator_name, &opts)?;
        let estimator = if propagator.uses_compatibilities() {
            Some(build_estimator(request, self.threads)?)
        } else {
            None
        };
        let subset = parse_subset(request)?;
        let abstain = request
            .get("abstain")
            .and_then(Json::as_bool)
            .unwrap_or(false);

        {
            let dataset = self.dataset_read(&handle);
            let warm = match &estimator {
                Some(estimator) => self.warm_estimate(&dataset, estimator.as_ref())?,
                None => {
                    // Homophily propagators ignore H; a uniform matrix keeps the
                    // call shape and never needs the write path.
                    self.probe();
                    let k = dataset.classes;
                    Some(EstimateOutcome {
                        h: DenseMatrix::filled(k, k, 1.0 / k as f64),
                        estimator: "none".to_string(),
                        computations: 0,
                        store_hits: 0,
                        h_store_hits: 0,
                    })
                }
            };
            if let Some(outcome) = warm {
                self.record_estimate_metrics(&name, &outcome);
                return finish_classify(&dataset, outcome, propagator.as_ref(), &subset, abstain);
            }
        }
        let mut dataset = self.dataset_write(&handle);
        let outcome = self.cold_estimate(
            &mut dataset,
            estimator
                .as_ref()
                .expect("cold path implies estimator")
                .as_ref(),
        )?;
        self.record_estimate_metrics(&name, &outcome);
        finish_classify(&dataset, outcome, propagator.as_ref(), &subset, abstain)
    }

    /// `stats`: session-wide counters (monotone across requests, engines, and
    /// reloads) plus a per-dataset breakdown keyed by dataset name.
    fn cmd_stats(&self) -> Json {
        let handles: Vec<(String, Arc<RwLock<Dataset>>)> = self
            .map_read()
            .iter()
            .map(|(name, handle)| (name.clone(), Arc::clone(handle)))
            .collect();
        let mut live_full_summarizations = 0usize;
        let mut datasets = Vec::with_capacity(handles.len());
        for (name, handle) in handles {
            let dataset: RwLockReadGuard<'_, Dataset> = self.dataset_read(&handle);
            live_full_summarizations += dataset.full_summarizations();
            datasets.push((name, dataset_stats(&dataset)));
        }
        let total = self.cache.computations()
            + live_full_summarizations
            + self.retired_full_summarizations.load(Ordering::Relaxed);
        let commands = {
            let commands = self.commands.lock().expect("command stats poisoned");
            Json::Obj(
                commands
                    .iter()
                    .map(|(name, stat)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("count", Json::num(stat.count)),
                                ("errors", Json::num(stat.errors)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("requests", Json::num(self.requests.load(Ordering::Relaxed))),
            ("summary_computations", Json::num(total)),
            ("store_hits", Json::num(self.cache.store_hits())),
            (
                "optimize_store_hits",
                Json::num(self.h_store_hits.load(Ordering::Relaxed)),
            ),
            ("datasets", Json::Obj(datasets)),
            ("commands", commands),
        ])
    }
}

fn error_response(id: &Json, line_no: usize, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("id", id.clone()),
        ("line", Json::num(line_no)),
        ("error", Json::str(format!("line {line_no}: {message}"))),
    ])
}

/// The dataset a request addresses: its optional `dataset` field, defaulting to
/// [`DEFAULT_DATASET`].
fn dataset_name(request: &Json) -> Result<String, String> {
    match request.get("dataset") {
        None | Some(Json::Null) => Ok(DEFAULT_DATASET.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "field 'dataset' must be a string".to_string()),
    }
}

fn missing_dataset(name: &str) -> String {
    if name == DEFAULT_DATASET {
        "no dataset loaded: send a 'load' request first".to_string()
    } else {
        format!(
            "no dataset '{name}' loaded: send a 'load' request with \"dataset\":\"{name}\" first"
        )
    }
}

fn required_str(request: &Json, key: &str) -> Result<String, String> {
    request
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing required string field '{key}'"))
}

fn required_usize(request: &Json, key: &str) -> Result<usize, String> {
    request
        .get(key)
        .ok_or_else(|| format!("missing required field '{key}'"))?
        .as_usize()
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
}

/// A request field for one options key: checked against the key's kind and
/// handed over as text (a JSON number's `to_string` parses back to the same bits).
fn option_field<O>(request: &Json, key: &Key<O>) -> Result<Option<String>, String> {
    let name = key.name;
    match (key.kind, request.get(name)) {
        (_, None | Some(Json::Null)) => Ok(None),
        (Kind::Count { .. } | Kind::Number, Some(Json::Num(v))) => Ok(Some(v.to_string())),
        (Kind::Choice(_), Some(Json::Str(word))) => Ok(Some(word.clone())),
        (Kind::Flag, Some(Json::Bool(flag))) => Ok(Some(flag.to_string())),
        (Kind::Count { .. }, _) => Err(format!("field '{name}' must be a non-negative integer")),
        (Kind::Number, _) => Err(format!("field '{name}' must be a number")),
        (Kind::Choice(_), _) => Err(format!("field '{name}' must be a string")),
        (Kind::Flag, _) => Err(format!("field '{name}' must be a boolean")),
    }
}

/// Parse the `seed` request's three mutation arrays into one ordered batch
/// (adds, then removes, then relabels — within each array, request order).
fn parse_mutations(request: &Json) -> Result<Vec<SeedMutation>, String> {
    let mut mutations = Vec::new();
    let pairs = |key: &str| -> Result<Vec<(usize, usize)>, String> {
        match request.get(key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| format!("field '{key}' must be an array"))?;
                items
                    .iter()
                    .map(|item| {
                        let pair = item.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                            format!("field '{key}' must hold [node, label] pairs")
                        })?;
                        let node = pair[0]
                            .as_usize()
                            .ok_or_else(|| format!("'{key}' node ids must be integers"))?;
                        let label = pair[1]
                            .as_usize()
                            .ok_or_else(|| format!("'{key}' labels must be integers"))?;
                        Ok((node, label))
                    })
                    .collect()
            }
        }
    };
    for (node, label) in pairs("add")? {
        mutations.push(SeedMutation::Add { node, label });
    }
    match request.get("remove") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| "field 'remove' must be an array of node ids".to_string())?;
            for item in items {
                let node = item
                    .as_usize()
                    .ok_or_else(|| "'remove' node ids must be integers".to_string())?;
                mutations.push(SeedMutation::Remove { node });
            }
        }
    }
    for (node, label) in pairs("relabel")? {
        mutations.push(SeedMutation::Relabel { node, label });
    }
    if mutations.is_empty() {
        return Err("seed request carries no mutations (use add / remove / relabel)".into());
    }
    Ok(mutations)
}

/// Apply a validated mutation batch to a seed set in place (O(1) rolling
/// fingerprint update per mutation).
fn apply_to_seeds(seeds: &mut SeedLabels, mutations: &[SeedMutation]) {
    for m in mutations {
        let (node, label) = match *m {
            SeedMutation::Add { node, label } | SeedMutation::Relabel { node, label } => {
                (node, Some(label))
            }
            SeedMutation::Remove { node } => (node, None),
        };
        seeds.set_label(node, label).expect("validated by caller");
    }
}

/// Build the estimator described by a request through the fg-core registry: the
/// estimator table's fields are defaults that keys in the `method` spec override.
fn build_estimator(
    request: &Json,
    threads: Threads,
) -> Result<Box<dyn CompatibilityEstimator>, String> {
    let method = request
        .get("method")
        .and_then(Json::as_str)
        .unwrap_or("dcer");
    let defaults = EstimatorOptions {
        threads: Some(threads),
        ..EstimatorOptions::default()
    };
    let defaults = ESTIMATORS.options(defaults, |key| option_field(request, key))?;
    ESTIMATORS.by_spec(method, &defaults)
}

fn matrix_to_json(h: &DenseMatrix) -> Json {
    Json::Arr(
        (0..h.rows())
            .map(|i| Json::Arr(h.row(i).iter().map(|&v| Json::Num(v)).collect()))
            .collect(),
    )
}

/// Parse the optional `nodes` subset of a `classify` request.
fn parse_subset(request: &Json) -> Result<Option<Vec<usize>>, String> {
    match request.get("nodes") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => Ok(Some(
            v.as_array()
                .ok_or_else(|| "field 'nodes' must be an array of node ids".to_string())?
                .iter()
                .map(|item| {
                    item.as_usize()
                        .ok_or_else(|| "'nodes' ids must be integers".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
        )),
    }
}

/// The propagation half of `classify`: runs with whichever lock the caller holds.
fn finish_classify(
    dataset: &Dataset,
    estimate: EstimateOutcome,
    propagator: &dyn Propagator,
    subset: &Option<Vec<usize>>,
    abstain: bool,
) -> Result<Json, String> {
    if let Some(nodes) = subset {
        if let Some(&bad) = nodes.iter().find(|&&n| n >= dataset.graph.num_nodes()) {
            return Err(format!(
                "'nodes' id {bad} out of range (graph has {} nodes)",
                dataset.graph.num_nodes()
            ));
        }
    }
    let outcome = propagator
        .propagate(&dataset.graph, &dataset.seeds, &estimate.h)
        .map_err(|e| e.to_string())?;

    let abstaining = abstain.then(|| outcome.predictions_or_abstain());
    let label_json = |node: usize| -> Json {
        match &abstaining {
            Some(preds) => match preds[node] {
                Some(label) => Json::num(label),
                None => Json::Null,
            },
            None => Json::num(outcome.predictions[node]),
        }
    };
    let predictions = match subset {
        Some(nodes) => Json::Arr(
            nodes
                .iter()
                .map(|&n| Json::Arr(vec![Json::num(n), label_json(n)]))
                .collect(),
        ),
        None => Json::Arr((0..outcome.predictions.len()).map(label_json).collect()),
    };
    let mut fields = vec![
        ("estimator", Json::str(estimate.estimator)),
        ("propagator", Json::str(propagator.name())),
        ("iterations", Json::num(outcome.iterations)),
        ("converged", Json::Bool(outcome.converged)),
        ("predictions", predictions),
        ("summary_computations", Json::num(estimate.computations)),
        ("store_hits", Json::num(estimate.store_hits)),
        ("optimize_store_hits", Json::num(estimate.h_store_hits)),
    ];
    if let Some(abstaining) = &abstaining {
        let rate = fg_propagation::abstention_rate(abstaining, &dataset.seeds.unlabeled_nodes());
        fields.push(("abstention_rate", Json::Num(rate)));
    }
    Ok(Json::obj(fields))
}

/// The per-dataset block of a `stats` response.
fn dataset_stats(dataset: &Dataset) -> Json {
    let engines = Json::Arr(
        dataset
            .states
            .iter()
            .flat_map(|state| {
                state
                    .engines
                    .iter()
                    .enumerate()
                    .filter_map(move |(mode, engine)| engine.as_ref().map(|e| (state, mode, e)))
            })
            .map(|(state, mode, engine)| {
                let stats = engine.stats();
                Json::obj(vec![
                    ("seed_fingerprint", Json::str(state.seed_fp.to_hex())),
                    ("rebuild_rows", Json::num(state.rebuild_rows)),
                    ("mode", Json::str(if mode == 1 { "nb" } else { "all" })),
                    ("lmax", Json::num(engine.max_length())),
                    ("full_summarizations", Json::num(stats.full_summarizations)),
                    ("delta_mutations", Json::num(stats.delta_mutations)),
                    ("delta_rows_touched", Json::num(stats.delta_rows_touched)),
                    (
                        "full_rows_per_summarization",
                        Json::num(stats.full_rows_per_summarization),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("label", Json::str(dataset.label.clone())),
        ("nodes", Json::num(dataset.graph.num_nodes())),
        ("edges", Json::num(dataset.graph.num_edges())),
        ("classes", Json::num(dataset.classes)),
        ("labeled", Json::num(dataset.seeds.num_labeled())),
        (
            "seed_fingerprint",
            Json::str(dataset.seeds.fingerprint().to_hex()),
        ),
        (
            "seed_scratch_derivations",
            Json::num(dataset.seeds.scratch_derivations()),
        ),
        ("engine_states", Json::num(dataset.states.len())),
        ("engine_evictions", Json::num(dataset.engine_evictions)),
        (
            "engine_rebuild_rows",
            Json::num(dataset.states.iter().map(|s| s.rebuild_rows).sum::<usize>()),
        ),
        ("engines", engines),
    ])
}

/// Convenience for tests and the CLI client: extract a full-graph prediction vector
/// from a `classify` response line, rendered in the same `node<TAB>class` format the
/// batch CLI writes (abstentions render as `abstain`).
pub fn predictions_to_file_format(response: &str) -> Option<String> {
    let parsed = Json::parse(response).ok()?;
    let predictions = parsed.get("result")?.get("predictions")?.as_array()?;
    let mut out = String::from("# node\tpredicted_class\n");
    for (node, item) in predictions.iter().enumerate() {
        match item {
            Json::Arr(pair) if pair.len() == 2 => {
                let id = pair[0].as_usize()?;
                match &pair[1] {
                    Json::Null => out.push_str(&format!("{id}\tabstain\n")),
                    v => out.push_str(&format!("{id}\t{}\n", v.as_usize()?)),
                }
            }
            Json::Null => out.push_str(&format!("{node}\tabstain\n")),
            v => out.push_str(&format!("{node}\t{}\n", v.as_usize()?)),
        }
    }
    Some(out)
}
