//! Shared estimation state: the [`EstimationContext`] and its [`SummaryCache`].
//!
//! The paper's efficiency argument (Propositions 4.3–4.5) is that *every* estimator
//! consumes the same factorized length-ℓ path statistics `P̂(ℓ)`, so compatibility
//! estimation is a cheap preprocessing step on top of one `O(m·k·ℓmax)` graph
//! summarization. This module makes that sharing explicit — and **content-addressed**:
//! cache entries are keyed by the [`Fingerprint`]s of the graph and seed set (plus the
//! counting mode), never by pointer identity, so two independently loaded copies of
//! the same dataset share one cached summary. An [`EstimationContext`] bundles a
//! `(graph, seeds)` pair and a (possibly shared) [`SummaryCache`] that computes the
//! raw path counts **once** per `(graph_fp, seed_fp, mode)` key and answers every
//! subsequent request from the cached prefix:
//!
//! * counts are normalization-independent, so a cached summary serves *any*
//!   [`NormalizationVariant`](crate::normalization::NormalizationVariant);
//! * the recurrence of Algorithm 4.4 is prefix-stable, so a cached `ℓmax = 5` summary
//!   answers any request with `max_length ≤ 5` bit-identically to a fresh
//!   [`summarize`](crate::paths::summarize) call;
//! * the `W·N(ℓ-1)` products run under the context's [`Threads`] policy through the
//!   bit-identical parallel kernels of `fg_sparse`.
//!
//! Below the in-memory cache sits an optional persistent tier: attach a
//! [`SummaryStore`] with [`EstimationContext::store`] and cache misses first try the
//! store (read-through), and freshly computed counts are written back so the *next
//! process* on the same dataset skips summarization entirely. Estimated `H` matrices
//! persist there too: [`stored_estimate`](EstimationContext::stored_estimate) probes
//! for one and [`estimate`](EstimationContext::estimate) can write one back. Corrupt
//! or mismatched store files are rejected with a warning on stderr and recomputed —
//! they can cost time, never correctness.
//!
//! The cache keeps no counters: every context tallies its own [`Work`], and
//! [`estimate`](EstimationContext::estimate) also returns the work of the one call —
//! what the pipeline reports per run and the serving session per request.
//!
//! Keys cost an `O(n + m)` hash of the graph, so a context pays for them only when
//! something reads one: a shared cache, an attached store, the low-rank factor
//! tier, or a caller of [`graph_fingerprint`](EstimationContext::graph_fingerprint).
//! A context built by [`EstimationContext::new`] owns its cache outright and files
//! its one pair under a private key instead — the single-run path (`Pipeline::run`
//! without a store) never hashes the graph.
//!
//! Sweeps that evaluate several estimators (MCE, DCE, DCEr, …) on one seeded graph
//! build a single context, optionally [`warm`](EstimationContext::warm) it to the
//! largest required length, and hand it to every
//! [`estimate_with_context`](crate::estimators::CompatibilityEstimator::estimate_with_context)
//! call — the graph is then summarized exactly once, which
//! [`summary_computations`](EstimationContext::summary_computations) lets tests
//! assert.

use crate::error::Result;
use crate::estimators::CompatibilityEstimator;
use crate::lowrank_counts::lowrank_path_counts;
use crate::paths::{
    compute_path_counts, summary_from_counts, validate_summary_inputs, CountingBackend,
    GraphSummary, SummaryConfig,
};
use crate::store::{EstimateKey, FactorKey, SummaryKey, SummaryStore};
use fg_graph::{factor_fingerprint, FactorConfig, Fingerprint, Graph, LowRankFactor, SeedLabels};
use fg_obs::Span;
use fg_sparse::{DenseMatrix, Threads};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The key of one `(graph, seeds)` entry of a [`SummaryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PairKey {
    /// Content-addressed by the graph and seed fingerprints.
    Content(Fingerprint, Fingerprint),
    /// The one pair of a private context's own cache. No public call can name
    /// it, so the entry never answers for another pair, even after
    /// [`EstimationContext::cache`] hands the cache out.
    Private,
}

/// The cache's key map: per-key state behind per-key locks.
type PairMap = HashMap<PairKey, Arc<Mutex<PairState>>>;

/// The factor map: one slot per factor fingerprint (which already folds in the
/// graph fingerprint, rank, and solver parameters), behind per-slot locks so an
/// eigensolve on one graph never blocks a different graph's.
type FactorMap = HashMap<Fingerprint, Arc<Mutex<Option<Arc<LowRankFactor>>>>>;

/// Cached artifacts for one `(graph_fp, seed_fp)` pair.
#[derive(Debug, Default)]
struct PairState {
    /// Cached raw count matrices per counting mode, index 0 = plain paths,
    /// index 1 = non-backtracking. Entry `i` of a vector holds `M(i+1)`.
    counts: [Option<Vec<DenseMatrix>>; 2],
    /// Cached low-rank count matrices, keyed by `(factor fingerprint, NB mode)` —
    /// each factor configuration yields different (approximate) counts, so they
    /// never share an entry with the exact backend or with other ranks.
    lowrank_counts: HashMap<(Fingerprint, bool), Vec<DenseMatrix>>,
    /// Cached `W · X` product (`n x k`), shared by both counting modes. Behind an
    /// `Arc` so callers copy it *outside* the cache mutex — the `n x k` copy must not
    /// serialize parallel sweep workers.
    wx: Option<Arc<DenseMatrix>>,
}

/// Memoized factorized path statistics, keyed by content: one entry per
/// `(graph fingerprint, seed fingerprint)` pair, with the raw counts per counting
/// mode inside.
///
/// Thread-safe, and designed to be shared behind an [`Arc`] across any number of
/// [`EstimationContext`]s — including contexts built on *different allocations* of
/// the same data: because the key is the content fingerprint, separately loaded
/// copies of one dataset hit the same entry. The cache stores only the
/// variant-independent raw counts (`k x k` matrices, one per length) — normalization
/// is applied per request, which is `O(k²·ℓmax)` and negligible.
///
/// Locking granularity: a short-lived outer mutex guards the key map, and each key
/// owns its own mutex that **is** held across a miss's `O(m·k·ℓmax)` computation (and
/// store I/O). That per-key lock is what guarantees a key is computed **exactly
/// once** no matter how many threads race on it — which the contexts' work counters
/// (and the paper's "summarize once" claim) rely on — while misses on *different*
/// keys proceed concurrently, so one shared cache serves both deduplication and
/// overlap (the parallel manifest runner and `fg serve` sessions lean on this).
#[derive(Debug, Default)]
pub struct SummaryCache {
    state: Mutex<PairMap>,
    factors: Mutex<FactorMap>,
}

impl SummaryCache {
    /// Create an empty cache behind an [`Arc`], ready to share across contexts.
    pub fn shared() -> Arc<SummaryCache> {
        Arc::new(SummaryCache::default())
    }

    /// Number of distinct `(graph, seeds)` pairs currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("summary cache poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get-or-insert the per-key state behind its own lock. The outer map lock is
    /// released before the caller locks the pair, so work on distinct keys overlaps.
    fn pair(&self, key: PairKey) -> Arc<Mutex<PairState>> {
        let mut state = self.state.lock().expect("summary cache poisoned");
        Arc::clone(state.entry(key).or_default())
    }

    /// Get-or-insert the per-factor slot behind its own lock (same granularity
    /// scheme as [`pair`](Self::pair): the outer map lock is released before the
    /// caller locks the slot, so concurrent eigensolves on distinct factors
    /// overlap while racing requests for one factor compute it exactly once).
    fn factor_slot(&self, factor_fp: Fingerprint) -> Arc<Mutex<Option<Arc<LowRankFactor>>>> {
        let mut factors = self.factors.lock().expect("factor cache poisoned");
        Arc::clone(factors.entry(factor_fp).or_default())
    }

    /// Insert externally maintained raw counts for a key **without** counting a
    /// computation — the write-back path of the incremental
    /// [`DeltaSummary`](crate::incremental::DeltaSummary) engine, whose delta-updated
    /// counts are bit-identical to a fresh summarization of the same seed set. An
    /// existing entry is kept when it already holds an equal-or-longer prefix
    /// (counts are prefix-stable, so the longer vector answers strictly more
    /// requests).
    pub fn publish(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        non_backtracking: bool,
        counts: Vec<DenseMatrix>,
    ) {
        if counts.is_empty() {
            return;
        }
        let pair = self.pair(PairKey::Content(graph_fp, seed_fp));
        let mut state = pair.lock().expect("summary pair poisoned");
        let mode = usize::from(non_backtracking);
        let cached_len = state.counts[mode].as_ref().map_or(0, |c| c.len());
        if cached_len < counts.len() {
            state.counts[mode] = Some(counts);
        }
    }

    /// Insert an externally maintained `W · X` product for a key **without**
    /// counting a computation — the companion of [`publish`](Self::publish) for the
    /// `n x k` statistic LCE's energy consumes, fed by the incremental
    /// [`DeltaSummary`](crate::incremental::DeltaSummary) engine whose maintained
    /// `N(1)` is bit-identical to a cold product. An existing entry is kept: the key
    /// is content-addressed, so any correctly published value holds the same bits.
    pub fn publish_wx(&self, graph_fp: Fingerprint, seed_fp: Fingerprint, wx: Arc<DenseMatrix>) {
        let pair = self.pair(PairKey::Content(graph_fp, seed_fp));
        let mut state = pair.lock().expect("summary pair poisoned");
        if state.wx.is_none() {
            state.wx = Some(wx);
        }
    }

    /// Drop one key's cached artifacts (counts for both modes and `W · X`). Used by
    /// long-lived sessions to evict summaries of superseded seed sets so the cache
    /// does not grow with every mutation; the next request on the key recomputes.
    pub fn remove(&self, graph_fp: Fingerprint, seed_fp: Fingerprint) {
        let mut state = self.state.lock().expect("summary cache poisoned");
        state.remove(&PairKey::Content(graph_fp, seed_fp));
    }
}

/// The work estimation requests did through an [`EstimationContext`]: what
/// [`EstimationContext::work`] reports for the context as a whole and
/// [`Estimate::work`] for one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Path-count summaries actually computed (cache and store misses).
    pub summary_computations: usize,
    /// Summary requests answered from the persistent store.
    pub store_hits: usize,
    /// Low-rank factors actually computed (eigensolves run).
    pub factor_computations: usize,
    /// Factor requests answered from the persistent store (`.fgv` entries).
    pub factor_store_hits: usize,
    /// Estimates answered whole from a persisted `H` (`.fgh` entries), skipping
    /// both summarization and optimization.
    pub estimate_store_hits: usize,
}

impl Work {
    /// Every counter, in field order.
    fn fields(&mut self) -> [&mut usize; 5] {
        [
            &mut self.summary_computations,
            &mut self.store_hits,
            &mut self.factor_computations,
            &mut self.factor_store_hits,
            &mut self.estimate_store_hits,
        ]
    }
}

/// A context's running [`Work`] total, in atomics because sweep threads share one
/// context.
#[derive(Debug, Default)]
struct Tally([AtomicUsize; 5]);

impl Tally {
    fn add(&self, mut work: Work) {
        for (total, n) in self.0.iter().zip(work.fields()) {
            total.fetch_add(*n, Ordering::Relaxed);
        }
    }

    fn get(&self) -> Work {
        let mut work = Work::default();
        for (total, n) in self.0.iter().zip(work.fields()) {
            *n = total.load(Ordering::Relaxed);
        }
        work
    }
}

/// One estimate served by an [`EstimationContext`]: `H`, the work the call did,
/// and how long its summarize and optimize halves took (both zero for an estimate
/// read from the store).
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The estimated compatibility matrix.
    pub h: DenseMatrix,
    /// The work this one call did.
    pub work: Work,
    /// Wall-clock time spent warming the summary the estimator reads.
    pub summarize_time: Duration,
    /// Wall-clock time of the graph-size-independent optimization.
    pub optimize_time: Duration,
}

impl Estimate {
    /// An estimate that cost no measured work: a supplied or placeholder `H`.
    pub(crate) fn unmeasured(h: DenseMatrix) -> Estimate {
        Estimate {
            h,
            work: Work::default(),
            summarize_time: Duration::ZERO,
            optimize_time: Duration::ZERO,
        }
    }
}

/// A `(graph, seeds)` pair bundled with a (possibly shared) [`SummaryCache`], an
/// optional persistent [`SummaryStore`] tier, and a [`Threads`] policy — the single
/// source of path statistics for every estimator in a comparison run.
///
/// See the [module docs](self) for the caching contract. All cached, shared, and
/// persisted artifacts are bit-identical to their uncached serial counterparts
/// regardless of the thread policy or which process computed them.
#[derive(Debug)]
pub struct EstimationContext<'a> {
    graph: &'a Graph,
    seeds: &'a SeedLabels,
    /// Whether `cache` was built by [`new`](Self::new) for this pair alone: its
    /// entry then sits under [`PairKey::Private`] and finding it hashes nothing.
    private: bool,
    threads: Threads,
    cache: Arc<SummaryCache>,
    store: Option<Arc<SummaryStore>>,
    tally: Tally,
}

impl<'a> EstimationContext<'a> {
    /// Create a context over the given graph and seed labels with a private cache
    /// (serial summarization). The cache holds this one pair under a key of its
    /// own, so the context fingerprints nothing unless a store, a low-rank factor
    /// or a caller of [`graph_fingerprint`](Self::graph_fingerprint) asks for a
    /// content key.
    pub fn new(graph: &'a Graph, seeds: &'a SeedLabels) -> Self {
        EstimationContext {
            private: true,
            ..Self::with_cache(graph, seeds, SummaryCache::shared())
        }
    }

    /// Create a context that answers requests from (and contributes to) a shared
    /// [`SummaryCache`]. Because entries are keyed by fingerprint, contexts built on
    /// independently loaded copies of the same dataset share one summary. The
    /// fingerprints are computed on the first cache access, not here.
    pub fn with_cache(graph: &'a Graph, seeds: &'a SeedLabels, cache: Arc<SummaryCache>) -> Self {
        EstimationContext {
            graph,
            seeds,
            private: false,
            threads: Threads::Serial,
            cache,
            store: None,
            tally: Tally::default(),
        }
    }

    /// Set the [`Threads`] policy used for the summarization kernels. The parallel
    /// kernels are bit-identical to the serial ones, so this only changes wall-clock
    /// time, never a cached value.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a persistent [`SummaryStore`] as a read-through / write-back tier below
    /// the in-memory cache: misses first try the store, and freshly computed counts
    /// are persisted for future processes. Stored counts are bit-identical to fresh
    /// computation; corrupt or mismatched files are rejected with a warning on stderr
    /// and recomputed (then overwritten).
    pub fn store(mut self, store: Arc<SummaryStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The graph this context summarizes.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The observed seed labels.
    pub fn seeds(&self) -> &'a SeedLabels {
        self.seeds
    }

    /// The content fingerprint of the graph (the first half of a content key),
    /// hashed on the graph's first call and memoized on it.
    pub fn graph_fingerprint(&self) -> Fingerprint {
        self.graph.fingerprint()
    }

    /// The content fingerprint of the seed set (the second half of a content key).
    pub fn seed_fingerprint(&self) -> Fingerprint {
        self.seeds.fingerprint()
    }

    /// This pair's entry in the cache.
    fn key(&self) -> PairKey {
        if self.private {
            PairKey::Private
        } else {
            PairKey::Content(self.graph_fingerprint(), self.seed_fingerprint())
        }
    }

    /// The thread policy used for summarization kernels.
    pub fn thread_policy(&self) -> Threads {
        self.threads
    }

    /// The cache this context reads from and writes to (shareable across contexts).
    pub fn cache(&self) -> &Arc<SummaryCache> {
        &self.cache
    }

    /// The attached persistent store, if any.
    pub fn summary_store(&self) -> Option<&Arc<SummaryStore>> {
        self.store.as_ref()
    }

    /// Everything this context has done so far (see [`Work`]). Only this
    /// context's own requests count: work that other contexts sharing the cache
    /// did, on this key or any other, never shows here.
    pub fn work(&self) -> Work {
        self.tally.get()
    }

    /// How many times path counts were actually computed through this context
    /// (cache *and* store misses, both counting modes together). A comparison run
    /// that shares one context across MCE + DCE + DCEr sees exactly one computation
    /// per counting mode, and a warm persistent store drives this to **zero** —
    /// tests and the CI warm-path job assert both.
    pub fn summary_computations(&self) -> usize {
        self.work().summary_computations
    }

    /// How many of this context's summary requests were served from the
    /// persistent store instead of being recomputed.
    pub fn store_hits(&self) -> usize {
        self.work().store_hits
    }

    /// Run `f` with a fresh [`Work`] record, then add what it recorded to the
    /// context's tally (on errors too: work done before a failure still happened).
    fn tallied<T>(&self, f: impl FnOnce(&mut Work) -> Result<T>) -> (Result<T>, Work) {
        let mut work = Work::default();
        let result = f(&mut work);
        self.tally.add(work);
        (result, work)
    }

    /// The graph summary for `config`, served from the in-memory cache when a
    /// long-enough prefix for the counting mode is already stored, then from the
    /// persistent store (if attached), and computed — and cached / persisted —
    /// otherwise.
    ///
    /// Bit-identical to a fresh [`summarize`](crate::paths::summarize) call with the
    /// same configuration: counts are prefix-stable in `max_length`, independent of
    /// the normalization variant, and round-trip the store exactly.
    ///
    /// With [`CountingBackend::LowRank`] the spectral factor is resolved through
    /// its own cache/store tier (see [`factor`](Self::factor)) and the counts come
    /// from the `O(r²·k)`-per-length factor-space recurrence, cached per
    /// `(factor, mode)` with the same prefix-stability.
    pub fn summary(&self, config: &SummaryConfig) -> Result<GraphSummary> {
        self.tallied(|work| self.summary_into(config, work)).0
    }

    /// [`summary`](Self::summary), recording its work in `work`.
    fn summary_into(&self, config: &SummaryConfig, work: &mut Work) -> Result<GraphSummary> {
        validate_summary_inputs(self.graph, self.seeds, config.max_length)?;
        let counts = match config.backend {
            CountingBackend::Exact => self.exact_counts(config, work)?,
            CountingBackend::LowRank(factor_config) => {
                self.lowrank_counts_for(config, &factor_config, work)?
            }
        };
        Ok(summary_from_counts(
            counts,
            self.seeds.k(),
            config.non_backtracking,
            config.variant,
        ))
    }

    /// The exact-backend count prefix for `config`: in-memory cache, then store,
    /// then compute-and-persist.
    fn exact_counts(&self, config: &SummaryConfig, work: &mut Work) -> Result<Vec<DenseMatrix>> {
        let mode = usize::from(config.non_backtracking);
        let pair = self.cache.pair(self.key());
        let mut entry = pair.lock().expect("summary pair poisoned");
        let cached_len = entry.counts[mode].as_ref().map_or(0, |c| c.len());
        if cached_len < config.max_length {
            let counts = match self.load_from_store(config) {
                Some(stored) => {
                    work.store_hits += 1;
                    stored
                }
                None => {
                    let counts = compute_path_counts(
                        self.graph,
                        self.seeds,
                        config.max_length,
                        config.non_backtracking,
                        self.threads,
                    )?;
                    work.summary_computations += 1;
                    self.write_back(config, &counts);
                    counts
                }
            };
            entry.counts[mode] = Some(counts);
        }
        Ok(entry.counts[mode]
            .as_ref()
            .expect("counts cached above")
            .iter()
            .take(config.max_length)
            .cloned()
            .collect())
    }

    /// The low-rank-backend count prefix for `config`: the factor comes from its
    /// cache/store tier, the recurrence result is cached per
    /// `(factor fingerprint, mode)` under this context's pair key. Recomputing a
    /// longer prefix reruns only the `O(r²·k·ℓmax)` recurrence — never the
    /// eigensolve.
    fn lowrank_counts_for(
        &self,
        config: &SummaryConfig,
        factor_config: &FactorConfig,
        work: &mut Work,
    ) -> Result<Vec<DenseMatrix>> {
        let factor_fp = factor_fingerprint(self.graph_fingerprint(), factor_config);
        let key = (factor_fp, config.non_backtracking);
        let pair = self.cache.pair(self.key());
        let mut entry = pair.lock().expect("summary pair poisoned");
        let cached_len = entry.lowrank_counts.get(&key).map_or(0, |c| c.len());
        if cached_len < config.max_length {
            // Lock order is always pair → factor slot (nothing locks a pair while
            // holding a slot), so resolving the factor here cannot deadlock.
            let factor = self.factor_into(factor_config, work)?;
            let counts = lowrank_path_counts(
                &factor,
                self.seeds,
                config.max_length,
                config.non_backtracking,
            )?;
            work.summary_computations += 1;
            entry.lowrank_counts.insert(key, counts);
        }
        Ok(entry
            .lowrank_counts
            .get(&key)
            .expect("counts cached above")
            .iter()
            .take(config.max_length)
            .cloned()
            .collect())
    }

    /// The low-rank factor of this context's graph under `factor_config`, served
    /// from the in-memory factor cache, then the persistent `.fgv` store tier
    /// (if attached), and computed — cached and persisted — otherwise. The
    /// expensive eigensolve therefore runs **once** per
    /// `(graph, rank, solver params)` across every context sharing the cache,
    /// and not at all when a prior process left a `.fgv` entry behind. Factors are
    /// always keyed by content: a factor records its graph's fingerprint.
    pub fn factor(&self, factor_config: &FactorConfig) -> Result<Arc<LowRankFactor>> {
        self.tallied(|work| self.factor_into(factor_config, work)).0
    }

    /// [`factor`](Self::factor), recording its work in `work`.
    fn factor_into(
        &self,
        factor_config: &FactorConfig,
        work: &mut Work,
    ) -> Result<Arc<LowRankFactor>> {
        let factor_fp = factor_fingerprint(self.graph_fingerprint(), factor_config);
        let slot = self.cache.factor_slot(factor_fp);
        let mut guard = slot.lock().expect("factor slot poisoned");
        if let Some(factor) = guard.as_ref() {
            return Ok(Arc::clone(factor));
        }
        if let Some(store) = &self.store {
            match store.load(&FactorKey(self.graph_fingerprint(), *factor_config)) {
                Ok(Some(factor)) => {
                    work.factor_store_hits += 1;
                    let factor = Arc::new(factor);
                    *guard = Some(Arc::clone(&factor));
                    return Ok(factor);
                }
                Ok(None) => {}
                Err(e) => eprintln!("warning: {e}; recomputing factor"),
            }
        }
        let factor = Arc::new(LowRankFactor::compute(
            self.graph,
            factor_config,
            self.threads,
        )?);
        work.factor_computations += 1;
        if let Some(store) = &self.store {
            if let Err(e) = store.save(&FactorKey::of(&factor), &factor) {
                eprintln!("warning: could not persist factor: {e}");
            }
        }
        *guard = Some(Arc::clone(&factor));
        Ok(factor)
    }

    /// The store key of this pair's counts in `config`'s counting mode.
    fn summary_key(&self, config: &SummaryConfig) -> SummaryKey {
        let (graph_fp, seed_fp) = (self.graph_fingerprint(), self.seed_fingerprint());
        SummaryKey(graph_fp, seed_fp, config.non_backtracking)
    }

    /// Try the persistent tier for a long-enough stored prefix. Returns `None` on a
    /// miss; corrupt / mismatched files warn on stderr and count as misses.
    fn load_from_store(&self, config: &SummaryConfig) -> Option<Vec<DenseMatrix>> {
        let store = self.store.as_ref()?;
        match store.load(&self.summary_key(config)) {
            Ok(Some(counts))
                if counts[0].rows() == self.seeds.k() && counts.len() >= config.max_length =>
            {
                Some(counts)
            }
            // Present but too short (or absent): recompute; a k mismatch with equal
            // fingerprints cannot happen for intact files, so it falls out as corrupt
            // via the checksum long before this point.
            Ok(_) => None,
            Err(e) => {
                eprintln!("warning: {e}; recomputing summary");
                None
            }
        }
    }

    /// Persist freshly computed counts (best-effort: persistence failures warn and
    /// are otherwise ignored — the result is already in memory).
    fn write_back(&self, config: &SummaryConfig, counts: &[DenseMatrix]) {
        if let Some(store) = &self.store {
            if let Err(e) = store.save(&self.summary_key(config), counts) {
                eprintln!("warning: could not persist summary: {e}");
            }
        }
    }

    /// Precompute (and cache) the counts for `config` without building a summary.
    /// Useful to front-load the expensive summarization before a timed or shared
    /// section; subsequent [`summary`](Self::summary) calls with `max_length` up to
    /// `config.max_length` are then cache hits.
    pub fn warm(&self, config: &SummaryConfig) -> Result<()> {
        self.summary(config).map(|_| ())
    }

    /// The store a persisted `H` of `estimator` lives in: present only with an
    /// attached store and a content-addressable estimator (see
    /// [`CompatibilityEstimator::content_addressable`]), so without a store nothing
    /// hashes.
    fn estimate_slot(&self, estimator: &dyn CompatibilityEstimator) -> Option<&SummaryStore> {
        self.store
            .as_deref()
            .filter(|_| estimator.content_addressable())
    }

    /// The persisted `H` of `estimator` on this pair, if the attached store holds
    /// one: the warm path that skips *both* halves of estimation. A hit counts one
    /// [`estimate_store_hits`](Work::estimate_store_hits); a corrupt entry warns on
    /// stderr and reads as a miss. Entries are keyed by the estimator's canonical
    /// parameterized [`name`](CompatibilityEstimator::name).
    pub fn stored_estimate(&self, estimator: &dyn CompatibilityEstimator) -> Option<Estimate> {
        let store = self.estimate_slot(estimator)?;
        let name = estimator.name();
        let key = EstimateKey(self.graph_fingerprint(), self.seed_fingerprint(), &name);
        match store.load(&key) {
            Ok(found) => found.map(|h| {
                let mut estimate = Estimate::unmeasured(h);
                estimate.work.estimate_store_hits = 1;
                self.tally.add(estimate.work);
                estimate
            }),
            Err(e) => {
                eprintln!("warning: {e}; re-estimating");
                None
            }
        }
    }

    /// Estimate `H` with `estimator` on this pair: warm the summary it reads
    /// ([`summary_requirements`](CompatibilityEstimator::summary_requirements)),
    /// then optimize, timing the halves under the `estimate` and `optimize` spans.
    /// With `persist` and an attached store, a content-addressable estimator's `H`
    /// is written back for [`stored_estimate`](Self::stored_estimate) to find
    /// (best effort: a full disk warns and never costs correctness).
    ///
    /// The returned [`Estimate::work`] is what warming cost; the estimator's own
    /// summary reads are then cache hits. This call never reads a persisted `H` —
    /// probe with [`stored_estimate`](Self::stored_estimate) first for that.
    pub fn estimate(
        &self,
        estimator: &dyn CompatibilityEstimator,
        persist: bool,
    ) -> Result<Estimate> {
        let estimate_span = Span::enter("estimate");
        let summarize_start = Instant::now();
        let (warmed, work) = self.tallied(|work| match estimator.summary_requirements() {
            Some(config) => self.summary_into(&config, work).map(|_| ()),
            None => Ok(()),
        });
        warmed?;
        let summarize_time = summarize_start.elapsed();
        let optimize_span = Span::enter("optimize");
        let optimize_start = Instant::now();
        let h = estimator.estimate_with_context(self)?;
        let optimize_time = optimize_start.elapsed();
        drop(optimize_span);
        drop(estimate_span);
        if let Some(store) = self.estimate_slot(estimator).filter(|_| persist) {
            let name = estimator.name();
            let key = EstimateKey(self.graph_fingerprint(), self.seed_fingerprint(), &name);
            if let Err(e) = store.save(&key, &h) {
                eprintln!("warning: cannot persist the estimate: {e}");
            }
        }
        Ok(Estimate {
            h,
            work,
            summarize_time,
            optimize_time,
        })
    }

    /// The cached `W · X` product (`n x k`, `X` the one-hot seed matrix) — the
    /// statistic LCE's energy is built from. Computed once under the context's thread
    /// policy (bit-identical to the serial product) and shared by fingerprint like the
    /// path counts; not persisted to the store (it is `n x k`, not `k x k`). Returned
    /// behind an `Arc` so cache hits share the stored matrix instead of copying it;
    /// callers that need ownership clone the matrix outside the cache lock.
    pub fn wx(&self) -> Result<Arc<DenseMatrix>> {
        let pair = self.cache.pair(self.key());
        let mut entry = pair.lock().expect("summary pair poisoned");
        if entry.wx.is_none() {
            let x = self.seeds.to_matrix();
            entry.wx = Some(Arc::new(
                self.graph.adjacency().spmm_dense_with(&x, self.threads)?,
            ));
        }
        Ok(Arc::clone(entry.wx.as_ref().expect("wx cached above")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalization::NormalizationVariant;
    use crate::paths::summarize;
    use fg_graph::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seeded_graph() -> (Graph, SeedLabels) {
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        (syn.graph, seeds)
    }

    #[test]
    fn cache_hits_share_one_computation() {
        let (graph, seeds) = seeded_graph();
        let ctx = EstimationContext::new(&graph, &seeds);
        assert_eq!(ctx.summary_computations(), 0);
        let five = ctx.summary(&SummaryConfig::with_max_length(5)).unwrap();
        assert_eq!(ctx.summary_computations(), 1);
        // Shorter prefixes and other variants are cache hits.
        let three = ctx.summary(&SummaryConfig::with_max_length(3)).unwrap();
        let mean_scaled = ctx
            .summary(&SummaryConfig {
                max_length: 5,
                non_backtracking: true,
                variant: NormalizationVariant::MeanScaled,
                ..SummaryConfig::default()
            })
            .unwrap();
        assert_eq!(ctx.summary_computations(), 1);
        assert_eq!(three.max_length(), 3);
        assert_eq!(five.max_length(), 5);
        assert_eq!(mean_scaled.max_length(), 5);
        // The other counting mode is a separate computation.
        ctx.warm(&SummaryConfig {
            max_length: 5,
            non_backtracking: false,
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        })
        .unwrap();
        assert_eq!(ctx.summary_computations(), 2);
    }

    #[test]
    fn cached_prefix_is_bit_identical_to_fresh_summarize() {
        let (graph, seeds) = seeded_graph();
        let ctx = EstimationContext::new(&graph, &seeds);
        ctx.warm(&SummaryConfig::with_max_length(5)).unwrap();
        for len in 1..=5 {
            let config = SummaryConfig::with_max_length(len);
            let cached = ctx.summary(&config).unwrap();
            let fresh = summarize(&graph, &seeds, &config).unwrap();
            for l in 1..=len {
                assert_eq!(
                    cached.count(l).unwrap().data(),
                    fresh.count(l).unwrap().data(),
                    "counts diverge at length {l} (request {len})"
                );
                assert_eq!(
                    cached.statistic(l).unwrap().data(),
                    fresh.statistic(l).unwrap().data(),
                    "statistics diverge at length {l} (request {len})"
                );
            }
        }
        assert_eq!(ctx.summary_computations(), 1);
    }

    #[test]
    fn published_counts_are_served_without_computation_and_removable() {
        let (graph, seeds) = seeded_graph();
        let cache = SummaryCache::shared();
        let config = SummaryConfig::with_max_length(3);
        let fresh = crate::paths::summarize(&graph, &seeds, &config).unwrap();
        cache.publish(
            graph.fingerprint(),
            seeds.fingerprint(),
            true,
            fresh.counts.clone(),
        );
        // Served entirely from the published entry: zero computations anywhere.
        let ctx = EstimationContext::with_cache(&graph, &seeds, Arc::clone(&cache));
        let served = ctx.summary(&config).unwrap();
        assert_eq!(ctx.summary_computations(), 0);
        for l in 1..=3 {
            assert_eq!(
                served.count(l).unwrap().data(),
                fresh.count(l).unwrap().data()
            );
        }
        // Publishing a shorter prefix never downgrades the entry.
        cache.publish(
            graph.fingerprint(),
            seeds.fingerprint(),
            true,
            fresh.counts[..1].to_vec(),
        );
        assert_eq!(ctx.summary(&config).unwrap().max_length(), 3);
        assert_eq!(ctx.summary_computations(), 0);
        // Empty publishes are ignored entirely.
        cache.publish(graph.fingerprint(), seeds.fingerprint(), true, Vec::new());
        assert_eq!(cache.len(), 1);
        // After eviction the next request recomputes.
        cache.remove(graph.fingerprint(), seeds.fingerprint());
        assert!(cache.is_empty());
        ctx.warm(&config).unwrap();
        assert_eq!(ctx.summary_computations(), 1);
    }

    #[test]
    fn per_key_counters_do_not_see_other_keys() {
        let (graph, seeds) = seeded_graph();
        let mut rng = StdRng::seed_from_u64(123);
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let other = generate(&cfg, &mut rng).unwrap();
        let other_seeds = other.labeling.stratified_sample(0.1, &mut rng);
        let cache = SummaryCache::shared();
        let ctx = EstimationContext::with_cache(&graph, &seeds, Arc::clone(&cache));
        let ctx_other =
            EstimationContext::with_cache(&other.graph, &other_seeds, Arc::clone(&cache));
        ctx.warm(&SummaryConfig::with_max_length(3)).unwrap();
        ctx_other.warm(&SummaryConfig::with_max_length(3)).unwrap();
        // Each context reports only its own work.
        assert_eq!(ctx.summary_computations(), 1);
        assert_eq!(ctx_other.summary_computations(), 1);
        assert_eq!(cache.len(), 2);
        // A later context on a cached key did no work of its own.
        let late = EstimationContext::with_cache(&graph, &seeds, Arc::clone(&cache));
        late.warm(&SummaryConfig::with_max_length(3)).unwrap();
        assert_eq!(late.work(), Work::default());
        assert_eq!(ctx.summary_computations(), 1);
    }

    #[test]
    fn shared_cache_serves_equal_content_across_contexts() {
        // The content-addressing contract: a clone is a different allocation but the
        // same content, so a shared cache answers it without recomputing.
        let (graph, seeds) = seeded_graph();
        let graph_copy = graph.clone();
        let seeds_copy = seeds.clone();
        let cache = SummaryCache::shared();
        let ctx = EstimationContext::with_cache(&graph, &seeds, Arc::clone(&cache));
        let ctx_copy = EstimationContext::with_cache(&graph_copy, &seeds_copy, Arc::clone(&cache));
        assert!(!std::ptr::eq(ctx.graph(), ctx_copy.graph()));

        let config = SummaryConfig::with_max_length(4);
        let first = ctx.summary(&config).unwrap();
        let second = ctx_copy.summary(&config).unwrap();
        assert_eq!(ctx.summary_computations(), 1);
        assert_eq!(ctx_copy.summary_computations(), 0);
        assert_eq!(cache.len(), 1);
        for l in 1..=4 {
            assert_eq!(
                first.count(l).unwrap().data(),
                second.count(l).unwrap().data()
            );
        }
        // A different seed set is a different key in the same cache.
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let other = generate(&cfg, &mut rng).unwrap();
        let other_seeds = other.labeling.stratified_sample(0.1, &mut rng);
        let ctx_other = EstimationContext::with_cache(&other.graph, &other_seeds, cache.clone());
        ctx_other.warm(&config).unwrap();
        assert_eq!(ctx_other.summary_computations(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn private_cache_never_answers_for_another_pair() {
        let (graph, seeds) = seeded_graph();
        let config = SummaryConfig::with_max_length(3);
        let ctx = EstimationContext::new(&graph, &seeds);
        let first = ctx.summary(&config).unwrap();
        let cache = Arc::clone(ctx.cache());
        assert_eq!(cache.len(), 1);

        // Another seed set on the same graph, through the handed-out cache, gets
        // its own counts — bit-identical to a fresh summarize, not the first pair's.
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = GeneratorConfig::balanced(400, 10.0, 3, 3.0).unwrap();
        let other_seeds = generate(&cfg, &mut StdRng::seed_from_u64(7))
            .unwrap()
            .labeling
            .stratified_sample(0.3, &mut rng);
        let other = EstimationContext::with_cache(&graph, &other_seeds, Arc::clone(&cache));
        let second = other.summary(&config).unwrap();
        let fresh = summarize(&graph, &other_seeds, &config).unwrap();
        assert_ne!(
            first.count(1).unwrap().data(),
            second.count(1).unwrap().data()
        );
        for l in 1..=3 {
            assert_eq!(
                second.count(l).unwrap().data(),
                fresh.count(l).unwrap().data()
            );
        }
        assert_eq!(ctx.summary_computations(), 1);
        assert_eq!(other.summary_computations(), 1);
        // The private context keeps answering from its own entry.
        ctx.warm(&config).unwrap();
        assert_eq!(ctx.summary_computations(), 1);
        // The private entry has no content key for anyone to look up: a content
        // context on the same pair computes its own.
        let content = EstimationContext::with_cache(&graph, &seeds, Arc::clone(&cache));
        content.warm(&config).unwrap();
        assert_eq!(content.summary_computations(), 1);
    }

    #[test]
    fn wx_is_cached_and_matches_serial_product() {
        let (graph, seeds) = seeded_graph();
        let ctx = EstimationContext::new(&graph, &seeds).threads(Threads::Fixed(4));
        let expected = graph.adjacency().spmm_dense(&seeds.to_matrix()).unwrap();
        assert_eq!(ctx.wx().unwrap().data(), expected.data());
        assert_eq!(ctx.wx().unwrap().data(), expected.data());
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let (graph, seeds) = seeded_graph();
        let ctx = EstimationContext::new(&graph, &seeds);
        assert!(ctx.summary(&SummaryConfig::with_max_length(0)).is_err());
        let wrong = SeedLabels::new(vec![Some(0), None], 2).unwrap();
        let bad = EstimationContext::new(&graph, &wrong);
        assert!(bad.summary(&SummaryConfig::default()).is_err());
    }

    #[test]
    fn accessors_expose_configuration() {
        let (graph, seeds) = seeded_graph();
        let ctx = EstimationContext::new(&graph, &seeds).threads(Threads::Auto);
        assert!(std::ptr::eq(ctx.graph(), &graph));
        assert!(std::ptr::eq(ctx.seeds(), &seeds));
        assert_eq!(ctx.thread_policy(), Threads::Auto);
        assert_eq!(ctx.graph_fingerprint(), graph.fingerprint());
        assert_eq!(ctx.seed_fingerprint(), seeds.fingerprint());
        assert!(ctx.summary_store().is_none());
        assert!(ctx.cache().is_empty());
        assert_eq!(ctx.store_hits(), 0);
    }

    #[test]
    fn store_round_trip_serves_new_cache_without_computation() {
        let (graph, seeds) = seeded_graph();
        let dir = std::env::temp_dir().join("fg_ctx_store_round_trip");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SummaryStore::open(&dir).unwrap());
        let config = SummaryConfig::with_max_length(5);

        // Cold: computes and writes back.
        let warm_ctx = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        let fresh = warm_ctx.summary(&config).unwrap();
        assert_eq!(warm_ctx.summary_computations(), 1);
        assert_eq!(warm_ctx.store_hits(), 0);

        // Warm path: a brand-new cache (simulating a new process) is served from disk
        // with zero computations and bit-identical results.
        let cold_ctx = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        let served = cold_ctx.summary(&config).unwrap();
        assert_eq!(cold_ctx.summary_computations(), 0);
        assert_eq!(cold_ctx.store_hits(), 1);
        for l in 1..=5 {
            assert_eq!(
                served.count(l).unwrap().data(),
                fresh.count(l).unwrap().data()
            );
            assert_eq!(
                served.statistic(l).unwrap().data(),
                fresh.statistic(l).unwrap().data()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_stored_prefix_is_recomputed_and_extended() {
        let (graph, seeds) = seeded_graph();
        let dir = std::env::temp_dir().join("fg_ctx_store_extend");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SummaryStore::open(&dir).unwrap());

        let short_ctx = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        short_ctx.warm(&SummaryConfig::with_max_length(2)).unwrap();

        // A longer request cannot be served by the stored lmax = 2 prefix: it is
        // recomputed and the store upgraded to lmax = 5.
        let long_ctx = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        long_ctx.warm(&SummaryConfig::with_max_length(5)).unwrap();
        assert_eq!(long_ctx.summary_computations(), 1);
        assert_eq!(long_ctx.store_hits(), 0);

        // Now lmax <= 5 requests are store hits for fresh caches.
        let reread = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        reread.warm(&SummaryConfig::with_max_length(4)).unwrap();
        assert_eq!(reread.summary_computations(), 0);
        assert_eq!(reread.store_hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_store_file_is_recomputed_and_repaired() {
        let (graph, seeds) = seeded_graph();
        let dir = std::env::temp_dir().join("fg_ctx_store_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SummaryStore::open(&dir).unwrap());
        let config = SummaryConfig::with_max_length(3);

        let writer = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        let expected = writer.summary(&config).unwrap();

        // Damage the persisted file.
        let path = store.path(&SummaryKey(graph.fingerprint(), seeds.fingerprint(), true));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // The damaged file is rejected (not served), the summary recomputed
        // correctly, and the file repaired by the write-back.
        let reader = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        let recovered = reader.summary(&config).unwrap();
        assert_eq!(reader.summary_computations(), 1);
        assert_eq!(reader.store_hits(), 0);
        for l in 1..=3 {
            assert_eq!(
                recovered.count(l).unwrap().data(),
                expected.count(l).unwrap().data()
            );
        }
        let healed = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        healed.warm(&config).unwrap();
        assert_eq!(healed.summary_computations(), 0);
        assert_eq!(healed.store_hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lowrank_factor_is_computed_once_and_counts_are_cached() {
        let (graph, seeds) = seeded_graph();
        let cache = SummaryCache::shared();
        let ctx = EstimationContext::with_cache(&graph, &seeds, Arc::clone(&cache));
        let config = SummaryConfig {
            max_length: 5,
            ..SummaryConfig::with_lowrank_rank(8)
        };
        let five = ctx.summary(&config).unwrap();
        assert_eq!(ctx.work().factor_computations, 1);
        assert_eq!(ctx.summary_computations(), 1);
        assert_eq!(five.max_length(), 5);

        // Shorter prefixes and other variants reuse both the factor and the counts.
        let three = ctx
            .summary(&SummaryConfig {
                max_length: 3,
                variant: NormalizationVariant::MeanScaled,
                ..config
            })
            .unwrap();
        assert_eq!(ctx.work().factor_computations, 1);
        assert_eq!(ctx.summary_computations(), 1);
        assert_eq!(three.max_length(), 3);

        // The other counting mode reruns only the recurrence, never the eigensolve.
        ctx.warm(&SummaryConfig {
            non_backtracking: false,
            ..config
        })
        .unwrap();
        assert_eq!(ctx.work().factor_computations, 1);
        assert_eq!(ctx.summary_computations(), 2);

        // A different rank is a different factor.
        ctx.warm(&SummaryConfig {
            max_length: 5,
            ..SummaryConfig::with_lowrank_rank(4)
        })
        .unwrap();
        assert_eq!(ctx.work().factor_computations, 2);

        // Low-rank entries never pollute the exact tier (and vice versa).
        ctx.warm(&SummaryConfig::with_max_length(5)).unwrap();
        assert_eq!(ctx.summary_computations(), 4);
        assert_eq!(ctx.work().factor_computations, 2);
    }

    #[test]
    fn warm_fgv_store_skips_the_eigensolve() {
        let (graph, seeds) = seeded_graph();
        let dir = std::env::temp_dir().join("fg_ctx_factor_store");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SummaryStore::open(&dir).unwrap());
        let config = SummaryConfig {
            max_length: 5,
            ..SummaryConfig::with_lowrank_rank(8)
        };

        // Cold: runs the eigensolve and persists the factor as a `.fgv` entry.
        let cold = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        let fresh = cold.summary(&config).unwrap();
        assert_eq!(cold.work().factor_computations, 1);
        assert_eq!(cold.work().factor_store_hits, 0);

        // Warm: a brand-new cache (new process) loads the factor from disk — zero
        // eigensolves — and produces bit-identical counts at any thread policy.
        for threads in [Threads::Serial, Threads::Fixed(4)] {
            let warm = EstimationContext::new(&graph, &seeds)
                .threads(threads)
                .store(Arc::clone(&store));
            let served = warm.summary(&config).unwrap();
            assert_eq!(warm.work().factor_computations, 0, "{threads:?}");
            assert_eq!(warm.work().factor_store_hits, 1, "{threads:?}");
            for l in 1..=5 {
                assert_eq!(
                    served.count(l).unwrap().data(),
                    fresh.count(l).unwrap().data(),
                    "{threads:?} length {l}"
                );
            }
        }

        // A damaged `.fgv` entry is rejected, recomputed, and repaired in place.
        let factor_config = FactorConfig::with_rank(8);
        let path = store.path(&FactorKey(graph.fingerprint(), factor_config));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let repair = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        repair.warm(&config).unwrap();
        assert_eq!(repair.work().factor_computations, 1);
        assert_eq!(repair.work().factor_store_hits, 0);
        let healed = EstimationContext::new(&graph, &seeds).store(Arc::clone(&store));
        healed.warm(&config).unwrap();
        assert_eq!(healed.work().factor_computations, 0);
        assert_eq!(healed.work().factor_store_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
