//! Incremental summary maintenance: the [`DeltaSummary`] engine.
//!
//! The batch pipeline recomputes the factorized path counts `M(ℓ) = Xᵀ W(ℓ) X` from
//! scratch whenever the seed set changes — `O(m·k·ℓmax)` work per change, which is
//! exactly the cross-seed-set cold start that makes streaming / online labeling
//! expensive. This module exploits that the map `X ↦ N(ℓ) = W(ℓ) X` of
//! Algorithm 4.4 is **linear in `X`**: mutating one seed changes one row of `X`, so
//! the change to every `N(ℓ)` is the rank-one update
//!
//! ```text
//! ΔN(ℓ) = aℓ ⊗ (e_new − e_old),   aℓ = W(ℓ) e_i  (the i-th column of the
//!                                  length-ℓ path-count operator)
//! ```
//!
//! and the `aℓ` vectors follow the same non-backtracking recurrence as the full
//! computation (`aℓ = W aℓ₋₁ − (D − I) aℓ₋₂`), restricted to the growing
//! neighborhood of the mutated node. A [`DeltaSummary`] keeps the `N(ℓ)` matrices
//! alive and folds each seed mutation in with work proportional to the mutated
//! node's ℓmax-hop ball — `O(Δ·paths)` instead of `O(n·paths)` — updating the
//! `k x k` count matrices via `M' = M + XᵀΔN + ΔXᵀN'`.
//!
//! # Bit-identity
//!
//! The engine guarantees that after **any** sequence of mutations its counts are
//! bit-identical to a cold [`summarize_with`](crate::paths::summarize_with) on the
//! final seed set (at any thread count — the parallel kernels are already
//! bit-identical to serial). Floating-point addition is not associative in general,
//! so this only holds because path counting is *integer* arithmetic: for graphs with
//! integer edge weights every intermediate is an exactly representable `f64` integer
//! as long as magnitudes stay below 2⁵³, and exact integer arithmetic is associative
//! and commutative — any update order produces the same bits. The engine checks both
//! conditions (integer weights at construction, magnitude headroom on every write)
//! and **falls back to a full recomputation** whenever they fail, so the invariant
//! is unconditional: a delta update can cost time, never correctness. Zero-valued
//! deltas are skipped entirely so no `-0.0` can leak into entries a fresh
//! computation would leave at `+0.0`.
//!
//! # Serving integration
//!
//! [`DeltaSummary::publish_to`] write-backs the maintained counts into a shared
//! [`SummaryCache`] under the *current* graph/seed fingerprints (re-derived after
//! every mutation), so an [`EstimationContext`](crate::EstimationContext) built on
//! the same data is answered without any summarization — the "zero full
//! summarizations after warm-up" property `fg serve` reports and CI asserts.
//! [`DeltaSummary::persist_to`] does the same for a persistent
//! [`SummaryStore`].

use crate::context::SummaryCache;
use crate::error::{CoreError, Result};
use crate::paths::{
    compute_path_counts_and_intermediates, summary_from_counts, GraphSummary, SummaryConfig,
};
use crate::store::{SummaryKey, SummaryStore};
use fg_graph::{Fingerprint, Graph, SeedLabels};
use fg_sparse::{DenseMatrix, Threads};
use std::sync::Arc;

/// One seed-set change. `Add` requires the node to be unlabeled, `Remove` and
/// `Relabel` require it to be labeled — the split keeps accidental no-ops and
/// double-adds visible to callers (the serving protocol surfaces these as request
/// errors instead of silently absorbing them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMutation {
    /// Label a previously unlabeled node.
    Add {
        /// Node id.
        node: usize,
        /// Class label in `0..k`.
        label: usize,
    },
    /// Remove the label of a labeled node.
    Remove {
        /// Node id.
        node: usize,
    },
    /// Change the label of a labeled node.
    Relabel {
        /// Node id.
        node: usize,
        /// New class label in `0..k`.
        label: usize,
    },
}

impl SeedMutation {
    /// The mutated node.
    pub fn node(&self) -> usize {
        match *self {
            SeedMutation::Add { node, .. }
            | SeedMutation::Remove { node }
            | SeedMutation::Relabel { node, .. } => node,
        }
    }
}

/// What one [`DeltaSummary::apply`] batch did: how many mutations took the delta
/// path, how many forced a full recomputation, and how much delta work was done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Mutations folded in as low-rank delta updates.
    pub delta_applied: usize,
    /// Full `O(n·paths)` recomputations triggered (0 or 1 per batch: exactness
    /// violations are detected per batch and repaired once at the end).
    pub full_recomputes: usize,
    /// Node-rows touched by the delta updates (summed over mutations and path
    /// lengths) — the counter the amortization claim is measured with.
    pub rows_touched: usize,
}

/// Cumulative counters of a [`DeltaSummary`], for stats endpoints and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Full `O(n·paths)` summarizations performed (including the one at
    /// construction).
    pub full_summarizations: usize,
    /// Seed mutations absorbed by the delta path.
    pub delta_mutations: usize,
    /// Total node-rows touched by delta updates.
    pub delta_rows_touched: usize,
    /// Node-rows one full summarization touches (`n · ℓmax`), the denominator of
    /// the amortization ratio.
    pub full_rows_per_summarization: usize,
}

/// Reusable sparse-vector scratch: dense values plus an explicit support list, so a
/// vector whose support is a tiny neighborhood costs only its support to read,
/// update, and clear.
#[derive(Debug, Default, Clone)]
struct SparseVec {
    values: Vec<f64>,
    support: Vec<usize>,
    marked: Vec<bool>,
}

impl SparseVec {
    fn with_len(n: usize) -> Self {
        SparseVec {
            values: vec![0.0; n],
            support: Vec::new(),
            marked: vec![false; n],
        }
    }

    fn clear(&mut self) {
        for &t in &self.support {
            self.values[t] = 0.0;
            self.marked[t] = false;
        }
        self.support.clear();
    }

    fn add(&mut self, index: usize, value: f64) {
        if !self.marked[index] {
            self.marked[index] = true;
            self.support.push(index);
        }
        self.values[index] += value;
    }

    /// Drop support entries whose value cancelled to exactly zero, so later passes
    /// (and the rows-touched counter) only see genuine contributions.
    fn compact(&mut self) {
        let values = &mut self.values;
        let marked = &mut self.marked;
        self.support.retain(|&t| {
            if values[t] == 0.0 {
                marked[t] = false;
                false
            } else {
                true
            }
        });
    }
}

/// Maintains the factorized path counts of one `(graph, counting mode, ℓmax)`
/// configuration under streaming seed mutations. See the [module docs](self) for
/// the update rule and the bit-identity contract.
#[derive(Debug)]
pub struct DeltaSummary {
    graph: Arc<Graph>,
    seeds: SeedLabels,
    max_length: usize,
    non_backtracking: bool,
    threads: Threads,
    /// `N(1)..N(ℓmax)`, each `n x k` — the recurrence intermediates kept alive.
    n_mats: Vec<DenseMatrix>,
    /// `M(1)..M(ℓmax)`, each `k x k` — the maintained raw counts.
    counts: Vec<DenseMatrix>,
    /// Whether the exact-integer argument applies to this graph at all (integer,
    /// non-negative edge weights). When `false` every batch recomputes fully.
    exact: bool,
    /// Magnitude ceiling under which every intermediate of both the fresh and the
    /// delta evaluation order is an exactly representable integer.
    magnitude_limit: f64,
    /// Set when a delta write exceeded `magnitude_limit`; repaired by the
    /// end-of-batch full recomputation.
    violated: bool,
    stats: DeltaStats,
    scratch: [SparseVec; 3],
}

impl DeltaSummary {
    /// Build the engine with one full summarization of `seeds` (counted in
    /// [`stats`](Self::stats)). `max_length ≥ 1`; the kept counts serve any request
    /// with `max_length` up to this value (prefix stability).
    pub fn new(
        graph: Arc<Graph>,
        seeds: SeedLabels,
        max_length: usize,
        non_backtracking: bool,
        threads: Threads,
    ) -> Result<Self> {
        let n = graph.num_nodes();
        let (exact, magnitude_limit) = exactness_of(&graph);
        let mut engine = DeltaSummary {
            graph,
            seeds,
            max_length,
            non_backtracking,
            threads,
            n_mats: Vec::new(),
            counts: Vec::new(),
            exact,
            magnitude_limit,
            violated: false,
            stats: DeltaStats::default(),
            scratch: [
                SparseVec::with_len(n),
                SparseVec::with_len(n),
                SparseVec::with_len(n),
            ],
        };
        engine.recompute()?;
        Ok(engine)
    }

    /// The graph this engine summarizes.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The current seed set (after all applied mutations).
    pub fn seeds(&self) -> &SeedLabels {
        &self.seeds
    }

    /// Maximum maintained path length.
    pub fn max_length(&self) -> usize {
        self.max_length
    }

    /// Whether non-backtracking counting is maintained.
    pub fn non_backtracking(&self) -> bool {
        self.non_backtracking
    }

    /// The maintained raw count matrices `M(1)..M(ℓmax)`.
    pub fn counts(&self) -> &[DenseMatrix] {
        &self.counts
    }

    /// The maintained `N(1) = W · X` product (`n x k`) — the statistic LCE's energy
    /// is built from. `N(1)` is independent of the counting mode, and the same
    /// rank-one updates that keep the counts exact keep it bit-identical to a cold
    /// product on the current seed set.
    pub fn wx(&self) -> &DenseMatrix {
        &self.n_mats[0]
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Content fingerprint of the graph.
    pub fn graph_fingerprint(&self) -> Fingerprint {
        self.graph.fingerprint()
    }

    /// Content fingerprint of the **current** seed set, re-derived from the mutated
    /// observations (equal to the fingerprint of a freshly loaded copy of the same
    /// seed set — the property the content-addressed cache and store key on).
    pub fn seed_fingerprint(&self) -> Fingerprint {
        self.seeds.fingerprint()
    }

    /// Assemble a [`GraphSummary`] for the maintained configuration under any
    /// normalization variant (counts are variant-independent), truncated to
    /// `max_length` (must be ≤ the maintained length).
    pub fn summary(&self, config: &SummaryConfig) -> Result<GraphSummary> {
        if config.backend != crate::paths::CountingBackend::Exact {
            return Err(CoreError::InvalidConfig(
                "the incremental engine maintains exact counts; request the low-rank \
                 backend through an EstimationContext instead"
                    .into(),
            ));
        }
        if config.non_backtracking != self.non_backtracking {
            return Err(CoreError::InvalidConfig(format!(
                "engine maintains non_backtracking = {}, requested {}",
                self.non_backtracking, config.non_backtracking
            )));
        }
        if config.max_length == 0 || config.max_length > self.max_length {
            return Err(CoreError::InvalidConfig(format!(
                "engine maintains lengths 1..={}, requested {}",
                self.max_length, config.max_length
            )));
        }
        let counts = self.counts[..config.max_length].to_vec();
        Ok(summary_from_counts(
            counts,
            self.seeds.k(),
            self.non_backtracking,
            config.variant,
        ))
    }

    /// Write-back the maintained counts **and** the maintained `W · X` product into
    /// a shared [`SummaryCache`] under the current fingerprints (no computation is
    /// counted: both artifacts already exist). Subsequent
    /// [`EstimationContext`](crate::EstimationContext) requests on the same data —
    /// including LCE's [`wx`](crate::EstimationContext::wx) — are then pure cache
    /// hits.
    pub fn publish_to(&self, cache: &SummaryCache) {
        cache.publish(
            self.graph_fingerprint(),
            self.seed_fingerprint(),
            self.non_backtracking,
            self.counts.clone(),
        );
        if let Some(wx) = self.n_mats.first() {
            cache.publish_wx(
                self.graph_fingerprint(),
                self.seed_fingerprint(),
                Arc::new(wx.clone()),
            );
        }
    }

    /// Persist the maintained counts into a [`SummaryStore`] under the current
    /// fingerprints, so even a restarted process skips summarization. Best-effort
    /// like the context's write-back path.
    pub fn persist_to(&self, store: &SummaryStore) -> Result<()> {
        let key = SummaryKey(
            self.graph_fingerprint(),
            self.seed_fingerprint(),
            self.non_backtracking,
        );
        store.save(&key, &self.counts).map(|_| ())
    }

    /// An independent engine for the same `(graph, mode, ℓmax)` configuration,
    /// starting from the current counts and seed state but with **zeroed work
    /// counters**.
    ///
    /// The serving tier's engine LRU forks the live engine before applying a
    /// mutation batch, so the pre-mutation state stays warm for reverts. Zeroing
    /// the fork's [`stats`](Self::stats) keeps each engine's counters its own:
    /// the original retains the full summarizations it actually ran, and the fork
    /// reports only the work it does itself.
    pub fn fork(&self) -> DeltaSummary {
        DeltaSummary {
            graph: Arc::clone(&self.graph),
            seeds: self.seeds.clone(),
            max_length: self.max_length,
            non_backtracking: self.non_backtracking,
            threads: self.threads,
            n_mats: self.n_mats.clone(),
            counts: self.counts.clone(),
            exact: self.exact,
            magnitude_limit: self.magnitude_limit,
            violated: self.violated,
            stats: DeltaStats::default(),
            scratch: self.scratch.clone(),
        }
    }

    /// Apply a batch of seed mutations, keeping counts bit-identical to a cold
    /// summarization of the resulting seed set.
    ///
    /// The whole batch is validated against the current seed state **before**
    /// anything is applied, so an invalid mutation (out-of-range node or label,
    /// `Add` on a labeled node, `Remove`/`Relabel` on an unlabeled one) leaves the
    /// engine untouched. Valid batches take the delta path; graphs or magnitudes
    /// outside the exact-integer regime are repaired with one full recomputation at
    /// the end of the batch (reported in the outcome, never silently).
    pub fn apply(&mut self, mutations: &[SeedMutation]) -> Result<ApplyOutcome> {
        self.validate(mutations)?;
        let mut outcome = ApplyOutcome::default();
        if !self.exact {
            for m in mutations {
                self.mutate_seed_only(m);
            }
            if !mutations.is_empty() {
                self.recompute()?;
                outcome.full_recomputes = 1;
            }
            return Ok(outcome);
        }
        for m in mutations {
            let rows = self.apply_delta(m);
            self.stats.delta_mutations += 1;
            self.stats.delta_rows_touched += rows;
            outcome.delta_applied += 1;
            outcome.rows_touched += rows;
        }
        if self.violated {
            // A write left the provably-exact magnitude range: the counts may have
            // rounded, so rebuild them from scratch (the seeds are already final).
            self.recompute()?;
            self.violated = false;
            outcome.full_recomputes = 1;
        }
        Ok(outcome)
    }

    /// Check a batch against the current seed state without modifying anything.
    fn validate(&self, mutations: &[SeedMutation]) -> Result<()> {
        validate_mutations(&self.seeds, mutations)
    }

    /// Mutate the seed set without touching the counts (full-recompute path).
    fn mutate_seed_only(&mut self, m: &SeedMutation) {
        let (node, label) = match *m {
            SeedMutation::Add { node, label } | SeedMutation::Relabel { node, label } => {
                (node, Some(label))
            }
            SeedMutation::Remove { node } => (node, None),
        };
        self.seeds
            .set_label(node, label)
            .expect("validated before apply");
    }

    /// Fold one validated mutation into the maintained matrices; returns the number
    /// of node-rows touched.
    fn apply_delta(&mut self, m: &SeedMutation) -> usize {
        let (node, new) = match *m {
            SeedMutation::Add { node, label } | SeedMutation::Relabel { node, label } => {
                (node, Some(label))
            }
            SeedMutation::Remove { node } => (node, None),
        };
        let old = self.seeds.get(node);
        if old == new {
            // A relabel to the current class changes nothing.
            return 0;
        }
        let k = self.seeds.k();
        let limit = self.magnitude_limit;
        let mut rows_touched = 0usize;

        // The three-slot ring of aℓ vectors: prev2, prev1, current.
        let mut scratch = std::mem::take(&mut self.scratch);
        let [ref mut s0, ref mut s1, ref mut s2] = scratch;
        s0.clear();
        s1.clear();
        s2.clear();

        for ell in 1..=self.max_length {
            // Rotate so s2 becomes the vector under construction; s1 = aℓ₋₁,
            // s0 = aℓ₋₂ (empty vectors for the base cases).
            if ell >= 2 {
                std::mem::swap(s0, s1);
                std::mem::swap(s1, s2);
                s2.clear();
            }
            if ell == 1 {
                // a₁ = W e_i: the mutated node's adjacency column (= row, W is
                // symmetric).
                for (u, w) in self.graph.neighbors_weighted(node) {
                    s2.add(u, w);
                }
            } else {
                // aℓ = W aℓ₋₁ − corrections, scattered over the support: symmetric
                // W means column t equals row t.
                // (Scatter order differs from the fresh row-dot order; exact
                // integer arithmetic makes the result bit-identical anyway.)
                for idx in 0..s1.support.len() {
                    let t = s1.support[idx];
                    let v = s1.values[t];
                    for (u, w) in self.graph.neighbors_weighted(t) {
                        s2.add(u, w * v);
                    }
                }
                if self.non_backtracking {
                    if ell == 2 {
                        // a₂ = W a₁ − D e_i.
                        s2.add(node, -self.graph.degree(node));
                    } else {
                        // aℓ = W aℓ₋₁ − (D − I) aℓ₋₂.
                        for idx in 0..s0.support.len() {
                            let t = s0.support[idx];
                            let v = s0.values[t];
                            s2.add(t, -(self.graph.degree(t) - 1.0) * v);
                        }
                    }
                }
            }
            s2.compact();
            for &t in &s2.support {
                if s2.values[t].abs() >= limit {
                    self.violated = true;
                }
            }
            rows_touched += s2.support.len();

            // M(ℓ) += Xᵀ ΔN(ℓ): group aℓ over the classes of the *old* seed set.
            let counts = &mut self.counts[ell - 1];
            let mut class_sums = vec![0.0; k];
            for &t in &s2.support {
                if let Some(g) = self.seeds.get(t) {
                    class_sums[g] += s2.values[t];
                }
            }
            // Old-class writes subtract non-negative contributions from entries
            // whose previous values already passed the headroom check, so they
            // cannot mathematically leave the exact range — they are checked
            // anyway so that *every* write is guarded, keeping the invariant
            // robust to future changes in the surrounding arithmetic.
            for (g, &sum) in class_sums.iter().enumerate() {
                if sum == 0.0 {
                    continue;
                }
                if let Some(c) = new {
                    counts.add_at(g, c, sum);
                    if counts.get(g, c).abs() >= limit {
                        self.violated = true;
                    }
                }
                if let Some(o) = old {
                    counts.add_at(g, o, -sum);
                    if counts.get(g, o).abs() >= limit {
                        self.violated = true;
                    }
                }
            }

            // N(ℓ) += ΔN(ℓ): add ±aℓ into the old/new class columns.
            let n_mat = &mut self.n_mats[ell - 1];
            for &t in &s2.support {
                let v = s2.values[t];
                if let Some(c) = new {
                    n_mat.add_at(t, c, v);
                    if n_mat.get(t, c).abs() >= limit {
                        self.violated = true;
                    }
                }
                if let Some(o) = old {
                    n_mat.add_at(t, o, -v);
                    if n_mat.get(t, o).abs() >= limit {
                        self.violated = true;
                    }
                }
            }

            // M(ℓ) += ΔXᵀ N'(ℓ): the mutated node's (updated) N-row moves between
            // the old and new class rows.
            let row: Vec<f64> = n_mat.row(node).to_vec();
            for (j, &v) in row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                if let Some(c) = new {
                    counts.add_at(c, j, v);
                    if counts.get(c, j).abs() >= limit {
                        self.violated = true;
                    }
                }
                if let Some(o) = old {
                    counts.add_at(o, j, -v);
                    if counts.get(o, j).abs() >= limit {
                        self.violated = true;
                    }
                }
            }
        }
        self.scratch = scratch;
        self.seeds
            .set_label(node, new)
            .expect("validated before apply");
        rows_touched
    }

    /// Rebuild counts and intermediates from the current seed set with one full
    /// summarization (also re-checks the magnitude headroom).
    fn recompute(&mut self) -> Result<()> {
        let (counts, n_mats) = compute_path_counts_and_intermediates(
            &self.graph,
            &self.seeds,
            self.max_length,
            self.non_backtracking,
            self.threads,
        )?;
        self.counts = counts;
        self.n_mats = n_mats;
        self.stats.full_summarizations += 1;
        self.stats.full_rows_per_summarization = self.graph.num_nodes() * self.max_length;
        if self.exact {
            let over_limit =
                |m: &DenseMatrix| m.data().iter().any(|v| v.abs() >= self.magnitude_limit);
            if self.n_mats.iter().any(over_limit) || self.counts.iter().any(over_limit) {
                // Too little headroom to prove future updates exact: stay correct by
                // recomputing from now on.
                self.exact = false;
            }
        }
        Ok(())
    }
}

/// Check a mutation batch against a seed state without modifying anything: node and
/// label ranges, `Add` only on unlabeled nodes, `Remove`/`Relabel` only on labeled
/// ones — tracking the simulated effect of earlier mutations in the same batch so a
/// batch may add and then relabel one node. This is the validation
/// [`DeltaSummary::apply`] runs before touching any state; serving layers call it to
/// vet a request against their authoritative seed copy with identical rules.
pub fn validate_mutations(seeds: &SeedLabels, mutations: &[SeedMutation]) -> Result<()> {
    let n = seeds.n();
    let k = seeds.k();
    // Simulated labels of nodes touched earlier in the same batch.
    let mut pending: Vec<(usize, Option<usize>)> = Vec::new();
    for m in mutations {
        let node = m.node();
        if node >= n {
            return Err(CoreError::InvalidInput(format!(
                "seed mutation names node {node} but the graph has {n} nodes"
            )));
        }
        let current = pending
            .iter()
            .rev()
            .find(|(t, _)| *t == node)
            .map(|(_, l)| *l)
            .unwrap_or_else(|| seeds.get(node));
        let next = match *m {
            SeedMutation::Add { label, .. } | SeedMutation::Relabel { label, .. } if label >= k => {
                return Err(CoreError::InvalidInput(format!(
                    "seed mutation labels node {node} with class {label} but k = {k}"
                )));
            }
            SeedMutation::Add { label, .. } => {
                if current.is_some() {
                    return Err(CoreError::InvalidInput(format!(
                        "cannot add a seed at node {node}: it is already labeled \
                         (use relabel)"
                    )));
                }
                Some(label)
            }
            SeedMutation::Remove { .. } => {
                if current.is_none() {
                    return Err(CoreError::InvalidInput(format!(
                        "cannot remove the seed at node {node}: it is unlabeled"
                    )));
                }
                None
            }
            SeedMutation::Relabel { label, .. } => {
                if current.is_none() {
                    return Err(CoreError::InvalidInput(format!(
                        "cannot relabel node {node}: it is unlabeled (use add)"
                    )));
                }
                Some(label)
            }
        };
        pending.push((node, next));
    }
    Ok(())
}

/// Decide whether the exact-integer argument applies to a graph, and with which
/// magnitude ceiling. The ceiling leaves a `max_degree + 2` factor of headroom below
/// 2⁵³ so that every *intermediate* of both evaluation orders (partial scatter sums,
/// `W·N` products before the non-backtracking correction) is exact whenever the
/// checked final values are.
fn exactness_of(graph: &Graph) -> (bool, f64) {
    let max_degree = graph.degrees().iter().fold(0.0f64, |acc, &d| acc.max(d));
    let limit = (2.0f64).powi(53) / (max_degree + 2.0).max(2.0);
    let integer_weights = graph
        .edges()
        .all(|(_, _, w)| w.is_finite() && w >= 0.0 && w.fract() == 0.0 && w < limit);
    (integer_weights, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalization::NormalizationVariant;
    use crate::paths::summarize_with;
    use fg_graph::{generate, GeneratorConfig, Labeling};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seeded_case(seed: u64) -> (Arc<Graph>, SeedLabels, Labeling) {
        let cfg = GeneratorConfig::balanced(500, 8.0, 3, 6.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
        (Arc::new(syn.graph), seeds, syn.labeling)
    }

    fn assert_counts_match_fresh(engine: &DeltaSummary, context: &str) {
        let config = SummaryConfig {
            max_length: engine.max_length(),
            non_backtracking: engine.non_backtracking(),
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        };
        let fresh =
            summarize_with(engine.graph(), engine.seeds(), &config, Threads::Serial).unwrap();
        for l in 1..=engine.max_length() {
            let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&engine.counts()[l - 1]),
                bits(fresh.count(l).unwrap()),
                "{context}: counts diverge at length {l}"
            );
        }
    }

    #[test]
    fn single_mutations_are_bit_identical_to_fresh_summaries() {
        for non_backtracking in [true, false] {
            let (graph, seeds, truth) = seeded_case(11);
            let mut engine = DeltaSummary::new(
                Arc::clone(&graph),
                seeds,
                5,
                non_backtracking,
                Threads::Serial,
            )
            .unwrap();
            // Add a seed at the first unlabeled node.
            let node = engine.seeds().unlabeled_nodes()[0];
            let outcome = engine
                .apply(&[SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                }])
                .unwrap();
            assert_eq!(outcome.delta_applied, 1);
            assert_eq!(outcome.full_recomputes, 0);
            assert!(outcome.rows_touched > 0);
            assert_counts_match_fresh(&engine, "add");
            // Relabel it, then remove it.
            let new_label = (truth.class_of(node) + 1) % engine.seeds().k();
            engine
                .apply(&[SeedMutation::Relabel {
                    node,
                    label: new_label,
                }])
                .unwrap();
            assert_counts_match_fresh(&engine, "relabel");
            engine.apply(&[SeedMutation::Remove { node }]).unwrap();
            assert_counts_match_fresh(&engine, "remove");
            // The whole sequence took zero extra full summarizations.
            assert_eq!(engine.stats().full_summarizations, 1);
            assert_eq!(engine.stats().delta_mutations, 3);
        }
    }

    #[test]
    fn forked_engines_diverge_independently_with_zeroed_counters() {
        let (graph, seeds, truth) = seeded_case(17);
        let mut original =
            DeltaSummary::new(Arc::clone(&graph), seeds, 4, true, Threads::Serial).unwrap();
        let node = original.seeds().unlabeled_nodes()[0];
        let fork = original.fork();
        assert_eq!(fork.stats().full_summarizations, 0);
        assert_eq!(fork.seed_fingerprint(), original.seed_fingerprint());

        // Mutate only the fork: the original's counts and fingerprint are untouched,
        // and both engines independently match fresh summaries of their own state.
        let mut fork = fork;
        fork.apply(&[SeedMutation::Add {
            node,
            label: truth.class_of(node),
        }])
        .unwrap();
        assert_ne!(fork.seed_fingerprint(), original.seed_fingerprint());
        assert_counts_match_fresh(&fork, "fork after mutation");
        assert_counts_match_fresh(&original, "original after fork mutation");
        assert_eq!(fork.stats().full_summarizations, 0);
        assert_eq!(fork.stats().delta_mutations, 1);
        assert_eq!(original.stats().delta_mutations, 0);

        // The original can still take its own mutations.
        original
            .apply(&[SeedMutation::Add {
                node,
                label: (truth.class_of(node) + 1) % original.seeds().k(),
            }])
            .unwrap();
        assert_counts_match_fresh(&original, "original after own mutation");
    }

    #[test]
    fn random_mutation_streams_stay_bit_identical() {
        for (case, non_backtracking) in [(1u64, true), (2, false), (3, true)] {
            let (graph, seeds, truth) = seeded_case(case);
            let k = seeds.k();
            let mut engine = DeltaSummary::new(
                Arc::clone(&graph),
                seeds,
                4,
                non_backtracking,
                Threads::Serial,
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(1000 + case);
            for step in 0..30 {
                let labeled = engine.seeds().labeled_nodes();
                let unlabeled = engine.seeds().unlabeled_nodes();
                let mutation = match rng.gen_index(3) {
                    0 if !unlabeled.is_empty() => {
                        let node = unlabeled[rng.gen_index(unlabeled.len())];
                        SeedMutation::Add {
                            node,
                            label: truth.class_of(node),
                        }
                    }
                    1 if labeled.len() > 1 => SeedMutation::Remove {
                        node: labeled[rng.gen_index(labeled.len())],
                    },
                    _ if !labeled.is_empty() => SeedMutation::Relabel {
                        node: labeled[rng.gen_index(labeled.len())],
                        label: rng.gen_index(k),
                    },
                    _ => continue,
                };
                engine.apply(&[mutation]).unwrap();
                if step % 10 == 9 {
                    assert_counts_match_fresh(&engine, &format!("case {case} step {step}"));
                }
            }
            assert_counts_match_fresh(&engine, &format!("case {case} final"));
            assert_eq!(engine.stats().full_summarizations, 1);
        }
    }

    #[test]
    fn batches_apply_atomically_and_validate_first() {
        let (graph, seeds, truth) = seeded_case(5);
        let mut engine =
            DeltaSummary::new(Arc::clone(&graph), seeds, 3, true, Threads::Serial).unwrap();
        let before: Vec<Vec<u64>> = engine
            .counts()
            .iter()
            .map(|m| m.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        let node = engine.seeds().unlabeled_nodes()[0];
        // The second mutation is invalid (double add), so nothing applies.
        let err = engine
            .apply(&[
                SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                },
                SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                },
            ])
            .unwrap_err();
        assert!(err.to_string().contains("already labeled"), "{err}");
        let after: Vec<Vec<u64>> = engine
            .counts()
            .iter()
            .map(|m| m.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(before, after);
        assert_eq!(engine.stats().delta_mutations, 0);

        // A batch that adds then relabels the same node in one go is valid.
        let outcome = engine
            .apply(&[
                SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                },
                SeedMutation::Relabel { node, label: 0 },
            ])
            .unwrap();
        assert_eq!(outcome.delta_applied, 2);
        assert_counts_match_fresh(&engine, "batch");

        // Out-of-range inputs are rejected.
        assert!(engine
            .apply(&[SeedMutation::Add {
                node: graph.num_nodes(),
                label: 0
            }])
            .is_err());
        assert!(engine
            .apply(&[SeedMutation::Relabel { node, label: 99 }])
            .is_err());
        assert!(engine
            .apply(&[SeedMutation::Remove {
                node: engine.seeds().unlabeled_nodes()[0]
            }])
            .is_err());
    }

    #[test]
    fn non_integer_weights_fall_back_to_full_recomputation() {
        let graph = Arc::new(
            Graph::from_weighted_edges(
                5,
                &[
                    (0, 1, 0.5),
                    (1, 2, 1.5),
                    (2, 3, 1.0),
                    (3, 4, 2.0),
                    (4, 0, 1.0),
                ],
            )
            .unwrap(),
        );
        let seeds = SeedLabels::new(vec![Some(0), None, Some(1), None, None], 2).unwrap();
        let mut engine =
            DeltaSummary::new(Arc::clone(&graph), seeds, 3, true, Threads::Serial).unwrap();
        let outcome = engine
            .apply(&[SeedMutation::Add { node: 1, label: 1 }])
            .unwrap();
        // The engine stays correct by recomputing instead of delta-updating.
        assert_eq!(outcome.delta_applied, 0);
        assert_eq!(outcome.full_recomputes, 1);
        assert_counts_match_fresh(&engine, "weighted");
        assert_eq!(engine.stats().full_summarizations, 2);
    }

    #[test]
    fn summary_accessor_serves_prefixes_and_rejects_mismatches() {
        let (graph, seeds, _) = seeded_case(8);
        let engine = DeltaSummary::new(graph, seeds, 4, true, Threads::Serial).unwrap();
        let summary = engine
            .summary(&SummaryConfig {
                max_length: 2,
                non_backtracking: true,
                variant: NormalizationVariant::MeanScaled,
                ..SummaryConfig::default()
            })
            .unwrap();
        assert_eq!(summary.max_length(), 2);
        assert!(engine.summary(&SummaryConfig::with_max_length(9)).is_err());
        assert!(engine
            .summary(&SummaryConfig {
                max_length: 2,
                non_backtracking: false,
                variant: NormalizationVariant::RowStochastic,
                ..SummaryConfig::default()
            })
            .is_err());
    }

    #[test]
    fn publish_makes_context_requests_computation_free() {
        use crate::context::EstimationContext;

        let (graph, seeds, truth) = seeded_case(13);
        let mut engine =
            DeltaSummary::new(Arc::clone(&graph), seeds, 5, true, Threads::Serial).unwrap();
        let node = engine.seeds().unlabeled_nodes()[0];
        engine
            .apply(&[SeedMutation::Add {
                node,
                label: truth.class_of(node),
            }])
            .unwrap();

        let cache = SummaryCache::shared();
        engine.publish_to(&cache);
        let current = engine.seeds().clone();
        let ctx = EstimationContext::with_cache(&graph, &current, Arc::clone(&cache));
        let served = ctx.summary(&SummaryConfig::with_max_length(5)).unwrap();
        assert_eq!(ctx.summary_computations(), 0);
        let fresh = summarize_with(
            &graph,
            &current,
            &SummaryConfig::with_max_length(5),
            Threads::Serial,
        )
        .unwrap();
        for l in 1..=5 {
            assert_eq!(
                served.count(l).unwrap().data(),
                fresh.count(l).unwrap().data()
            );
        }
    }

    #[test]
    fn wx_is_maintained_and_published_bit_identically() {
        use crate::context::EstimationContext;

        let (graph, seeds, truth) = seeded_case(21);
        let mut engine =
            DeltaSummary::new(Arc::clone(&graph), seeds, 4, true, Threads::Serial).unwrap();
        // Stream adds, a relabel, and a remove through the delta path.
        let nodes: Vec<usize> = engine.seeds().unlabeled_nodes()[..6].to_vec();
        for &node in &nodes {
            engine
                .apply(&[SeedMutation::Add {
                    node,
                    label: truth.class_of(node),
                }])
                .unwrap();
        }
        engine
            .apply(&[
                SeedMutation::Relabel {
                    node: nodes[0],
                    label: (truth.class_of(nodes[0]) + 1) % engine.seeds().k(),
                },
                SeedMutation::Remove { node: nodes[1] },
            ])
            .unwrap();
        assert_eq!(engine.stats().full_summarizations, 1);
        // The maintained N(1) is bit-identical to a cold W·X on the final seeds.
        let cold = graph
            .adjacency()
            .spmm_dense(&engine.seeds().to_matrix())
            .unwrap();
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(engine.wx()), bits(&cold));
        // publish_to also publishes W·X: the context serves it without recomputing
        // (and bit-identical to the cold product).
        let cache = SummaryCache::shared();
        engine.publish_to(&cache);
        let current = engine.seeds().clone();
        let ctx = EstimationContext::with_cache(&graph, &current, Arc::clone(&cache));
        let served = ctx.wx().unwrap();
        assert_eq!(bits(&served), bits(&cold));
        // A published entry is kept: a second publish under the same key does not
        // replace the Arc the context already handed out.
        let other = Arc::new(engine.wx().clone());
        cache.publish_wx(
            engine.graph_fingerprint(),
            engine.seed_fingerprint(),
            Arc::clone(&other),
        );
        assert!(!Arc::ptr_eq(&ctx.wx().unwrap(), &other));
        // On a fresh cache, a pre-published wx is returned as the very same Arc —
        // proof the product was served, not recomputed.
        let fresh_cache = SummaryCache::shared();
        fresh_cache.publish_wx(
            engine.graph_fingerprint(),
            engine.seed_fingerprint(),
            Arc::clone(&other),
        );
        let ctx2 = EstimationContext::with_cache(&graph, &current, Arc::clone(&fresh_cache));
        assert!(Arc::ptr_eq(&ctx2.wx().unwrap(), &other));
    }

    #[test]
    fn persist_makes_store_requests_computation_free() {
        use crate::context::EstimationContext;

        let (graph, seeds, truth) = seeded_case(17);
        let mut engine =
            DeltaSummary::new(Arc::clone(&graph), seeds, 3, true, Threads::Serial).unwrap();
        let node = engine.seeds().unlabeled_nodes()[0];
        engine
            .apply(&[SeedMutation::Add {
                node,
                label: truth.class_of(node),
            }])
            .unwrap();

        let dir = std::env::temp_dir().join("fg_delta_persist");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SummaryStore::open(&dir).unwrap());
        engine.persist_to(&store).unwrap();

        let current = engine.seeds().clone();
        let ctx = EstimationContext::new(&graph, &current).store(Arc::clone(&store));
        ctx.warm(&SummaryConfig::with_max_length(3)).unwrap();
        assert_eq!(ctx.summary_computations(), 0);
        assert_eq!(ctx.store_hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
