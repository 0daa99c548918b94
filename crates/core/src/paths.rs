//! Factorized path summation (Sections 4.4–4.6 of the paper).
//!
//! The estimators never touch the graph directly: they consume a handful of `k x k`
//! "observed statistics" matrices `P̂(ℓ)` that summarize how often classes co-occur at
//! the two ends of length-ℓ paths between labeled nodes. This module computes those
//! sketches:
//!
//! * the raw count matrices `M(ℓ) = Xᵀ W(ℓ) X` for plain paths and
//!   `M(ℓ)_NB = Xᵀ W(ℓ)_NB X` for **non-backtracking** paths, using the recurrence of
//!   Proposition 4.3 — `W(ℓ)_NB = W·W(ℓ-1)_NB − (D−I)·W(ℓ-2)_NB` — pushed through the
//!   thin `n x k` matrix `X` so no `n x n` intermediate is ever materialized
//!   (Algorithm 4.4, cost `O(m·k·ℓmax)`, Proposition 4.5);
//! * the normalized statistics `P̂(ℓ)` via any of the three normalization variants;
//! * the *explicit* (unfactorized) powers `Wℓ` / `W(ℓ)_NB`, used only by the Fig. 5b
//!   baseline that demonstrates why factorization matters.

use crate::error::{CoreError, Result};
use crate::lowrank_counts::lowrank_path_counts;
use crate::normalization::NormalizationVariant;
use fg_graph::{FactorConfig, Graph, LowRankFactor, SeedLabels};
use fg_sparse::{CsrMatrix, DenseMatrix, Threads};

/// Default factor rank when the low-rank backend is requested without an
/// explicit one (spec key `rank=` / `fg estimate --rank`). Chosen as the
/// smallest power of two at which the rank sweep matches exact-backend
/// accuracy on the paper's synthetic families.
pub const DEFAULT_LOWRANK_RANK: usize = 64;

/// Which engine produces the raw path-count matrices.
///
/// Both backends feed the identical normalization / estimation pipeline; they
/// differ only in how `M(ℓ)` is computed:
///
/// * [`Exact`](CountingBackend::Exact) — the paper's factorized summation through
///   the sparse adjacency (Algorithm 4.4), `O(m·k)` per length.
/// * [`LowRank`](CountingBackend::LowRank) — the recurrence pushed through a
///   rank-`r` spectral factor `W ≈ V·Λ·Vᵀ`; after the one-time eigensolve every
///   length costs `O(r²·k)` — independent of the edge count *and* the node
///   count. Exact at full rank, an approximation below it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountingBackend {
    /// Exact counting through the sparse adjacency matrix.
    Exact,
    /// Approximate counting through a rank-`r` spectral factor with the given
    /// solver parameters (see [`FactorConfig`]).
    LowRank(FactorConfig),
}

/// Configuration for graph summarization.
#[derive(Debug, Clone)]
pub struct SummaryConfig {
    /// Maximum path length `ℓmax` to summarize (the paper uses 5).
    pub max_length: usize,
    /// Count only non-backtracking paths (the consistent estimator of Theorem 4.1).
    pub non_backtracking: bool,
    /// Normalization variant applied to the raw counts.
    pub variant: NormalizationVariant,
    /// Which counting engine produces the raw counts.
    pub backend: CountingBackend,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        SummaryConfig {
            max_length: 5,
            non_backtracking: true,
            variant: NormalizationVariant::RowStochastic,
            backend: CountingBackend::Exact,
        }
    }
}

impl SummaryConfig {
    /// Convenience constructor with the given maximum path length.
    pub fn with_max_length(max_length: usize) -> Self {
        SummaryConfig {
            max_length,
            ..SummaryConfig::default()
        }
    }

    /// Convenience constructor for the low-rank backend at the given rank
    /// (solver defaults, default `ℓmax`).
    pub fn with_lowrank_rank(rank: usize) -> Self {
        SummaryConfig {
            backend: CountingBackend::LowRank(FactorConfig::with_rank(rank)),
            ..SummaryConfig::default()
        }
    }
}

/// The factorized graph representation: per path length `ℓ = 1..ℓmax`, the raw count
/// matrix `M(ℓ)` and its normalized form `P̂(ℓ)`.
#[derive(Debug, Clone)]
pub struct GraphSummary {
    /// Raw class-to-class path-count matrices, index 0 holds `ℓ = 1`.
    pub counts: Vec<DenseMatrix>,
    /// Normalized observed statistics matrices, index 0 holds `ℓ = 1`.
    pub statistics: Vec<DenseMatrix>,
    /// Number of classes.
    pub k: usize,
    /// Whether non-backtracking counting was used.
    pub non_backtracking: bool,
}

impl GraphSummary {
    /// The observed statistics matrix for path length `length` (1-based).
    pub fn statistic(&self, length: usize) -> Option<&DenseMatrix> {
        if length == 0 {
            None
        } else {
            self.statistics.get(length - 1)
        }
    }

    /// The raw count matrix for path length `length` (1-based).
    pub fn count(&self, length: usize) -> Option<&DenseMatrix> {
        if length == 0 {
            None
        } else {
            self.counts.get(length - 1)
        }
    }

    /// Maximum summarized path length.
    pub fn max_length(&self) -> usize {
        self.statistics.len()
    }
}

/// Subtract `diag(factors) * basis` from `out` in place: the degree correction of
/// the non-backtracking recurrence, fused into the recurrence buffer instead of
/// materializing the scaled matrix and a fresh difference. Per element this computes
/// `out - (basis * factor)` — the exact multiply-then-subtract sequence the previous
/// `sub(&scale_rows(..))` chain performed, so the results are bit-identical.
fn sub_scaled_rows(out: &mut DenseMatrix, basis: &DenseMatrix, factors: &[f64]) {
    for (i, &f) in factors.iter().enumerate() {
        for (o, &v) in out.row_mut(i).iter_mut().zip(basis.row(i).iter()) {
            *o -= v * f;
        }
    }
}

/// Count of `n x k` recurrence buffers allocated by [`run_recurrence`] since process
/// start. The recurrence preallocates a constant number of buffers (two, plus one
/// more in non-backtracking mode) and ping-pongs them across path lengths; tests
/// assert this counter's delta is independent of `ℓmax`, i.e. zero per-length heap
/// allocations. Not part of the supported API.
static N_BUFFER_ALLOCS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Read [`N_BUFFER_ALLOCS`] (test hook). Not part of the supported API.
#[doc(hidden)]
pub fn n_buffer_allocations() -> usize {
    N_BUFFER_ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

fn alloc_n_buffer(n: usize, k: usize) -> DenseMatrix {
    N_BUFFER_ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    DenseMatrix::zeros(n, k)
}

/// Fixed row-block size for the chunked `Xᵀ N` reduction. The chunk boundaries are a
/// property of the *data* (node count), never of the thread policy, which is what
/// makes the reduction bit-identical at any thread count: every run accumulates the
/// same per-chunk partials and merges them in the same order.
const SEED_TRANSPOSE_CHUNK_ROWS: usize = 4096;

/// Accumulate rows `range` of `M = Xᵀ N` into `m` (a zeroed `k x k` buffer): row `i`
/// of `N` is added to row `class(i)` for every labeled node `i` in the range, in node
/// order.
fn seed_transpose_partial_into(
    seeds: &SeedLabels,
    n_matrix: &DenseMatrix,
    range: std::ops::Range<usize>,
    m: &mut DenseMatrix,
) {
    for i in range {
        if let Some(c) = seeds.get(i) {
            let row = n_matrix.row(i);
            for (j, &v) in row.iter().enumerate() {
                m.add_at(c, j, v);
            }
        }
    }
}

/// Accumulate rows `range` of `M = Xᵀ N` into a fresh `k x k` partial.
fn seed_transpose_partial(
    seeds: &SeedLabels,
    n_matrix: &DenseMatrix,
    range: std::ops::Range<usize>,
) -> DenseMatrix {
    let k = seeds.k();
    let mut m = DenseMatrix::zeros(k, k);
    seed_transpose_partial_into(seeds, n_matrix, range, &mut m);
    m
}

/// Accumulate `M = Xᵀ N` where `X` is the one-hot seed matrix (serial entry point;
/// see [`seed_transpose_product_with`] for the reduction contract).
fn seed_transpose_product(seeds: &SeedLabels, n_matrix: &DenseMatrix) -> DenseMatrix {
    let mut scratch = DenseMatrix::zeros(seeds.k(), seeds.k());
    seed_transpose_product_with(seeds, n_matrix, Threads::Serial, &mut scratch)
}

/// `M = Xᵀ N` under a [`Threads`] policy, the last reduction of Algorithm 4.4.
///
/// The node range is split into fixed [`SEED_TRANSPOSE_CHUNK_ROWS`]-row chunks
/// (independent of the thread count); workers accumulate disjoint chunks into private
/// `k x k` partials and the partials are merged **in chunk order** on the calling
/// thread. Because both the per-chunk accumulation order and the merge order are
/// fixed by the data alone, the result is bit-identical at 1/2/4/auto threads — the
/// same guarantee the `W·N(ℓ-1)` kernels give. A single-chunk input (n ≤ 4096) takes
/// the exact serial path with no merge step at all.
///
/// `scratch` is a caller-owned `k x k` buffer the serial multi-chunk path reuses for
/// its per-chunk partials, so a summarize run allocates it once instead of once per
/// chunk per length. (The parallel path needs worker-private partials and ignores
/// it.) Chunk 0 accumulates straight into the output; later chunks accumulate into
/// the zeroed scratch and merge in chunk order — the exact partial-then-merge
/// arithmetic of before, so results are unchanged bit for bit.
fn seed_transpose_product_with(
    seeds: &SeedLabels,
    n_matrix: &DenseMatrix,
    threads: Threads,
    scratch: &mut DenseMatrix,
) -> DenseMatrix {
    let n = seeds.n();
    let k = seeds.k();
    let num_chunks = n.div_ceil(SEED_TRANSPOSE_CHUNK_ROWS).max(1);
    if num_chunks == 1 {
        return seed_transpose_partial(seeds, n_matrix, 0..n);
    }
    let chunk_range = |c: usize| {
        let start = c * SEED_TRANSPOSE_CHUNK_ROWS;
        start..(start + SEED_TRANSPOSE_CHUNK_ROWS).min(n)
    };
    let workers = threads.count_for(num_chunks);
    if workers <= 1 {
        debug_assert_eq!(scratch.shape(), (k, k));
        let mut m = DenseMatrix::zeros(k, k);
        seed_transpose_partial_into(seeds, n_matrix, chunk_range(0), &mut m);
        for c in 1..num_chunks {
            scratch.data_mut().fill(0.0);
            seed_transpose_partial_into(seeds, n_matrix, chunk_range(c), scratch);
            for (acc, &v) in m.data_mut().iter_mut().zip(scratch.data()) {
                *acc += v;
            }
        }
        return m;
    }
    // Workers pull chunk indices from the shared cell queue, which hands the
    // partials back in chunk order whichever worker computed which chunk.
    let partials = fg_sparse::run_ordered_cells(num_chunks, threads, |c| {
        Ok::<_, std::convert::Infallible>(seed_transpose_partial(seeds, n_matrix, chunk_range(c)))
    })
    .unwrap_or_else(|never| match never {});
    let mut iter = partials.into_iter();
    let mut m = iter.next().expect("at least one chunk");
    for partial in iter {
        for (acc, v) in m.data_mut().iter_mut().zip(partial.data()) {
            *acc += v;
        }
    }
    m
}

/// Validate the `(graph, seeds, max_length)` triple shared by every summarization
/// entry point (factorized, cached, explicit).
pub(crate) fn validate_summary_inputs(
    graph: &Graph,
    seeds: &SeedLabels,
    max_length: usize,
) -> Result<()> {
    if seeds.n() != graph.num_nodes() {
        return Err(CoreError::InvalidInput(format!(
            "seed labels cover {} nodes but graph has {}",
            seeds.n(),
            graph.num_nodes()
        )));
    }
    if max_length == 0 {
        return Err(CoreError::InvalidConfig(
            "max_length must be at least 1".into(),
        ));
    }
    Ok(())
}

/// Compute the raw class-to-class path-count matrices `M(1)..M(ℓmax)` (the
/// normalization-independent half of Algorithm 4.4) under a [`Threads`] policy.
///
/// Both halves of the per-length work run in parallel: the `W · N(ℓ-1)` products go
/// through the parallel sparse kernels and the `Xᵀ·N(ℓ)` reduction through the
/// chunked [`seed_transpose_product_with`] — each bit-identical to its serial
/// counterpart at any thread count, so the returned counts never depend on
/// `threads`. Only the element-wise degree corrections stay on the calling thread.
pub(crate) fn compute_path_counts(
    graph: &Graph,
    seeds: &SeedLabels,
    max_length: usize,
    non_backtracking: bool,
    threads: Threads,
) -> Result<Vec<DenseMatrix>> {
    // Rolling two-matrix window: batch callers keep `O(n·k)` peak memory, only
    // the incremental engine pays for retaining every intermediate (below).
    run_recurrence(graph, seeds, max_length, non_backtracking, threads, false)
        .map(|(counts, _)| counts)
}

/// [`compute_path_counts`] that also returns the per-length intermediates
/// `N(1)..N(ℓmax)` (each `n x k`, `N(ℓ) = W(ℓ) X`) — `O(ℓmax·n·k)` memory. The
/// incremental engine keeps these matrices alive so a seed mutation can be folded
/// in as a low-rank update instead of replaying the whole recurrence.
pub(crate) fn compute_path_counts_and_intermediates(
    graph: &Graph,
    seeds: &SeedLabels,
    max_length: usize,
    non_backtracking: bool,
    threads: Threads,
) -> Result<(Vec<DenseMatrix>, Vec<DenseMatrix>)> {
    run_recurrence(graph, seeds, max_length, non_backtracking, threads, true)
}

/// The shared recurrence driver. With `keep_intermediates` every `N(ℓ)` is
/// retained (as an independently owned clone) and returned; without it only the
/// constant set of recurrence buffers is ever alive. Identical arithmetic — and
/// therefore bit-identical counts — either way.
///
/// The buffers are allocated once up front and ping-ponged across path lengths via
/// `mem::swap` — the per-length `W·N(ℓ-1)` product overwrites a retired buffer
/// through [`CsrMatrix::spmm_dense_into`] and the non-backtracking degree correction
/// is fused in place, so the loop performs zero per-length heap allocations for `N`
/// buffers (tracked by [`n_buffer_allocations`]). Plain counting ping-pongs two
/// buffers; non-backtracking rotates a third so `N(ℓ-2)` stays intact while `N(ℓ)`
/// is built.
fn run_recurrence(
    graph: &Graph,
    seeds: &SeedLabels,
    max_length: usize,
    non_backtracking: bool,
    threads: Threads,
    keep_intermediates: bool,
) -> Result<(Vec<DenseMatrix>, Vec<DenseMatrix>)> {
    validate_summary_inputs(graph, seeds, max_length)?;
    let _span = fg_obs::Span::enter_with(
        "summarize",
        &[
            ("lmax", max_length as u64),
            ("k", seeds.k() as u64),
            ("nb", non_backtracking as u64),
        ],
    );
    let w = graph.adjacency();
    let n = graph.num_nodes();
    let k = seeds.k();
    let x = seeds.to_matrix();
    let mut scratch = DenseMatrix::zeros(k, k);

    let mut counts = Vec::with_capacity(max_length);
    let mut intermediates = Vec::new();

    // N(1) = W X for both counting modes, written into the first rolling buffer.
    let mut prev1 = alloc_n_buffer(n, k); // N(ℓ-1)
    w.spmm_dense_into(&x, threads, &mut prev1)?;
    counts.push(seed_transpose_product_with(
        seeds,
        &prev1,
        threads,
        &mut scratch,
    ));
    if keep_intermediates {
        intermediates.push(prev1.clone());
    }

    if max_length >= 2 {
        // Only the non-backtracking corrections touch the degrees.
        let (degrees, degrees_minus_one) = if non_backtracking {
            let d = graph.degrees();
            let dm1: Vec<f64> = d.iter().map(|&v| v - 1.0).collect();
            (d, dm1)
        } else {
            (Vec::new(), Vec::new())
        };
        let mut cur = alloc_n_buffer(n, k); // N(ℓ) under construction
        let mut prev2 = if non_backtracking && max_length >= 3 {
            Some(alloc_n_buffer(n, k)) // N(ℓ-2), needed intact by the correction
        } else {
            None
        };

        // N(2) = W N(1) (minus D X in non-backtracking mode).
        w.spmm_dense_into(&prev1, threads, &mut cur)?;
        if non_backtracking {
            sub_scaled_rows(&mut cur, &x, &degrees);
        }
        counts.push(seed_transpose_product_with(
            seeds,
            &cur,
            threads,
            &mut scratch,
        ));
        if keep_intermediates {
            intermediates.push(cur.clone());
        }
        // Rotate: prev2 <- N(1), prev1 <- N(2); the retired buffer lands in `cur`.
        if let Some(p2) = prev2.as_mut() {
            std::mem::swap(p2, &mut prev1);
        }
        std::mem::swap(&mut prev1, &mut cur);

        for _ell in 3..=max_length {
            // N(ℓ) = W N(ℓ-1) - (D - I) N(ℓ-2), overwriting the retired buffer.
            w.spmm_dense_into(&prev1, threads, &mut cur)?;
            if non_backtracking {
                let p2 = prev2.as_ref().expect("allocated above for NB mode");
                sub_scaled_rows(&mut cur, p2, &degrees_minus_one);
            }
            counts.push(seed_transpose_product_with(
                seeds,
                &cur,
                threads,
                &mut scratch,
            ));
            if keep_intermediates {
                intermediates.push(cur.clone());
            }
            if let Some(p2) = prev2.as_mut() {
                std::mem::swap(p2, &mut prev1);
            }
            std::mem::swap(&mut prev1, &mut cur);
        }
    }
    Ok((counts, intermediates))
}

/// Assemble a [`GraphSummary`] from precomputed raw counts by applying a
/// normalization variant (counts are variant-independent, so the same counts can back
/// any variant).
pub(crate) fn summary_from_counts(
    counts: Vec<DenseMatrix>,
    k: usize,
    non_backtracking: bool,
    variant: NormalizationVariant,
) -> GraphSummary {
    let statistics = counts.iter().map(|m| variant.apply(m)).collect();
    GraphSummary {
        counts,
        statistics,
        k,
        non_backtracking,
    }
}

/// Compute the factorized graph summary (Algorithm 4.4).
///
/// Runs in `O(m · k · ℓmax)` time and `O(n · k)` memory. Serial; see
/// [`summarize_with`] for the thread-parallel variant (bit-identical output).
pub fn summarize(
    graph: &Graph,
    seeds: &SeedLabels,
    config: &SummaryConfig,
) -> Result<GraphSummary> {
    summarize_with(graph, seeds, config, Threads::Serial)
}

/// [`summarize`] under a [`Threads`] policy: the `W · N(ℓ-1)` products run through the
/// parallel sparse kernels of `fg_sparse`. The parallel kernels are bit-identical to
/// the serial ones, so the returned summary never depends on the thread count — only
/// the wall-clock time does.
///
/// With [`CountingBackend::LowRank`] the spectral factor is computed inline (the
/// [`EstimationContext`](crate::EstimationContext) caches and persists factors
/// instead) and the counts come from the edge-count-independent factor-space
/// recurrence.
pub fn summarize_with(
    graph: &Graph,
    seeds: &SeedLabels,
    config: &SummaryConfig,
    threads: Threads,
) -> Result<GraphSummary> {
    let counts = match config.backend {
        CountingBackend::Exact => compute_path_counts(
            graph,
            seeds,
            config.max_length,
            config.non_backtracking,
            threads,
        )?,
        CountingBackend::LowRank(factor_config) => {
            validate_summary_inputs(graph, seeds, config.max_length)?;
            let factor = LowRankFactor::compute(graph, &factor_config, threads)?;
            lowrank_path_counts(&factor, seeds, config.max_length, config.non_backtracking)?
        }
    };
    Ok(summary_from_counts(
        counts,
        seeds.k(),
        config.non_backtracking,
        config.variant,
    ))
}

/// Explicitly compute the (dense-growing) adjacency power `Wℓ` with sparse-sparse
/// products. Only used by the Fig. 5b baseline and by tests — the cost grows roughly as
/// `O(m · d^(ℓ-1))`.
pub fn explicit_adjacency_power(graph: &Graph, length: usize) -> Result<CsrMatrix> {
    if length == 0 {
        return Ok(CsrMatrix::identity(graph.num_nodes()));
    }
    let w = graph.adjacency();
    let mut result = w.clone();
    for _ in 1..length {
        result = result.spmm(w)?;
    }
    Ok(result)
}

/// Explicitly compute the non-backtracking path-count matrix `W(ℓ)_NB` with the
/// recurrence of Proposition 4.3, materializing every `n x n` intermediate. Only used
/// for validation and the unfactorized baseline.
pub fn explicit_nb_power(graph: &Graph, length: usize) -> Result<CsrMatrix> {
    let w = graph.adjacency();
    let n = graph.num_nodes();
    match length {
        0 => return Ok(CsrMatrix::identity(n)),
        1 => return Ok(w.clone()),
        _ => {}
    }
    let d = graph.degree_matrix();
    let d_minus_i = graph.degree_minus_identity();
    let mut prev2 = w.clone(); // W(1)
    let mut prev1 = w.spmm(w)?.sub(&d)?; // W(2) = W^2 - D
    for _ in 3..=length {
        let next = w.spmm(&prev1)?.sub(&d_minus_i.spmm(&prev2)?)?;
        prev2 = prev1;
        prev1 = next;
    }
    Ok(prev1)
}

/// Compute the observed statistics matrix from an explicitly materialized path-count
/// matrix (the unfactorized evaluation order). Used to validate the factorized kernel
/// and as the slow baseline in the Fig. 5b reproduction.
pub fn statistics_from_explicit(
    power: &CsrMatrix,
    seeds: &SeedLabels,
    variant: NormalizationVariant,
) -> Result<DenseMatrix> {
    if power.rows() != seeds.n() {
        return Err(CoreError::InvalidInput(format!(
            "path-count matrix has {} rows but seed labels cover {} nodes",
            power.rows(),
            seeds.n()
        )));
    }
    let x = seeds.to_matrix();
    let wx = power.spmm_dense(&x)?;
    let m = seed_transpose_product(seeds, &wx);
    Ok(variant.apply(&m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{generate, GeneratorConfig, Graph, Labeling};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute-force count of non-backtracking paths of a given length between every pair
    /// of nodes, by depth-first enumeration. Exponential — tiny graphs only.
    fn brute_force_nb_counts(graph: &Graph, length: usize) -> DenseMatrix {
        let n = graph.num_nodes();
        let mut counts = DenseMatrix::zeros(n, n);
        // Enumerate walks (u0, u1, ..., u_length) with u_{j} != u_{j+2}.
        fn extend(
            graph: &Graph,
            path: &mut Vec<usize>,
            remaining: usize,
            counts: &mut DenseMatrix,
        ) {
            if remaining == 0 {
                let start = path[0];
                let end = *path.last().unwrap();
                counts.add_at(start, end, 1.0);
                return;
            }
            let last = *path.last().unwrap();
            let before = if path.len() >= 2 {
                Some(path[path.len() - 2])
            } else {
                None
            };
            for next in graph.neighbors(last).iter().map(|&v| v as usize) {
                if Some(next) == before {
                    continue; // backtracking step
                }
                path.push(next);
                extend(graph, path, remaining - 1, counts);
                path.pop();
            }
        }
        for start in 0..n {
            let mut path = vec![start];
            extend(graph, &mut path, length, &mut counts);
        }
        counts
    }

    fn small_graph() -> Graph {
        // A graph with cycles and a pendant: exercises both backtracking corrections.
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap()
    }

    #[test]
    fn nb_power_2_equals_w2_minus_d() {
        let g = small_graph();
        let w2 = explicit_adjacency_power(&g, 2).unwrap();
        let expected = w2.sub(&g.degree_matrix()).unwrap();
        let got = explicit_nb_power(&g, 2).unwrap();
        assert!(got.to_dense().approx_eq(&expected.to_dense(), 1e-12));
    }

    #[test]
    fn nb_recurrence_matches_brute_force() {
        let g = small_graph();
        for length in 1..=5 {
            let recurrence = explicit_nb_power(&g, length).unwrap().to_dense();
            let brute = brute_force_nb_counts(&g, length);
            assert!(
                recurrence.approx_eq(&brute, 1e-9),
                "length {length}: recurrence != brute force"
            );
        }
    }

    #[test]
    fn explicit_powers_match_dense_powers() {
        let g = small_graph();
        let dense_w = g.adjacency().to_dense();
        for length in 0..=4 {
            let explicit = explicit_adjacency_power(&g, length).unwrap().to_dense();
            let expected = dense_w.pow(length).unwrap();
            assert!(explicit.approx_eq(&expected, 1e-9));
        }
    }

    #[test]
    fn factorized_summary_matches_explicit_computation() {
        let g = small_graph();
        let labeling = Labeling::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let seeds = SeedLabels::fully_labeled(&labeling);
        let config = SummaryConfig {
            max_length: 4,
            non_backtracking: true,
            variant: NormalizationVariant::RowStochastic,
            backend: CountingBackend::Exact,
        };
        let summary = summarize(&g, &seeds, &config).unwrap();
        for length in 1..=4 {
            let explicit_power = explicit_nb_power(&g, length).unwrap();
            let expected =
                statistics_from_explicit(&explicit_power, &seeds, config.variant).unwrap();
            assert!(
                summary
                    .statistic(length)
                    .unwrap()
                    .approx_eq(&expected, 1e-9),
                "mismatch at length {length}"
            );
        }
    }

    #[test]
    fn factorized_full_paths_match_explicit_powers() {
        let g = small_graph();
        let labeling = Labeling::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let seeds = SeedLabels::fully_labeled(&labeling);
        let config = SummaryConfig {
            max_length: 4,
            non_backtracking: false,
            variant: NormalizationVariant::RowStochastic,
            backend: CountingBackend::Exact,
        };
        let summary = summarize(&g, &seeds, &config).unwrap();
        for length in 1..=4 {
            let explicit_power = explicit_adjacency_power(&g, length).unwrap();
            let expected =
                statistics_from_explicit(&explicit_power, &seeds, config.variant).unwrap();
            assert!(summary
                .statistic(length)
                .unwrap()
                .approx_eq(&expected, 1e-9));
        }
    }

    #[test]
    fn partial_labels_only_count_labeled_endpoints() {
        let g = small_graph();
        let seeds = SeedLabels::new(vec![Some(0), None, Some(1), None, None, Some(0)], 2).unwrap();
        let summary = summarize(&g, &seeds, &SummaryConfig::with_max_length(2)).unwrap();
        // Counts must equal the explicit computation restricted to labeled endpoints.
        let explicit = explicit_nb_power(&g, 2).unwrap();
        let expected =
            statistics_from_explicit(&explicit, &seeds, NormalizationVariant::RowStochastic)
                .unwrap();
        assert!(summary.statistic(2).unwrap().approx_eq(&expected, 1e-9));
    }

    #[test]
    fn summary_accessors() {
        let g = small_graph();
        let labeling = Labeling::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let seeds = SeedLabels::fully_labeled(&labeling);
        let summary = summarize(&g, &seeds, &SummaryConfig::with_max_length(3)).unwrap();
        assert_eq!(summary.max_length(), 3);
        assert_eq!(summary.k, 2);
        assert!(summary.non_backtracking);
        assert!(summary.statistic(0).is_none());
        assert!(summary.statistic(4).is_none());
        assert!(summary.count(1).is_some());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let g = small_graph();
        let wrong_seeds = SeedLabels::new(vec![Some(0), None], 2).unwrap();
        assert!(summarize(&g, &wrong_seeds, &SummaryConfig::default()).is_err());
        let labeling = Labeling::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let seeds = SeedLabels::fully_labeled(&labeling);
        assert!(summarize(&g, &seeds, &SummaryConfig::with_max_length(0)).is_err());
        let small_power = CsrMatrix::identity(3);
        assert!(statistics_from_explicit(
            &small_power,
            &seeds,
            NormalizationVariant::RowStochastic
        )
        .is_err());
    }

    #[test]
    fn nb_statistics_are_consistent_for_hl_on_balanced_graph() {
        // Theorem 4.1 / Example 4.2: on a fully labeled balanced graph, P̂(ℓ)_NB ≈ Hℓ
        // while the plain P̂(ℓ) overestimates the diagonal.
        let cfg = GeneratorConfig::balanced_uniform(3000, 20.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = SeedLabels::fully_labeled(&syn.labeling);
        let h2 = syn.planted_h.pow(2);

        let nb = summarize(
            &syn.graph,
            &seeds,
            &SummaryConfig {
                max_length: 2,
                non_backtracking: true,
                variant: NormalizationVariant::RowStochastic,
                backend: CountingBackend::Exact,
            },
        )
        .unwrap();
        let full = summarize(
            &syn.graph,
            &seeds,
            &SummaryConfig {
                max_length: 2,
                non_backtracking: false,
                variant: NormalizationVariant::RowStochastic,
                backend: CountingBackend::Exact,
            },
        )
        .unwrap();

        let nb_err = h2.frobenius_distance(nb.statistic(2).unwrap()).unwrap();
        let full_err = h2.frobenius_distance(full.statistic(2).unwrap()).unwrap();
        assert!(
            nb_err < full_err,
            "NB error {nb_err} should be below full-path error {full_err}"
        );
        // The plain estimator overestimates the diagonal relative to H².
        let full_stat = full.statistic(2).unwrap();
        let diag_bias: f64 = (0..3).map(|c| full_stat.get(c, c) - h2.get(c, c)).sum();
        assert!(
            diag_bias > 0.0,
            "expected positive diagonal bias, got {diag_bias}"
        );
    }

    #[test]
    fn length_one_statistics_approximate_h_on_fully_labeled_graph() {
        let cfg = GeneratorConfig::balanced_uniform(2000, 20.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = SeedLabels::fully_labeled(&syn.labeling);
        let summary = summarize(&syn.graph, &seeds, &SummaryConfig::with_max_length(1)).unwrap();
        let err = syn
            .planted_h
            .as_dense()
            .frobenius_distance(summary.statistic(1).unwrap())
            .unwrap();
        assert!(err < 0.1, "length-1 statistics should match H, error {err}");
    }
}
