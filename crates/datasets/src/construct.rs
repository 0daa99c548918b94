//! Graph construction from raw feature matrices.
//!
//! Everything else in the workspace starts from an explicit edge list, but the
//! paper's estimation/propagation machinery is agnostic to where the graph comes
//! from. This module turns a dense `n x d` feature matrix into a [`Graph`], making
//! construction a sweepable, first-class pipeline stage:
//!
//! * [`KnnBuilder`] — exact brute-force k-nearest-neighbor graphs with a choice of
//!   [`Metric`] (euclidean / cosine), edge [`Weighting`] (binary / heat kernel /
//!   inverse distance), and [`Symmetrize`] policy (union / intersection / mutual).
//! * [`SparseRegBuilder`] — per-node l1-penalized reconstruction over a candidate
//!   neighbor set, solved by nonnegative coordinate descent; rows are normalized and
//!   then symmetrized, in the spirit of sparse affinity-graph learning.
//!
//! Both builders fan the per-node work out through
//! [`fg_sparse::run_ordered_cells`], and the result is **bit-identical at any
//! thread count**: every per-node computation depends only on its node index, and
//! the edge set is assembled serially in sorted order. Constructed graphs carry the
//! usual content [`Graph::fingerprint`], so they flow through the summary cache and
//! persistent store exactly like loaded ones.
//!
//! Builders are addressed by name or by a parameterized spec string in exactly the
//! format [`GraphBuilder::name`] renders — `Knn(k=10,metric=cosine,weighting=heat,
//! sym=union)` — mirroring the estimator and propagator registries.

use fg_graph::spec::{parse, put, Entry, Key, Kind, ParamError, Registry, SpecOptions};
use fg_graph::{Fingerprint, FingerprintBuilder, Graph, GraphError, Labeling, Result};
use fg_sparse::{run_ordered_cells, DenseMatrix, Threads};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Content fingerprint of a feature matrix: the shape plus every value's exact
/// `f64` bit pattern, domain-separated from the graph and seed fingerprints.
/// Together with a parameterized builder spec this addresses a *constructed*
/// graph by content — two processes loading byte-identical features and asking
/// for the same builder get the same key, so a persistent store can hand back
/// the finished graph instead of re-running the `O(n²·d)` build.
pub fn features_fingerprint(features: &DenseMatrix) -> Fingerprint {
    let mut h = FingerprintBuilder::new(b"fg-features-v1");
    h.write_usize(features.rows());
    h.write_usize(features.cols());
    for &v in features.data() {
        h.write_u64(v.to_bits());
    }
    h.finish()
}

/// Distance metric for the kNN builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Euclidean (l2) distance.
    #[default]
    Euclidean,
    /// Cosine distance `1 - cos(x, y)`; zero vectors are at distance 1 from
    /// everything.
    Cosine,
}

impl std::str::FromStr for Metric {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "euclidean" | "l2" => Ok(Metric::Euclidean),
            "cosine" | "cos" => Ok(Metric::Cosine),
            other => Err(format!(
                "unknown metric '{other}' (expected euclidean or cosine)"
            )),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Euclidean => write!(f, "euclidean"),
            Metric::Cosine => write!(f, "cosine"),
        }
    }
}

/// Edge-weight scheme for the kNN builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// Every kept edge has weight 1.
    #[default]
    Binary,
    /// Heat kernel `exp(-d^2 / (2 sigma^2))`. The bandwidth is the builder's
    /// `sigma` knob, or — when unset — the mean distance to each node's k-th
    /// neighbor (a deterministic, data-driven default).
    HeatKernel,
    /// Bounded inverse distance `1 / (1 + d)`.
    InverseDistance,
}

impl std::str::FromStr for Weighting {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "binary" => Ok(Weighting::Binary),
            "heat" | "heat-kernel" | "heatkernel" => Ok(Weighting::HeatKernel),
            "inverse" | "inverse-distance" | "inversedistance" => Ok(Weighting::InverseDistance),
            other => Err(format!(
                "unknown weighting '{other}' (expected binary, heat, or inverse)"
            )),
        }
    }
}

impl std::fmt::Display for Weighting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Weighting::Binary => write!(f, "binary"),
            Weighting::HeatKernel => write!(f, "heat"),
            Weighting::InverseDistance => write!(f, "inverse"),
        }
    }
}

/// How the directed nearest-neighbor (or reconstruction) weights become an
/// undirected graph. Writing `w(u→v)` for the directed weight (0 when absent):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Symmetrize {
    /// Keep an edge when **either** direction selected it; weight
    /// `max(w(u→v), w(v→u))`.
    #[default]
    Union,
    /// Keep an edge only when **both** directions selected it; weight
    /// `min(w(u→v), w(v→u))`.
    Intersection,
    /// Keep an edge only when both directions selected it; weight
    /// `(w(u→v) + w(v→u)) / 2`. For the kNN weightings (symmetric functions of
    /// the distance) this coincides with [`Symmetrize::Intersection`]; the
    /// sparse-regularized coefficients are genuinely asymmetric, so it differs
    /// there.
    Mutual,
}

impl std::str::FromStr for Symmetrize {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "union" => Ok(Symmetrize::Union),
            "intersection" | "inter" => Ok(Symmetrize::Intersection),
            "mutual" => Ok(Symmetrize::Mutual),
            other => Err(format!(
                "unknown symmetrization '{other}' (expected union, intersection, or mutual)"
            )),
        }
    }
}

impl std::fmt::Display for Symmetrize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Symmetrize::Union => write!(f, "union"),
            Symmetrize::Intersection => write!(f, "intersection"),
            Symmetrize::Mutual => write!(f, "mutual"),
        }
    }
}

/// A graph-construction backend: features in, [`Graph`] out.
pub trait GraphBuilder: Send + Sync {
    /// Build a graph over the rows of `features` (one node per row).
    fn build(&self, features: &DenseMatrix) -> Result<Graph>;

    /// Parameterized display name, parseable back through
    /// [`construction_by_name`].
    fn name(&self) -> String;
}

fn invalid(message: impl Into<String>) -> GraphError {
    GraphError::InvalidParameter(message.into())
}

/// Shared input validation: at least two rows, one column, all entries finite.
fn validate_features(features: &DenseMatrix) -> Result<()> {
    if features.rows() < 2 || features.cols() == 0 {
        return Err(invalid(format!(
            "feature matrix must be at least 2x1, got {}x{}",
            features.rows(),
            features.cols()
        )));
    }
    if let Some(pos) = features.data().iter().position(|v| !v.is_finite()) {
        return Err(invalid(format!(
            "feature matrix contains a non-finite value at row {}",
            pos / features.cols()
        )));
    }
    Ok(())
}

/// Squared euclidean distance between two feature rows.
fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The distance between feature rows `i` and `j`. Both metrics are symmetric
/// bit for bit (`(x − y)²` equals `(y − x)²`, and `x·y` equals `y·x`, summed in
/// the same order), so one evaluation serves both rows' lists.
fn pair_distance(features: &DenseMatrix, norms: &[f64], metric: Metric, i: usize, j: usize) -> f64 {
    let (xi, xj) = (features.row(i), features.row(j));
    match metric {
        Metric::Euclidean => euclidean_sq(xi, xj).sqrt(),
        Metric::Cosine => {
            // A zero row is at distance 1 from everything.
            let denom = norms[i] * norms[j];
            if denom == 0.0 {
                1.0
            } else {
                let dot: f64 = xi.iter().zip(xj).map(|(x, y)| x * y).sum();
                1.0 - dot / denom
            }
        }
    }
}

/// A neighbour candidate under the `(distance, node)` total order, which
/// breaks distance ties by node index so every selection is deterministic.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    distance: f64,
    node: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Candidate {}

/// One node's `k` smallest candidates so far: a max-heap whose root is the
/// candidate the next smaller offer evicts.
struct TopK {
    k: usize,
    /// The root's distance once the heap is full (infinite before): an offer
    /// farther than this is rejected without touching the heap.
    bound: f64,
    heap: BinaryHeap<Candidate>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            bound: f64::INFINITY,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    fn offer(&mut self, candidate: Candidate) {
        if candidate.distance > self.bound {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
        if self.heap.len() == self.k {
            self.bound = self.heap.peek().map_or(f64::INFINITY, |c| c.distance);
        }
    }

    /// The kept candidates as `(node, distance)`, nearest first.
    fn into_sorted(self) -> Vec<(usize, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.node, c.distance))
            .collect()
    }
}

/// Rows per side of a tile of the pair scan: a tile pair's feature rows stay
/// cache-resident while every pair between them is measured.
const PAIR_TILE: usize = 64;

/// Every node's `k` nearest other nodes as `(node, distance)`, nearest first
/// under the `(distance, node)` order. Each unordered pair's distance is
/// computed once, over the upper triangle in [`PAIR_TILE`]-row tiles, and
/// offered to both nodes' bounded lists. Tile rows are dealt to one stripe
/// per worker (back and forth, so the stripes get equal shares of the
/// triangle), each stripe fills its own lists, and the stripes' lists are
/// merged in stripe order. The k smallest under a total order do not depend on
/// the order they were offered in, so the lists are the same at any thread
/// count.
fn nearest_lists(
    features: &DenseMatrix,
    norms: &[f64],
    metric: Metric,
    k: usize,
    threads: Threads,
) -> Result<Vec<Vec<(usize, f64)>>> {
    let n = features.rows();
    let tiles = n.div_ceil(PAIR_TILE);
    let stripes = threads.count_for(tiles);
    let stripe_of = |tile: usize| {
        let (round, pos) = (tile / stripes, tile % stripes);
        if round % 2 == 0 {
            pos
        } else {
            stripes - 1 - pos
        }
    };
    let partial: Vec<Vec<TopK>> = run_ordered_cells(stripes, threads, |stripe| {
        let mut lists: Vec<TopK> = (0..n).map(|_| TopK::new(k)).collect();
        for ti in (0..tiles).filter(|&t| stripe_of(t) == stripe) {
            let rows = ti * PAIR_TILE..((ti + 1) * PAIR_TILE).min(n);
            for tj in ti..tiles {
                let cols = tj * PAIR_TILE..((tj + 1) * PAIR_TILE).min(n);
                for i in rows.clone() {
                    for j in cols.start.max(i + 1)..cols.end {
                        let distance = pair_distance(features, norms, metric, i, j);
                        lists[i].offer(Candidate { distance, node: j });
                        lists[j].offer(Candidate { distance, node: i });
                    }
                }
            }
        }
        Ok::<_, GraphError>(lists)
    })?;
    let mut partial = partial.into_iter();
    let mut lists = partial.next().unwrap_or_default();
    for stripe in partial {
        for (list, other) in lists.iter_mut().zip(stripe) {
            for candidate in other.heap {
                list.offer(candidate);
            }
        }
    }
    Ok(lists.into_iter().map(TopK::into_sorted).collect())
}

/// Fold per-node directed weights into an undirected edge list under a
/// [`Symmetrize`] policy. The output is sorted by `(u, v)`, each undirected edge
/// exactly once — deterministic no matter how the directed lists were produced.
fn symmetrized_edges(
    directed: &[Vec<(usize, f64)>],
    policy: Symmetrize,
) -> Vec<(usize, usize, f64)> {
    // Each directed weight keyed by its undirected pair; `u → v` (u < v) sorts
    // before `v → u`, and a node lists a neighbour at most once, so a pair's
    // group holds one or both directions in that order.
    let mut halves: Vec<(usize, usize, bool, f64)> = directed
        .iter()
        .enumerate()
        .flat_map(|(i, list)| {
            list.iter()
                .map(move |&(j, w)| (i.min(j), i.max(j), i > j, w))
        })
        .collect();
    halves.sort_unstable_by_key(|&(u, v, backward, _)| (u, v, backward));
    halves
        .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        .filter_map(|pair| {
            let w = match (policy, pair) {
                (Symmetrize::Union, [one]) => one.3,
                (Symmetrize::Union, [fwd, bwd]) => fwd.3.max(bwd.3),
                (Symmetrize::Intersection, [fwd, bwd]) => fwd.3.min(bwd.3),
                (Symmetrize::Mutual, [fwd, bwd]) => 0.5 * (fwd.3 + bwd.3),
                _ => return None,
            };
            (w > 0.0).then_some((pair[0].0, pair[0].1, w))
        })
        .collect()
}

/// Exact brute-force k-nearest-neighbor graph construction.
#[derive(Debug, Clone)]
pub struct KnnBuilder {
    /// Number of nearest neighbors per node (capped at `n - 1`).
    pub k: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Edge-weight scheme.
    pub weighting: Weighting,
    /// Symmetrization policy.
    pub symmetrize: Symmetrize,
    /// Heat-kernel bandwidth; `None` uses the mean k-th-neighbor distance.
    pub sigma: Option<f64>,
    /// Thread policy for the pair-distance scan (bit-identical output at any
    /// count).
    pub threads: Threads,
}

impl Default for KnnBuilder {
    fn default() -> Self {
        KnnBuilder {
            k: 10,
            metric: Metric::Euclidean,
            weighting: Weighting::Binary,
            symmetrize: Symmetrize::Union,
            sigma: None,
            threads: Threads::Serial,
        }
    }
}

impl KnnBuilder {
    /// Turn the `(node, distance)` neighbour lists into `(node, weight)` lists
    /// under the builder's [`Weighting`].
    fn weighted(&self, lists: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, f64)>> {
        // The heat-kernel bandwidth defaults to the mean k-th-neighbor distance,
        // reduced serially in node order — the same value at any thread count.
        let sigma = match (self.weighting, self.sigma) {
            (Weighting::HeatKernel, None) => {
                let mean: f64 = lists
                    .iter()
                    .map(|l| l.last().map_or(0.0, |&(_, d)| d))
                    .sum::<f64>()
                    / lists.len() as f64;
                if mean > 0.0 {
                    mean
                } else {
                    1.0
                }
            }
            (_, sigma) => sigma.unwrap_or(1.0),
        };
        lists
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&(j, d)| {
                        let w = match self.weighting {
                            Weighting::Binary => 1.0,
                            Weighting::HeatKernel => (-d * d / (2.0 * sigma * sigma)).exp(),
                            Weighting::InverseDistance => 1.0 / (1.0 + d),
                        };
                        (j, w)
                    })
                    .collect()
            })
            .collect()
    }
}

impl GraphBuilder for KnnBuilder {
    fn build(&self, features: &DenseMatrix) -> Result<Graph> {
        validate_features(features)?;
        if self.k == 0 {
            return Err(invalid("kNN construction needs k >= 1"));
        }
        if let Some(sigma) = self.sigma {
            if !sigma.is_finite() || sigma <= 0.0 {
                return Err(invalid(format!("sigma must be positive, got {sigma}")));
            }
        }
        let n = features.rows();
        let k = self.k.min(n - 1);
        let norms: Vec<f64> = match self.metric {
            Metric::Cosine => (0..n)
                .map(|i| features.row(i).iter().map(|v| v * v).sum::<f64>().sqrt())
                .collect(),
            Metric::Euclidean => Vec::new(),
        };
        let lists = nearest_lists(features, &norms, self.metric, k, self.threads)?;
        Graph::from_weighted_edges(
            n,
            &symmetrized_edges(&self.weighted(&lists), self.symmetrize),
        )
    }

    fn name(&self) -> String {
        let sigma = match self.sigma {
            Some(s) => format!(",sigma={s}"),
            None => String::new(),
        };
        format!(
            "Knn(k={},metric={},weighting={}{sigma},sym={})",
            self.k, self.metric, self.weighting, self.symmetrize
        )
    }
}

/// Sparse-regularized graph construction: each node's edge weights are the
/// nonnegative l1-penalized coefficients reconstructing its (l2-normalized)
/// feature row from its `k` candidate neighbors, solved by cyclic coordinate
/// descent, then row-normalized and symmetrized.
#[derive(Debug, Clone)]
pub struct SparseRegBuilder {
    /// Candidate-neighbor count (euclidean kNN over normalized rows).
    pub k: usize,
    /// l1 penalty on the reconstruction coefficients.
    pub alpha: f64,
    /// Coordinate-descent sweeps per node (with early exit on stagnation).
    pub iterations: usize,
    /// Symmetrization policy.
    pub symmetrize: Symmetrize,
    /// Thread policy for the per-node solves (bit-identical output at any count).
    pub threads: Threads,
}

impl Default for SparseRegBuilder {
    fn default() -> Self {
        SparseRegBuilder {
            k: 10,
            alpha: 0.1,
            iterations: 50,
            symmetrize: Symmetrize::Union,
            threads: Threads::Serial,
        }
    }
}

impl SparseRegBuilder {
    /// Solve `min_{w >= 0} 0.5 ||x - C w||^2 + alpha ||w||_1` by cyclic coordinate
    /// descent over the candidate columns. `gram[j][l] = c_j . c_l`, `corr[j] =
    /// c_j . x`. Deterministic: fixed cycle order, fixed sweep count, per-node
    /// stagnation test.
    fn solve(&self, gram: &[Vec<f64>], corr: &[f64]) -> Vec<f64> {
        let k = corr.len();
        let mut w = vec![0.0; k];
        for _ in 0..self.iterations {
            let mut max_change = 0.0f64;
            for j in 0..k {
                if gram[j][j] <= 0.0 {
                    continue;
                }
                // Gradient of the smooth part at w_j = 0, holding the others fixed.
                let residual: f64 = corr[j]
                    - (0..k)
                        .filter(|&l| l != j)
                        .map(|l| gram[j][l] * w[l])
                        .sum::<f64>();
                let updated = ((residual - self.alpha) / gram[j][j]).max(0.0);
                max_change = max_change.max((updated - w[j]).abs());
                w[j] = updated;
            }
            if max_change < 1e-12 {
                break;
            }
        }
        w
    }
}

/// The rows of `features` scaled to unit l2 norm (zero rows stay zero), so the
/// reconstruction problem is scale-free.
fn unit_rows(features: &DenseMatrix) -> DenseMatrix {
    let mut unit = features.clone();
    for i in 0..unit.rows() {
        let row = unit.row_mut(i);
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
    unit
}

impl GraphBuilder for SparseRegBuilder {
    fn build(&self, features: &DenseMatrix) -> Result<Graph> {
        validate_features(features)?;
        if self.k == 0 {
            return Err(invalid("sparse-regularized construction needs k >= 1"));
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(invalid(format!(
                "alpha must be non-negative, got {}",
                self.alpha
            )));
        }
        if self.iterations == 0 {
            return Err(invalid("sparse-regularized construction needs iters >= 1"));
        }
        let n = features.rows();
        let k = self.k.min(n - 1);
        let unit = unit_rows(features);
        let candidate_lists = nearest_lists(&unit, &[], Metric::Euclidean, k, self.threads)?;
        let directed: Vec<Vec<(usize, f64)>> = run_ordered_cells(n, self.threads, |i| {
            let candidates = &candidate_lists[i];
            let xi = unit.row(i);
            let m = candidates.len();
            let mut gram = vec![vec![0.0; m]; m];
            let mut corr = vec![0.0; m];
            for (a, &(ja, _)) in candidates.iter().enumerate() {
                let ca = unit.row(ja);
                corr[a] = ca.iter().zip(xi).map(|(x, y)| x * y).sum();
                for (b, &(jb, _)) in candidates.iter().enumerate().take(a + 1) {
                    let dot: f64 = ca.iter().zip(unit.row(jb)).map(|(x, y)| x * y).sum();
                    gram[a][b] = dot;
                    gram[b][a] = dot;
                }
            }
            let mut w = self.solve(&gram, &corr);
            let total: f64 = w.iter().sum();
            if total > 0.0 {
                for v in &mut w {
                    *v /= total;
                }
            }
            Ok::<_, GraphError>(
                candidates
                    .iter()
                    .zip(&w)
                    .filter(|&(_, &wv)| wv > 1e-12)
                    .map(|(&(j, _), &wv)| (j, wv))
                    .collect::<Vec<_>>(),
            )
        })?;
        Graph::from_weighted_edges(n, &symmetrized_edges(&directed, self.symmetrize))
    }

    fn name(&self) -> String {
        format!(
            "SparseReg(k={},alpha={},iters={},sym={})",
            self.k, self.alpha, self.iterations, self.symmetrize
        )
    }
}

/// Builder-agnostic configuration overrides understood by every registered
/// construction backend; keys a builder has no use for are ignored, mirroring
/// the estimator-registry option semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstructionOptions {
    /// Neighbor / candidate count (key `k`).
    pub k: Option<usize>,
    /// Distance metric (key `metric`; kNN only).
    pub metric: Option<Metric>,
    /// Edge weighting (key `weighting` / `w`; kNN only).
    pub weighting: Option<Weighting>,
    /// Symmetrization policy (key `sym` / `symmetrize`).
    pub symmetrize: Option<Symmetrize>,
    /// Heat-kernel bandwidth (key `sigma`; kNN only).
    pub sigma: Option<f64>,
    /// l1 penalty (key `alpha`; sparse-regularized only).
    pub alpha: Option<f64>,
    /// Coordinate-descent sweeps (key `iters`; sparse-regularized only).
    pub iterations: Option<usize>,
    /// Thread policy; results are bit-identical at any count.
    pub threads: Option<Threads>,
}

fn build_knn(opts: &ConstructionOptions) -> Box<dyn GraphBuilder> {
    let mut builder = KnnBuilder::default();
    if let Some(k) = opts.k {
        builder.k = k;
    }
    if let Some(metric) = opts.metric {
        builder.metric = metric;
    }
    if let Some(weighting) = opts.weighting {
        builder.weighting = weighting;
    }
    if let Some(symmetrize) = opts.symmetrize {
        builder.symmetrize = symmetrize;
    }
    if opts.sigma.is_some() {
        builder.sigma = opts.sigma;
    }
    if let Some(threads) = opts.threads {
        builder.threads = threads;
    }
    Box::new(builder)
}

fn build_sparse_reg(opts: &ConstructionOptions) -> Box<dyn GraphBuilder> {
    let mut builder = SparseRegBuilder::default();
    if let Some(k) = opts.k {
        builder.k = k;
    }
    if let Some(alpha) = opts.alpha {
        builder.alpha = alpha;
    }
    if let Some(iterations) = opts.iterations {
        builder.iterations = iterations;
    }
    if let Some(symmetrize) = opts.symmetrize {
        builder.symmetrize = symmetrize;
    }
    if let Some(threads) = opts.threads {
        builder.threads = threads;
    }
    Box::new(builder)
}

/// Every graph-construction backend, by name, alias or parameterized spec.
pub static BUILDERS: Registry<dyn GraphBuilder, ConstructionOptions> = Registry::new(
    "construction",
    "construction",
    &[
        Entry {
            name: "knn",
            aliases: &["k-nn", "nearest"],
            description:
                "Exact brute-force kNN graph (euclidean/cosine; binary/heat/inverse weights)",
            build: build_knn,
        },
        Entry {
            name: "sparsereg",
            aliases: &["sparse-reg", "sparse", "l1"],
            description: "Sparse-regularized graph: nonnegative l1 reconstruction per node",
            build: build_sparse_reg,
        },
    ],
);

/// The construction key table (keys of a `--builder` / `builder =` spec).
impl SpecOptions for ConstructionOptions {
    const KEYS: &'static [Key<ConstructionOptions>] = &[
        Key {
            name: "k",
            aliases: &[],
            kind: Kind::Count { max: 10_000 },
            help: "neighbor / candidate count",
            set: |o, v| put(&mut o.k, parse(v, "count")),
        },
        Key {
            name: "metric",
            aliases: &[],
            kind: Kind::Choice(&["euclidean", "cosine"]),
            help: "distance metric (kNN)",
            set: |o, v| put(&mut o.metric, v.parse().map_err(ParamError::Message)),
        },
        Key {
            name: "weighting",
            aliases: &["w"],
            kind: Kind::Choice(&["binary", "heat", "inverse"]),
            help: "edge weighting (kNN)",
            set: |o, v| put(&mut o.weighting, v.parse().map_err(ParamError::Message)),
        },
        Key {
            name: "sym",
            aliases: &["symmetrize"],
            kind: Kind::Choice(&["union", "intersection", "mutual"]),
            help: "symmetrization policy",
            set: |o, v| put(&mut o.symmetrize, v.parse().map_err(ParamError::Message)),
        },
        Key {
            name: "sigma",
            aliases: &[],
            kind: Kind::Number,
            help: "heat-kernel bandwidth (kNN)",
            set: |o, v| put(&mut o.sigma, parse(v, "number")),
        },
        Key {
            name: "alpha",
            aliases: &[],
            kind: Kind::Number,
            help: "l1 penalty (SparseReg)",
            set: |o, v| put(&mut o.alpha, parse(v, "number")),
        },
        Key {
            name: "iters",
            aliases: &["iterations"],
            kind: Kind::Count { max: 10_000 },
            help: "coordinate-descent sweeps (SparseReg)",
            set: |o, v| put(&mut o.iterations, parse(v, "count")),
        },
    ];
}

/// Build a construction backend from a name or parameterized spec string (e.g.
/// `"knn"`, `"Knn(k=10,metric=cosine)"`) with default options; use
/// `BUILDERS.by_spec` to supply other defaults.
pub fn construction_by_name(spec: &str) -> std::result::Result<Box<dyn GraphBuilder>, String> {
    BUILDERS.by_spec(spec, &ConstructionOptions::default())
}

/// Configuration for [`synthesize_blobs`]: isotropic Gaussian clusters, one per
/// class, on deterministic axis-aligned centers.
#[derive(Debug, Clone)]
pub struct BlobConfig {
    /// Number of points (nodes).
    pub nodes: usize,
    /// Number of classes (one blob each).
    pub classes: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Standard deviation of each blob around its center (centers sit at
    /// distance [`BlobConfig::SEPARATION`] from the origin).
    pub spread: f64,
    /// Per-class spread multiplier ramp: class 0 keeps `spread`, the last
    /// class's noise is `spread * spread_skew`, and classes in between
    /// interpolate linearly. `1.0` (the default) gives identical isotropic
    /// blobs; larger values make later classes progressively more diffuse —
    /// the heteroscedastic regime where distance-aware edge weightings
    /// outperform binary kNN.
    pub spread_skew: f64,
    /// RNG seed; fixed seeds give identical clouds.
    pub seed: u64,
}

impl BlobConfig {
    /// Distance of each blob center from the origin along its axis.
    pub const SEPARATION: f64 = 3.0;
}

impl Default for BlobConfig {
    fn default() -> Self {
        BlobConfig {
            nodes: 200,
            classes: 3,
            dims: 4,
            spread: 1.0,
            spread_skew: 1.0,
            seed: 0,
        }
    }
}

/// Synthesize a labeled Gaussian-blob feature cloud: class `c`'s center is
/// `SEPARATION * (1 + c / dims)` along axis `c % dims`, points are the center
/// plus Gaussian noise (Box–Muller over the seeded generator) scaled by
/// `spread` and the per-class [`BlobConfig::spread_skew`] ramp, and node `i`
/// belongs to class `i % classes`. Returns the `nodes x dims` feature matrix
/// and the full ground-truth labeling.
pub fn synthesize_blobs(config: &BlobConfig) -> Result<(DenseMatrix, Labeling)> {
    if config.nodes < config.classes || config.classes == 0 || config.dims == 0 {
        return Err(GraphError::InvalidGeneratorConfig(format!(
            "blob config needs nodes >= classes >= 1 and dims >= 1, \
             got nodes={}, classes={}, dims={}",
            config.nodes, config.classes, config.dims
        )));
    }
    if !config.spread.is_finite() || config.spread < 0.0 {
        return Err(GraphError::InvalidGeneratorConfig(format!(
            "blob spread must be non-negative, got {}",
            config.spread
        )));
    }
    if !config.spread_skew.is_finite() || config.spread_skew <= 0.0 {
        return Err(GraphError::InvalidGeneratorConfig(format!(
            "blob spread_skew must be positive, got {}",
            config.spread_skew
        )));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut gaussian = move || -> f64 {
        // Box–Muller; 1 - u is in (0, 1], so the log is finite.
        let u: f64 = rng.gen();
        let v: f64 = rng.gen();
        (-2.0 * (1.0 - u).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    };
    let class_spread = |class: usize| -> f64 {
        if config.classes < 2 {
            config.spread
        } else {
            let t = class as f64 / (config.classes - 1) as f64;
            config.spread * (1.0 + (config.spread_skew - 1.0) * t)
        }
    };
    let mut features = DenseMatrix::zeros(config.nodes, config.dims);
    let mut labels = Vec::with_capacity(config.nodes);
    for i in 0..config.nodes {
        let class = i % config.classes;
        let axis = class % config.dims;
        let center = BlobConfig::SEPARATION * (1.0 + (class / config.dims) as f64);
        let spread = class_spread(class);
        let row = features.row_mut(i);
        for (d, value) in row.iter_mut().enumerate() {
            let mean = if d == axis { center } else { 0.0 };
            *value = mean + spread * gaussian();
        }
        labels.push(class);
    }
    Ok((features, Labeling::new(labels, config.classes)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-row scan the pair-once build replaced, kept as its oracle: the
    /// k smallest `(distance, node)` pairs among `i`'s rows, ties broken by
    /// node index, each distance measured from row `i`'s side.
    fn nearest(
        features: &DenseMatrix,
        norms: &[f64],
        metric: Metric,
        i: usize,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let n = features.rows();
        let xi = features.row(i);
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n - 1);
        for j in 0..n {
            if j == i {
                continue;
            }
            let d = match metric {
                Metric::Euclidean => euclidean_sq(xi, features.row(j)).sqrt(),
                Metric::Cosine => {
                    let denom = norms[i] * norms[j];
                    if denom == 0.0 {
                        1.0
                    } else {
                        let dot: f64 = xi.iter().zip(features.row(j)).map(|(x, y)| x * y).sum();
                        1.0 - dot / denom
                    }
                }
            };
            dists.push((d, j));
        }
        let order = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if k < dists.len() {
            dists.select_nth_unstable_by(k, order);
            dists.truncate(k);
        }
        dists.sort_unstable_by(order);
        dists.into_iter().map(|(d, j)| (j, d)).collect()
    }

    /// The `HashMap` symmetrization the sorted fold replaced, kept as its
    /// oracle.
    fn symmetrized_edges_oracle(
        directed: &[Vec<(usize, f64)>],
        policy: Symmetrize,
    ) -> Vec<(usize, usize, f64)> {
        use std::collections::HashMap;
        let mut pairs: HashMap<(usize, usize), (Option<f64>, Option<f64>)> = HashMap::new();
        for (i, list) in directed.iter().enumerate() {
            for &(j, w) in list {
                let slot = pairs.entry((i.min(j), i.max(j))).or_insert((None, None));
                if i < j {
                    slot.0 = Some(w);
                } else {
                    slot.1 = Some(w);
                }
            }
        }
        let mut edges: Vec<(usize, usize, f64)> = pairs
            .into_iter()
            .filter_map(|((u, v), (fwd, bwd))| {
                let w = match policy {
                    Symmetrize::Union => match (fwd, bwd) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (Some(a), None) | (None, Some(a)) => Some(a),
                        (None, None) => None,
                    },
                    Symmetrize::Intersection => fwd.zip(bwd).map(|(a, b)| a.min(b)),
                    Symmetrize::Mutual => fwd.zip(bwd).map(|(a, b)| 0.5 * (a + b)),
                }?;
                (w > 0.0).then_some((u, v, w))
            })
            .collect();
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        edges
    }

    fn row_norms(x: &DenseMatrix) -> Vec<f64> {
        (0..x.rows())
            .map(|i| x.row(i).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect()
    }

    fn edge_bits(g: &Graph) -> Vec<(usize, usize, u64)> {
        g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect()
    }

    fn blob_features(nodes: usize, spread: f64, seed: u64) -> DenseMatrix {
        synthesize_blobs(&BlobConfig {
            nodes,
            spread,
            seed,
            ..BlobConfig::default()
        })
        .unwrap()
        .0
    }

    #[test]
    fn knn_graph_is_valid_and_deterministic() {
        let x = blob_features(60, 0.8, 1);
        let builder = KnnBuilder::default();
        let g = builder.build(&x).unwrap();
        assert_eq!(g.num_nodes(), 60);
        assert!(g.num_edges() >= 60 * 10 / 2, "{} edges", g.num_edges());
        // Symmetric CSR, zero diagonal, no negative weights.
        assert!(g.adjacency().is_symmetric(0.0));
        assert!(g.adjacency().diagonal().iter().all(|&d| d == 0.0));
        assert!(g.edges().all(|(_, _, w)| w > 0.0));
        // Re-running reproduces the exact graph (same fingerprint).
        let again = builder.build(&x).unwrap();
        assert_eq!(g.fingerprint(), again.fingerprint());
    }

    #[test]
    fn knn_is_bit_identical_across_thread_counts() {
        let x = blob_features(80, 1.2, 3);
        for weighting in [
            Weighting::Binary,
            Weighting::HeatKernel,
            Weighting::InverseDistance,
        ] {
            let serial = KnnBuilder {
                weighting,
                ..KnnBuilder::default()
            };
            let baseline = serial.build(&x).unwrap();
            for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
                let parallel = KnnBuilder {
                    threads,
                    ..serial.clone()
                }
                .build(&x)
                .unwrap();
                assert_eq!(
                    baseline.fingerprint(),
                    parallel.fingerprint(),
                    "{weighting:?} {threads:?}"
                );
            }
        }
    }

    /// Blob rows with heavy duplication (every even row j copies row j % 5,
    /// so rows 10, 20 and 30 equal row 0) and two all-zero rows, so distance
    /// ties (and cosine's zero-norm distance 1) must be broken by index.
    fn tied_features() -> DenseMatrix {
        let mut x = blob_features(40, 1.0, 9);
        for j in (0..40).step_by(2) {
            let source = x.row(j % 5).to_vec();
            x.row_mut(j).copy_from_slice(&source);
        }
        for j in [11, 29] {
            x.row_mut(j).fill(0.0);
        }
        x
    }

    #[test]
    fn nearest_selection_matches_a_full_sort() {
        use std::collections::BTreeSet;
        let x = tied_features();
        let n = x.rows();
        let norms = row_norms(&x);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            for i in 0..n {
                // At k = n − 1 nothing is selected away: the list is the full
                // sort of every other node, the order the selection must keep.
                let full = nearest(&x, &norms, metric, i, n - 1);
                assert_eq!(full.len(), n - 1);
                assert!(full.iter().all(|&(j, _)| j != i));
                let bits = |list: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    list.iter().map(|&(j, d)| (j, d.to_bits())).collect()
                };
                let ascending = |a: &(usize, f64), b: &(usize, f64)| {
                    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)).is_lt()
                };
                assert!(full.windows(2).all(|w| ascending(&w[0], &w[1])));
                for k in 1..n {
                    let got = nearest(&x, &norms, metric, i, k);
                    assert_eq!(bits(&got), bits(&full[..k]), "{metric:?} node {i} k {k}");
                }
            }
        }
        // The tied rows really tie: node 0 has three duplicates at distance 0.
        let ties = nearest(&x, &norms, Metric::Euclidean, 0, n - 1);
        assert_eq!(ties.iter().filter(|&&(_, d)| d == 0.0).count(), 3);

        // Built graphs carry exactly the full-sort neighbour lists (binary
        // union), at k inside the range and at k ≥ n − 1, serial and 4-thread.
        for k in [1, 5, n - 1, n + 10] {
            let mut want = BTreeSet::new();
            for i in 0..n {
                for &(j, _) in &nearest(&x, &[], Metric::Euclidean, i, n - 1)[..k.min(n - 1)] {
                    want.insert((i.min(j), i.max(j)));
                }
            }
            for threads in [Threads::Serial, Threads::Fixed(4)] {
                let g = KnnBuilder {
                    k,
                    threads,
                    ..KnnBuilder::default()
                }
                .build(&x)
                .unwrap();
                let got: BTreeSet<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
                assert_eq!(got, want, "k {k} {threads:?}");
            }
        }
    }

    /// The pair-once lists and the graphs built from them equal the per-row
    /// oracle's byte for byte: both metrics, every weighting and
    /// symmetrization, k inside the range and at or past n − 1, tied and
    /// zero rows, 1, 2 and 4 threads.
    #[test]
    fn pair_once_build_matches_the_per_row_oracle() {
        // 150 rows make three tiles of the pair scan, so stripes share work.
        let mut x = tied_features();
        let blobs = blob_features(110, 1.3, 21);
        x = DenseMatrix::from_vec(
            150,
            x.cols(),
            x.data().iter().chain(blobs.data()).copied().collect(),
        )
        .unwrap();
        let n = x.rows();
        assert!(n > 2 * PAIR_TILE);
        let norms = row_norms(&x);
        let bits = |list: &[(usize, f64)]| -> Vec<(usize, u64)> {
            list.iter().map(|&(j, d)| (j, d.to_bits())).collect()
        };
        for metric in [Metric::Euclidean, Metric::Cosine] {
            for k in [1, 5, n - 1, n + 10] {
                let kk = k.min(n - 1);
                let oracle: Vec<_> = (0..n).map(|i| nearest(&x, &norms, metric, i, kk)).collect();
                for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(4)] {
                    let lists = nearest_lists(&x, &norms, metric, kk, threads).unwrap();
                    for i in 0..n {
                        assert_eq!(
                            bits(&lists[i]),
                            bits(&oracle[i]),
                            "{metric:?} k {k} node {i}"
                        );
                    }
                }
                for weighting in [
                    Weighting::Binary,
                    Weighting::HeatKernel,
                    Weighting::InverseDistance,
                ] {
                    for symmetrize in [
                        Symmetrize::Union,
                        Symmetrize::Intersection,
                        Symmetrize::Mutual,
                    ] {
                        let builder = KnnBuilder {
                            k,
                            metric,
                            weighting,
                            symmetrize,
                            ..KnnBuilder::default()
                        };
                        let edges =
                            symmetrized_edges_oracle(&builder.weighted(&oracle), symmetrize);
                        let want = Graph::from_weighted_edges(n, &edges).unwrap();
                        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(4)] {
                            let got = KnnBuilder {
                                threads,
                                ..builder.clone()
                            }
                            .build(&x)
                            .unwrap();
                            let case = format!("{} {threads:?}", builder.name());
                            assert_eq!(edge_bits(&got), edge_bits(&want), "{case}");
                            assert_eq!(got.fingerprint(), want.fingerprint(), "{case}");
                        }
                    }
                }
            }
        }
        // SparseReg's candidates are the euclidean lists over unit rows.
        let unit = unit_rows(&x);
        for k in [1, 10, n - 1] {
            for threads in [Threads::Serial, Threads::Fixed(4)] {
                let lists = nearest_lists(&unit, &[], Metric::Euclidean, k, threads).unwrap();
                for (i, list) in lists.iter().enumerate() {
                    let want = nearest(&unit, &[], Metric::Euclidean, i, k);
                    assert_eq!(bits(list), bits(&want), "k {k} {threads:?} node {i}");
                }
            }
        }
        // The sorted fold equals the HashMap fold on the asymmetric SparseReg
        // weights too, where mutual and intersection differ.
        for symmetrize in [
            Symmetrize::Union,
            Symmetrize::Intersection,
            Symmetrize::Mutual,
        ] {
            let directed: Vec<Vec<(usize, f64)>> = (0..n)
                .map(|i| {
                    nearest(&unit, &[], Metric::Euclidean, i, 7)
                        .into_iter()
                        .map(|(j, d)| (j, 1.0 / (1.0 + d + (i % 3) as f64)))
                        .collect()
                })
                .collect();
            let got = symmetrized_edges(&directed, symmetrize);
            let want = symmetrized_edges_oracle(&directed, symmetrize);
            let bits = |e: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
                e.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{symmetrize:?}");
        }
    }

    #[test]
    fn sparse_reg_is_bit_identical_across_thread_counts() {
        let x = blob_features(60, 1.0, 5);
        let serial = SparseRegBuilder::default();
        let baseline = serial.build(&x).unwrap();
        assert!(baseline.adjacency().is_symmetric(0.0));
        assert!(baseline.adjacency().diagonal().iter().all(|&d| d == 0.0));
        assert!(baseline.edges().all(|(_, _, w)| w > 0.0));
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            let parallel = SparseRegBuilder {
                threads,
                ..serial.clone()
            }
            .build(&x)
            .unwrap();
            assert_eq!(
                baseline.fingerprint(),
                parallel.fingerprint(),
                "{threads:?}"
            );
        }
    }

    #[test]
    fn metrics_and_weightings_change_the_graph() {
        let x = blob_features(50, 1.0, 7);
        let base = KnnBuilder::default().build(&x).unwrap();
        let cosine = KnnBuilder {
            metric: Metric::Cosine,
            ..KnnBuilder::default()
        }
        .build(&x)
        .unwrap();
        assert_ne!(base.fingerprint(), cosine.fingerprint());
        let heat = KnnBuilder {
            weighting: Weighting::HeatKernel,
            ..KnnBuilder::default()
        }
        .build(&x)
        .unwrap();
        assert_ne!(base.fingerprint(), heat.fingerprint());
        // Heat-kernel weights are in (0, 1]; an explicit sigma changes them.
        assert!(heat.edges().all(|(_, _, w)| w > 0.0 && w <= 1.0));
        let heat_sigma = KnnBuilder {
            weighting: Weighting::HeatKernel,
            sigma: Some(0.25),
            ..KnnBuilder::default()
        }
        .build(&x)
        .unwrap();
        assert_ne!(heat.fingerprint(), heat_sigma.fingerprint());
    }

    #[test]
    fn symmetrization_policies_nest() {
        let x = blob_features(70, 1.5, 11);
        let edges_of = |sym: Symmetrize| {
            KnnBuilder {
                symmetrize: sym,
                k: 5,
                ..KnnBuilder::default()
            }
            .build(&x)
            .unwrap()
        };
        let union = edges_of(Symmetrize::Union);
        let inter = edges_of(Symmetrize::Intersection);
        let mutual = edges_of(Symmetrize::Mutual);
        // Intersection and mutual keep a subset of the union's edges.
        assert!(inter.num_edges() <= union.num_edges());
        assert!(inter.num_edges() < union.num_edges() || union.num_edges() == 0);
        for (u, v, _) in inter.edges() {
            assert!(union.has_edge(u, v));
        }
        // For distance-symmetric kNN weights, intersection == mutual.
        assert_eq!(inter.fingerprint(), mutual.fingerprint());
        // The sparse-regularized weights are asymmetric, so the policies differ.
        let sr = |sym: Symmetrize| {
            SparseRegBuilder {
                symmetrize: sym,
                ..SparseRegBuilder::default()
            }
            .build(&x)
            .unwrap()
        };
        assert_ne!(
            sr(Symmetrize::Intersection).fingerprint(),
            sr(Symmetrize::Mutual).fingerprint()
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let tiny = DenseMatrix::zeros(1, 3);
        assert!(KnnBuilder::default().build(&tiny).is_err());
        let mut nan = DenseMatrix::zeros(4, 2);
        nan.set(2, 1, f64::NAN);
        assert!(KnnBuilder::default().build(&nan).is_err());
        assert!(SparseRegBuilder::default().build(&nan).is_err());
        let x = blob_features(20, 1.0, 1);
        assert!(KnnBuilder {
            k: 0,
            ..KnnBuilder::default()
        }
        .build(&x)
        .is_err());
        assert!(KnnBuilder {
            sigma: Some(-1.0),
            ..KnnBuilder::default()
        }
        .build(&x)
        .is_err());
        assert!(SparseRegBuilder {
            alpha: f64::NAN,
            ..SparseRegBuilder::default()
        }
        .build(&x)
        .is_err());
        assert!(SparseRegBuilder {
            iterations: 0,
            ..SparseRegBuilder::default()
        }
        .build(&x)
        .is_err());
        let skewed = |spread_skew| BlobConfig {
            spread_skew,
            ..BlobConfig::default()
        };
        assert!(synthesize_blobs(&skewed(0.0)).is_err());
        assert!(synthesize_blobs(&skewed(-2.0)).is_err());
        assert!(synthesize_blobs(&skewed(f64::NAN)).is_err());
    }

    #[test]
    fn features_fingerprint_is_content_addressed() {
        let a = blob_features(40, 1.0, 1);
        let b = blob_features(40, 1.0, 1);
        assert_eq!(features_fingerprint(&a), features_fingerprint(&b));
        // A single flipped bit changes the key.
        let mut c = a.clone();
        c.set(3, 1, f64::from_bits(c.get(3, 1).to_bits() ^ 1));
        assert_ne!(features_fingerprint(&a), features_fingerprint(&c));
        // Shape is part of the key even when the flattened data agrees.
        let flat = DenseMatrix::from_vec(2, 6, vec![0.0; 12]).unwrap();
        let tall = DenseMatrix::from_vec(6, 2, vec![0.0; 12]).unwrap();
        assert_ne!(features_fingerprint(&flat), features_fingerprint(&tall));
    }

    #[test]
    fn registry_round_trips_every_builder_name() {
        for spec in BUILDERS.entries() {
            let built = (spec.build)(&ConstructionOptions::default());
            let name = built.name();
            let rebuilt = construction_by_name(&name)
                .unwrap_or_else(|e| panic!("name '{name}' failed to parse: {e}"));
            assert_eq!(rebuilt.name(), name, "round trip changed the builder");
        }
        assert_eq!(BUILDERS.names(), vec!["knn", "sparsereg"]);
        assert_eq!(BUILDERS.canonical("Knn"), Some("knn"));
        assert_eq!(BUILDERS.canonical("sparse-reg"), Some("sparsereg"));
        assert_eq!(BUILDERS.canonical("l1"), Some("sparsereg"));
        assert_eq!(BUILDERS.canonical("nope"), None);
    }

    #[test]
    fn parameterized_specs_apply_overrides() {
        let b = construction_by_name("Knn(k=7,metric=cosine,weighting=heat,sym=mutual)").unwrap();
        assert_eq!(b.name(), "Knn(k=7,metric=cosine,weighting=heat,sym=mutual)");
        let b = construction_by_name("knn(sigma=0.5,weighting=heat)").unwrap();
        assert_eq!(
            b.name(),
            "Knn(k=10,metric=euclidean,weighting=heat,sigma=0.5,sym=union)"
        );
        let b = construction_by_name("SparseReg(k=6,alpha=0.05,iters=20)").unwrap();
        assert_eq!(b.name(), "SparseReg(k=6,alpha=0.05,iters=20,sym=union)");
        // Defaults fill unspecified keys; spec keys win.
        let defaults = ConstructionOptions {
            k: Some(4),
            symmetrize: Some(Symmetrize::Mutual),
            ..ConstructionOptions::default()
        };
        let b = BUILDERS.by_spec("knn(k=9)", &defaults).unwrap();
        assert_eq!(
            b.name(),
            "Knn(k=9,metric=euclidean,weighting=binary,sym=mutual)"
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_messages() {
        let err_of = |spec: &str| construction_by_name(spec).map(|_| ()).unwrap_err();
        assert!(err_of("nope").contains("unknown construction method"));
        assert!(err_of("knn(k=10").contains("unterminated"));
        assert!(err_of("knn(k)").contains("key=value"));
        assert!(err_of("knn(k=lots)").contains("invalid"));
        assert!(err_of("knn(frobs=1)").contains("unknown construction parameter"));
        assert!(err_of("knn(metric=manhattan)").contains("unknown metric"));
        assert!(err_of("knn(weighting=wishful)").contains("unknown weighting"));
        assert!(err_of("knn(sym=sideways)").contains("unknown symmetrization"));
        assert_eq!(
            err_of("knn(sigma=wide)"),
            "construction parameter 'sigma' has invalid number 'wide'"
        );
    }

    #[test]
    fn blobs_are_deterministic_and_separable() {
        let config = BlobConfig {
            nodes: 90,
            classes: 3,
            dims: 4,
            spread: 0.5,
            spread_skew: 1.0,
            seed: 9,
        };
        let (xa, la) = synthesize_blobs(&config).unwrap();
        let (xb, lb) = synthesize_blobs(&config).unwrap();
        assert_eq!(xa.data(), xb.data());
        assert_eq!(la.as_slice(), lb.as_slice());
        assert_eq!(xa.shape(), (90, 4));
        assert_eq!(la.k(), 3);
        // With tight blobs, most kNN edges connect same-class nodes.
        let g = KnnBuilder {
            k: 5,
            ..KnnBuilder::default()
        }
        .build(&xa)
        .unwrap();
        let same = g
            .edges()
            .filter(|&(u, v, _)| la.as_slice()[u] == la.as_slice()[v])
            .count();
        assert!(same * 10 >= g.num_edges() * 9, "{same}/{}", g.num_edges());
        // Invalid configs error.
        assert!(synthesize_blobs(&BlobConfig {
            classes: 0,
            ..config.clone()
        })
        .is_err());
        assert!(synthesize_blobs(&BlobConfig {
            spread: -1.0,
            ..config.clone()
        })
        .is_err());
        assert!(synthesize_blobs(&BlobConfig { dims: 0, ..config }).is_err());
    }
}
