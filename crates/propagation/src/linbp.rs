//! Linearized Belief Propagation (LinBP).
//!
//! LinBP (Gatterbauer et al., PVLDB 2015; Section 2.3 of the paper) replaces the
//! multiplicative update equations of loopy belief propagation with the linear system
//!
//! ```text
//! F ← X + W F Hε          (uncentered form, Eq. 4)
//! ```
//!
//! where `Hε = ε·H` and the scaling factor `ε` is chosen from the spectral radii of `W`
//! and the *centered* compatibility matrix `H̃` so that the iteration converges
//! (`ρ(εH̃) < 1/ρ(W)`, Eq. 2). Theorem 3.1 shows the final labels are identical whether
//! the centered residuals (`X̃`, `H̃`) or the raw matrices (`X`, `H`) are propagated, so
//! both modes are provided; the echo-cancellation term is omitted exactly as the paper
//! recommends.
//!
//! # Cost
//!
//! A run pays `ρ(W)` once per graph (memoized, see [`Graph::spectral_radius`]) and
//! then, per iteration, one SpMM `W·(F·Hε)` and an update that writes `F`, takes
//! the convergence delta and computes the next `F·Hε` — at three classes in one
//! pass over the rows (see [`propagate`]). Every result is bit-identical to the
//! plain three-step loop (`F·Hε`, the SpMM, then `X + ·`), kept as the oracle in
//! the crate's tests.

use crate::metrics;
use fg_graph::{Graph, GraphError, Labeling, Result, SeedLabels};
use fg_sparse::vector::MaxLanes;
use fg_sparse::{spectral_radius_dense, DenseMatrix, Span, Threads};

/// How aggressively to scale the compatibility matrix relative to the convergence
/// boundary (the paper's `s`; `s = 0.5` is the setting used in Section 5.3).
pub const DEFAULT_CONVERGENCE_FRACTION: f64 = 0.5;

/// Default number of propagation iterations (the paper labels with 10 iterations).
pub const DEFAULT_ITERATIONS: usize = 10;

/// Configuration for LinBP propagation.
#[derive(Debug, Clone)]
pub struct LinBpConfig {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Fraction `s` of the convergence boundary used for the scaling factor `ε`.
    pub convergence_fraction: f64,
    /// Propagate centered residuals (`X̃`, `H̃`) instead of the raw matrices. The final
    /// labels are identical (Theorem 3.1); the centered form also converges numerically.
    pub centered: bool,
    /// Optional early-stopping tolerance on the maximum absolute belief change.
    pub tolerance: Option<f64>,
    /// Optional explicit scaling factor `ε`; when set, the spectral-radius computation
    /// is skipped entirely.
    pub explicit_epsilon: Option<f64>,
    /// Thread policy for the sparse kernels. The parallel kernels are bit-identical
    /// to the serial ones, so this only changes wall-clock time, never the result.
    pub threads: Threads,
}

impl Default for LinBpConfig {
    fn default() -> Self {
        LinBpConfig {
            max_iterations: DEFAULT_ITERATIONS,
            convergence_fraction: DEFAULT_CONVERGENCE_FRACTION,
            centered: true,
            tolerance: Some(1e-6),
            explicit_epsilon: None,
            threads: Threads::Serial,
        }
    }
}

/// The outcome of a propagation run.
#[derive(Debug, Clone)]
pub struct PropagationResult {
    /// Final belief matrix `F` (`n x k`).
    pub beliefs: DenseMatrix,
    /// Predicted class per node (`argmax` of each belief row).
    pub predictions: Vec<usize>,
    /// Number of iterations actually executed.
    pub iterations: usize,
    /// Whether the early-stopping tolerance was reached before `max_iterations`.
    pub converged: bool,
    /// The scaling factor `ε` that was applied to `H`.
    pub epsilon: f64,
}

impl PropagationResult {
    /// End-to-end macro-averaged accuracy on the unlabeled nodes.
    pub fn accuracy(&self, truth: &Labeling, seeds: &SeedLabels) -> f64 {
        metrics::unlabeled_accuracy(&self.predictions, truth, seeds)
    }
}

/// Compute the convergence scaling factor `ε = s / (ρ(W)·ρ(H̃))` (Eq. 2).
///
/// Returns `ε = s` when either spectral radius is (numerically) zero, which only happens
/// for degenerate graphs with no edges or an exactly uniform compatibility matrix; in
/// both cases propagation is a no-op so any finite scaling works.
pub fn convergence_epsilon(graph: &Graph, h: &DenseMatrix, fraction: f64) -> Result<f64> {
    let rho_w = graph.spectral_radius()?;
    let h_centered = h.centered();
    let rho_h = spectral_radius_dense(&h_centered, 1000, 1e-10).map_err(GraphError::Sparse)?;
    if rho_w <= 1e-12 || rho_h <= 1e-12 {
        return Ok(fraction);
    }
    Ok(fraction / (rho_w * rho_h))
}

/// Run LinBP label propagation.
///
/// * `graph` — the undirected graph (`W`).
/// * `seeds` — the observed labels, encoded as explicit beliefs `X`.
/// * `h` — a `k x k` compatibility matrix (need not be centered).
/// * `config` — iteration and scaling parameters.
///
/// The iteration loop runs on three `n x k` buffers allocated once, under one
/// `linbp` span with args `iterations` and `converged`, so a trace splits a
/// propagation into `spectral_radius` (first use of the graph only) and the loop.
pub fn propagate(
    graph: &Graph,
    seeds: &SeedLabels,
    h: &DenseMatrix,
    config: &LinBpConfig,
) -> Result<PropagationResult> {
    if seeds.n() != graph.num_nodes() {
        return Err(GraphError::InvalidLabels(format!(
            "seed labels cover {} nodes but graph has {}",
            seeds.n(),
            graph.num_nodes()
        )));
    }
    if h.rows() != seeds.k() || h.cols() != seeds.k() {
        return Err(GraphError::InvalidCompatibility(format!(
            "H is {}x{} but k = {}",
            h.rows(),
            h.cols(),
            seeds.k()
        )));
    }
    let epsilon = match config.explicit_epsilon {
        Some(e) => e,
        None => convergence_epsilon(graph, h, config.convergence_fraction)?,
    };

    let (x, h_used) = if config.centered {
        (prior_residuals(seeds), h.centered())
    } else {
        (seeds.to_matrix(), h.clone())
    };
    let h_eff = h_used.scaled(epsilon);

    // F ← X + W (F Hε), on three n x k buffers allocated once: F, F·Hε and
    // W·(F·Hε). The inner product keeps everything n x k. Each iteration is one
    // SpMM and the `update` that writes F, takes the delta and the next F·Hε.
    let mut span = Span::enter("linbp");
    let w = graph.adjacency();
    let mut f = x.clone();
    let mut fh = DenseMatrix::zeros(f.rows(), f.cols());
    f.matmul_into(&h_eff, &mut fh).map_err(GraphError::Sparse)?;
    let mut wfh = DenseMatrix::zeros(f.rows(), f.cols());
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..config.max_iterations {
        w.spmm_dense_into(&fh, config.threads, &mut wfh)
            .map_err(GraphError::Sparse)?;
        let delta = update(&mut f, &x, &wfh, &h_eff, &mut fh).map_err(GraphError::Sparse)?;
        iterations += 1;
        if config.tolerance.is_some_and(|tol| delta <= tol) {
            converged = true;
            break;
        }
    }
    span.record("iterations", iterations as u64);
    span.record("converged", u64::from(converged));
    drop(span);

    let predictions = label(&f);
    Ok(PropagationResult {
        beliefs: f,
        predictions,
        iterations,
        converged,
        epsilon,
    })
}

/// The residual prior-belief matrix `X̃`: labeled nodes get a centered one-hot row
/// (`1 - 1/k` on their class, `-1/k` elsewhere), unlabeled nodes stay at zero.
pub(crate) fn prior_residuals(seeds: &SeedLabels) -> DenseMatrix {
    let k = seeds.k();
    let mut x = DenseMatrix::zeros(seeds.n(), k);
    for i in 0..seeds.n() {
        if let Some(c) = seeds.get(i) {
            for j in 0..k {
                x.set(
                    i,
                    j,
                    if j == c {
                        1.0 - 1.0 / k as f64
                    } else {
                        -1.0 / k as f64
                    },
                );
            }
        }
    }
    x
}

/// Assign each node the class with maximum belief (the paper's `label(F)` operation).
///
/// **Tie policy** (explicit and deterministic): ties are broken toward the **lowest
/// class index**. In particular a node whose belief row carries *no information* —
/// every entry exactly equal, e.g. an isolated node after the uniform fallback in
/// [`crate::harmonic::harmonic_functions`] / [`crate::random_walk::multi_rank_walk`],
/// or any node untouched by propagation — is always assigned class 0. That default
/// keeps `label` total (every node gets a class, required by the paper's accuracy
/// protocol) but systematically inflates class-0 recall when many nodes are
/// seed-unreachable. Callers that must not count such rows as confident class-0
/// predictions should use [`label_or_abstain`] together with the abstain-aware
/// metrics ([`crate::metrics::abstaining_unlabeled_accuracy`]), which treat them as
/// abstentions instead.
pub fn label(beliefs: &DenseMatrix) -> Vec<usize> {
    (0..beliefs.rows()).map(|i| beliefs.argmax_row(i)).collect()
}

/// [`label`] with an explicit no-information case: nodes whose belief row has every
/// entry exactly equal (uniform fallback rows, all-zero rows — any row where the
/// argmax would be decided purely by the tie policy across *all* classes) return
/// `None` instead of class 0.
///
/// Deterministic by construction: the outcome depends only on the belief values.
/// Rows with a partial tie (two of three classes tied at the top) still resolve to
/// the lowest tied index, exactly like [`label`] — only the total tie, which carries
/// no class signal at all, abstains.
pub fn label_or_abstain(beliefs: &DenseMatrix) -> Vec<Option<usize>> {
    (0..beliefs.rows())
        .map(|i| {
            let row = beliefs.row(i);
            let first = row.first().copied();
            if row.iter().all(|&v| Some(v) == first) {
                None
            } else {
                Some(beliefs.argmax_row(i))
            }
        })
        .collect()
}

/// One LinBP iteration after its SpMM: overwrite `f` with `x + wfh`, return the
/// largest absolute change of an entry, and write the next iteration's `f · h`
/// into `fh`.
///
/// The change is taken by a [`MaxLanes`]: `max` does not depend on order, so the
/// delta — and with it `iterations` and `converged` — equals a single
/// left-to-right chain. Three classes, the common case, take all three steps in
/// one pass over the rows ([`update_rows`]); any other width adds, then runs
/// [`DenseMatrix::matmul_into`], since a per-row product of runtime width costs
/// more than the pass it saves.
fn update(
    f: &mut DenseMatrix,
    x: &DenseMatrix,
    wfh: &DenseMatrix,
    h: &DenseMatrix,
    fh: &mut DenseMatrix,
) -> fg_sparse::Result<f64> {
    if h.cols() == 3 {
        let (f, x, wfh, fh) = (f.data_mut(), x.data(), wfh.data(), fh.data_mut());
        return Ok(update_rows::<3>(f, x, wfh, h.data(), fh));
    }
    let mut delta = MaxLanes::default();
    let entries = f.data_mut().iter_mut().zip(x.data()).zip(wfh.data());
    for (i, ((v, &a), &b)) in entries.enumerate() {
        let next = a + b;
        delta.offer(i, (*v - next).abs());
        *v = next;
    }
    f.matmul_into(h, fh)?;
    Ok(delta.max())
}

/// [`update`] in one pass over `K`-wide row-major rows (`h` is `K x K`), column
/// `j` in lane `j`. Each `fh` row is summed exactly as
/// [`DenseMatrix::matmul_into`] sums it: from `+0.0`, in `l` order, skipping the
/// terms whose `f` entry is `0.0`.
#[inline(always)]
fn update_rows<const K: usize>(
    f: &mut [f64],
    x: &[f64],
    wfh: &[f64],
    h: &[f64],
    fh: &mut [f64],
) -> f64 {
    let mut delta = MaxLanes::default();
    let rows = f.chunks_exact_mut(K).zip(x.chunks_exact(K));
    for ((f_row, x_row), (w_row, fh_row)) in
        rows.zip(wfh.chunks_exact(K).zip(fh.chunks_exact_mut(K)))
    {
        for (j, ((v, &a), &b)) in f_row.iter_mut().zip(x_row).zip(w_row).enumerate() {
            let next = a + b;
            delta.offer(j, (*v - next).abs());
            *v = next;
        }
        let mut acc = [0.0f64; K];
        for (&v, h_row) in f_row.iter().zip(h.chunks_exact(K)) {
            if v == 0.0 {
                continue;
            }
            for (o, &y) in acc.iter_mut().zip(h_row) {
                *o += v * y;
            }
        }
        fh_row.copy_from_slice(&acc);
    }
    delta.max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::CompatibilityMatrix;

    /// `update` reads the change of every entry: with one entry changed alone at
    /// each position in turn, the delta is that change, at three classes (the
    /// one-pass kernel) and at other widths; and `fh` is `f · h` bit for bit,
    /// written over a buffer of NaNs. An infinite entry of `h` makes every
    /// skipped `0.0 · ∞` term show as a NaN if it were taken.
    #[test]
    fn update_delta_sees_a_change_at_every_entry() {
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let n = 11;
        for k in [1, 2, 3, 4, 9] {
            let mut h =
                DenseMatrix::from_vec(k, k, (0..k * k).map(|i| 0.1 * i as f64 - 0.3).collect())
                    .unwrap();
            let x =
                DenseMatrix::from_vec(n, k, (0..n * k).map(|i| (i % 5) as f64 * 0.25).collect())
                    .unwrap();
            h.data_mut()[k * k - 1] = f64::INFINITY;
            for p in 0..n * k {
                let mut wfh = DenseMatrix::zeros(n, k);
                wfh.data_mut()[p] = 0.5;
                let mut f = x.clone();
                let mut fh = DenseMatrix::filled(n, k, f64::NAN);
                let delta = update(&mut f, &x, &wfh, &h, &mut fh).unwrap();
                assert_eq!(delta, 0.5, "k={k} p={p}");
                assert_eq!(bits(&fh), bits(&f.matmul(&h).unwrap()), "k={k} p={p}");
            }
        }
    }

    /// A small heterophilous graph: two "classes" arranged as a bipartite-ish structure.
    /// Nodes 0..3 are class 0, nodes 4..7 are class 1; edges mostly cross classes.
    fn bipartite_graph() -> (Graph, Labeling) {
        let edges = [
            (0, 4),
            (0, 5),
            (1, 4),
            (1, 6),
            (2, 5),
            (2, 7),
            (3, 6),
            (3, 7),
        ];
        let graph = Graph::from_edges(8, &edges).unwrap();
        let labeling = Labeling::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
        (graph, labeling)
    }

    fn heterophily_h() -> DenseMatrix {
        CompatibilityMatrix::from_rows(&[vec![0.1, 0.9], vec![0.9, 0.1]])
            .unwrap()
            .into_dense()
    }

    #[test]
    fn propagation_recovers_bipartite_classes() {
        let (graph, labeling) = bipartite_graph();
        let seeds = SeedLabels::new(
            vec![Some(0), None, None, None, Some(1), None, None, None],
            2,
        )
        .unwrap();
        let result = propagate(&graph, &seeds, &heterophily_h(), &LinBpConfig::default()).unwrap();
        let acc = result.accuracy(&labeling, &seeds);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn homophily_matrix_on_heterophilous_graph_fails() {
        // Using the wrong (homophilous) compatibilities on a heterophilous graph must
        // hurt accuracy — this is the paper's core motivation.
        let (graph, labeling) = bipartite_graph();
        let seeds = SeedLabels::new(
            vec![Some(0), None, None, None, Some(1), None, None, None],
            2,
        )
        .unwrap();
        let homophily = CompatibilityMatrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]])
            .unwrap()
            .into_dense();
        let good = propagate(&graph, &seeds, &heterophily_h(), &LinBpConfig::default()).unwrap();
        let bad = propagate(&graph, &seeds, &homophily, &LinBpConfig::default()).unwrap();
        assert!(good.accuracy(&labeling, &seeds) > bad.accuracy(&labeling, &seeds));
    }

    #[test]
    fn centering_does_not_change_labels() {
        // Theorem 3.1: labels are identical with centered and uncentered propagation.
        let (graph, _labeling) = bipartite_graph();
        let seeds = SeedLabels::new(
            vec![Some(0), None, None, Some(0), Some(1), None, Some(1), None],
            2,
        )
        .unwrap();
        let h = heterophily_h();
        let centered = propagate(
            &graph,
            &seeds,
            &h,
            &LinBpConfig {
                centered: true,
                tolerance: None,
                max_iterations: 8,
                ..LinBpConfig::default()
            },
        )
        .unwrap();
        let uncentered = propagate(
            &graph,
            &seeds,
            &h,
            &LinBpConfig {
                centered: false,
                tolerance: None,
                max_iterations: 8,
                ..LinBpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(centered.predictions, uncentered.predictions);
    }

    #[test]
    fn epsilon_respects_convergence_condition() {
        let (graph, _) = bipartite_graph();
        let h = heterophily_h();
        let eps = convergence_epsilon(&graph, &h, 0.5).unwrap();
        let rho_w = graph.spectral_radius().unwrap();
        let rho_h = spectral_radius_dense(&h.centered(), 1000, 1e-10).unwrap();
        // eps * rho_h must stay below 1 / rho_w with fraction 0.5.
        assert!(eps * rho_h < 1.0 / rho_w);
        assert!((eps * rho_h * rho_w - 0.5).abs() < 1e-9);
    }

    #[test]
    fn explicit_epsilon_is_used() {
        let (graph, _) = bipartite_graph();
        let seeds = SeedLabels::new(vec![Some(0); 8], 2).unwrap();
        let cfg = LinBpConfig {
            explicit_epsilon: Some(0.123),
            ..LinBpConfig::default()
        };
        let result = propagate(&graph, &seeds, &heterophily_h(), &cfg).unwrap();
        assert_eq!(result.epsilon, 0.123);
    }

    #[test]
    fn centered_propagation_converges() {
        let (graph, _) = bipartite_graph();
        let seeds = SeedLabels::new(
            vec![Some(0), None, None, None, Some(1), None, None, None],
            2,
        )
        .unwrap();
        let cfg = LinBpConfig {
            max_iterations: 200,
            tolerance: Some(1e-10),
            ..LinBpConfig::default()
        };
        let result = propagate(&graph, &seeds, &heterophily_h(), &cfg).unwrap();
        assert!(result.converged);
        assert!(result.iterations < 200);
    }

    #[test]
    fn dimension_validation() {
        let (graph, _) = bipartite_graph();
        let seeds_wrong_n = SeedLabels::new(vec![Some(0), None], 2).unwrap();
        assert!(propagate(
            &graph,
            &seeds_wrong_n,
            &heterophily_h(),
            &LinBpConfig::default()
        )
        .is_err());
        let seeds = SeedLabels::new(vec![None; 8], 2).unwrap();
        let wrong_h = DenseMatrix::zeros(3, 3);
        assert!(propagate(&graph, &seeds, &wrong_h, &LinBpConfig::default()).is_err());
    }

    #[test]
    fn no_seeds_gives_trivial_beliefs() {
        let (graph, _) = bipartite_graph();
        let seeds = SeedLabels::new(vec![None; 8], 2).unwrap();
        let result = propagate(&graph, &seeds, &heterophily_h(), &LinBpConfig::default()).unwrap();
        assert!(result.beliefs.max_abs() < 1e-12);
    }

    #[test]
    fn label_extracts_argmax() {
        let f = DenseMatrix::from_rows(&[vec![0.1, 0.9], vec![0.8, 0.2]]).unwrap();
        assert_eq!(label(&f), vec![1, 0]);
    }

    #[test]
    fn label_tie_policy_and_abstain_variant() {
        let f = DenseMatrix::from_rows(&[
            vec![0.1, 0.9, 0.0],    // informed: class 1
            vec![0.5, 0.5, 0.5],    // exactly uniform: tie policy says 0, abstain says None
            vec![0.0, 0.0, 0.0],    // all-zero (untouched by propagation): same treatment
            vec![0.4, 0.4, 0.2],    // partial tie: lowest tied index, no abstention
            vec![-0.2, -0.2, -0.2], // uniform negative residuals: no information
        ])
        .unwrap();
        // The documented deterministic tie policy: lowest class index.
        assert_eq!(label(&f), vec![1, 0, 0, 0, 0]);
        // The abstain-aware variant only differs on total ties.
        assert_eq!(
            label_or_abstain(&f),
            vec![Some(1), None, None, Some(0), None]
        );
    }

    #[test]
    fn example_c1_uncentered_labels_match_centered_even_when_diverging() {
        // Example C.1: with the h=8 matrix the uncentered iteration can diverge in
        // magnitude, but the per-iteration argmax labels still match the centered run.
        let (graph, _) = bipartite_graph();
        let seeds = SeedLabels::new(
            vec![Some(0), None, Some(0), None, Some(1), None, None, None],
            2,
        )
        .unwrap();
        let h = CompatibilityMatrix::from_rows(&[vec![0.1, 0.9], vec![0.9, 0.1]])
            .unwrap()
            .into_dense();
        // Scale slightly above the convergence threshold for the uncentered version.
        let eps = convergence_epsilon(&graph, &h, 1.18).unwrap();
        let centered = propagate(
            &graph,
            &seeds,
            &h,
            &LinBpConfig {
                explicit_epsilon: Some(eps),
                centered: true,
                tolerance: None,
                max_iterations: 15,
                ..LinBpConfig::default()
            },
        )
        .unwrap();
        let uncentered = propagate(
            &graph,
            &seeds,
            &h,
            &LinBpConfig {
                explicit_epsilon: Some(eps),
                centered: false,
                tolerance: None,
                max_iterations: 15,
                ..LinBpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(centered.predictions, uncentered.predictions);
        // The uncentered beliefs blow up in magnitude relative to the centered ones.
        assert!(uncentered.beliefs.max_abs() >= centered.beliefs.max_abs());
    }
}
