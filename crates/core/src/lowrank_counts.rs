//! Path counting through a low-rank spectral factor (the `V·Λ·Vᵀ` backend).
//!
//! Substituting the rank-`r` factorization `W ≈ V·Λ·Vᵀ` into the recurrences of
//! Proposition 4.3 collapses every per-length product to **factor space**: with
//! `Y = VᵀX` (`r x k`) the plain-path intermediate becomes
//! `VᵀN(ℓ) ≈ Λ·VᵀN(ℓ-1)` and the non-backtracking one
//! `VᵀN(ℓ) ≈ Λ·VᵀN(ℓ-1) − G·VᵀN(ℓ-2)` where `G = Vᵀ(D−I)V` is precomputed once
//! inside the [`LowRankFactor`]. The count matrices are then
//! `M̂(ℓ) = Yᵀ·C(ℓ)` with `C(ℓ) = VᵀN(ℓ)`.
//!
//! Per-length cost: `O(r²·k)` — independent of the edge count **and** the node
//! count, versus `O(m·k)` for the exact backend. Node-proportional work happens
//! exactly twice, both one-time: building `Y` / `Z` from the labeled rows of `V`
//! (`O(labeled·r)`) and the eigensolve itself (amortized across every summarize
//! on the same graph via the factor cache and the `.fgv` store tier).
//!
//! **Exactness at full rank.** When `r = n`, `V` is orthogonal and `WV = VΛ`
//! exactly, so `VᵀW = ΛVᵀ` and `Vᵀ(D−I) = G·Vᵀ`: the factor-space recurrence
//! reproduces `VᵀN(ℓ)` with no approximation, and `M̂(ℓ) = (XᵀV)(VᵀN(ℓ)) =
//! XᵀN(ℓ) = M(ℓ)` up to solver tolerance — the oracle gate the tests and the
//! end-to-end benchmark enforce. Below full rank the truncation error is governed
//! by the discarded eigenvalues `|λ_{r+1}|, …`; the benchmark's `batch_lowrank`
//! accuracy metric measures it end to end.
//!
//! All recurrence arithmetic is serial dense algebra on `r x k` / `r x r`
//! matrices — no thread policy enters, so results are trivially bit-identical at
//! any thread count (the eigensolve behind the factor carries its own
//! bit-identical guarantee).

use crate::error::{CoreError, Result};
use fg_graph::{LowRankFactor, SeedLabels};
use fg_sparse::DenseMatrix;

/// Scale row `j` of `c` by `lambda[j]` into a fresh matrix: the factor-space
/// application of one adjacency hop, `Λ·C`.
fn scale_rows_by(c: &DenseMatrix, lambda: &[f64]) -> DenseMatrix {
    let mut out = c.clone();
    for (j, &l) in lambda.iter().enumerate() {
        for v in out.row_mut(j) {
            *v *= l;
        }
    }
    out
}

/// Accumulate `Vᵀ·diag(weights)·X` (`r x k`) by iterating the labeled nodes:
/// column `class(i)` gains `weights[i] · V.row(i)`. With unit weights this is
/// `Y = VᵀX`; with degree weights it is `Z = VᵀDX`. `O(labeled·r)`.
fn project_seeds(
    factor: &LowRankFactor,
    seeds: &SeedLabels,
    weight: impl Fn(usize) -> f64,
) -> DenseMatrix {
    let r = factor.rank();
    let k = seeds.k();
    let mut out = DenseMatrix::zeros(r, k);
    for i in 0..seeds.n() {
        if let Some(c) = seeds.get(i) {
            let w = weight(i);
            for (j, &v) in factor.v().row(i).iter().enumerate() {
                out.add_at(j, c, w * v);
            }
        }
    }
    out
}

/// Compute the raw class-to-class count matrices `M̂(1)..M̂(ℓmax)` through the
/// factor-space recurrence (see the [module docs](self)). Drop-in compatible
/// with the exact counting kernel behind [`summarize`](crate::paths::summarize):
/// same shapes, same prefix-stability (the length-ℓ prefix of a longer run is
/// bit-identical to a shorter run), exact at full rank.
///
/// Public for benchmarking the recurrence in isolation; estimator code should
/// request the low-rank backend through a
/// [`SummaryConfig`](crate::paths::SummaryConfig) instead so factors are cached.
pub fn lowrank_path_counts(
    factor: &LowRankFactor,
    seeds: &SeedLabels,
    max_length: usize,
    non_backtracking: bool,
) -> Result<Vec<DenseMatrix>> {
    if seeds.n() != factor.num_nodes() {
        return Err(CoreError::InvalidInput(format!(
            "seed labels cover {} nodes but the factor was computed on {}",
            seeds.n(),
            factor.num_nodes()
        )));
    }
    if max_length == 0 {
        return Err(CoreError::InvalidConfig(
            "max_length must be at least 1".into(),
        ));
    }
    let lambda = factor.lambda();
    let y = project_seeds(factor, seeds, |_| 1.0);
    let yt = y.transpose();

    let mut counts = Vec::with_capacity(max_length);
    // C(1) = Λ·Y for both counting modes.
    let mut prev1 = scale_rows_by(&y, lambda);
    counts.push(yt.matmul(&prev1)?);

    if max_length >= 2 {
        // C(2) = Λ·C(1), minus Z = VᵀDX in non-backtracking mode.
        let mut cur = scale_rows_by(&prev1, lambda);
        if non_backtracking {
            let degrees = factor.degrees();
            let z = project_seeds(factor, seeds, |i| degrees[i]);
            cur = cur.sub(&z)?;
        }
        counts.push(yt.matmul(&cur)?);
        let mut prev2 = prev1;
        prev1 = cur;

        for _ell in 3..=max_length {
            // C(ℓ) = Λ·C(ℓ-1) − G·C(ℓ-2) (the G term only in NB mode).
            let mut next = scale_rows_by(&prev1, lambda);
            if non_backtracking {
                next = next.sub(&factor.g().matmul(&prev2)?)?;
            }
            counts.push(yt.matmul(&next)?);
            prev2 = prev1;
            prev1 = next;
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::compute_path_counts;
    use fg_graph::{FactorConfig, Graph, Labeling};
    use fg_sparse::Threads;

    fn test_graph() -> Graph {
        // Cycles plus a pendant: exercises both NB corrections.
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap()
    }

    fn full_seeds(graph: &Graph) -> SeedLabels {
        let labels: Vec<usize> = (0..graph.num_nodes()).map(|i| i % 2).collect();
        let labeling = Labeling::new(labels, 2).unwrap();
        SeedLabels::fully_labeled(&labeling)
    }

    #[test]
    fn full_rank_matches_exact_counts_both_modes() {
        let graph = test_graph();
        let seeds = full_seeds(&graph);
        let n = graph.num_nodes();
        let factor =
            LowRankFactor::compute(&graph, &FactorConfig::with_rank(n), Threads::Serial).unwrap();
        for nb in [false, true] {
            let exact = compute_path_counts(&graph, &seeds, 5, nb, Threads::Serial).unwrap();
            let lowrank = lowrank_path_counts(&factor, &seeds, 5, nb).unwrap();
            for (l, (e, a)) in exact.iter().zip(lowrank.iter()).enumerate() {
                assert!(
                    e.approx_eq(a, 1e-7),
                    "full-rank counts diverge at length {} (nb={nb})",
                    l + 1
                );
            }
        }
    }

    #[test]
    fn partial_labels_match_exact_at_full_rank() {
        let graph = test_graph();
        let seeds = SeedLabels::new(vec![Some(0), None, Some(1), None, None, Some(0)], 2).unwrap();
        let factor =
            LowRankFactor::compute(&graph, &FactorConfig::with_rank(6), Threads::Serial).unwrap();
        let exact = compute_path_counts(&graph, &seeds, 4, true, Threads::Serial).unwrap();
        let lowrank = lowrank_path_counts(&factor, &seeds, 4, true).unwrap();
        for (e, a) in exact.iter().zip(lowrank.iter()) {
            assert!(e.approx_eq(a, 1e-8));
        }
    }

    #[test]
    fn prefix_is_stable_in_max_length() {
        let graph = test_graph();
        let seeds = full_seeds(&graph);
        let factor =
            LowRankFactor::compute(&graph, &FactorConfig::with_rank(4), Threads::Serial).unwrap();
        let long = lowrank_path_counts(&factor, &seeds, 5, true).unwrap();
        let short = lowrank_path_counts(&factor, &seeds, 2, true).unwrap();
        for (l, s) in long.iter().zip(short.iter()) {
            assert_eq!(l.data(), s.data(), "prefix must be bit-identical");
        }
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let graph = test_graph();
        let seeds = full_seeds(&graph);
        let factor =
            LowRankFactor::compute(&graph, &FactorConfig::with_rank(3), Threads::Serial).unwrap();
        assert!(lowrank_path_counts(&factor, &seeds, 0, true).is_err());
        let wrong = SeedLabels::new(vec![Some(0), None], 2).unwrap();
        assert!(lowrank_path_counts(&factor, &wrong, 3, true).is_err());
    }
}
