//! Small helpers for dense `f64` vectors.
//!
//! These are the handful of vector operations the estimation and propagation code needs
//! (norms, normalization, dot products, argmax). They operate on plain slices so callers
//! never need a wrapper type.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ; in release builds the shorter length wins.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// L1 norm (sum of absolute values).
pub fn norm1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// Maximum absolute value (L-infinity norm).
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
}

/// Lanes of [`MaxLanes`].
const LANES: usize = 8;

/// A running maximum kept in eight independent lanes, so the comparisons do not
/// form one dependent chain: the convergence-delta rule of the propagation loops
/// ([`max_abs_diff`], and LinBP's update pass, which offers column `j` to lane
/// `j`).
///
/// A value offered to lane `j` goes to lane `j mod 8`; each lane keeps a running
/// `f64::max` from `0.0`, and [`MaxLanes::max`] folds the lanes. The maximum of
/// a set does not depend on the order it is taken in — `f64::max` ignores a NaN
/// operand, and the values offered, `|x|`, are never −0.0 — so the result is
/// bit-identical to one left-to-right `fold(0.0, f64::max)` over the same
/// values, while the lanes keep a pass at the speed of its memory traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxLanes([f64; LANES]);

impl MaxLanes {
    /// Offer `value` (an absolute value) to lane `lane mod 8`.
    #[inline(always)]
    pub fn offer(&mut self, lane: usize, value: f64) {
        let slot = &mut self.0[lane % LANES];
        *slot = slot.max(value);
    }

    /// The largest value offered, or `0.0` if none was.
    pub fn max(self) -> f64 {
        self.0.into_iter().fold(0.0, f64::max)
    }
}

/// The largest `|a[i] - b[i]|`, or `0.0` for empty slices: the convergence delta
/// of the propagation loops, entry `i` in lane `i mod 8` of a [`MaxLanes`].
///
/// # Panics
/// Panics in debug builds if the lengths differ; in release builds the shorter length wins.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = MaxLanes::default();
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (a_rest, b_rest) = (a_chunks.remainder(), b_chunks.remainder());
    for (xs, ys) in a_chunks.zip(b_chunks) {
        for j in 0..LANES {
            lanes.offer(j, (xs[j] - ys[j]).abs());
        }
    }
    for (j, (x, y)) in a_rest.iter().zip(b_rest).enumerate() {
        lanes.offer(j, (x - y).abs());
    }
    lanes.max()
}

/// Sum of entries.
pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Normalize in place so the entries sum to 1. Leaves an all-zero vector unchanged.
pub fn normalize_l1(v: &mut [f64]) {
    let s = norm1(v);
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    }
}

/// Normalize in place to unit Euclidean norm. Leaves an all-zero vector unchanged.
pub fn normalize_l2(v: &mut [f64]) {
    let s = norm2(v);
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    }
}

/// Element-wise `a - b` as a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Element-wise `a + b` as a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Scale every entry by `factor`, returning a new vector.
pub fn scaled(v: &[f64], factor: f64) -> Vec<f64> {
    v.iter().map(|x| x * factor).collect()
}

/// Index of the maximum entry (ties resolved to the lowest index). Returns `None` for an
/// empty slice.
pub fn argmax(v: &[f64]) -> Option<usize> {
    if v.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x > best_val {
            best_val = x;
            best = i;
        }
    }
    Some(best)
}

/// Euclidean distance between two vectors.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    norm2(&sub(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm1(&[-1.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn normalize_l1_sums_to_one() {
        let mut v = vec![1.0, 3.0];
        normalize_l1(&mut v);
        assert!((sum(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_l2_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize_l2(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0];
        normalize_l2(&mut z);
        assert_eq!(z, vec![0.0]);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scaled(&[1.0, -2.0], -3.0), vec![-3.0, 6.0]);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0)); // ties to lowest index
        assert_eq!(argmax(&[]), None);
    }

    /// The lanes give the single left-to-right fold's bits, on every length
    /// around the lane count and on inputs holding NaN, ±0.0 and infinities.
    #[test]
    fn max_abs_diff_equals_the_single_chain_fold() {
        let special = [0.0, -0.0, f64::NAN, f64::INFINITY, -3.5, 1e-300];
        for len in 0..40 {
            for shift in 0..special.len() {
                let a: Vec<f64> = (0..len)
                    .map(|i| match (i * 7 + shift) % 9 {
                        s if s < special.len() => special[s],
                        s => (i as f64 - 11.0) * 0.37 * s as f64,
                    })
                    .collect();
                let b: Vec<f64> = (0..len).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();
                let chain = a
                    .iter()
                    .zip(&b)
                    .fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()));
                assert_eq!(max_abs_diff(&a, &b).to_bits(), chain.to_bits(), "{a:?}");
            }
        }
        assert_eq!(max_abs_diff(&[f64::NAN], &[1.0]), 0.0);
        // The largest change alone at each position in turn: every lane is read.
        for len in 1..20 {
            let b = vec![0.0; len];
            for p in 0..len {
                let a: Vec<f64> = (0..len).map(|i| if i == p { 5.0 } else { 1.0 }).collect();
                assert_eq!(max_abs_diff(&a, &b), 5.0, "len={len} p={p}");
            }
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&b, &a), 5.0);
    }
}
