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

    #[test]
    fn distance_is_symmetric() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&b, &a), 5.0);
    }
}
