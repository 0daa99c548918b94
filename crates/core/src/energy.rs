//! Energy (objective) functions for compatibility estimation.
//!
//! Every estimator in the paper minimizes an energy over the free-parameter vector `h`
//! of a symmetric doubly-stochastic matrix (see [`crate::param`]):
//!
//! * **MCE** (Eq. 12): `E(H) = ||H − P̂||²` — convex, closest doubly-stochastic matrix to
//!   the observed neighbor statistics.
//! * **DCE** (Eq. 13/14): `E(H) = Σ_ℓ w_ℓ ||Hℓ − P̂(ℓ)||²` with `w_ℓ = λ^(ℓ-1)` — the
//!   distance-smoothed energy over the factorized sketches, with the explicit gradient
//!   of Proposition 4.7.
//! * **LCE** (Eq. 8): `E(H) = ||X − W X H||²` — derived from the LinBP energy
//!   (Proposition 3.2); unlike the sketch-based energies its evaluation cost grows with
//!   the graph.

use crate::error::{CoreError, Result};
use crate::param::{
    fill_matrix_from_free, free_to_matrix, num_free_parameters, project_gradient,
    project_gradient_flat,
};
use fg_sparse::{DenseMatrix, SparseError};

/// A differentiable scalar objective over the free parameters of a compatibility matrix.
pub trait EnergyFunction {
    /// Number of classes `k` (the free-parameter vector has length `k(k-1)/2`).
    fn k(&self) -> usize;

    /// Evaluate the energy at a free-parameter vector.
    fn value(&self, free: &[f64]) -> Result<f64>;

    /// Evaluate the gradient with respect to the free parameters.
    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>>;

    /// Evaluate both at once (default: two separate calls).
    fn value_and_gradient(&self, free: &[f64]) -> Result<(f64, Vec<f64>)> {
        Ok((self.value(free)?, self.gradient(free)?))
    }
}

fn check_dimensions(k: usize, free: &[f64]) -> Result<()> {
    let expected = num_free_parameters(k);
    if free.len() != expected {
        return Err(CoreError::InvalidConfig(format!(
            "expected {expected} free parameters for k = {k}, got {}",
            free.len()
        )));
    }
    if k == 0 {
        return Err(CoreError::InvalidConfig("k must be positive".into()));
    }
    Ok(())
}

/// Build the geometric distance weights `w_ℓ = λ^(ℓ-1)` for `ℓ = 1..max_length`
/// (Section 4.4: "a distance-3 weight vector is `[1, λ, λ²]`").
pub fn distance_weights(lambda: f64, max_length: usize) -> Vec<f64> {
    (0..max_length).map(|i| lambda.powi(i as i32)).collect()
}

// ---------------------------------------------------------------------------
// MCE energy
// ---------------------------------------------------------------------------

/// The myopic energy `E(H) = ||H − P̂||²` (Eq. 12).
#[derive(Debug, Clone)]
pub struct MceEnergy {
    target: DenseMatrix,
}

impl MceEnergy {
    /// Create the energy for an observed statistics matrix `P̂`.
    pub fn new(target: DenseMatrix) -> Result<Self> {
        if !target.is_square() {
            return Err(CoreError::InvalidInput(format!(
                "statistics matrix must be square, got {}x{}",
                target.rows(),
                target.cols()
            )));
        }
        Ok(MceEnergy { target })
    }
}

impl EnergyFunction for MceEnergy {
    fn k(&self) -> usize {
        self.target.rows()
    }

    fn value(&self, free: &[f64]) -> Result<f64> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        Ok(h.frobenius_distance_sq(&self.target)?)
    }

    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        let g = h.sub(&self.target)?.scaled(2.0);
        project_gradient(&g)
    }
}

// ---------------------------------------------------------------------------
// DCE energy
// ---------------------------------------------------------------------------

/// The distance-smoothed energy `E(H) = Σ_ℓ w_ℓ ||Hℓ − P̂(ℓ)||²` (Eq. 13/14) with the
/// explicit gradient of Proposition 4.7.
#[derive(Debug, Clone)]
pub struct DceEnergy {
    statistics: Vec<DenseMatrix>,
    weights: Vec<f64>,
    k: usize,
}

impl DceEnergy {
    /// Create the energy from observed statistics `P̂(ℓ)` (index 0 holds `ℓ = 1`) and
    /// per-length weights. Weights are normalized to sum to 1 so energies are comparable
    /// across different `λ` and `ℓmax` (this does not change the minimizer).
    pub fn new(statistics: Vec<DenseMatrix>, weights: Vec<f64>) -> Result<Self> {
        if statistics.is_empty() {
            return Err(CoreError::InvalidInput(
                "at least one statistics matrix is required".into(),
            ));
        }
        if statistics.len() != weights.len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} statistics matrices but {} weights",
                statistics.len(),
                weights.len()
            )));
        }
        let k = statistics[0].rows();
        for s in &statistics {
            if !s.is_square() || s.rows() != k {
                return Err(CoreError::InvalidInput(
                    "all statistics matrices must be square with identical size".into(),
                ));
            }
        }
        if weights.iter().any(|&w| w < 0.0) {
            return Err(CoreError::InvalidConfig(
                "weights must be non-negative".into(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "weights must not all be zero".into(),
            ));
        }
        let weights = weights.into_iter().map(|w| w / total).collect();
        Ok(DceEnergy {
            statistics,
            weights,
            k,
        })
    }

    /// Convenience constructor with geometric weights `w_ℓ = λ^(ℓ-1)`.
    pub fn with_lambda(statistics: Vec<DenseMatrix>, lambda: f64) -> Result<Self> {
        let weights = distance_weights(lambda, statistics.len());
        Self::new(statistics, weights)
    }

    /// Maximum path length `ℓmax`.
    pub fn max_length(&self) -> usize {
        self.statistics.len()
    }

    /// Energy of an explicit matrix (used for diagnostics / tests).
    pub fn value_of_matrix(&self, h: &DenseMatrix) -> Result<f64> {
        let k = self.k;
        // The shape errors the `H^ℓ` chain would raise: `I·H`, then `‖H^ℓ − P̂(ℓ)‖`.
        if h.rows() != k {
            return Err(SparseError::DimensionMismatch {
                op: "dense matmul",
                left: (k, k),
                right: h.shape(),
            }
            .into());
        }
        if h.cols() != k {
            return Err(SparseError::DimensionMismatch {
                op: "frobenius distance",
                left: h.shape(),
                right: (k, k),
            }
            .into());
        }
        Ok(dispatch(k, ValueKernel(self, At::Matrix(h.data()))))
    }
}

impl EnergyFunction for DceEnergy {
    fn k(&self) -> usize {
        self.k
    }

    fn value(&self, free: &[f64]) -> Result<f64> {
        check_dimensions(self.k, free)?;
        Ok(dispatch(self.k, ValueKernel(self, At::Free(free))))
    }

    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>> {
        check_dimensions(self.k, free)?;
        Ok(dispatch(self.k, GradientKernel(self, free)))
    }
}

// ---------------------------------------------------------------------------
// DCE kernels on k x k storage
// ---------------------------------------------------------------------------
//
// The DCE value and gradient are chains of k x k products, evaluated thousands of
// times per DCEr estimate. The kernels below run the same floating-point operations
// in the same order as the `DenseMatrix` chain (`matmul` with its zero skip,
// `scaled`, `sub`, `add`, `frobenius_distance_sq`), so every bit of the result is
// the same, but on fixed-size storage: for the small `k` that `dispatch`
// specializes, every matrix lives on the stack and every loop bound is a constant.

/// The order of the `k x k` matrices a kernel works on.
trait Dim: Copy {
    /// Row-major `k x k` storage.
    type Mat;
    /// `k`.
    fn k(self) -> usize;
    /// The zero matrix.
    fn zeros(self) -> Self::Mat;
    /// The entries, row-major.
    fn flat(m: &Self::Mat) -> &[f64];
    /// The entries, row-major, mutably.
    fn flat_mut(m: &mut Self::Mat) -> &mut [f64];
}

/// A compile-time order: stack storage, constant loop bounds.
#[derive(Clone, Copy)]
struct Const<const K: usize>;

impl<const K: usize> Dim for Const<K> {
    type Mat = [[f64; K]; K];
    fn k(self) -> usize {
        K
    }
    fn zeros(self) -> Self::Mat {
        [[0.0; K]; K]
    }
    fn flat(m: &Self::Mat) -> &[f64] {
        m.as_flattened()
    }
    fn flat_mut(m: &mut Self::Mat) -> &mut [f64] {
        m.as_flattened_mut()
    }
}

/// Any other order: heap storage, allocated once per evaluation.
#[derive(Clone, Copy)]
struct Dyn(usize);

impl Dim for Dyn {
    type Mat = Vec<f64>;
    fn k(self) -> usize {
        self.0
    }
    fn zeros(self) -> Self::Mat {
        vec![0.0; self.0 * self.0]
    }
    fn flat(m: &Self::Mat) -> &[f64] {
        m
    }
    fn flat_mut(m: &mut Self::Mat) -> &mut [f64] {
        m
    }
}

/// A computation generic over the matrix order, run by [`dispatch`].
trait Kernel {
    type Output;
    fn run<D: Dim>(self, d: D) -> Self::Output;
}

/// The one place that picks a [`Dim`] for `k`.
fn dispatch<T: Kernel>(k: usize, kernel: T) -> T::Output {
    match k {
        2 => kernel.run(Const::<2>),
        3 => kernel.run(Const::<3>),
        4 => kernel.run(Const::<4>),
        5 => kernel.run(Const::<5>),
        _ => kernel.run(Dyn(k)),
    }
}

/// Where an energy is evaluated: at a free-parameter vector, or at an explicit
/// row-major `k x k` matrix.
#[derive(Clone, Copy)]
enum At<'a> {
    Free(&'a [f64]),
    Matrix(&'a [f64]),
}

impl At<'_> {
    fn load<D: Dim>(self, d: D) -> D::Mat {
        let mut h = d.zeros();
        match self {
            At::Free(free) => fill_matrix_from_free(free, d.k(), D::flat_mut(&mut h)),
            At::Matrix(m) => D::flat_mut(&mut h).copy_from_slice(m),
        }
        h
    }
}

/// `out = a·b`, exactly as [`DenseMatrix::matmul`] computes it: each output row
/// accumulates `a[i][l]·b[l][·]` over `l` in order, starting from zero and skipping
/// `a[i][l] == 0`.
fn matmul_into<D: Dim>(d: D, a: &[f64], b: &[f64], out: &mut D::Mat) {
    let k = d.k();
    let (a, b, out) = (&a[..k * k], &b[..k * k], &mut D::flat_mut(out)[..k * k]);
    out.fill(0.0);
    for i in 0..k {
        for l in 0..k {
            let x = a[i * k + l];
            if x == 0.0 {
                continue;
            }
            for j in 0..k {
                out[i * k + j] += x * b[l * k + j];
            }
        }
    }
}

/// `H^0 = I`, built as [`DenseMatrix::identity`] does.
fn identity<D: Dim>(d: D) -> D::Mat {
    let mut m = d.zeros();
    let k = d.k();
    for i in 0..k {
        D::flat_mut(&mut m)[i * k + i] = 1.0;
    }
    m
}

/// `Σ_ℓ w_ℓ ‖H^ℓ − P̂(ℓ)‖²`.
struct ValueKernel<'a>(&'a DceEnergy, At<'a>);

impl Kernel for ValueKernel<'_> {
    type Output = f64;

    fn run<D: Dim>(self, d: D) -> f64 {
        let ValueKernel(energy, at) = self;
        let h = at.load(d);
        let (mut power, mut next) = (identity(d), d.zeros());
        let mut value = 0.0;
        for (stat, &w) in energy.statistics.iter().zip(energy.weights.iter()) {
            matmul_into(d, D::flat(&power), D::flat(&h), &mut next);
            std::mem::swap(&mut power, &mut next);
            let distance: f64 = D::flat(&power)
                .iter()
                .zip(stat.data())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum();
            value += w * distance;
        }
        value
    }
}

/// The projected gradient of Proposition 4.7:
/// `G = Σ_ℓ 2 w_ℓ (ℓ H^(2ℓ-1) − Σ_{r=0}^{ℓ-1} H^r P̂(ℓ) H^(ℓ-1-r))`.
struct GradientKernel<'a>(&'a DceEnergy, &'a [f64]);

impl Kernel for GradientKernel<'_> {
    type Output = Vec<f64>;

    fn run<D: Dim>(self, d: D) -> Vec<f64> {
        let GradientKernel(energy, free) = self;
        let h = At::Free(free).load(d);
        // H^0 .. H^(2·ℓmax - 1).
        let lmax = energy.max_length();
        let mut powers = Vec::with_capacity(2 * lmax);
        powers.push(identity(d));
        for p in 1..2 * lmax {
            let mut next = d.zeros();
            matmul_into(d, D::flat(&powers[p - 1]), D::flat(&h), &mut next);
            powers.push(next);
        }
        let (mut g, mut term, mut left, mut middle) = (d.zeros(), d.zeros(), d.zeros(), d.zeros());
        for (idx, (stat, &w)) in energy
            .statistics
            .iter()
            .zip(energy.weights.iter())
            .enumerate()
        {
            let ell = idx + 1;
            for (t, &p) in D::flat_mut(&mut term)
                .iter_mut()
                .zip(D::flat(&powers[2 * ell - 1]))
            {
                *t = p * ell as f64;
            }
            for r in 0..ell {
                matmul_into(d, D::flat(&powers[r]), stat.data(), &mut left);
                matmul_into(
                    d,
                    D::flat(&left),
                    D::flat(&powers[ell - 1 - r]),
                    &mut middle,
                );
                for (t, &m) in D::flat_mut(&mut term).iter_mut().zip(D::flat(&middle)) {
                    *t -= m;
                }
            }
            let scale = 2.0 * w;
            for (gv, &t) in D::flat_mut(&mut g).iter_mut().zip(D::flat(&term)) {
                *gv += t * scale;
            }
        }
        project_gradient_flat(D::flat(&g), d.k())
    }
}

// ---------------------------------------------------------------------------
// LCE energy
// ---------------------------------------------------------------------------

/// The linear-compatibility-estimation energy `E(H) = ||X − (W X) H||²` (Eq. 8).
///
/// The product `A = W X` is precomputed once; every evaluation still costs `O(n k²)`,
/// which is what makes LCE slower than the sketch-based energies on large graphs.
#[derive(Debug, Clone)]
pub struct LceEnergy {
    /// The explicit-belief matrix `X` (`n x k`).
    x: DenseMatrix,
    /// The neighbor-sum matrix `A = W X` (`n x k`).
    wx: DenseMatrix,
    /// `Aᵀ` (`k x n`), cached once at construction: the gradient needs it on every
    /// evaluation, and rebuilding an `n x k` transpose per optimizer step dominated
    /// the gradient cost on large graphs.
    wxt: DenseMatrix,
}

impl LceEnergy {
    /// Create the energy from the seed matrix `X` and the precomputed product `W X`.
    pub fn new(x: DenseMatrix, wx: DenseMatrix) -> Result<Self> {
        if x.shape() != wx.shape() {
            return Err(CoreError::InvalidInput(format!(
                "X is {:?} but WX is {:?}",
                x.shape(),
                wx.shape()
            )));
        }
        let wxt = wx.transpose();
        Ok(LceEnergy { x, wx, wxt })
    }
}

impl EnergyFunction for LceEnergy {
    fn k(&self) -> usize {
        self.x.cols()
    }

    fn value(&self, free: &[f64]) -> Result<f64> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        let predicted = self.wx.matmul(&h)?;
        Ok(self.x.frobenius_distance_sq(&predicted)?)
    }

    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        // G = 2 Aᵀ (A H − X)
        let residual = self.wx.matmul(&h)?.sub(&self.x)?;
        let g = self.wxt.matmul(&residual)?.scaled(2.0);
        project_gradient(&g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::uniform_start;

    fn h3(values: [f64; 3]) -> Vec<f64> {
        values.to_vec()
    }

    fn paper_h() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![0.2, 0.6, 0.2],
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap()
    }

    /// Central finite-difference gradient of an energy function.
    fn numeric_gradient<E: EnergyFunction>(energy: &E, free: &[f64]) -> Vec<f64> {
        let eps = 1e-6;
        (0..free.len())
            .map(|p| {
                let mut plus = free.to_vec();
                plus[p] += eps;
                let mut minus = free.to_vec();
                minus[p] -= eps;
                (energy.value(&plus).unwrap() - energy.value(&minus).unwrap()) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn distance_weights_are_geometric() {
        assert_eq!(distance_weights(10.0, 3), vec![1.0, 10.0, 100.0]);
        assert_eq!(distance_weights(1.0, 2), vec![1.0, 1.0]);
    }

    #[test]
    fn mce_energy_zero_at_target() {
        let target = paper_h();
        let energy = MceEnergy::new(target).unwrap();
        let free = h3([0.2, 0.6, 0.2]);
        assert!(energy.value(&free).unwrap() < 1e-12);
        // Gradient at the minimum is zero.
        for g in energy.gradient(&free).unwrap() {
            assert!(g.abs() < 1e-9);
        }
    }

    #[test]
    fn mce_energy_positive_away_from_target() {
        let energy = MceEnergy::new(paper_h()).unwrap();
        assert!(energy.value(&uniform_start(3)).unwrap() > 0.1);
    }

    #[test]
    fn mce_gradient_matches_finite_differences() {
        let energy = MceEnergy::new(paper_h()).unwrap();
        let free = h3([0.3, 0.4, 0.25]);
        let analytic = energy.gradient(&free).unwrap();
        let numeric = numeric_gradient(&energy, &free);
        for (a, n) in analytic.iter().zip(numeric.iter()) {
            assert!((a - n).abs() < 1e-5, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn mce_rejects_non_square_target() {
        assert!(MceEnergy::new(DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn dce_energy_zero_when_statistics_are_exact_powers() {
        let h = paper_h();
        let stats = vec![h.clone(), h.pow(2).unwrap(), h.pow(3).unwrap()];
        let energy = DceEnergy::with_lambda(stats, 10.0).unwrap();
        let free = h3([0.2, 0.6, 0.2]);
        assert!(energy.value(&free).unwrap() < 1e-12);
        for g in energy.gradient(&free).unwrap() {
            assert!(g.abs() < 1e-9);
        }
    }

    #[test]
    fn dce_gradient_matches_finite_differences() {
        let h = paper_h();
        // Perturbed statistics so the gradient is non-trivial.
        let stats = vec![
            h.add_scalar(0.01),
            h.pow(2).unwrap().add_scalar(-0.02),
            h.pow(3).unwrap().add_scalar(0.005),
        ];
        let energy = DceEnergy::with_lambda(stats, 5.0).unwrap();
        let free = h3([0.35, 0.3, 0.28]);
        let analytic = energy.gradient(&free).unwrap();
        let numeric = numeric_gradient(&energy, &free);
        for (a, n) in analytic.iter().zip(numeric.iter()) {
            assert!((a - n).abs() < 1e-4, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn dce_validation_errors() {
        assert!(DceEnergy::with_lambda(vec![], 10.0).is_err());
        let h = paper_h();
        assert!(DceEnergy::new(vec![h.clone()], vec![1.0, 2.0]).is_err());
        assert!(DceEnergy::new(vec![h.clone()], vec![-1.0]).is_err());
        assert!(DceEnergy::new(vec![h.clone()], vec![0.0]).is_err());
        assert!(DceEnergy::new(vec![DenseMatrix::zeros(2, 3)], vec![1.0]).is_err());
        // mixed sizes
        assert!(DceEnergy::new(vec![h, DenseMatrix::zeros(2, 2)], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn dce_weights_are_normalized() {
        let h = paper_h();
        let a = DceEnergy::new(vec![h.clone(), h.pow(2).unwrap()], vec![1.0, 10.0]).unwrap();
        let b = DceEnergy::new(vec![h.clone(), h.pow(2).unwrap()], vec![10.0, 100.0]).unwrap();
        let free = h3([0.3, 0.5, 0.3]);
        assert!((a.value(&free).unwrap() - b.value(&free).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn dce_wrong_parameter_count_rejected() {
        let energy = DceEnergy::with_lambda(vec![paper_h()], 1.0).unwrap();
        assert!(energy.value(&[0.1]).is_err());
        assert!(energy.gradient(&[0.1, 0.2]).is_err());
    }

    /// The `DenseMatrix` chain the DCE kernels replaced, kept as their oracle:
    /// `Σ_ℓ w_ℓ ‖H^ℓ − P̂(ℓ)‖²`.
    fn reference_value(energy: &DceEnergy, h: &DenseMatrix) -> f64 {
        let mut value = 0.0;
        let mut power = DenseMatrix::identity(energy.k);
        for (stat, &w) in energy.statistics.iter().zip(energy.weights.iter()) {
            power = power.matmul(h).unwrap();
            value += w * power.frobenius_distance_sq(stat).unwrap();
        }
        value
    }

    /// The `DenseMatrix` chain for the projected gradient of Proposition 4.7.
    fn reference_gradient(energy: &DceEnergy, free: &[f64]) -> Vec<f64> {
        let h = free_to_matrix(free, energy.k).unwrap();
        let lmax = energy.max_length();
        let mut powers = vec![DenseMatrix::identity(energy.k)];
        for p in 1..2 * lmax {
            let next = powers[p - 1].matmul(&h).unwrap();
            powers.push(next);
        }
        let mut g = DenseMatrix::zeros(energy.k, energy.k);
        for (idx, (stat, &w)) in energy
            .statistics
            .iter()
            .zip(energy.weights.iter())
            .enumerate()
        {
            let ell = idx + 1;
            let mut term = powers[2 * ell - 1].scaled(ell as f64);
            for r in 0..ell {
                let middle = powers[r]
                    .matmul(stat)
                    .unwrap()
                    .matmul(&powers[ell - 1 - r])
                    .unwrap();
                term = term.sub(&middle).unwrap();
            }
            g = g.add(&term.scaled(2.0 * w)).unwrap();
        }
        project_gradient(&g).unwrap()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A seeded random `k x k` matrix with some exact zeros (including `-0.0`), so
    /// the products' zero skip is exercised.
    fn random_matrix(k: usize, rng: &mut rand::rngs::StdRng) -> DenseMatrix {
        use rand::Rng;
        let data = (0..k * k)
            .map(|_| match rng.gen_index(6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen::<f64>() * 1.5 - 0.25,
            })
            .collect();
        DenseMatrix::from_vec(k, k, data).unwrap()
    }

    #[test]
    fn dce_kernels_match_the_dense_chain_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xdce);
        for k in [1usize, 2, 3, 4, 7, 9] {
            for lmax in [1usize, 3, 5, 8] {
                let stats: Vec<DenseMatrix> =
                    (0..lmax).map(|_| random_matrix(k, &mut rng)).collect();
                let lambda = [0.3, 1.0, 10.0][rng.gen_index(3)];
                let energy = DceEnergy::with_lambda(stats, lambda).unwrap();
                for point in 0..12 {
                    let free: Vec<f64> = (0..num_free_parameters(k))
                        .map(|p| {
                            if (point + p) % 5 == 0 {
                                0.0
                            } else {
                                rng.gen::<f64>() * 1.2 - 0.2
                            }
                        })
                        .collect();
                    let h = free_to_matrix(&free, k).unwrap();
                    let case = format!("k = {k}, lmax = {lmax}, point {point}");
                    let value = energy.value(&free).unwrap();
                    assert_eq!(
                        value.to_bits(),
                        reference_value(&energy, &h).to_bits(),
                        "{case}"
                    );
                    assert_eq!(
                        bits(&energy.gradient(&free).unwrap()),
                        bits(&reference_gradient(&energy, &free)),
                        "{case}"
                    );
                    // An arbitrary (non-stochastic, zero-laced) matrix as well.
                    let m = random_matrix(k, &mut rng);
                    assert_eq!(
                        energy.value_of_matrix(&m).unwrap().to_bits(),
                        reference_value(&energy, &m).to_bits(),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn dce_with_zero_classes_errs_instead_of_evaluating() {
        let energy = DceEnergy::with_lambda(vec![DenseMatrix::zeros(0, 0)], 1.0).unwrap();
        let expected = free_to_matrix(&[], 0).unwrap_err().to_string();
        assert_eq!(energy.value(&[]).unwrap_err().to_string(), expected);
        assert_eq!(energy.gradient(&[]).unwrap_err().to_string(), expected);
        assert_eq!(
            energy.value_of_matrix(&DenseMatrix::zeros(0, 0)).unwrap(),
            0.0
        );
    }

    #[test]
    fn dce_value_of_matrix_rejects_wrong_shapes() {
        let energy = DceEnergy::with_lambda(vec![paper_h()], 1.0).unwrap();
        for shape in [(2, 3), (3, 2), (4, 4)] {
            let h = DenseMatrix::zeros(shape.0, shape.1);
            let expected = DenseMatrix::identity(3)
                .matmul(&h)
                .and_then(|power| power.frobenius_distance_sq(&paper_h()))
                .unwrap_err();
            assert_eq!(
                energy.value_of_matrix(&h).unwrap_err().to_string(),
                CoreError::from(expected).to_string(),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn lce_energy_and_gradient() {
        // Small synthetic X / WX where the correct H is known: if WX = X * P for a
        // permutation-ish P, the minimizing H satisfies X ≈ (WX) H.
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        // Each node's neighbors are all of the opposite class: WX = X * swap.
        let swap = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let wx = x.matmul(&swap).unwrap();
        let energy = LceEnergy::new(x, wx).unwrap();
        // Pure heterophily (free parameter H00 = 0) gives zero energy.
        assert!(energy.value(&[0.0]).unwrap() < 1e-12);
        // Pure homophily is maximally wrong.
        assert!(energy.value(&[1.0]).unwrap() > 1.0);
        // Gradient check.
        let free = vec![0.3];
        let analytic = energy.gradient(&free).unwrap();
        let numeric = numeric_gradient(&energy, &free);
        assert!((analytic[0] - numeric[0]).abs() < 1e-5);
    }

    #[test]
    fn lce_shape_mismatch_rejected() {
        let x = DenseMatrix::zeros(4, 2);
        let wx = DenseMatrix::zeros(3, 2);
        assert!(LceEnergy::new(x, wx).is_err());
    }

    #[test]
    fn value_and_gradient_default_agrees() {
        let energy = MceEnergy::new(paper_h()).unwrap();
        let free = h3([0.25, 0.5, 0.2]);
        let (v, g) = energy.value_and_gradient(&free).unwrap();
        assert_eq!(v, energy.value(&free).unwrap());
        assert_eq!(g, energy.gradient(&free).unwrap());
    }
}
