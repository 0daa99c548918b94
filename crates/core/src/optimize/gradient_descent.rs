//! Gradient descent with Armijo backtracking line search.
//!
//! Minimizes an [`EnergyFunction`] over the free-parameter vector. Because the
//! doubly-stochastic and symmetry constraints are baked into the parameterization
//! (Eq. 6 of the paper), the search itself is unconstrained — exactly the second,
//! graph-size-independent step of the paper's two-step estimation (Fig. 2).

use crate::energy::EnergyFunction;
use crate::error::{CoreError, Result};
use fg_sparse::vector;

/// Configuration for the gradient-descent optimizer.
#[derive(Debug, Clone)]
pub struct GradientDescentConfig {
    /// Maximum number of descent iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the gradient's Euclidean norm.
    pub gradient_tolerance: f64,
    /// Convergence tolerance on the decrease of the objective between iterations.
    pub value_tolerance: f64,
    /// Initial step size tried at every iteration.
    pub initial_step: f64,
    /// Armijo sufficient-decrease constant in `(0, 1)`.
    pub armijo_c: f64,
    /// Multiplicative backtracking factor in `(0, 1)`.
    pub backtrack: f64,
    /// Smallest step size tried before giving up on an iteration.
    pub min_step: f64,
}

impl Default for GradientDescentConfig {
    fn default() -> Self {
        GradientDescentConfig {
            max_iterations: 500,
            gradient_tolerance: 1e-8,
            value_tolerance: 1e-12,
            initial_step: 1.0,
            armijo_c: 1e-4,
            backtrack: 0.5,
            min_step: 1e-14,
        }
    }
}

/// Result of a gradient-descent run.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The best free-parameter vector found.
    pub x: Vec<f64>,
    /// The objective value at `x`.
    pub value: f64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Number of objective evaluations (including line-search probes).
    pub evaluations: usize,
    /// Whether a convergence criterion was met before the iteration budget ran out.
    pub converged: bool,
}

/// Minimize `energy` starting from `x0`.
pub fn minimize<E: EnergyFunction + ?Sized>(
    energy: &E,
    x0: &[f64],
    config: &GradientDescentConfig,
) -> Result<OptimizationOutcome> {
    if config.max_iterations == 0 {
        return Err(CoreError::InvalidConfig(
            "max_iterations must be positive".into(),
        ));
    }
    if !(0.0..1.0).contains(&config.armijo_c) || !(0.0..1.0).contains(&config.backtrack) {
        return Err(CoreError::InvalidConfig(
            "armijo_c and backtrack must lie in (0, 1)".into(),
        ));
    }
    let mut x = x0.to_vec();
    let mut value = energy.value(&x)?;
    let mut evaluations = 1usize;
    if !value.is_finite() {
        return Err(CoreError::OptimizationFailed(
            "objective is not finite at the starting point".into(),
        ));
    }

    let mut iterations = 0;
    let mut converged = false;
    // The step size persists across iterations: after a successful step it is doubled,
    // after backtracking the reduced value carries over. This lets the search traverse
    // the nearly flat region around the uniform starting point (where the distance-
    // smoothed DCE gradient is very small) without thousands of micro-steps.
    let mut step = config.initial_step;
    let max_step = config.initial_step * 64.0;
    // Line-search probes reuse one buffer; an accepted probe swaps places with `x`.
    let mut candidate = vec![0.0; x.len()];
    for _ in 0..config.max_iterations {
        let grad = energy.gradient(&x)?;
        let grad_norm = vector::norm2(&grad);
        iterations += 1;
        if !grad_norm.is_finite() {
            return Err(CoreError::OptimizationFailed(
                "gradient is not finite".into(),
            ));
        }
        if grad_norm <= config.gradient_tolerance {
            converged = true;
            break;
        }
        // Backtracking line search along the negative gradient.
        let mut improved = false;
        while step >= config.min_step {
            for ((c, &xi), &gi) in candidate.iter_mut().zip(&x).zip(&grad) {
                *c = xi + -step * gi;
            }
            let cand_value = energy.value(&candidate)?;
            evaluations += 1;
            if cand_value.is_finite()
                && cand_value <= value - config.armijo_c * step * grad_norm * grad_norm
            {
                let decrease = value - cand_value;
                std::mem::swap(&mut x, &mut candidate);
                value = cand_value;
                improved = true;
                if decrease <= config.value_tolerance {
                    converged = true;
                }
                // Be more ambitious next iteration.
                step = (step * 2.0).min(max_step);
                break;
            }
            step *= config.backtrack;
        }
        if !improved {
            // No step produced a sufficient decrease: we are at (numerical) convergence.
            converged = true;
            break;
        }
        if converged {
            break;
        }
    }

    Ok(OptimizationOutcome {
        x,
        value,
        iterations,
        evaluations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::MceEnergy;
    use crate::param::{free_to_matrix, uniform_start};
    use fg_sparse::DenseMatrix;

    /// A simple standalone quadratic energy for testing the optimizer in isolation.
    struct Quadratic {
        target: Vec<f64>,
        k: usize,
    }

    impl EnergyFunction for Quadratic {
        fn k(&self) -> usize {
            self.k
        }
        fn value(&self, free: &[f64]) -> crate::error::Result<f64> {
            Ok(free
                .iter()
                .zip(self.target.iter())
                .map(|(x, t)| (x - t) * (x - t))
                .sum())
        }
        fn gradient(&self, free: &[f64]) -> crate::error::Result<Vec<f64>> {
            Ok(free
                .iter()
                .zip(self.target.iter())
                .map(|(x, t)| 2.0 * (x - t))
                .collect())
        }
    }

    #[test]
    fn quadratic_is_minimized() {
        let q = Quadratic {
            target: vec![0.3, -0.2, 0.7],
            k: 3,
        };
        let outcome = minimize(&q, &[0.0, 0.0, 0.0], &GradientDescentConfig::default()).unwrap();
        assert!(outcome.converged);
        assert!(outcome.value < 1e-10);
        for (x, t) in outcome.x.iter().zip(q.target.iter()) {
            assert!((x - t).abs() < 1e-5);
        }
    }

    #[test]
    fn mce_energy_recovers_target_matrix() {
        let target = DenseMatrix::from_rows(&[
            vec![0.2, 0.6, 0.2],
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap();
        let energy = MceEnergy::new(target.clone()).unwrap();
        let outcome = minimize(
            &energy,
            &uniform_start(3),
            &GradientDescentConfig::default(),
        )
        .unwrap();
        let estimated = free_to_matrix(&outcome.x, 3).unwrap();
        assert!(estimated.approx_eq(&target, 1e-4));
    }

    #[test]
    fn zero_iterations_rejected() {
        let q = Quadratic {
            target: vec![0.0],
            k: 2,
        };
        let cfg = GradientDescentConfig {
            max_iterations: 0,
            ..GradientDescentConfig::default()
        };
        assert!(minimize(&q, &[1.0], &cfg).is_err());
    }

    #[test]
    fn invalid_line_search_constants_rejected() {
        let q = Quadratic {
            target: vec![0.0],
            k: 2,
        };
        let cfg = GradientDescentConfig {
            armijo_c: 1.5,
            ..GradientDescentConfig::default()
        };
        assert!(minimize(&q, &[1.0], &cfg).is_err());
    }

    #[test]
    fn starting_at_the_minimum_converges_immediately() {
        let q = Quadratic {
            target: vec![0.5, 0.5],
            k: 2,
        };
        let outcome = minimize(&q, &[0.5, 0.5], &GradientDescentConfig::default()).unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.iterations, 1);
        assert!(outcome.value < 1e-15);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let q = Quadratic {
            target: vec![100.0; 3],
            k: 3,
        };
        let cfg = GradientDescentConfig {
            max_iterations: 3,
            ..GradientDescentConfig::default()
        };
        let outcome = minimize(&q, &[0.0; 3], &cfg).unwrap();
        assert!(outcome.iterations <= 3);
    }
}
