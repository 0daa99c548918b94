//! # fg-propagation
//!
//! Label-propagation backends for the `factorized-graphs` workspace, unified behind
//! the [`Propagator`] trait:
//!
//! * [`linbp`] — Linearized Belief Propagation, the propagation method the paper's
//!   compatibility estimation is designed for (Eq. 1/4, Theorem 3.1), including the
//!   spectral-radius-based convergence scaling of Eq. 2.
//! * [`bp`] — full loopy Belief Propagation, the reference method LinBP approximates.
//! * [`random_walk`] — MultiRankWalk-style random walks with restarts (homophily
//!   baseline, Section 2.4).
//! * [`harmonic`] — harmonic-functions label propagation (the "Homophily" baseline of
//!   Fig. 6i).
//! * [`metrics`] — accuracy and macro-averaged accuracy as used in the evaluation.
//!
//! Each algorithm keeps its specialized free function and config/result types, and
//! additionally implements [`Propagator`] ([`LinBp`], [`LoopyBp`], [`Harmonic`],
//! [`RandomWalk`]) returning the unified [`PropagationOutcome`]. Backends can be
//! looked up by name through [`PROPAGATORS`] (`"linbp"`, `"bp"`, `"harmonic"`, `"rw"`),
//! which is what the CLI's `--method` flag and the benchmark harness use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bp;
pub mod harmonic;
pub mod linbp;
pub mod metrics;
#[cfg(test)]
mod oracles;
pub mod propagator;
pub mod random_walk;
pub mod registry;

pub use bp::{propagate_bp, BpConfig, BpResult};
pub use harmonic::{harmonic_functions, HarmonicConfig, HarmonicResult};
pub use linbp::{
    convergence_epsilon, label, label_or_abstain, propagate, LinBpConfig, PropagationResult,
    DEFAULT_CONVERGENCE_FRACTION, DEFAULT_ITERATIONS,
};
pub use metrics::{
    abstaining_macro_accuracy, abstaining_unlabeled_accuracy, abstention_rate, accuracy,
    confusion_matrix, holdout_accuracy, macro_accuracy, random_baseline, unlabeled_accuracy,
    unlabeled_micro_accuracy,
};
pub use propagator::{Harmonic, LinBp, LoopyBp, PropagationOutcome, Propagator, RandomWalk};
pub use random_walk::{multi_rank_walk, RandomWalkConfig, RandomWalkResult};
pub use registry::{PropagatorOptions, PROPAGATORS};
