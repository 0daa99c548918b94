//! # fg-graph
//!
//! Graph representation, class-compatibility matrices, labelings, and the synthetic
//! planted-partition generator used to reproduce *"Factorized Graph Representations for
//! Semi-Supervised Learning from Sparse Data"* (SIGMOD 2020).
//!
//! The central types are:
//!
//! * [`Graph`] — an undirected graph backed by a symmetric CSR adjacency matrix `W`.
//! * [`CompatibilityMatrix`] — a validated symmetric doubly-stochastic `k x k` matrix
//!   `H` describing how classes link to each other (homophily, heterophily, or any mix).
//! * [`Labeling`] / [`SeedLabels`] — full ground-truth labels and the sparse seed labels
//!   the estimators actually observe, including stratified sampling at label fraction `f`.
//! * [`GeneratorConfig`] / [`generate`] — the paper's synthetic generator
//!   `(n, m, α, H, dist)` with controlled degree distributions and planted compatibilities.
//! * [`measure_compatibilities`] — the gold-standard measurement of `H` from a fully
//!   labeled graph.
//! * [`LowRankFactor`] — a rank-`r` spectral factorization `W ≈ V·Λ·Vᵀ` of the
//!   adjacency (plus the projected degree correction) powering the low-rank
//!   counting backend, fingerprinted by `(graph, rank, solver params)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compatibility;
pub mod degree;
pub mod error;
pub mod fingerprint;
pub mod generator;
pub mod graph;
pub mod labels;
pub mod lowrank;
pub mod spec;

pub use compatibility::{two_value_heuristic, CompatibilityMatrix};
pub use degree::DegreeDistribution;
pub use error::{GraphError, Result};
pub use fingerprint::{Fingerprint, FingerprintBuilder, RollingFingerprint};
pub use generator::{generate, measure_compatibilities, GeneratorConfig, SyntheticGraph};
pub use graph::{check_node_count, Graph, MAX_NODES};
pub use labels::{Labeling, SeedLabels};
pub use lowrank::{factor_fingerprint, FactorConfig, LowRankFactor};
