//! # fg-core — Factorized Graph Representations for SSL from Sparse Data
//!
//! Rust implementation of the compatibility-estimation methods from
//! *"Factorized Graph Representations for Semi-Supervised Learning from Sparse Data"*
//! (Krishna Kumar P., Paul Langton, Wolfgang Gatterbauer — SIGMOD 2020).
//!
//! Given an undirected graph in which only a tiny fraction of nodes carry class labels,
//! and in which classes may attract or repel each other arbitrarily (homophily,
//! heterophily, or any mix), this crate estimates the class-compatibility matrix `H`
//! directly from the sparsely labeled graph and then labels the remaining nodes with
//! linearized belief propagation — no domain expert or heuristic required.
//!
//! ## The two-step approach
//!
//! 1. **Factorized graph summarization** ([`paths`]): compute the observed class
//!    statistics of length-ℓ non-backtracking paths between labeled nodes in
//!    `O(m·k·ℓmax)` without ever materializing `Wℓ`.
//! 2. **Graph-size-independent optimization** ([`energy`], [`optimize`],
//!    [`estimators`]): fit a symmetric doubly-stochastic `H` to those `k x k` sketches
//!    with an explicit gradient, restarting from multiple points (DCEr).
//!
//! ## Quick example
//!
//! The [`Pipeline`] builder combines any estimator with any propagation backend:
//!
//! ```
//! use fg_core::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A synthetic graph with planted heterophilous compatibilities.
//! let config = GeneratorConfig::balanced(1000, 10.0, 3, 8.0).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let synthetic = generate(&config, &mut rng).unwrap();
//!
//! // Only 5% of the nodes are labeled.
//! let seeds = synthetic.labeling.stratified_sample(0.05, &mut rng);
//!
//! // Estimate the compatibilities with DCEr, then label the remaining nodes with
//! // LinBP (the default backend; swap in LoopyBp, Harmonic, or RandomWalk freely).
//! let report = Pipeline::on(&synthetic.graph)
//!     .seeds(&seeds)
//!     .estimator(DceWithRestarts::default())
//!     .propagator(LinBp::default())
//!     .run()
//!     .unwrap();
//!
//! let accuracy = report.accuracy(&synthetic.labeling, &seeds);
//! assert!(accuracy > 1.0 / 3.0); // well above random
//! assert_eq!(report.estimator, "DCEr(r=10,l=5,lambda=10)");
//! assert_eq!(report.propagator, "LinBP");
//! println!("{}", report.to_json()); // timings, iterations, convergence, ε
//! ```
//!
//! Comparison runs that evaluate several estimators on one seeded graph share a
//! cached [`EstimationContext`], so the `O(m·k·ℓmax)` summarization runs once:
//!
//! ```no_run
//! # use fg_core::prelude::*;
//! # fn demo(graph: &Graph, seeds: &SeedLabels) -> fg_core::Result<()> {
//! let ctx = EstimationContext::new(graph, seeds).threads(Threads::Auto);
//! ctx.warm(&SummaryConfig::with_max_length(5))?; // one O(m·k·lmax) summarization
//! for estimator in [estimator_by_name("mce").unwrap(), estimator_by_name("dcer").unwrap()] {
//!     let report = Pipeline::on(graph)
//!         .seeds(seeds)
//!         .context(&ctx)
//!         .estimator(estimator)
//!         .run()?;
//!     println!("{}", report.to_json()); // summarize vs optimize timings split out
//! }
//! assert_eq!(ctx.summary_computations(), 1); // every request came from the cache
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod energy;
pub mod error;
pub mod estimators;
pub mod incremental;
pub mod lowrank_counts;
pub mod normalization;
pub mod optimize;
pub mod param;
pub mod paths;
pub mod pipeline;
pub mod store;

pub use context::{Estimate, EstimationContext, SummaryCache, Work};
pub use energy::{distance_weights, DceEnergy, EnergyFunction, LceEnergy, MceEnergy};
pub use error::{CoreError, Result};
pub use estimators::registry::{
    estimator_by_name, estimator_by_name_with, EstimatorOptions, ESTIMATORS,
};
pub use estimators::{
    CompatibilityEstimator, DceConfig, DceWithRestarts, DistantCompatibilityEstimation,
    GoldStandard, HoldoutConfig, HoldoutEstimation, LinearCompatibilityEstimation,
    MyopicCompatibilityEstimation, TwoValueHeuristic,
};
pub use incremental::{validate_mutations, ApplyOutcome, DeltaStats, DeltaSummary, SeedMutation};
pub use lowrank_counts::lowrank_path_counts;
pub use normalization::NormalizationVariant;
pub use optimize::{
    minimize, nelder_mead, GradientDescentConfig, NelderMeadConfig, NelderMeadOutcome,
    OptimizationOutcome,
};
pub use param::{
    free_parameter_positions, free_to_matrix, matrix_to_free, num_free_parameters,
    project_gradient, restart_points, uniform_start,
};
pub use paths::{
    explicit_adjacency_power, explicit_nb_power, statistics_from_explicit, summarize,
    summarize_with, CountingBackend, GraphSummary, SummaryConfig, DEFAULT_LOWRANK_RANK,
};
pub use pipeline::{Pipeline, PipelineReport};
pub use store::{
    EntryMeta, EstimateKey, EstimateMeta, FactorKey, FactorMeta, GcOutcome, GraphKey, GraphMeta,
    Record, RecordKind, StoreEntry, SummaryKey, SummaryMeta, SummaryStore,
};

/// Convenience re-exports covering the most common end-to-end usage: graph generation,
/// estimation, propagation, and metrics.
pub mod prelude {
    pub use crate::context::{EstimationContext, SummaryCache};
    pub use crate::estimators::registry::{estimator_by_name, EstimatorOptions};
    pub use crate::estimators::{
        CompatibilityEstimator, DceConfig, DceWithRestarts, DistantCompatibilityEstimation,
        GoldStandard, HoldoutEstimation, LinearCompatibilityEstimation,
        MyopicCompatibilityEstimation, TwoValueHeuristic,
    };
    pub use crate::incremental::{DeltaSummary, SeedMutation};
    pub use crate::normalization::NormalizationVariant;
    pub use crate::paths::{summarize, summarize_with, CountingBackend, SummaryConfig};
    pub use crate::pipeline::{Pipeline, PipelineReport};
    pub use crate::store::SummaryStore;
    pub use fg_graph::{
        generate, measure_compatibilities, CompatibilityMatrix, DegreeDistribution, Fingerprint,
        GeneratorConfig, Graph, Labeling, SeedLabels,
    };
    pub use fg_propagation::{
        harmonic_functions, multi_rank_walk, propagate, Harmonic, HarmonicConfig, LinBp,
        LinBpConfig, LoopyBp, PropagationOutcome, Propagator, RandomWalk, RandomWalkConfig,
    };
    pub use fg_sparse::{DenseMatrix, Threads};
}
