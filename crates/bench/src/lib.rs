//! # fg-bench
//!
//! Experiment harness shared by the figure-reproduction binaries (`src/bin/fig*.rs`), the
//! `accuracy_vs_construction` experiment under `benches/` and the end-to-end benchmark
//! (`src/bin/benchmark/`). These are the project's only timers: the fig binaries time the
//! paper's cost claims, and the benchmark measures the same stages layer by layer. Every
//! table and figure of the paper's evaluation section has a corresponding binary that
//! prints the same rows/series the paper reports and writes a CSV under
//! `target/experiments/`.
//!
//! The harness keeps experiment sizes configurable through the `FG_SCALE` environment
//! variable (default 1.0 for figure binaries, where the built-in sizes are already
//! laptop-friendly reductions of the paper's setups).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod sweeps;

pub use harness::{
    detected_cores, percentile_ms, scale_factor, scaled_n, time_it, ExperimentTable,
};
pub use sweeps::{
    accuracy_vs_backend, accuracy_vs_construction, accuracy_vs_sparsity, backends_to_table,
    construction_to_table, estimator_set, outcomes_to_table, warm_context_for, BackendOutcome,
    ConstructionOutcome, EstimatorKind, SweepOutcome,
};
