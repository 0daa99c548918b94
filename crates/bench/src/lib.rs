//! # fg-bench
//!
//! Experiment harness shared by the figure-reproduction binaries (`src/bin/fig*.rs`), the
//! `cargo bench` targets (timed with the manual harness in [`micro`]; the build has no
//! Criterion) and the end-to-end benchmark (`src/bin/benchmark/`), which is the project's
//! one measuring instrument. Every table and figure of the paper's evaluation section has
//! a corresponding binary that prints the same rows/series the paper reports and writes a
//! CSV under `target/experiments/`.
//!
//! The harness keeps experiment sizes configurable through the `FG_SCALE` environment
//! variable (default 1.0 for figure binaries, where the built-in sizes are already
//! laptop-friendly reductions of the paper's setups).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod micro;
pub mod sweeps;

pub use harness::{
    detected_cores, percentile_ms, scale_factor, scaled_n, time_it, ExperimentTable,
};
pub use micro::{bench_iters, run_bench, BenchMeasurement};
pub use sweeps::{
    accuracy_vs_backend, accuracy_vs_backend_parallel, accuracy_vs_construction,
    accuracy_vs_sparsity, accuracy_vs_sparsity_parallel, accuracy_vs_sparsity_with,
    backends_to_table, construction_to_table, estimator_set, l2_vs_sparsity, outcomes_to_table,
    run_cells_parallel, warm_context_for, BackendOutcome, ConstructionOutcome, EstimatorKind,
    SweepOutcome,
};
