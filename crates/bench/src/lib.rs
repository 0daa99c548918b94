//! # fg-bench
//!
//! The paper's evaluation as one checked reproduction, plus the helpers the
//! end-to-end benchmark (`src/bin/benchmark/`) shares.
//!
//! [`figures::ROWS`] holds one row per figure panel (Figs. 3, 5–8, 10, 12 and
//! 14, and the graph-construction comparison): the run that prints the
//! panel's tables and writes them as CSVs under `target/experiments/`, and the
//! checks of the claims those tables should bear out. The `reproduce` binary
//! runs the rows (all, or the ids it is given) at the one scale at which each
//! claim is meant to hold and ends with one verdict per row; it exits non-zero
//! when a claim fails that [`figures::DEVIATIONS`] does not list, or a listed
//! one holds. The rows are built on the sweeps in [`sweeps`] and the table
//! bookkeeping in [`harness`]. The benchmark is the only performance harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod sweeps;

pub use harness::{detected_cores, percentile_ms};
