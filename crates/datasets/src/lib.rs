//! # fg-datasets
//!
//! Real-world dataset substitutes and graph IO for the `factorized-graphs` workspace.
//!
//! The paper evaluates on eight real graphs (Cora, Citeseer, Hep-Th, MovieLens, Enron,
//! Prop-37, Pokec-Gender, Flickr). This crate encodes their *published* statistics —
//! sizes, class imbalance, and the gold-standard compatibility matrices printed in
//! Fig. 13 — and synthesizes substitute graphs with exactly those properties, so the
//! estimation experiments exercise the same code paths without redistributing the
//! original data. A simple edge-list / label-file IO layer is included for running the
//! estimators on user-provided graphs.
//!
//! The [`construct`] module opens a second front door: it builds graphs directly from
//! raw feature matrices (exact kNN and sparse-regularized reconstruction builders),
//! so any tabular or embedding dataset becomes a workload without a pre-existing
//! edge list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod construct;
pub mod io;
pub mod specs;
pub mod synthesize;

pub use construct::{
    construction_by_name, features_fingerprint, synthesize_blobs, BlobConfig, ConstructionOptions,
    GraphBuilder, KnnBuilder, Metric, SparseRegBuilder, Symmetrize, Weighting, BUILDERS,
};
pub use io::{
    format_edge_list, format_features, format_labels, parse_edge_list, parse_features,
    parse_labels, read_edge_list, read_features, read_labels, write_edge_list, write_features,
    FeatureData,
};
pub use specs::{spec, DatasetId, DatasetSpec};
pub use synthesize::{synthesize, DatasetInstance};
