//! # fg-serve — the online serving subsystem
//!
//! A long-lived session engine that turns the batch reproduction into a service:
//! load graphs once (under any number of names), stream seed mutations, and answer
//! estimation / classification queries whose summaries are maintained
//! **incrementally** by [`fg_core::incremental::DeltaSummary`] — after warm-up, a
//! seed change costs work proportional to the mutated node's neighborhood and
//! subsequent requests perform zero full summarizations, with results bit-identical
//! to a cold batch run.
//!
//! Each named dataset lives behind its own reader/writer lock, so warm reads from
//! concurrent clients overlap while mutations stay exclusive; a per-dataset LRU of
//! engine states keyed by seed fingerprint keeps recent seed configurations warm
//! (see [`session`]). When a persistent summary store is attached, estimates for
//! the loaded seed set are served straight from persisted `H` entries.
//!
//! The protocol is dependency-free JSON-lines (see [`session`] for the command
//! reference), served over stdin/stdout ([`serve_lines`]) and TCP ([`TcpServer`]),
//! both bounded by [`ServeLimits`] (connection cap, request-line cap, per-connection
//! request budget); [`send_requests`] is the matching one-shot client. The
//! `fg serve` and `fg client` CLI commands are thin wrappers over these entry
//! points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod server;
pub mod session;

pub use json::Json;
pub use server::{
    scrape_metrics, send_requests, send_requests_watched, serve_lines, serve_lines_with,
    with_watchdog, MetricsServer, ServeLimits, TcpServer,
};
pub use session::{predictions_to_file_format, Flow, Session, DEFAULT_DATASET};
