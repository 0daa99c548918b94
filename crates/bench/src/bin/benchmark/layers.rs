//! Bench-side layer spans and the per-layer times read back from a capture.
//!
//! The batch workloads wrap each call into a layer's public API in a span named
//! after the layer, all inside one `op` span per operation. Production spans
//! (`summarize`, `spmm`, ...) recorded during the call nest under the layer's
//! span and count toward it.

use fg_obs::Trace;
use std::collections::BTreeMap;

/// Root span of one operation.
pub const OP: &str = "op";
/// `fg_datasets::read_edge_list` + `read_labels`.
pub const PARSE: &str = "datasets.io.parse";
/// `GraphBuilder::build`.
pub const BUILD: &str = "datasets.construct.build";
/// `EstimationContext::new`, which fingerprints the graph and the seeds.
pub const CONTEXT: &str = "core.context.fingerprint";
/// `EstimationContext::factor` (the eigensolve).
pub const FACTOR: &str = "graph.lowrank.factor";
/// `EstimationContext::warm` (exact counting, or the factor recurrence).
pub const SUMMARIZE: &str = "core.paths.summarize";
/// `CompatibilityEstimator::estimate_with_context`.
pub const OPTIMIZE: &str = "core.estimators.optimize";
/// `Propagator::propagate`.
pub const PROPAGATE: &str = "propagation.propagate";

/// Every layer span, in pipeline order.
pub const LAYERS: [&str; 7] = [
    PARSE, BUILD, CONTEXT, FACTOR, SUMMARIZE, OPTIMIZE, PROPAGATE,
];

/// Production span name of one sparse-times-dense product.
const SPMM: &str = "spmm";

/// Per-layer totals over the `op` spans of one capture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Completed `op` spans.
    pub ops: usize,
    /// Total time inside `op` spans.
    pub op_ns: u64,
    /// Self time per layer: the layer span's time minus the layer spans nested
    /// in it on the same thread.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Inclusive time of production `spmm` spans on the op thread.
    pub spmm_ns: u64,
    /// Number of those `spmm` spans.
    pub spmm_calls: usize,
}

impl Breakdown {
    /// Read the breakdown off a capture. Spans outside an `op` (including every
    /// span on a kernel worker thread, which roots its own lane) are ignored.
    pub fn from_trace(trace: &Trace) -> Breakdown {
        let tree = trace.aggregate();
        let totals: BTreeMap<&str, u64> =
            tree.iter().map(|s| (s.path.as_str(), s.total_ns)).collect();
        let mut out = Breakdown::default();
        for span in &tree {
            if span.path.split('/').next() != Some(OP) {
                continue;
            }
            if span.depth == 0 {
                out.ops += span.count;
                out.op_ns += span.total_ns;
                continue;
            }
            let last = span.path.rsplit('/').next().unwrap_or_default();
            if let Some(layer) = LAYERS.iter().find(|&&l| l == last) {
                let nested: u64 = LAYERS
                    .iter()
                    .filter_map(|l| totals.get(format!("{}/{l}", span.path).as_str()))
                    .sum();
                *out.self_ns.entry(layer).or_default() += span.total_ns.saturating_sub(nested);
            } else if last == SPMM {
                out.spmm_ns += span.total_ns;
                out.spmm_calls += span.count;
            }
        }
        out
    }

    /// Mean self time of `layer` per op, in milliseconds.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.per_op(self.self_ns.get(layer).copied().unwrap_or(0)) / 1e6
    }

    /// Share of op time that the layer spans account for.
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.self_ns.values().sum::<u64>() as f64 / self.op_ns as f64
    }

    /// Mean of a per-capture total over the ops.
    pub fn per_op(&self, total: u64) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        total as f64 / self.ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_obs::SpanRecord;

    fn record(
        name: &'static str,
        tid: u64,
        depth: usize,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            tid,
            depth,
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_layers_on_the_same_thread_only() {
        let trace = Trace {
            records: vec![
                // Thread 1: two ops.
                record(OP, 1, 0, 0, 100),
                record(PARSE, 1, 1, 0, 20),
                record(SUMMARIZE, 1, 1, 20, 50),
                // Production spans inside a layer count toward it.
                record("summarize", 1, 2, 22, 45),
                record("spmm", 1, 3, 25, 30),
                // A layer nested in another layer is charged to the inner one.
                record(OPTIMIZE, 1, 1, 70, 25),
                record(PROPAGATE, 1, 2, 80, 10),
                record("spmm", 1, 3, 82, 5),
                record(OP, 1, 0, 200, 50),
                record(PROPAGATE, 1, 1, 200, 40),
                // Worker lanes root their own paths and never reduce op-thread
                // self time, even when they overlap it.
                record("spmm_chunk", 2, 0, 25, 30),
                record(SUMMARIZE, 3, 0, 25, 30),
                // Spans outside an op are ignored.
                record(PARSE, 1, 0, 300, 1000),
            ],
            dropped: 0,
        };
        let b = Breakdown::from_trace(&trace);
        assert_eq!(b.ops, 2);
        assert_eq!(b.op_ns, 150);
        assert_eq!(b.self_ns[PARSE], 20);
        assert_eq!(b.self_ns[SUMMARIZE], 50);
        assert_eq!(b.self_ns[OPTIMIZE], 15);
        assert_eq!(b.self_ns[PROPAGATE], 50);
        assert_eq!(b.spmm_ns, 35);
        assert_eq!(b.spmm_calls, 2);
        assert_eq!(b.layer_ms(PROPAGATE), 25.0 / 1e6);
        assert!((b.coverage() - 135.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_capture_has_no_ops() {
        let b = Breakdown::from_trace(&Trace::default());
        assert_eq!(b, Breakdown::default());
        assert_eq!(b.coverage(), 0.0);
        assert_eq!(b.layer_ms(PARSE), 0.0);
    }
}
