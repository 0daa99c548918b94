//! Metric catalogue, latency statistics and the result line.
//!
//! Every run emits exactly one of two fixed metric sets: the end-to-end set
//! (untraced runs) or the per-layer set (`--trace 1`). The sets are declared
//! here once; `BENCHMARK.json` at the repository root declares the same names,
//! which a test checks.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: what a user of the batch pipeline or the server sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics. A layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("datasets.io.parse_ms", "ms"),
    ("datasets.construct.build_ms", "ms"),
    ("core.context.fingerprint_ms", "ms"),
    ("graph.lowrank.factor_ms", "ms"),
    ("graph.lowrank.iterations", "count"),
    ("core.paths.summarize_ms", "ms"),
    ("sparse.spmm_ms", "ms"),
    ("sparse.spmm_calls", "count"),
    ("core.estimators.optimize_ms", "ms"),
    ("propagation.propagate_ms", "ms"),
    ("propagation.iterations", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("cost_model.summarize_growth", "ratio"),
    ("cost_model.optimize_growth", "ratio"),
    ("serve.session.handle_ms.classify", "ms"),
    ("serve.session.handle_ms.estimate", "ms"),
    ("serve.session.handle_ms.seed", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.json.parse_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.lock_wait_ms.dataset_read", "ms"),
    ("serve.lock_wait_ms.dataset_write", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p90_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p90_ms", "ms"),
    ("core.incremental.rows_touched", "count"),
    ("core.incremental.full_recomputes", "count"),
    ("core.context.warm_ratio", "ratio"),
    ("serve.engine_reuse", "ratio"),
    ("serve.engine_evictions", "ratio"),
    ("core.store.bytes", "bytes"),
];

/// One measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// The values a workload measured, by metric name.
pub type Values = BTreeMap<&'static str, Value>;

/// Record `value` (summarizing `samples` samples) under `name`.
pub fn put(values: &mut Values, name: &'static str, value: f64, samples: usize) {
    values.insert(name, Value { value, samples });
}

/// The highest of p99, p90, p75 and p50 that leaves at least ten samples
/// beyond it, so a tail percentile is never read off a handful of samples
/// (p99 needs 1000 of them, p90 needs 100). `None` below 20 samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Nearest rank of percentile p is ceil(p * n / 100); the rest lie beyond it.
    [99, 90, 75, 50]
        .into_iter()
        .find(|p| samples - (p * samples).div_ceil(100) >= 10)
        .map(|p| p as f64)
}

/// Latencies of one class of operations.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<Duration>);

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in milliseconds (0 when empty).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort();
        fg_bench::percentile_ms(&sorted, p)
    }

    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }

    /// Record the median under `p50` and the 90th percentile under `p90`. A
    /// p90 the percentile rule does not admit is still recorded, with a warning.
    pub fn put_p50_p90(&self, values: &mut Values, p50: &'static str, p90: &'static str) {
        let n = self.len();
        if tail_percentile(n).is_none_or(|p| p < 90.0) {
            eprintln!("benchmark: warning: {p90} from {n} samples; the percentile rule wants 100");
        }
        put(values, p50, self.percentile_ms(50.0), n);
        put(values, p90, self.percentile_ms(90.0), n);
    }
}

/// The end-to-end values every workload reports. `busy` is the time the ops
/// had: their summed latency for the sequential batch loop, the wall time of
/// the timed phase for concurrent serving clients. `peak_rss_mb` is read when
/// the timed phase ends, before any oracle or the accuracy panel allocates.
pub fn put_end_to_end(
    values: &mut Values,
    setup: &Latencies,
    ops: &Latencies,
    busy: Duration,
    peak_rss_mb: f64,
    (accuracy, accuracy_samples): (f64, usize),
) {
    let setup_s = setup.percentile_ms(50.0) / 1e3;
    put(values, "setup_s", setup_s, setup.len());
    put(values, "op_p50_ms", ops.percentile_ms(50.0), ops.len());
    let throughput = ops.len() as f64 / busy.as_secs_f64();
    put(values, "throughput_ops_s", throughput, ops.len());
    put(values, "accuracy", accuracy, accuracy_samples);
    put(values, "peak_rss_mb", peak_rss_mb, 1);
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What one run prints: its operation counts and one metric set.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, Value)>,
}

impl RunResult {
    /// Lay `values` out as the catalogue for this kind of run: every catalogue
    /// metric appears once, layers the workload did not run as 0. A value
    /// outside the catalogue or a non-finite one is a bug in the benchmark.
    pub fn new(attempted: u64, failed: u64, traced: bool, mut values: Values) -> RunResult {
        let catalogue: &[(&'static str, &'static str)] =
            if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = values.remove(name).unwrap_or(Value {
                    value: 0.0,
                    samples: 0,
                });
                assert!(
                    value.value.is_finite(),
                    "{name} is not finite: {}",
                    value.value
                );
                (name, unit, value)
            })
            .collect();
        assert!(
            values.is_empty(),
            "metrics outside the catalogue: {values:?}"
        );
        RunResult {
            attempted,
            failed,
            metrics,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One aligned line per metric, with its unit and sample count.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        )];
        for (name, unit, v) in &self.metrics {
            lines.push(format!(
                "  {name:<36} {:>14.4} {unit:<8} n={}",
                v.value, v.samples
            ));
        }
        lines
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", v.value)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(*name), "metric {name} declared twice");
        }
    }

    #[test]
    fn result_line_is_json_with_every_catalogue_metric() {
        let mut values = Values::new();
        put(&mut values, "op_p50_ms", 1.25, 10);
        let result = RunResult::new(10, 1, false, values);
        let parsed = fg_serve::Json::parse(&result.json_line()).expect("valid JSON");
        assert_eq!(
            parsed.get("correct").and_then(fg_serve::Json::as_bool),
            Some(false)
        );
        assert_eq!(
            parsed.get("attempted").and_then(fg_serve::Json::as_usize),
            Some(10)
        );
        let metrics = parsed.get("metrics").expect("metrics object");
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).expect("catalogue metric present");
            assert_eq!(
                metric.get("unit").and_then(fg_serve::Json::as_str),
                Some(unit)
            );
        }
        let p50 = metrics.get("op_p50_ms").and_then(|m| m.get("value"));
        assert_eq!(p50.and_then(fg_serve::Json::as_f64), Some(1.25));
    }
}
