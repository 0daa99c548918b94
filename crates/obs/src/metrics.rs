//! Atomic metrics and a Prometheus-text registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are lock-free on the hot
//! path: one relaxed `fetch_add` per event. The [`MetricsRegistry`] locks only
//! on handle creation and on [`render`](MetricsRegistry::render), both cold
//! paths; callers cache the `Arc` handles and hammer them directly.
//!
//! Rendering follows the Prometheus text exposition format (`# HELP` / `# TYPE`
//! headers, `name{labels} value` samples, cumulative `_bucket{le=..}` plus
//! `_sum` / `_count` for histograms). Families render in name order and series
//! in label order — the output is deterministic for a given set of observations,
//! which is what the golden test pins.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency buckets (seconds): exponential from 100µs to 10s, the usual
/// Prometheus shape for request latencies. The `+Inf` bucket is implicit.
pub fn default_latency_buckets() -> &'static [f64] {
    &[
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
        5.0, 10.0,
    ]
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (live connections, resident engines).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `f64` observations (latencies in seconds).
///
/// Buckets are cumulative-rendered but stored per-bucket; the sum is kept in
/// nanoseconds (`u64`) so concurrent observers need no compare-and-swap loop.
/// Quantiles interpolate linearly inside the winning bucket, the standard
/// Prometheus `histogram_quantile` estimate.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows the last.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    /// Total of all observations, in nanoseconds.
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation (seconds for latency histograms).
    #[inline]
    pub fn observe(&self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        let nanos = if value > 0.0 { (value * 1e9) as u64 } else { 0 };
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] observation.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in seconds.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Estimated quantile `q` in `[0, 1]`: linear interpolation inside the
    /// bucket holding the target rank. Observations in the `+Inf` bucket clamp
    /// to the largest finite bound. Returns 0.0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                if i >= self.bounds.len() {
                    // The +Inf bucket has no upper edge to interpolate toward.
                    return self.bounds.last().copied().unwrap_or(0.0);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = (rank - cumulative as f64) / c as f64;
                return lower + (upper - lower) * into.clamp(0.0, 1.0);
            }
            cumulative = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Median estimate (`quantile(0.5)`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// One registered series: the shared handle plus its label set.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A metric family: every series sharing one name, help text, and type.
#[derive(Debug, Default)]
struct Family {
    help: String,
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A global-free registry of metric families.
///
/// Each owner (a serve session, a bench harness, a test) creates its own
/// registry; nothing is process-global, so concurrent sessions and tests never
/// share counters. Handle lookups lock a `Mutex` — do them once and cache the
/// returned `Arc`, or accept the (small) lock cost on low-rate paths.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name{labels}`. `help` is recorded on first
    /// registration of the family.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.handle(name, help, labels, || Handle::Counter(Arc::default())) {
            Handle::Counter(c) => c,
            _ => panic!("metric '{name}' is registered as a non-counter"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.handle(name, help, labels, || Handle::Gauge(Arc::default())) {
            Handle::Gauge(g) => g,
            _ => panic!("metric '{name}' is registered as a non-gauge"),
        }
    }

    /// Get or create the histogram `name{labels}` with the given bucket bounds
    /// (used only when the series is first created).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type, or the
    /// bounds are not strictly ascending.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self.handle(name, help, labels, || {
            Handle::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Handle::Histogram(h) => h,
            _ => panic!("metric '{name}' is registered as a non-histogram"),
        }
    }

    fn handle(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        create: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        key.sort();
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_default();
        if family.help.is_empty() {
            family.help = help.to_string();
        }
        family.series.entry(key).or_insert_with(create).clone()
    }

    /// Every series of the counter family `name` as `(labels, value)`, in label
    /// order (labels sorted by key within a series); empty when the family does
    /// not exist or is not a counter. The read side for callers that report
    /// totals from the registry instead of keeping counters of their own.
    pub fn counter_values(&self, name: &str) -> Vec<(Vec<(String, String)>, u64)> {
        let families = self.families.lock().expect("metrics registry poisoned");
        let Some(family) = families.get(name) else {
            return Vec::new();
        };
        family
            .series
            .iter()
            .filter_map(|(labels, handle)| match handle {
                Handle::Counter(c) => Some((labels.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Render every family in Prometheus text exposition format, families in
    /// name order and series in label order.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = match family.series.values().next() {
                Some(Handle::Counter(_)) => "counter",
                Some(Handle::Gauge(_)) => "gauge",
                Some(Handle::Histogram(_)) => "histogram",
                None => continue,
            };
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, handle) in family.series.iter() {
                match handle {
                    Handle::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            c.get()
                        ));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            g.get()
                        ));
                    }
                    Handle::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cumulative += h.buckets[i].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                render_labels(labels, Some(&format_bound(*bound)))
                            ));
                        }
                        cumulative += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{name}_bucket{} {cumulative}\n",
                            render_labels(labels, Some("+Inf"))
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(labels, None),
                            format_float(h.sum())
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Render a label set (optionally with a trailing `le` label) as
/// `{k1="v1",k2="v2"}`, or the empty string when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Bucket bounds render without trailing zeros (`0.005`, not `0.005000`), the
/// conventional Prometheus spelling.
fn format_bound(b: f64) -> String {
    let mut s = format!("{b}");
    if !s.contains('.') && !s.contains('e') {
        s.push_str(".0");
    }
    s
}

/// Sums render as plain floats (never scientific notation for typical ranges).
fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("fg_requests_total", "Requests", &[("cmd", "ping")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = registry.gauge("fg_connections_active", "Live connections", &[]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        // The same (name, labels) pair returns the same underlying series.
        let c2 = registry.counter("fg_requests_total", "Requests", &[("cmd", "ping")]);
        c2.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::new(&[0.001, 0.01, 0.1, 1.0]);
        for _ in 0..100 {
            h.observe(0.005);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!(p50 > 0.001 && p50 <= 0.01, "p50 = {p50}");
        // An overflow observation clamps quantiles to the last finite bound.
        let h = Histogram::new(&[0.001, 0.01]);
        h.observe(5.0);
        assert_eq!(h.p99(), 0.01);
        // No observations: quantiles are 0.
        let h = Histogram::new(&[0.001]);
        assert_eq!(h.p50(), 0.0);
    }

    #[test]
    fn render_is_deterministic_and_prometheus_shaped() {
        let registry = MetricsRegistry::new();
        registry
            .counter(
                "fg_requests_total",
                "Requests by command.",
                &[("cmd", "ping")],
            )
            .add(3);
        registry
            .counter(
                "fg_requests_total",
                "Requests by command.",
                &[("cmd", "load")],
            )
            .inc();
        registry
            .gauge("fg_connections_active", "Live connections.", &[])
            .set(2);
        let h = registry.histogram(
            "fg_request_seconds",
            "Request latency.",
            &[("cmd", "ping")],
            &[0.001, 0.01],
        );
        h.observe(0.0005);
        h.observe(0.5);
        let rendered = registry.render();
        let expected = "\
# HELP fg_connections_active Live connections.
# TYPE fg_connections_active gauge
fg_connections_active 2
# HELP fg_request_seconds Request latency.
# TYPE fg_request_seconds histogram
fg_request_seconds_bucket{cmd=\"ping\",le=\"0.001\"} 1
fg_request_seconds_bucket{cmd=\"ping\",le=\"0.01\"} 1
fg_request_seconds_bucket{cmd=\"ping\",le=\"+Inf\"} 2
fg_request_seconds_sum{cmd=\"ping\"} 0.5005
fg_request_seconds_count{cmd=\"ping\"} 2
# HELP fg_requests_total Requests by command.
# TYPE fg_requests_total counter
fg_requests_total{cmd=\"load\"} 1
fg_requests_total{cmd=\"ping\"} 3
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let registry = Arc::new(MetricsRegistry::new());
        let h = registry.histogram(
            "fg_request_seconds",
            "Latency.",
            &[],
            default_latency_buckets(),
        );
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.observe((t * per_thread + i) as f64 * 1e-7);
                    }
                });
            }
        });
        assert_eq!(h.count(), (threads * per_thread) as u64);
        let bucket_total: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucket_total, h.count());
    }

    #[test]
    fn counter_values_read_back_every_series_in_label_order() {
        let registry = MetricsRegistry::new();
        registry
            .counter("fg_requests_total", "Requests.", &[("cmd", "ping")])
            .add(3);
        registry
            .counter("fg_requests_total", "Requests.", &[("cmd", "load")])
            .inc();
        registry.gauge("fg_connections_active", "Live.", &[]).set(2);
        let label = |cmd: &str| vec![("cmd".to_string(), cmd.to_string())];
        assert_eq!(
            registry.counter_values("fg_requests_total"),
            vec![(label("load"), 1), (label("ping"), 3)]
        );
        assert!(registry.counter_values("fg_absent_total").is_empty());
        assert!(registry.counter_values("fg_connections_active").is_empty());
    }

    #[test]
    #[should_panic(expected = "registered as a non-counter")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.gauge("fg_mixed", "Gauge.", &[]);
        registry.counter("fg_mixed", "Counter.", &[]);
    }
}
