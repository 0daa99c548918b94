//! End-to-end protocol tests: session semantics, error handling, warm-up /
//! incremental counters, stdio loop, and concurrent TCP clients.

use fg_core::prelude::*;
use fg_serve::{send_requests_watched, serve_lines, with_watchdog, Json, Session, TcpServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Write a synthetic dataset (edge list + sparse seed labels + full truth labels)
/// into a temp dir; returns (dir, edges, seeds, truth, labeling).
fn dataset(name: &str) -> (PathBuf, PathBuf, PathBuf, Labeling) {
    dataset_seeded(name, 42)
}

/// [`dataset`] from generator seed `seed`, so datasets can be made disjoint.
fn dataset_seeded(name: &str, seed: u64) -> (PathBuf, PathBuf, PathBuf, Labeling) {
    let dir = std::env::temp_dir().join(format!("fg_serve_test_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = GeneratorConfig::balanced(400, 8.0, 3, 8.0).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.08, &mut rng);
    let edges = dir.join("edges.tsv");
    let seeds_path = dir.join("seeds.tsv");
    fg_datasets::write_edge_list(&edges, &syn.graph).unwrap();
    let mut seed_lines = String::new();
    for (node, label) in seeds.as_slice().iter().enumerate() {
        if let Some(c) = label {
            seed_lines.push_str(&format!("{node}\t{c}\n"));
        }
    }
    std::fs::write(&seeds_path, seed_lines).unwrap();
    (dir, edges, seeds_path, syn.labeling)
}

fn parse(response: &str) -> Json {
    Json::parse(response).unwrap_or_else(|e| panic!("unparsable response {response}: {e}"))
}

fn assert_ok(response: &str) -> Json {
    let parsed = parse(response);
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected success: {response}"
    );
    parsed.get("result").cloned().unwrap()
}

fn load_line(edges: &std::path::Path, seeds: &std::path::Path) -> String {
    format!(
        "{{\"cmd\":\"load\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":400,\"classes\":3}}",
        edges.display(),
        seeds.display()
    )
}

#[test]
fn session_serves_load_seed_estimate_classify_with_incremental_counters() {
    let (dir, edges, seeds_path, truth) = dataset("flow");
    let session = Session::new(Threads::Serial, None);

    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 1);
    let loaded = assert_ok(&resp);
    assert_eq!(loaded.get("nodes").and_then(Json::as_usize), Some(400));
    let labeled_before = loaded.get("labeled").and_then(Json::as_usize).unwrap();

    // Warm-up estimate: exactly one full summarization (the engine build).
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    let estimate = assert_ok(&resp);
    assert_eq!(
        estimate
            .get("summary_computations")
            .and_then(Json::as_usize),
        Some(1),
        "{resp}"
    );
    let h = estimate.get("h").and_then(Json::as_array).unwrap();
    assert_eq!(h.len(), 3);

    // Mutate a seed: the engine absorbs it as a delta.
    let seeds = fg_datasets::read_labels(&seeds_path, 400, 3).unwrap();
    let node = seeds.unlabeled_nodes()[0];
    let (resp, _) = session.handle_line(
        &format!(
            "{{\"cmd\":\"seed\",\"add\":[[{node},{}]]}}",
            truth.class_of(node)
        ),
        3,
    );
    let seeded = assert_ok(&resp);
    assert_eq!(
        seeded.get("labeled").and_then(Json::as_usize),
        Some(labeled_before + 1)
    );
    assert_eq!(
        seeded.get("delta_applied").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(
        seeded.get("engine_reused").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        seeded.get("full_recomputes").and_then(Json::as_usize),
        Some(0)
    );
    assert!(seeded.get("rows_touched").and_then(Json::as_usize).unwrap() > 0);

    // Classify after the mutation: zero full summarizations — the incremental
    // engine published the updated counts.
    let (resp, _) = session.handle_line("{\"cmd\":\"classify\",\"method\":\"dcer\"}", 4);
    let classify = assert_ok(&resp);
    assert_eq!(
        classify
            .get("summary_computations")
            .and_then(Json::as_usize),
        Some(0),
        "{resp}"
    );
    let predictions = classify
        .get("predictions")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(predictions.len(), 400);

    // The streamed predictions are bit-identical to a cold batch pipeline on the
    // mutated seed set.
    let graph = fg_datasets::read_edge_list(&edges, 400).unwrap();
    let mut batch_seeds = seeds.clone();
    batch_seeds
        .set_label(node, Some(truth.class_of(node)))
        .unwrap();
    let estimator = fg_core::estimator_by_name("dcer").unwrap();
    let report = Pipeline::on(&graph)
        .seeds(&batch_seeds)
        .estimator(estimator)
        .run()
        .unwrap();
    let served: Vec<usize> = predictions.iter().map(|p| p.as_usize().unwrap()).collect();
    assert_eq!(served, report.outcome.predictions);

    // Node-subset and abstain-aware classification.
    let (resp, _) = session.handle_line(
        "{\"cmd\":\"classify\",\"method\":\"dcer\",\"nodes\":[0,5,9],\"abstain\":true}",
        5,
    );
    let subset = assert_ok(&resp);
    let pairs = subset.get("predictions").and_then(Json::as_array).unwrap();
    assert_eq!(pairs.len(), 3);
    assert_eq!(pairs[1].as_array().unwrap()[0].as_usize(), Some(5));
    assert!(subset
        .get("abstention_rate")
        .and_then(Json::as_f64)
        .is_some());

    // Stats reflect the session history.
    let (resp, _) = session.handle_line("{\"cmd\":\"stats\"}", 6);
    let stats = assert_ok(&resp);
    assert_eq!(
        stats.get("summary_computations").and_then(Json::as_usize),
        Some(1)
    );
    let default = stats
        .get("datasets")
        .and_then(|d| d.get("default"))
        .expect("stats must describe the default dataset");
    // Two resident engine states: the loaded seed set and the mutated fork.
    assert_eq!(
        default.get("engine_states").and_then(Json::as_usize),
        Some(2)
    );
    let engines = default.get("engines").and_then(Json::as_array).unwrap();
    assert_eq!(engines.len(), 2);
    assert!(
        engines
            .iter()
            .any(|e| e.get("delta_mutations").and_then(Json::as_usize) == Some(1)),
        "the forked engine absorbed the mutation as a delta: {resp}"
    );
    assert!(stats.get("commands").unwrap().get("classify").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_store_keeps_one_live_file_per_mode_across_mutations() {
    let (dir, edges, seeds_path, truth) = dataset("store_prune");
    let store_dir = dir.join("summaries");
    let store = std::sync::Arc::new(fg_core::SummaryStore::open(&store_dir).unwrap());
    let session = Session::new(Threads::Serial, Some(std::sync::Arc::clone(&store)));
    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    assert_ok(&resp);
    // The warm-up persists the loaded seed set's summary (`.fgsum`) and its
    // estimated H (`.fgh`) — both shared with batch runs on the same files.
    let files_with = |suffix: &str| -> Vec<String> {
        store
            .entries()
            .unwrap()
            .into_iter()
            .map(|e| e.file)
            .filter(|f| f.ends_with(suffix))
            .collect()
    };
    assert_eq!(files_with(".fgsum").len(), 1);
    assert_eq!(files_with(".fgh").len(), 1);
    let initial_file = files_with(".fgsum")[0].clone();

    // Each mutation supersedes the previous *session-derived* fingerprint, whose
    // file is pruned when the replacement is persisted — but the loaded seed
    // file's entries survive (batch runs and future sessions re-derive them), so
    // the store holds at most two live summaries: the initial state's and the
    // current one's.
    let seeds = fg_datasets::read_labels(&seeds_path, 400, 3).unwrap();
    for (step, &node) in seeds.unlabeled_nodes().iter().take(3).enumerate() {
        let (resp, _) = session.handle_line(
            &format!(
                "{{\"cmd\":\"seed\",\"add\":[[{node},{}]]}}",
                truth.class_of(node)
            ),
            3 + 2 * step,
        );
        assert_ok(&resp);
        let (resp, _) =
            session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 4 + 2 * step);
        let estimate = assert_ok(&resp);
        assert_eq!(
            estimate
                .get("summary_computations")
                .and_then(Json::as_usize),
            Some(0),
            "{resp}"
        );
        let summaries = files_with(".fgsum");
        assert_eq!(
            summaries.len(),
            2,
            "store accumulated dead files: {summaries:?}"
        );
        assert!(
            summaries.contains(&initial_file),
            "the loaded seed file's shared store entry must survive mutations"
        );
        assert_eq!(files_with(".fgh").len(), 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_requests_get_line_numbered_errors_and_never_kill_the_session() {
    let (dir, edges, seeds_path, _) = dataset("errors");
    let session = Session::new(Threads::Serial, None);
    // Deep nesting is refused at a fixed depth instead of overflowing the stack.
    let deep = "[".repeat(200_000);
    for (line_no, (request, fragment)) in [
        ("{not json", "invalid JSON"),
        ("[1,2,3]", "'cmd'"),
        ("{\"cmd\":\"frobnicate\"}", "unknown command"),
        ("{\"cmd\":\"estimate\"}", "no dataset loaded"),
        ("{\"cmd\":\"seed\",\"add\":[[1,0]]}", "no dataset loaded"),
        (
            "{\"cmd\":\"load\",\"edges\":\"/nonexistent\",\"labels\":\"/nope\",\"nodes\":4,\"classes\":2}",
            "",
        ),
        ("{\"cmd\":\"load\",\"edges\":\"x\"}", "labels"),
        (deep.as_str(), "char 129: nesting deeper than 128 levels"),
    ]
    .iter()
    .enumerate()
    {
        let (resp, flow) = session.handle_line(request, line_no + 1);
        assert_eq!(flow, fg_serve::Flow::Continue);
        let parsed = parse(&resp);
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
        assert_eq!(
            parsed.get("line").and_then(Json::as_usize),
            Some(line_no + 1),
            "{resp}"
        );
        let error = parsed.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&format!("line {}", line_no + 1)), "{resp}");
        assert!(error.contains(fragment), "{resp} missing {fragment}");
    }

    // The session still works after all those failures.
    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 9);
    assert_ok(&resp);
    // Invalid mutations are rejected without corrupting state.
    let (resp, _) = session.handle_line("{\"cmd\":\"seed\",\"add\":[[999999,0]]}", 10);
    assert!(resp.contains("\"ok\":false"));
    let (resp, _) = session.handle_line("{\"cmd\":\"seed\",\"remove\":[0],\"id\":7}", 11);
    // node 0 may or may not be labeled; either a success or a clean error is fine,
    // but the id must be echoed.
    assert!(parse(&resp).get("id").is_some());
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"mce\"}", 12);
    assert_ok(&resp);
    // An unknown propagator gets the registry's one message, as `fg classify` prints it.
    let (resp, _) = session.handle_line("{\"cmd\":\"classify\",\"propagator\":\"nope\"}", 13);
    assert_eq!(
        parse(&resp).get("error").and_then(Json::as_str),
        Some(
            "line 13: unknown propagation method 'nope' (expected one of linbp, bp, harmonic, rw)"
        )
    );

    // Distinct unknown command names share one "unknown" stats entry and one
    // metric series, so junk requests cannot grow session state.
    let junk_session = Session::new(Threads::Serial, None);
    let junk = 200;
    for i in 0..junk {
        let (resp, _) = junk_session.handle_line(&format!("{{\"cmd\":\"junk{i}\"}}"), i + 1);
        assert!(resp.contains("unknown command"), "{resp}");
    }
    let scrape = junk_session.metrics().render();
    for family in [
        "fg_requests_total",
        "fg_request_errors_total",
        "fg_request_seconds_count",
    ] {
        let series: Vec<&str> = scrape
            .lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .collect();
        assert_eq!(series, [format!("{family}{{cmd=\"unknown\"}} {junk}")]);
    }
    let (resp, _) = junk_session.handle_line("{\"cmd\":\"stats\"}", junk + 1);
    let commands = assert_ok(&resp).get("commands").cloned().unwrap();
    assert_eq!(
        commands.to_string(),
        format!("{{\"unknown\":{{\"count\":{junk},\"errors\":{junk}}}}}")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stdio_loop_and_shutdown() {
    let (dir, edges, seeds_path, _) = dataset("stdio");
    let session = Session::new(Threads::Serial, None);
    let input = format!(
        "{}\n\n{{\"cmd\":\"ping\",\"id\":1}}\n{{\"cmd\":\"shutdown\"}}\n{{\"cmd\":\"ping\",\"id\":2}}\n",
        load_line(&edges, &seeds_path)
    );
    let mut output = Vec::new();
    serve_lines(&session, input.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Load + ping + shutdown were answered; the post-shutdown ping was not.
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[1].contains("\"pong\""));
    assert!(lines[1].contains("\"id\":1"));
    assert!(lines[2].contains("closing"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_tcp_clients_share_state_and_get_deterministic_responses() {
    const TEST: &str = "concurrent_tcp_clients_share_state_and_get_deterministic_responses";
    let (dir, edges, seeds_path, _) = dataset("tcp");
    let session = Arc::new(Session::new(Threads::Serial, None));
    let addr = TcpServer::spawn(Arc::clone(&session), "127.0.0.1:0").unwrap();

    // One client loads and warms the session.
    let responses = send_requests_watched(
        TEST,
        addr,
        &[
            load_line(&edges, &seeds_path),
            "{\"cmd\":\"estimate\",\"method\":\"mce\"}".to_string(),
        ],
    )
    .unwrap();
    assert_eq!(responses.len(), 2);
    assert_ok(&responses[0]);
    assert_ok(&responses[1]);

    // Four concurrent read-only clients all get byte-identical classify responses.
    let request = "{\"cmd\":\"classify\",\"method\":\"mce\"}".to_string();
    let mut all: Vec<Vec<String>> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let request = request.clone();
                scope.spawn(move || send_requests_watched(TEST, addr, &[request]).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let reference = all.pop().unwrap();
    assert_eq!(reference.len(), 1);
    assert_ok(&reference[0]);
    for other in &all {
        assert_eq!(other, &reference, "concurrent responses diverged");
    }

    // A malformed request over TCP errors without killing the server.
    let responses = send_requests_watched(
        TEST,
        addr,
        &["oops".to_string(), "{\"cmd\":\"ping\"}".to_string()],
    )
    .unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses[0].contains("\"ok\":false"));
    assert!(responses[1].contains("pong"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The serving tier's determinism contract under mixed load: clients that each
/// drive their own dataset through read and mutate cycles concurrently get, byte
/// for byte, the responses a serial replay of the same streams gets on a fresh
/// session. The graphs differ per client, so no cache entry is shared and each
/// client's responses depend on its own request history alone.
#[test]
fn concurrent_mutating_clients_match_a_serial_replay() {
    const TEST: &str = "concurrent_mutating_clients_match_a_serial_replay";
    const CLIENTS: usize = 3;
    const CYCLES: usize = 2;
    let mut dirs = Vec::new();
    let streams: Vec<Vec<String>> = (0..CLIENTS)
        .map(|index| {
            let (dir, edges, seeds_path, truth) =
                dataset_seeded(&format!("mixed_{index}"), 42 + index as u64);
            let seeded: Vec<usize> = std::fs::read_to_string(&seeds_path)
                .unwrap()
                .lines()
                .map(|line| line.split('\t').next().unwrap().parse().unwrap())
                .collect();
            let node = (0..truth.n()).find(|n| !seeded.contains(n)).unwrap();
            let label = truth.class_of(node);
            dirs.push(dir);
            let request = |fields: &str| format!(r#"{{"dataset":"client-{index}",{fields}}}"#);
            let mut stream = vec![request(&format!(
                r#""cmd":"load","edges":"{}","labels":"{}","nodes":400,"classes":3"#,
                edges.display(),
                seeds_path.display()
            ))];
            for _ in 0..CYCLES {
                stream.extend([
                    request(r#""cmd":"classify","method":"dcer""#),
                    request(r#""cmd":"estimate","method":"dcer""#),
                    request(&format!(r#""cmd":"seed","add":[[{node},{label}]]"#)),
                    request(r#""cmd":"estimate","method":"dcer""#),
                    request(&format!(r#""cmd":"seed","remove":[{node}]"#)),
                ]);
            }
            stream
        })
        .collect();

    // Reference: one client at a time on a fresh session.
    let serial =
        TcpServer::spawn(Arc::new(Session::new(Threads::Serial, None)), "127.0.0.1:0").unwrap();
    let expected: Vec<Vec<String>> = streams
        .iter()
        .map(|stream| send_requests_watched(TEST, serial, stream).unwrap())
        .collect();
    for responses in &expected {
        assert_eq!(responses.len(), 1 + 5 * CYCLES);
        for response in responses {
            assert_ok(response);
        }
    }

    // Concurrent: every client at once, released together, on another fresh session.
    let addr =
        TcpServer::spawn(Arc::new(Session::new(Threads::Serial, None)), "127.0.0.1:0").unwrap();
    let start = std::sync::Barrier::new(CLIENTS);
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        streams
            .iter()
            .map(|stream| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    send_requests_watched(TEST, addr, stream).unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for (index, (got, want)) in concurrent.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "client {index} diverged from the serial replay");
    }
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The locking-model guarantee of the serving tier: warm `classify` requests from
/// concurrent clients genuinely overlap inside the dataset's shared read lock.
/// Every warm read passes through a probe that blocks until all four clients have
/// arrived — if warm reads were serialized (one lock-holder at a time), the first
/// reader would wait out the timeout alone and the test would fail loudly.
#[test]
fn warm_reads_from_concurrent_clients_overlap() {
    use std::sync::Condvar;
    use std::time::Duration;

    const CLIENTS: usize = 4;
    let (dir, edges, seeds_path, _) = dataset("overlap");
    let mut session = Session::new(Threads::Serial, None);
    let latch = Arc::new((std::sync::Mutex::new(0usize), Condvar::new()));
    let probe_latch = Arc::clone(&latch);
    session.set_warm_read_probe(Box::new(move || {
        let (count, cv) = &*probe_latch;
        let mut arrived = count.lock().unwrap();
        *arrived += 1;
        cv.notify_all();
        while *arrived < CLIENTS {
            let (guard, timeout) = cv.wait_timeout(arrived, Duration::from_secs(20)).unwrap();
            arrived = guard;
            if timeout.timed_out() {
                panic!(
                    "warm reads did not overlap: only {} of {CLIENTS} readers arrived",
                    *arrived
                );
            }
        }
    }));
    let session = Arc::new(session);

    // Warm up on the write path (engine build) — the probe only fires on warm reads.
    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    let (resp, _) = session.handle_line("{\"cmd\":\"classify\",\"method\":\"dcer\"}", 2);
    assert_ok(&resp);

    let responses: Vec<String> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|_| {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    let (resp, _) =
                        session.handle_line("{\"cmd\":\"classify\",\"method\":\"dcer\"}", 1);
                    resp
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for other in &responses[1..] {
        assert_eq!(other, &responses[0], "concurrent warm responses diverged");
    }
    assert!(responses[0].contains("\"summary_computations\":0"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `classify` holds no dataset lock while it propagates. A probe parks each
/// classify after it has taken its snapshot (graph, seed set, `H`) and released
/// the lock; a `seed` on another thread must then complete, and the parked
/// classify must still answer, byte for byte, what a serial session answers for
/// the seed set it started from. The first round parks a cold classify (engine
/// built under the write lock), the second a warm one (shared read lock).
#[test]
fn a_classify_parked_after_its_snapshot_lets_a_seed_complete() {
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    const TEST: &str = "a_classify_parked_after_its_snapshot_lets_a_seed_complete";
    let (dir, edges, seeds_path, truth) = dataset("parked");
    let seeded: Vec<usize> = std::fs::read_to_string(&seeds_path)
        .unwrap()
        .lines()
        .map(|line| line.split('\t').next().unwrap().parse().unwrap())
        .collect();
    // Twenty new seeds with wrong labels, so the two seed sets classify differently.
    let nodes: Vec<usize> = (0..truth.n())
        .filter(|n| !seeded.contains(n))
        .take(20)
        .collect();
    let pairs: Vec<String> = nodes
        .iter()
        .map(|&n| format!("[{n},{}]", (truth.class_of(n) + 1) % 3))
        .collect();
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    let classify = r#"{"cmd":"classify","method":"dcer"}"#.to_string();
    let mutations = [
        format!(r#"{{"cmd":"seed","add":[{}]}}"#, pairs.join(",")),
        format!(r#"{{"cmd":"seed","remove":[{}]}}"#, ids.join(",")),
    ];

    let serial = Session::new(Threads::Serial, None);
    let lines = [&classify, &mutations[0], &classify, &mutations[1]];
    assert_ok(&serial.handle_line(&load_line(&edges, &seeds_path), 1).0);
    let expected: Vec<String> = lines
        .iter()
        .map(|line| serial.handle_line(line, 1).0)
        .collect();
    assert_ne!(
        expected[0], expected[2],
        "the two seed sets must classify apart"
    );

    let mut session = Session::new(Threads::Serial, None);
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
    session.set_propagate_probe(Box::new(move || {
        parked_tx.lock().unwrap().send(()).unwrap();
        release_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(20))
            .expect("no seed completed while the classify was parked");
    }));
    let session = Arc::new(session);
    assert_ok(&session.handle_line(&load_line(&edges, &seeds_path), 1).0);
    let mut got = Vec::new();
    for mutation in &mutations {
        let reader = Arc::clone(&session);
        let line = classify.clone();
        let parked = std::thread::spawn(move || reader.handle_line(&line, 1).0);
        parked_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the classify never reached its propagation");
        let writer = Arc::clone(&session);
        let line = mutation.clone();
        let seeded = with_watchdog(TEST, 1, move || writer.handle_line(&line, 1).0);
        release_tx.send(()).unwrap();
        got.push(parked.join().unwrap());
        got.push(seeded);
    }
    for (index, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "response {index} diverged from the serial session"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn named_datasets_are_independent_and_unloadable() {
    let (dir_a, edges_a, seeds_a, _) = dataset("multi_a");
    let (dir_b, edges_b, seeds_b, _) = dataset("multi_b");
    let session = Session::new(Threads::Serial, None);

    let (resp, _) = session.handle_line(&load_line(&edges_a, &seeds_a), 1);
    assert_ok(&resp);
    let alt_load = format!(
        "{{\"cmd\":\"load\",\"dataset\":\"alt\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":400,\"classes\":3}}",
        edges_b.display(),
        seeds_b.display()
    );
    let (resp, _) = session.handle_line(&alt_load, 2);
    let loaded = assert_ok(&resp);
    assert_eq!(loaded.get("dataset").and_then(Json::as_str), Some("alt"));

    // Each dataset estimates against its own engines and seed state.
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 3);
    assert_ok(&resp);
    let (resp, _) = session.handle_line(
        "{\"cmd\":\"estimate\",\"method\":\"dcer\",\"dataset\":\"alt\"}",
        4,
    );
    assert_ok(&resp);
    let (resp, _) = session.handle_line("{\"cmd\":\"stats\"}", 5);
    let stats = assert_ok(&resp);
    let datasets = stats.get("datasets").unwrap();
    assert!(datasets.get("default").is_some(), "{resp}");
    assert!(datasets.get("alt").is_some(), "{resp}");

    // Unloading one dataset leaves the other serving.
    let (resp, _) = session.handle_line("{\"cmd\":\"unload\",\"dataset\":\"alt\"}", 6);
    assert_ok(&resp);
    let (resp, _) = session.handle_line(
        "{\"cmd\":\"estimate\",\"method\":\"dcer\",\"dataset\":\"alt\"}",
        7,
    );
    assert!(resp.contains("no dataset 'alt' loaded"), "{resp}");
    let (resp, _) = session.handle_line("{\"cmd\":\"classify\",\"method\":\"dcer\"}", 8);
    assert_ok(&resp);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// A node count beyond the `u32` node ids is a structured error before anything
/// sized by it is allocated (10^10 nodes would ask for an 80 GB row pointer
/// array), and the datasets already loaded keep answering.
#[test]
fn oversized_node_count_is_refused_and_other_datasets_keep_serving() {
    let (dir, edges, seeds, _) = dataset("oversized_nodes");
    let session = Session::new(Threads::Serial, None);
    let (resp, _) = session.handle_line(&load_line(&edges, &seeds), 1);
    assert_ok(&resp);
    for (line, nodes) in [(2, "10000000000"), (3, "4294967296")] {
        let load = format!(
            "{{\"cmd\":\"load\",\"dataset\":\"huge\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":{nodes},\"classes\":3}}",
            edges.display(),
            seeds.display()
        );
        let (resp, _) = session.handle_line(&load, line);
        let parsed = parse(&resp);
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(false),
            "{resp}"
        );
        assert!(
            resp.contains(&format!(
                "node count {nodes} exceeds the limit of 4294967295 nodes"
            )),
            "{resp}"
        );
    }
    let (resp, _) = session.handle_line("{\"cmd\":\"classify\",\"method\":\"dcer\"}", 4);
    assert_ok(&resp);
    let (resp, _) = session.handle_line("{\"cmd\":\"stats\"}", 5);
    let stats = assert_ok(&resp);
    let datasets = stats.get("datasets").unwrap();
    assert!(datasets.get("default").is_some(), "{resp}");
    assert!(datasets.get("huge").is_none(), "{resp}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A count past its key's maximum is refused while the request is parsed, so
/// `restarts: 1e15` answers at once instead of holding a worker (and, cold, the
/// dataset's write lock) for as long as the optimizer would run.
#[test]
fn a_count_past_its_maximum_is_refused_at_once_and_the_dataset_keeps_answering() {
    let (dir, edges, seeds, _) = dataset("count_bound");
    let session = Session::new(Threads::Serial, None);
    let (resp, _) = session.handle_line(&load_line(&edges, &seeds), 1);
    assert_ok(&resp);
    let started = std::time::Instant::now();
    let (resp, _) = session.handle_line(
        "{\"cmd\":\"estimate\",\"method\":\"dcer\",\"restarts\":1e15}",
        2,
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "{resp}"
    );
    assert_eq!(
        parse(&resp).get("error").and_then(Json::as_str),
        Some(
            "line 2: estimator parameter 'restarts' has count '1000000000000000' \
             above the maximum 1000"
        ),
        "{resp}"
    );
    let (resp, _) = session.handle_line("{\"cmd\":\"classify\",\"method\":\"dcer\"}", 3);
    assert_ok(&resp);
    std::fs::remove_dir_all(&dir).ok();
}

/// Reverting a mutation lands back on a seed fingerprint whose engines are still
/// resident in the LRU: the `seed` request reports `engine_reused` and performs
/// zero delta work, and the follow-up estimate is computation-free.
#[test]
fn reverting_a_mutation_reuses_the_resident_engine_state() {
    let (dir, edges, seeds_path, truth) = dataset("revert");
    let session = Session::new(Threads::Serial, None);
    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    assert!(resp.contains("\"summary_computations\":1"), "{resp}");

    let seeds = fg_datasets::read_labels(&seeds_path, 400, 3).unwrap();
    let node = seeds.unlabeled_nodes()[0];
    let add = format!(
        "{{\"cmd\":\"seed\",\"add\":[[{node},{}]]}}",
        truth.class_of(node)
    );
    let (resp, _) = session.handle_line(&add, 3);
    let seeded = assert_ok(&resp);
    assert_eq!(
        seeded.get("engine_reused").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        seeded.get("delta_applied").and_then(Json::as_usize),
        Some(1)
    );

    // Removing the same seed returns to the loaded fingerprint, whose engines
    // never left the LRU.
    let (resp, _) = session.handle_line(&format!("{{\"cmd\":\"seed\",\"remove\":[{node}]}}"), 4);
    let reverted = assert_ok(&resp);
    assert_eq!(
        reverted.get("engine_reused").and_then(Json::as_bool),
        Some(true),
        "{resp}"
    );
    assert_eq!(
        reverted.get("delta_applied").and_then(Json::as_usize),
        Some(0)
    );
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 5);
    assert!(resp.contains("\"summary_computations\":0"), "{resp}");

    // Still exactly one full summarization session-wide, across the whole cycle.
    let (resp, _) = session.handle_line("{\"cmd\":\"stats\"}", 6);
    let stats = assert_ok(&resp);
    assert_eq!(
        stats.get("summary_computations").and_then(Json::as_usize),
        Some(1)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A persisted `H` estimate serves a brand-new session (same store, same files)
/// with zero summarizations *and* zero optimizations, bit-identically.
#[test]
fn persisted_h_estimates_serve_fresh_sessions_without_optimization() {
    let (dir, edges, seeds_path, _) = dataset("h_store");
    let store_dir = dir.join("summaries");
    let store = Arc::new(fg_core::SummaryStore::open(&store_dir).unwrap());

    let first = Session::new(Threads::Serial, Some(Arc::clone(&store)));
    let (resp, _) = first.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    let (resp, _) = first.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    let cold = assert_ok(&resp);
    assert_eq!(
        cold.get("optimize_store_hits").and_then(Json::as_usize),
        Some(0)
    );

    let second = Session::new(Threads::Serial, Some(Arc::clone(&store)));
    let (resp, _) = second.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    let (resp, _) = second.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    let warm = assert_ok(&resp);
    assert_eq!(
        warm.get("summary_computations").and_then(Json::as_usize),
        Some(0),
        "{resp}"
    );
    assert_eq!(
        warm.get("optimize_store_hits").and_then(Json::as_usize),
        Some(1),
        "{resp}"
    );
    assert_eq!(
        warm.get("h").unwrap().to_string(),
        cold.get("h").unwrap().to_string(),
        "store-served H must be bit-identical to the estimate that produced it"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A low-rank `estimate` right after `load` runs through its context under the
/// shared lock and builds no exact engine: one summary computation, as `fg
/// estimate --mode lowrank` does, then none for a repeat, and a fresh session
/// on the same store reads the persisted `H`. On the CI graph (`fg generate
/// --nodes 2000 --degree 8 --classes 3 --seed 1`, every tenth node seeded).
#[test]
fn a_low_rank_estimate_builds_no_exact_engine_and_persists_h() {
    let dir = std::env::temp_dir().join("fg_serve_test_lowrank_engine");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = GeneratorConfig::balanced(2000, 8.0, 3, 3.0).unwrap();
    let syn = generate(&cfg, &mut StdRng::seed_from_u64(1)).unwrap();
    let (edges, seeds_path) = (dir.join("edges.tsv"), dir.join("seeds.tsv"));
    fg_datasets::write_edge_list(&edges, &syn.graph).unwrap();
    let seed_lines: String = (0..2000)
        .step_by(10)
        .map(|node| format!("{node}\t{}\n", syn.labeling.class_of(node)))
        .collect();
    std::fs::write(&seeds_path, seed_lines).unwrap();
    let load = format!(
        "{{\"cmd\":\"load\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":2000,\"classes\":3}}",
        edges.display(),
        seeds_path.display()
    );
    let request = "{\"cmd\":\"estimate\",\"method\":\"dce\",\"mode\":\"lowrank\",\"rank\":8}";
    let store = Arc::new(fg_core::SummaryStore::open(dir.join("store")).unwrap());
    let work = |result: &Json| {
        let field = |name: &str| result.get(name).and_then(Json::as_usize).unwrap();
        (field("summary_computations"), field("optimize_store_hits"))
    };

    let session = Session::new(Threads::Serial, Some(Arc::clone(&store)));
    assert_ok(&session.handle_line(&load, 1).0);
    let write_holds = || {
        session
            .metrics()
            .histogram(
                "fg_lock_hold_seconds",
                "",
                &[("lock", "dataset"), ("op", "write")],
                fg_obs::default_latency_buckets(),
            )
            .count()
    };
    let holds_before = write_holds();
    let first = assert_ok(&session.handle_line(request, 2).0);
    assert_eq!(work(&first), (1, 0), "{first}");
    let repeat = assert_ok(&session.handle_line(request, 3).0);
    assert_eq!(work(&repeat).0, 0, "{repeat}");
    assert_eq!(repeat.get("h"), first.get("h"));
    assert_eq!(
        write_holds(),
        holds_before,
        "no request took the write lock"
    );
    let stats = assert_ok(&session.handle_line("{\"cmd\":\"stats\"}", 4).0);
    let default = stats
        .get("datasets")
        .and_then(|d| d.get("default"))
        .unwrap();
    assert_eq!(
        default.get("engine_states").and_then(Json::as_usize),
        Some(0),
        "{stats}"
    );

    let fresh = Session::new(Threads::Serial, Some(Arc::clone(&store)));
    assert_ok(&fresh.handle_line(&load, 1).0);
    let reopened = assert_ok(&fresh.handle_line(request, 2).0);
    assert_eq!(work(&reopened), (0, 1), "{reopened}");
    assert_eq!(reopened.get("h"), first.get("h"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One estimate path: the same (graph, seeds, estimator, store) case through a
/// batch `Pipeline` and a serve `estimate` reports the same `H` bits and the same
/// work triple cold, then with a warm cache, then in a fresh session on the warm
/// store.
#[test]
fn pipeline_and_session_estimates_report_the_same_h_and_work() {
    let (dir, edges, seeds_path, _) = dataset("one_path");
    let graph = fg_datasets::read_edge_list(&edges, 400).unwrap();
    let seeds = fg_datasets::read_labels(&seeds_path, 400, 3).unwrap();
    let open = |name: &str| Arc::new(fg_core::SummaryStore::open(dir.join(name)).unwrap());
    let (batch_store, serve_store) = (open("batch"), open("serve"));

    let batch_cache = SummaryCache::shared();
    let batch = |cache: &Arc<SummaryCache>| {
        let report = Pipeline::on(&graph)
            .seeds(&seeds)
            .estimator(estimator_by_name("dcer").unwrap())
            .summary_cache(Arc::clone(cache))
            .summary_store(Arc::clone(&batch_store))
            .run()
            .unwrap();
        let bits: Vec<u64> = report
            .estimated_h
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let work = (
            report.summary_computations,
            report.summary_store_hits,
            report.optimize_store_hits,
        );
        (bits, work)
    };
    let served = |session: &Session, line_no: usize| {
        let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", line_no);
        let result = assert_ok(&resp);
        let bits: Vec<u64> = result
            .get("h")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .flat_map(|row| row.as_array().unwrap().iter())
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        let field = |name: &str| result.get(name).and_then(Json::as_usize).unwrap();
        let work = (
            field("summary_computations"),
            field("store_hits"),
            field("optimize_store_hits"),
        );
        (bits, work)
    };
    let session = Session::new(Threads::Serial, Some(Arc::clone(&serve_store)));
    assert_ok(&session.handle_line(&load_line(&edges, &seeds_path), 1).0);
    let fresh = Session::new(Threads::Serial, Some(Arc::clone(&serve_store)));
    assert_ok(&fresh.handle_line(&load_line(&edges, &seeds_path), 1).0);

    let cold = (batch(&batch_cache), served(&session, 2));
    let warm = (batch(&batch_cache), served(&session, 3));
    let reopened = (batch(&SummaryCache::shared()), served(&fresh, 2));
    for (step, (batch, serve), work) in [
        ("cold", cold, (1, 0, 0)),
        ("warm cache", warm, (0, 0, 1)),
        ("fresh session", reopened, (0, 0, 1)),
    ] {
        assert_eq!(batch, serve, "{step}: batch and serve disagree");
        assert_eq!(batch.1, work, "{step}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predictions_round_trip_to_cli_file_format() {
    let full = "{\"ok\":true,\"id\":null,\"result\":{\"predictions\":[2,0,1]}}";
    let rendered = fg_serve::predictions_to_file_format(full).unwrap();
    assert_eq!(rendered, "# node\tpredicted_class\n0\t2\n1\t0\n2\t1\n");
    let subset = "{\"ok\":true,\"id\":null,\"result\":{\"predictions\":[[5,1],[9,null]]}}";
    let rendered = fg_serve::predictions_to_file_format(subset).unwrap();
    assert!(rendered.contains("5\t1\n"));
    assert!(rendered.contains("9\tabstain\n"));
    assert!(fg_serve::predictions_to_file_format("{\"ok\":false}").is_none());
}

#[test]
fn engine_lru_evictions_are_counted_in_stats() {
    let (dir, edges, seeds_path, truth) = dataset("evictions");
    // Capacity 1: every seed-set swing past the resident state must evict.
    let session = Session::new(Threads::Serial, None).with_engine_states(1);

    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    assert_ok(&resp);

    let dataset_counter = |session: &Session, id: usize, field: &str| -> usize {
        let (resp, _) = session.handle_line("{\"cmd\":\"stats\"}", id);
        assert_ok(&resp)
            .get("datasets")
            .and_then(|d| d.get("default"))
            .and_then(|d| d.get(field))
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("stats missing datasets.default.{field}: {resp}"))
    };
    assert_eq!(dataset_counter(&session, 3, "engine_evictions"), 0);
    assert_eq!(dataset_counter(&session, 4, "engine_states"), 1);

    // Mutating forks a second engine state; capacity 1 forces the loaded seed
    // set's state out of the LRU.
    let seeds = fg_datasets::read_labels(&seeds_path, 400, 3).unwrap();
    let node = seeds.unlabeled_nodes()[0];
    let (resp, _) = session.handle_line(
        &format!(
            "{{\"cmd\":\"seed\",\"add\":[[{node},{}]]}}",
            truth.class_of(node)
        ),
        5,
    );
    assert_ok(&resp);
    assert_eq!(dataset_counter(&session, 6, "engine_evictions"), 1);
    assert_eq!(dataset_counter(&session, 7, "engine_states"), 1);

    // Swinging back to the original seed set finds its state evicted, forks
    // again, and evicts the intermediate state in turn.
    let (resp, _) = session.handle_line(&format!("{{\"cmd\":\"seed\",\"remove\":[{node}]}}"), 8);
    assert_ok(&resp);
    assert_eq!(dataset_counter(&session, 9, "engine_evictions"), 2);
    assert_eq!(dataset_counter(&session, 10, "engine_states"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_prefers_cheap_forks_over_fully_summarized_states() {
    let (dir, edges, seeds_path, truth) = dataset("cost_weighted_lru");
    let session = Session::new(Threads::Serial, None).with_engine_states(2);

    let (resp, _) = session.handle_line(&load_line(&edges, &seeds_path), 1);
    assert_ok(&resp);
    // Build the initial state via one full summarization: its rebuild cost is
    // the full n·ℓmax row sweep.
    let (resp, _) = session.handle_line("{\"cmd\":\"estimate\",\"method\":\"dcer\"}", 2);
    assert_ok(&resp);

    let default_stats = |session: &Session, id: usize| -> Json {
        let (resp, _) = session.handle_line("{\"cmd\":\"stats\"}", id);
        assert_ok(&resp)
            .get("datasets")
            .and_then(|d| d.get("default"))
            .cloned()
            .unwrap_or_else(|| panic!("stats missing datasets.default: {resp}"))
    };
    let state_fps = |stats: &Json| -> Vec<String> {
        stats
            .get("engines")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                e.get("seed_fingerprint")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };

    let loaded = default_stats(&session, 3);
    let initial_fp = state_fps(&loaded)[0].clone();
    // The full summarization's cost is exposed per state and per dataset.
    let full_rows = loaded
        .get("engines")
        .and_then(Json::as_array)
        .unwrap()
        .first()
        .and_then(|e| e.get("rebuild_rows"))
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(
        full_rows,
        400 * 5,
        "full summarize sweeps n rows per length"
    );
    assert_eq!(
        loaded.get("engine_rebuild_rows").and_then(Json::as_usize),
        Some(full_rows)
    );

    // Two successive mutations create two cheap fork states (B then C). At
    // capacity 2 the second fork must evict B — the cheap, more recently used
    // fork — not the expensive initial full summarization, even though the
    // initial state is the least recently used.
    let seeds = fg_datasets::read_labels(&seeds_path, 400, 3).unwrap();
    let unlabeled = seeds.unlabeled_nodes();
    let (first, second) = (unlabeled[0], unlabeled[1]);
    let (resp, _) = session.handle_line(
        &format!(
            "{{\"cmd\":\"seed\",\"add\":[[{first},{}]]}}",
            truth.class_of(first)
        ),
        4,
    );
    let fork_fp = assert_ok(&resp)
        .get("seed_fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let (resp, _) = session.handle_line(
        &format!(
            "{{\"cmd\":\"seed\",\"add\":[[{second},{}]]}}",
            truth.class_of(second)
        ),
        5,
    );
    let current_fp = assert_ok(&resp)
        .get("seed_fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let after = default_stats(&session, 6);
    assert_eq!(after.get("engine_states").and_then(Json::as_usize), Some(2));
    assert_eq!(
        after.get("engine_evictions").and_then(Json::as_usize),
        Some(1)
    );
    let fps = state_fps(&after);
    assert!(
        fps.contains(&initial_fp),
        "the fully summarized state must survive cost-weighted eviction: {after:?}"
    );
    assert!(
        fps.contains(&current_fp),
        "the current seed set's state is never evicted: {after:?}"
    );
    assert!(
        !fps.contains(&fork_fp),
        "the cheap intermediate fork is the correct victim: {after:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
