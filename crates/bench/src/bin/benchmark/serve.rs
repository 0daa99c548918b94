//! The serving workloads: closed-loop clients, each on its own TCP connection,
//! against an in-process `fg_serve::TcpServer`; one op is one round trip. The
//! server's layers are read from the session's always-on `MetricsRegistry`.

use crate::data::{GraphShape, Planted};
use crate::report::{peak_rss_mb, put, put_end_to_end, Latencies, RunResult, Values};
use crate::{stream_seed, Settings, Tally};
use fg_core::prelude::*;
use fg_core::SummaryStore;
use fg_obs::{default_latency_buckets, MetricsRegistry};
use fg_serve::{Json, Session, TcpServer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graph seeds: the graph structure is fixed (see `Planted::generate`).
const READ_GRAPHS: [u64; 2] = [110, 111];
const MUTATE_GRAPH: u64 = 120;

/// `serve_read`'s per-client datasets: the `serve_load` bench's shape.
const READ: GraphShape = GraphShape {
    nodes: 400,
    degree: 8.0,
    classes: 3,
    h_skew: 8.0,
    seed_fraction: 0.08,
};

const READ_SMOKE: GraphShape = GraphShape { nodes: 200, ..READ };

/// `serve_mutate`'s one shared dataset.
const MUTATE: GraphShape = GraphShape {
    nodes: 50_000,
    degree: 10.0,
    classes: 3,
    h_skew: 8.0,
    seed_fraction: 0.01,
};

const MUTATE_SMOKE: GraphShape = GraphShape {
    nodes: 2_000,
    ..MUTATE
};

/// Seed samples per dataset in the accuracy panels. A `serve_read` sample
/// takes about 25 ms, a `serve_mutate` one about 300 ms.
const READ_PANEL_DRAWS: u64 = 16;
const MUTATE_PANEL_DRAWS: u64 = 2;

/// Nodes in the `serve_mutate` reader's `classify` subset.
const READER_SUBSET: usize = 16;

/// Writer answers replayed on a fresh session by the `serve_mutate` oracle.
const REPLAYED_WRITES: usize = 100;

/// A dataset as the protocol addresses it.
struct Dataset {
    name: String,
    data: Planted,
}

impl Dataset {
    fn load(&self) -> String {
        format!(
            "{{\"cmd\":\"load\",\"dataset\":\"{}\",\"edges\":{},\"labels\":{},\"nodes\":{},\"classes\":{}}}",
            self.name,
            Json::str(self.data.edges.display().to_string()),
            Json::str(self.data.labels.display().to_string()),
            self.data.nodes,
            self.data.classes
        )
    }

    fn estimate(&self, method: &str) -> String {
        format!(
            "{{\"cmd\":\"estimate\",\"dataset\":\"{}\",\"method\":\"{method}\"}}",
            self.name
        )
    }

    fn classify(&self) -> String {
        format!(
            "{{\"cmd\":\"classify\",\"dataset\":\"{}\",\"method\":\"dcer\"}}",
            self.name
        )
    }

    /// What every setup sends: the `load` and one cold `estimate`.
    fn setup(&self) -> [String; 2] {
        [self.load(), self.estimate("dcer")]
    }

    /// Accuracy of what `classify dcer` serves (DCEr + LinBP) on this
    /// dataset's graph, over the accuracy panel's `draws` seed samples.
    fn panel_accuracy(&self, draws: u64) -> Result<f64, String> {
        self.data.panel_accuracy(&DceWithRestarts::default(), draws)
    }
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// One client connection: a request line out, a response line back.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// Set a session up `settings.setups()` times (a fresh session, then each
/// dataset's setup requests) and serve the last one over TCP. Setup `i` gets
/// a summary store in `store_dir(i)` when that is `Some`.
///
/// The setups run in process, one after another on this thread. An accept
/// loop cannot be stopped, so a server per setup would keep every earlier
/// session alive. Even after an `unload`, each connection thread would keep
/// its freed memory resident in its own allocator arena, so peak RSS would
/// count every setup. Transport is in the timed round trips.
fn set_up(
    settings: &Settings,
    datasets: &[Dataset],
    store_dir: impl Fn(usize) -> Option<PathBuf>,
) -> Result<(Arc<Session>, SocketAddr, Latencies), String> {
    let mut setup = Latencies::default();
    let mut session = None;
    for repeat in 0..settings.setups() {
        drop(session.take());
        let start = Instant::now();
        let store = match store_dir(repeat) {
            Some(dir) => Some(Arc::new(
                SummaryStore::open(dir).map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        let fresh = Session::new(Threads::Serial, store);
        for request in datasets.iter().flat_map(Dataset::setup) {
            let (response, _) = fresh.handle_line(&request, 1);
            if !is_ok(&response) {
                return Err(format!("setup request failed: {response}"));
            }
        }
        setup.push(start.elapsed());
        session = Some(fresh);
    }
    let session = Arc::new(session.expect("at least one setup"));
    let addr = TcpServer::spawn(Arc::clone(&session), "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok((session, addr, setup))
}

/// One timed round trip.
struct Exchange {
    /// Position in the client's request sequence.
    index: usize,
    latency: Duration,
    response: String,
}

/// Client `c` sends `request(c, i)` as its `i`-th request.
type Requests<'a> = dyn Fn(usize, usize) -> String + Sync + 'a;

/// Run one closed-loop client per entry of `next` for `budget`: client `c`
/// sends requests `next[c], next[c] + 1, ...` and advances `next[c]`.
/// Returns each client's exchanges and the phase's wall time.
fn drive(
    addr: SocketAddr,
    budget: Duration,
    next: &mut [usize],
    request: &Requests<'_>,
) -> Result<(Vec<Vec<Exchange>>, Duration), String> {
    let started = Instant::now();
    let results: Vec<io::Result<Vec<Exchange>>> = std::thread::scope(|scope| {
        let clients: Vec<_> = next
            .iter_mut()
            .enumerate()
            .map(|(client, next)| {
                scope.spawn(move || {
                    let mut conn = Connection::open(addr)?;
                    let mut exchanges = Vec::new();
                    while started.elapsed() < budget {
                        let line = request(client, *next);
                        let start = Instant::now();
                        let response = conn.call(&line)?;
                        exchanges.push(Exchange {
                            index: *next,
                            latency: start.elapsed(),
                            response,
                        });
                        *next += 1;
                    }
                    Ok(exchanges)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let exchanges = results
        .into_iter()
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("client I/O failed: {e}"))?;
    Ok((exchanges, wall))
}

/// The timed phase: one untraced drive, or for traced runs an untraced and a
/// traced drive of half the budget each.
struct Timed {
    /// Per client, every exchange in order.
    exchanges: Vec<Vec<Exchange>>,
    wall: Duration,
    untraced: Latencies,
    traced: Latencies,
}

impl Timed {
    fn all(&self) -> impl Iterator<Item = &Exchange> {
        self.exchanges.iter().flatten()
    }
}

fn latencies(exchanges: &[Vec<Exchange>]) -> Latencies {
    let mut latencies = Latencies::default();
    for exchange in exchanges.iter().flatten() {
        latencies.push(exchange.latency);
    }
    latencies
}

fn run_timed(
    settings: &Settings,
    addr: SocketAddr,
    clients: usize,
    request: &Requests<'_>,
) -> Result<Timed, String> {
    let mut next = vec![0; clients];
    if !settings.trace {
        let (exchanges, wall) = drive(addr, settings.budget(), &mut next, request)?;
        return Ok(Timed {
            untraced: latencies(&exchanges),
            traced: Latencies::default(),
            exchanges,
            wall,
        });
    }
    let half = settings.budget() / 2;
    let (mut exchanges, first_wall) = drive(addr, half, &mut next, request)?;
    fg_obs::start_capture();
    let second = drive(addr, half, &mut next, request);
    fg_obs::finish_capture();
    let (second, second_wall) = second?;
    let (untraced, traced) = (latencies(&exchanges), latencies(&second));
    for (mine, more) in exchanges.iter_mut().zip(second) {
        mine.extend(more);
    }
    Ok(Timed {
        exchanges,
        wall: first_wall + second_wall,
        untraced,
        traced,
    })
}

/// Commands whose `fg_request_seconds` mean is a layer metric.
const HANDLED: [(&str, &str); 3] = [
    ("classify", "serve.session.handle_ms.classify"),
    ("estimate", "serve.session.handle_ms.estimate"),
    ("seed", "serve.session.handle_ms.seed"),
];

/// Dataset lock operations whose `fg_lock_wait_seconds` mean is a layer metric.
const LOCK_WAITS: [(&str, &str); 2] = [
    ("read", "serve.lock_wait_ms.dataset_read"),
    ("write", "serve.lock_wait_ms.dataset_write"),
];

/// The registry readings the serve layer metrics are differences of.
struct Readings {
    /// `(sum seconds, count)` of each `HANDLED` command's histogram.
    handle: [(f64, u64); 3],
    /// `(sum seconds, count)` of each `LOCK_WAITS` histogram.
    lock_wait: [(f64, u64); 2],
    engine_reuse: u64,
    engine_evictions: u64,
}

impl Readings {
    fn take(metrics: &MetricsRegistry, datasets: &[Dataset]) -> Readings {
        let histogram = |name: &str, labels: &[(&str, &str)]| {
            let h = metrics.histogram(name, "", labels, default_latency_buckets());
            (h.sum(), h.count())
        };
        let counter = |name: &str| -> u64 {
            datasets
                .iter()
                .map(|d| metrics.counter(name, "", &[("dataset", &d.name)]).get())
                .sum()
        };
        Readings {
            handle: HANDLED.map(|(cmd, _)| histogram("fg_request_seconds", &[("cmd", cmd)])),
            lock_wait: LOCK_WAITS.map(|(op, _)| {
                histogram("fg_lock_wait_seconds", &[("lock", "dataset"), ("op", op)])
            }),
            engine_reuse: counter("fg_engine_reuse_total"),
            engine_evictions: counter("fg_engine_evictions_total"),
        }
    }
}

/// Mean milliseconds and count of the observations between two readings.
fn mean_ms(before: (f64, u64), after: (f64, u64)) -> (f64, usize) {
    let count = after.1 - before.1;
    let mean = (after.0 - before.0) * 1e3 / count.max(1) as f64;
    (mean, count as usize)
}

/// The per-layer values both serving workloads report.
fn put_serve_layers(
    values: &mut Values,
    timed: &Timed,
    request: &Requests<'_>,
    before: &Readings,
    after: &Readings,
) {
    let n = timed.all().count();
    let mut handled_s = 0.0;
    for (i, (_, metric)) in HANDLED.into_iter().enumerate() {
        let (mean, count) = mean_ms(before.handle[i], after.handle[i]);
        put(values, metric, mean, count);
        handled_s += after.handle[i].0 - before.handle[i].0;
    }
    for (i, (_, metric)) in LOCK_WAITS.into_iter().enumerate() {
        let (mean, count) = mean_ms(before.lock_wait[i], after.lock_wait[i]);
        put(values, metric, mean, count);
    }
    // Transport is what the client waited beyond the server's handling.
    let round_trips_s: f64 = timed.all().map(|e| e.latency.as_secs_f64()).sum();
    let transport_ms = (round_trips_s - handled_s) * 1e3 / n as f64;
    put(values, "serve.transport_ms", transport_ms, n);
    put(values, "trace.coverage", handled_s / round_trips_s, n);
    let overhead =
        100.0 * (timed.traced.percentile_ms(50.0) / timed.untraced.percentile_ms(50.0) - 1.0);
    put(values, "trace.overhead_pct", overhead, timed.traced.len());
    let bytes: usize = timed.all().map(|e| e.response.len()).sum();
    put(values, "serve.response_bytes", bytes as f64 / n as f64, n);

    // JSON cost is measured after the timed phase, over the recorded lines:
    // parsing one request line and its response line.
    let lines: Vec<(String, &str)> = timed
        .exchanges
        .iter()
        .enumerate()
        .flat_map(|(c, exchanges)| exchanges.iter().map(move |e| (c, e)))
        .map(|(c, e)| (request(c, e.index), e.response.as_str()))
        .collect();
    let start = Instant::now();
    for (request, response) in &lines {
        std::hint::black_box((Json::parse(request).is_ok(), Json::parse(response).is_ok()));
    }
    let parse_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
    put(values, "serve.json.parse_us", parse_us, n);

    let computations: Vec<usize> = timed
        .all()
        .filter_map(|e| Json::parse(&e.response).ok())
        .filter_map(|r| r.get("result")?.get("summary_computations")?.as_usize())
        .collect();
    let warm = computations.iter().filter(|&&c| c == 0).count();
    let share = warm as f64 / computations.len().max(1) as f64;
    put(values, "core.context.warm_ratio", share, computations.len());
}

/// Predictions of a full-graph `classify` answer.
fn predictions(response: &str) -> Option<Vec<usize>> {
    Json::parse(response)
        .ok()?
        .get("result")?
        .get("predictions")?
        .as_array()?
        .iter()
        .map(Json::as_usize)
        .collect()
}

/// `serve_read`: two clients, each on its own dataset, cycling a full
/// `classify`, `estimate dcer` and `estimate mce`.
pub fn read(settings: &Settings, work: &Path) -> Result<RunResult, String> {
    let shape = if settings.smoke { &READ_SMOKE } else { &READ };
    let datasets = READ_GRAPHS
        .iter()
        .enumerate()
        .map(|(c, &graph)| {
            let name = format!("client{c}");
            let label_seed = stream_seed(settings.seed, graph);
            let data = Planted::generate(shape, &name, graph, label_seed, work)?;
            Ok(Dataset { name, data })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cycles: Vec<[String; 3]> = datasets
        .iter()
        .map(|d| [d.classify(), d.estimate("dcer"), d.estimate("mce")])
        .collect();
    let request = |client: usize, i: usize| cycles[client][i % 3].clone();

    // The oracle: every answer, computed in process on a fresh session.
    let reference = Session::new(Threads::Serial, None);
    let mut expected = Vec::new();
    for (dataset, cycle) in datasets.iter().zip(&cycles) {
        for line in dataset.setup() {
            let (response, _) = reference.handle_line(&line, 1);
            if !is_ok(&response) {
                return Err(format!("reference setup failed: {response}"));
            }
        }
        expected.push(cycle.clone().map(|line| reference.handle_line(&line, 1).0));
    }

    let (session, addr, setup) = set_up(settings, &datasets, |_| None)?;
    let metrics = session.metrics();
    let before = Readings::take(&metrics, &datasets);
    let timed = run_timed(settings, addr, datasets.len(), &request)?;
    let after = Readings::take(&metrics, &datasets);
    let rss = peak_rss_mb()?;

    let mut tally = Tally::default();
    for (client, exchanges) in timed.exchanges.iter().enumerate() {
        for e in exchanges {
            tally.check(
                Ok(e.response == expected[client][e.index % 3]),
                "answer differs from the in-process session's",
            );
        }
    }

    let mut values = Values::new();
    if settings.trace {
        put_serve_layers(&mut values, &timed, &request, &before, &after);
        return Ok(tally.finish(true, values));
    }
    let draws = settings.panel(READ_PANEL_DRAWS);
    let mut accuracy = 0.0;
    for dataset in &datasets {
        accuracy += dataset.panel_accuracy(draws)?;
    }
    let n = datasets.len();
    let accuracy = (accuracy / n as f64, n * draws as usize);
    put_end_to_end(
        &mut values,
        &setup,
        &timed.untraced,
        timed.wall,
        rss,
        accuracy,
    );
    Ok(tally.finish(false, values))
}

/// `serve_mutate`: on one large dataset with a summary store, a writer cycles
/// `seed add`, `estimate`, `seed remove`, `estimate` with a fresh node each
/// cycle, while a reader classifies a fixed node subset.
pub fn mutate(settings: &Settings, work: &Path) -> Result<RunResult, String> {
    let shape = if settings.smoke {
        &MUTATE_SMOKE
    } else {
        &MUTATE
    };
    let label_seed = stream_seed(settings.seed, MUTATE_GRAPH);
    let data = Planted::generate(shape, "shared", MUTATE_GRAPH, label_seed, work)?;
    let datasets = [Dataset {
        name: "shared".to_string(),
        data,
    }];
    let dataset = &datasets[0];
    let mut fresh = dataset.data.seeds.unlabeled_nodes();
    fresh.shuffle(&mut StdRng::seed_from_u64(stream_seed(settings.seed, 1)));
    let subset: Vec<usize> = fresh.split_off(fresh.len() - READER_SUBSET);
    // The writer's `i`-th request; cycle `c` adds and removes `fresh[c]`.
    let cycle_node = |i: usize| fresh[(i / 4) % fresh.len()];
    let write = |i: usize| -> String {
        let node = cycle_node(i);
        let name = &dataset.name;
        match i % 4 {
            0 => {
                let label = dataset.data.truth.class_of(node);
                format!("{{\"cmd\":\"seed\",\"dataset\":\"{name}\",\"add\":[[{node},{label}]]}}")
            }
            2 => format!("{{\"cmd\":\"seed\",\"dataset\":\"{name}\",\"remove\":[{node}]}}"),
            _ => dataset.estimate("dcer"),
        }
    };
    let subset_list: Vec<String> = subset.iter().map(usize::to_string).collect();
    let read = format!(
        "{{\"cmd\":\"classify\",\"dataset\":\"{}\",\"method\":\"dcer\",\"nodes\":[{}]}}",
        dataset.name,
        subset_list.join(",")
    );
    let request = |client: usize, i: usize| if client == 0 { write(i) } else { read.clone() };

    let store_dir = |repeat: usize| work.join(format!("store{repeat}"));
    let (session, addr, setup) = set_up(settings, &datasets, |repeat| Some(store_dir(repeat)))?;
    let metrics = session.metrics();
    let before = Readings::take(&metrics, &datasets);
    let timed = run_timed(settings, addr, 2, &request)?;
    let after = Readings::take(&metrics, &datasets);
    let rss = peak_rss_mb()?;
    let (writes, reads) = (&timed.exchanges[0], &timed.exchanges[1]);
    let mut tally = Tally::default();

    // Every reader answer is ok and labels exactly the subset, in order.
    for e in reads {
        let labels_subset = Json::parse(&e.response).ok().and_then(|r| {
            let predicted = r.get("result")?.get("predictions")?.as_array()?;
            let nodes: Option<Vec<usize>> = predicted
                .iter()
                .map(|pair| pair.as_array()?.first()?.as_usize())
                .collect();
            Some(nodes? == subset)
        });
        tally.check(
            Ok(is_ok(&e.response) && labels_subset == Some(true)),
            "reader answer does not classify the subset",
        );
    }
    // The writer's first answers replay byte for byte on a fresh session.
    let replay_store = SummaryStore::open(work.join("store-replay")).map_err(|e| e.to_string())?;
    let replay = Session::new(Threads::Serial, Some(Arc::new(replay_store)));
    for line in dataset.setup() {
        replay.handle_line(&line, 1);
    }
    for e in writes.iter().take(REPLAYED_WRITES) {
        let (answer, _) = replay.handle_line(&write(e.index), 1);
        tally.check(
            Ok(is_ok(&answer) && answer == e.response),
            "writer answer differs from a fresh session's replay",
        );
    }
    // A final full classify equals a batch Pipeline run on the final seeds:
    // those of the load, plus the last cycle's node if the writer stopped
    // between its add and its remove.
    let mut final_seeds = dataset.data.seeds.clone();
    if matches!(writes.len() % 4, 1 | 2) {
        let node = cycle_node(writes.len() - 1);
        let label = dataset.data.truth.class_of(node);
        final_seeds
            .set_label(node, Some(label))
            .map_err(|e| e.to_string())?;
    }
    let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
    let served = conn.call(&dataset.classify()).map_err(|e| e.to_string())?;
    let batch = dataset.data.pipeline(&final_seeds)?;
    tally.check(
        Ok(predictions(&served).as_deref() == Some(batch.outcome.predictions.as_slice())),
        "final classify differs from the batch pipeline",
    );

    let mut values = Values::new();
    if !settings.trace {
        let draws = settings.panel(MUTATE_PANEL_DRAWS);
        let accuracy = (dataset.panel_accuracy(draws)?, draws as usize);
        put_end_to_end(
            &mut values,
            &setup,
            &timed.untraced,
            timed.wall,
            rss,
            accuracy,
        );
        return Ok(tally.finish(false, values));
    }
    put_serve_layers(&mut values, &timed, &request, &before, &after);

    // Writes are the writer's `seed` requests (even positions in its cycle);
    // reads are its estimates and every reader request.
    let is_write = |client: usize, e: &Exchange| client == 0 && e.index.is_multiple_of(2);
    let (mut read_latencies, mut write_latencies) = (Latencies::default(), Latencies::default());
    for (client, exchanges) in timed.exchanges.iter().enumerate() {
        for e in exchanges {
            match is_write(client, e) {
                true => write_latencies.push(e.latency),
                false => read_latencies.push(e.latency),
            }
        }
    }
    read_latencies.put_p50_p90(&mut values, "serve.read_p50_ms", "serve.read_p90_ms");
    write_latencies.put_p50_p90(&mut values, "serve.write_p50_ms", "serve.write_p90_ms");

    let seed_results: Vec<Json> = writes
        .iter()
        .filter(|e| is_write(0, e))
        .filter_map(|e| Json::parse(&e.response).ok()?.get("result").cloned())
        .collect();
    let seeds = seed_results.len();
    let per_seed = |total: f64| total / seeds.max(1) as f64;
    let sum = |key: &str| -> f64 {
        seed_results
            .iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    let rows = per_seed(sum("rows_touched"));
    put(&mut values, "core.incremental.rows_touched", rows, seeds);
    let recomputes = sum("full_recomputes");
    put(
        &mut values,
        "core.incremental.full_recomputes",
        recomputes,
        seeds,
    );
    let reuse = per_seed((after.engine_reuse - before.engine_reuse) as f64);
    put(&mut values, "serve.engine_reuse", reuse, seeds);
    let evictions = per_seed((after.engine_evictions - before.engine_evictions) as f64);
    put(&mut values, "serve.engine_evictions", evictions, seeds);
    let store = SummaryStore::open(store_dir(settings.setups() - 1)).map_err(|e| e.to_string())?;
    let entries = store.entries().map_err(|e| e.to_string())?;
    let bytes = entries.iter().map(|e| e.bytes).sum::<u64>() as f64;
    put(&mut values, "core.store.bytes", bytes, entries.len());
    Ok(tally.finish(true, values))
}
