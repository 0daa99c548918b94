//! Every estimator and propagator key means the same thing on every surface:
//! the CLI flag, the serve request field, the manifest key and, for
//! estimators, the key inside a spec string; a count past its row's maximum
//! is refused with the same text on each. The parity test walks the key
//! tables, so adding a row is enough for it to be covered.

use super::{build_estimator, build_propagator, cmd_classify, cmd_construct, cmd_estimate, usage};
use crate::args::ArgMap;
use crate::manifest::run_manifest;
use fg_core::prelude::*;
use fg_core::ESTIMATORS;
use fg_datasets::{ConstructionOptions, BUILDERS};
use fg_graph::spec::{Kind, SpecOptions};
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use fg_serve::{predictions_to_file_format, Json, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const NODES: usize = 200;

/// A value `set` rejects on every row whose kind a typed surface can spell
/// wrongly: not a count, a negative number, not one of the choices.
const BAD: &str = "-1";

/// A generated dataset on disk plus a serve session that has it loaded.
struct Fixture {
    dir: PathBuf,
    edges: String,
    seeds: String,
    session: Session,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("fg_option_parity_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let config = GeneratorConfig::balanced(NODES, 8.0, 3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let synthetic = generate(&config, &mut rng).unwrap();
        let seeds = synthetic.labeling.stratified_sample(0.2, &mut rng);
        let edges = dir.join("edges.tsv");
        fg_datasets::write_edge_list(&edges, &synthetic.graph).unwrap();
        let seed_file = dir.join("seeds.tsv");
        let rows: String = (0..NODES)
            .filter_map(|i| seeds.get(i).map(|c| format!("{i}\t{c}\n")))
            .collect();
        std::fs::write(&seed_file, rows).unwrap();
        let fixture = Fixture {
            edges: edges.display().to_string(),
            seeds: seed_file.display().to_string(),
            dir,
            session: Session::new(Threads::Serial, None),
        };
        fixture
            .serve(format!(
                r#"{{"cmd":"load","edges":"{}","labels":"{}","nodes":{NODES},"classes":3}}"#,
                fixture.edges, fixture.seeds
            ))
            .unwrap();
        fixture
    }

    /// The CLI arguments naming the dataset, followed by `extra`.
    fn cli(&self, extra: &[&str]) -> ArgMap {
        let nodes = NODES.to_string();
        let mut tokens = vec![
            "--edges",
            &self.edges,
            "--labels",
            &self.seeds,
            "--nodes",
            &nodes,
            "--classes",
            "3",
        ];
        tokens.extend_from_slice(extra);
        ArgMap::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// One serve request: the response's `result`, or its error without the
    /// `line N: ` prefix.
    fn serve(&self, request: String) -> Result<(Json, String), String> {
        let (line, _) = self.session.handle_line(&request, 1);
        let response = Json::parse(&line).unwrap();
        match response.get("result") {
            Some(result) => Ok((result.clone(), line)),
            None => {
                let error = response.get("error").and_then(Json::as_str).unwrap();
                Err(error.strip_prefix("line 1: ").unwrap().to_string())
            }
        }
    }

    /// A one-entry manifest on the dataset with the extra `body` lines: the
    /// entry's report, or its error without the `run 'p': ` prefix.
    /// Predictions land in `manifest_pred.tsv`.
    fn manifest(&self, body: &str) -> Result<Json, String> {
        let path = self.dir.join("m.toml");
        std::fs::write(
            &path,
            format!(
                "[[run]]\nname = \"p\"\nedges = \"{}\"\nlabels = \"{}\"\nnodes = {NODES}\n\
                 classes = 3\nout = \"manifest_pred.tsv\"\n{body}",
                self.edges, self.seeds
            ),
        )
        .unwrap();
        match run_manifest(&path) {
            Ok(line) => Ok(Json::parse(&line).unwrap().get("report").unwrap().clone()),
            Err(e) => Err(e.strip_prefix("run 'p': ").unwrap_or(&e).to_string()),
        }
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.dir.join(file)).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Values `set` rejects for a row of the kind: [`BAD`], and for a count the
/// first value past its maximum.
fn rejected(kind: Kind) -> Vec<String> {
    let mut values = vec![BAD.to_string()];
    if let Kind::Count { max } = kind {
        values.push((max + 1).to_string());
    }
    values
}

/// A value every row of the kind accepts.
fn good(kind: Kind) -> &'static str {
    match kind {
        Kind::Count { .. } => "2",
        Kind::Number => "0.25",
        Kind::Choice(words) => words[words.len() - 1],
        Kind::Flag => "false",
    }
}

/// The JSON and TOML spelling of a value of the kind: choices quoted, the rest bare.
fn literal(kind: Kind, value: &str) -> String {
    match kind {
        Kind::Choice(_) => format!("\"{value}\""),
        _ => value.to_string(),
    }
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap()
}

#[test]
fn every_option_key_means_the_same_on_every_surface() {
    let fx = Fixture::new("keys");
    let defaults = EstimatorOptions::default();
    let help = usage();
    for key in EstimatorOptions::KEYS {
        let (name, value) = (key.name, good(key.kind));
        let flag = format!("--{name}");
        assert!(
            help.contains(&flag) && help.contains(key.help),
            "usage lacks {flag}"
        );
        let field = format!(r#""{name}":{}"#, literal(key.kind, value));
        let mut applies = 0;
        for method in ESTIMATORS.names() {
            let spec = ESTIMATORS
                .by_spec(&format!("{method}({name}={value})"), &defaults)
                .unwrap()
                .name();
            if spec == ESTIMATORS.build(method, &defaults).unwrap().name() {
                continue; // the key does not apply to this method
            }
            applies += 1;
            let (_, cli) = build_estimator(&fx.cli(&["--method", method, &flag, value])).unwrap();
            assert_eq!(cli, spec, "CLI {flag}");
            let request = format!(r#"{{"cmd":"estimate","method":"{method}",{field}}}"#);
            let (served, _) = fx.serve(request).unwrap();
            assert_eq!(text(&served, "estimator"), spec, "serve {field}");
            let body = format!(
                "estimator = \"{method}\"\n{name} = {}\n",
                literal(key.kind, value)
            );
            let report = fx.manifest(&body).unwrap();
            assert_eq!(text(&report, "estimator"), spec, "manifest {name}");
        }
        assert!(applies > 0, "estimator key '{name}' changes no estimator");

        for bad in rejected(key.kind) {
            let in_spec = ESTIMATORS
                .by_spec(&format!("dcer({name}={bad})"), &defaults)
                .map(|_| ())
                .unwrap_err();
            let cli = build_estimator(&fx.cli(&["--method", "dcer", &flag, &bad]));
            assert_eq!(cli.map(|_| ()).unwrap_err(), in_spec, "CLI {flag}");
            let request = format!(
                r#"{{"cmd":"estimate","{name}":{}}}"#,
                literal(key.kind, &bad)
            );
            let served = fx.serve(request).unwrap_err();
            let manifested = fx.manifest(&format!("{name} = {}\n", literal(key.kind, &bad)));
            let manifested = manifested.unwrap_err();
            if key.kind == Kind::Flag {
                // JSON and TOML booleans are never a bad flag; the typed surfaces
                // refuse the non-boolean instead.
                assert_eq!(served, format!("field '{name}' must be a boolean"));
                let refusal = format!("key '{name}' must be a boolean, got integer");
                assert!(manifested.ends_with(&refusal), "{manifested}");
            } else {
                assert_eq!(served, in_spec, "serve {name}");
                assert_eq!(manifested, in_spec, "manifest {name}");
            }
        }
    }

    for key in PropagatorOptions::KEYS {
        let (name, value) = (key.name, good(key.kind));
        let flag = format!("--{name}");
        assert!(
            help.contains(&flag) && help.contains(key.help),
            "usage lacks {flag}"
        );
        let mut changes = 0;
        for propagator in PROPAGATORS.names() {
            let run = |extra: &[&str]| {
                let pred = fx.dir.join("cli_pred.tsv").display().to_string();
                let base = [
                    "--method",
                    "mce",
                    "--propagator",
                    propagator,
                    "--json",
                    "--out",
                ];
                let output = cmd_classify(&fx.cli(&[&base[..], &[&pred], extra].concat())).unwrap();
                let report = Json::parse(output.lines().last().unwrap()).unwrap();
                (report, fx.read("cli_pred.tsv"))
            };
            let (plain, _) = run(&[]);
            let (cli, cli_pred) = run(&[&flag, value]);
            let outcome = |r: &Json| (r.get("iterations").cloned(), r.get("converged").cloned());
            changes += usize::from(outcome(&plain) != outcome(&cli));
            let request = format!(
                r#"{{"cmd":"classify","method":"mce","propagator":"{propagator}","{name}":{}}}"#,
                literal(key.kind, value)
            );
            let (served, line) = fx.serve(request).unwrap();
            assert_eq!(outcome(&served), outcome(&cli), "serve {name} {propagator}");
            assert_eq!(predictions_to_file_format(&line).unwrap(), cli_pred);
            let body = format!(
                "estimator = \"mce\"\npropagator = \"{propagator}\"\n{name} = {}\n",
                literal(key.kind, value)
            );
            let report = fx.manifest(&body).unwrap();
            assert_eq!(
                outcome(&report),
                outcome(&cli),
                "manifest {name} {propagator}"
            );
            assert_eq!(
                fx.read("manifest_pred.tsv"),
                cli_pred,
                "manifest {name} {propagator}"
            );
        }
        assert!(
            changes > 0,
            "propagator key '{name}' changes no propagation"
        );

        for bad in rejected(key.kind) {
            let mut opts = PropagatorOptions::default();
            let expected = PROPAGATORS.set(&mut opts, name, &bad).unwrap_err();
            let cli = build_propagator(
                &fx.cli(&["--propagator", "linbp", &flag, &bad]),
                "propagator",
            );
            assert_eq!(cli.map(|_| ()).unwrap_err(), expected, "CLI {flag}");
            let bad = literal(key.kind, &bad);
            let request = format!(r#"{{"cmd":"classify","method":"mce","{name}":{bad}}}"#);
            assert_eq!(fx.serve(request).unwrap_err(), expected, "serve {name}");
            let manifested = fx.manifest(&format!("{name} = {bad}\n")).unwrap_err();
            assert_eq!(manifested, expected, "manifest {name}");
        }
    }

    // Builder keys travel inside a `--builder` / `builder =` spec on every
    // surface, so one CLI run per rejected count checks the shared parser.
    for key in ConstructionOptions::KEYS {
        let Kind::Count { max } = key.kind else {
            continue;
        };
        let spec = format!("knn({}={})", key.name, max + 1);
        let in_spec = BUILDERS
            .by_spec(&spec, &ConstructionOptions::default())
            .map(|_| ())
            .unwrap_err();
        let out = fx.dir.join("edges_c.tsv").display().to_string();
        let args = ["--blobs", "30", "--builder", &spec, "--out-edges", &out];
        let args = ArgMap::parse(&args.map(str::to_string)).unwrap();
        assert_eq!(
            cmd_construct(&args).unwrap_err(),
            in_spec,
            "construct {spec}"
        );
    }
}

#[test]
fn serve_honors_mode_exact_over_a_rank() {
    let fx = Fixture::new("serve_mode");
    let request = r#"{"cmd":"estimate","method":"dce","rank":8,"mode":"exact"}"#;
    let (served, _) = fx.serve(request.to_string()).unwrap();
    assert_eq!(text(&served, "estimator"), "DCE(l=5,lambda=10)");
    let args = fx.cli(&["--method", "dce", "--rank", "8", "--mode", "exact"]);
    let (estimator, _) = build_estimator(&args).unwrap();
    let graph = fg_datasets::read_edge_list(std::path::Path::new(&fx.edges), NODES).unwrap();
    let seeds = fg_datasets::read_labels(std::path::Path::new(&fx.seeds), NODES, 3).unwrap();
    let h = estimator.estimate(&graph, &seeds).unwrap();
    let rows = served.get("h").and_then(Json::as_array).unwrap();
    let bits: Vec<u64> = rows
        .iter()
        .flat_map(|row| row.as_array().unwrap().iter())
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect();
    let expected: Vec<u64> = h.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, expected);
}

#[test]
fn cli_nb_flag_reaches_the_estimator() {
    let fx = Fixture::new("cli_nb");
    let output = cmd_estimate(&fx.cli(&["--method", "dce", "--nb", "false"])).unwrap();
    assert!(output.contains("DCE(l=5,lambda=10,nb=false)"), "{output}");
}

#[test]
fn manifest_estimator_keys_match_the_spec() {
    let fx = Fixture::new("manifest_keys");
    let report = fx
        .manifest("estimator = \"dce\"\nlmax = 3\nvariant = 2\nmode = \"lowrank\"\n")
        .unwrap();
    let spec = "DCE(l=3,variant=2,mode=lowrank)";
    let expected = ESTIMATORS
        .by_spec(spec, &EstimatorOptions::default())
        .unwrap()
        .name();
    assert_eq!(text(&report, "estimator"), expected);
    let pred = fx.dir.join("cli_pred.tsv").display().to_string();
    cmd_classify(&fx.cli(&["--method", spec, "--out", &pred])).unwrap();
    assert_eq!(fx.read("manifest_pred.tsv"), fx.read("cli_pred.tsv"));
}
