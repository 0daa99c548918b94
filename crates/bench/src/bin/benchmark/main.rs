//! The end-to-end benchmark: four workloads (two batch runs of the paper's
//! pipeline, two serving traffic mixes), each measured for a fixed time,
//! checked by oracles, and reported as end-to-end metrics or, with
//! `--trace 1`, per-layer metrics. See `README.md` beside this file.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` and the exit code
//! is non-zero when any oracle failed. Without it, every workload runs in a
//! fresh child process, untraced and then traced.

mod batch;
mod data;
mod layers;
mod report;
mod serve;

use report::{RunResult, Values};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order a full invocation runs them.
const WORKLOADS: [&str; 4] = ["batch_exact", "batch_lowrank", "serve_read", "serve_mutate"];

/// Measured seconds of one run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`). A full invocation gives each of its
/// eight runs half of that, so it ends in about two minutes.
const RUN_SECONDS: f64 = 20.0;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Drives every input of the timed phase: seed-label samples, mutation
    /// choices and blob clouds. The planted graphs' structure and the
    /// accuracy panel are fixed (see `data`).
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Toy input sizes (the tests' setting).
    pub smoke: bool,
}

impl Settings {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// How often a run sets up; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Graphs or seed samples of an accuracy panel (see
    /// `data::panel_accuracy`): `full`, or one at toy sizes.
    pub fn panel(&self, full: u64) -> u64 {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// A seed for one independent input stream of a run.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Operation counts across a run. Any failed op or oracle fails the run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one checked operation: an error or a `false` check fails it.
    pub fn check(&mut self, outcome: Result<bool, String>, mismatch: &str) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                self.failed += 1;
                eprintln!("benchmark: oracle failed: {mismatch}");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: operation failed: {e}");
            }
        }
    }

    pub fn finish(self, traced: bool, values: Values) -> RunResult {
        RunResult::new(self.attempted, self.failed, traced, values)
    }
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another run uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Run one workload in this process.
pub fn run_workload(workload: &str, settings: &Settings) -> Result<RunResult, String> {
    let work = WorkDir::create(workload)?;
    match workload {
        "batch_exact" => batch::exact(settings, &work.0),
        "batch_lowrank" => batch::lowrank(settings),
        "serve_read" => serve::read(settings, &work.0),
        "serve_mutate" => serve::mutate(settings, &work.0),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The command line. `seconds: None` means the default for the mode.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn settings(&self, default_seconds: f64) -> Settings {
        Settings {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(default_seconds),
            trace: self.trace,
            smoke: self.smoke,
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_none() && (parsed.trace || parsed.out.is_some()) {
        return Err("--trace and --out apply to one run: add --workload".to_string());
    }
    Ok(parsed)
}

/// Run one workload, print its report and result line.
fn run_one(workload: &str, settings: &Settings, out: Option<&Path>) -> ExitCode {
    println!(
        "benchmark workload={workload} seed={} seconds={} trace={} smoke={} available_parallelism={}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        settings.smoke,
        fg_bench::detected_cores()
    );
    let result = match run_workload(workload, settings) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    for line in result.human_lines() {
        println!("{line}");
    }
    let json = result.json_line();
    if let Some(out) = out {
        if let Err(e) = std::fs::write(out, format!("{json}\n")) {
            eprintln!("benchmark: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    println!("{json}");
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, untraced then traced, each in a fresh child process.
fn run_all(settings: &Settings) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload, "--trace", trace]);
            child.args(["--seed", &settings.seed.to_string()]);
            child.args(["--seconds", &settings.seconds.to_string()]);
            if settings.smoke {
                child.arg("--smoke");
            }
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => failures.push(format!("{workload} trace={trace}: {status}")),
                Err(e) => failures.push(format!("{workload} trace={trace}: {e}")),
            }
        }
    }
    for failure in &failures {
        eprintln!("benchmark: failed: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_one(workload, &args.settings(RUN_SECONDS), args.out.as_deref()),
        None => run_all(&args.settings(RUN_SECONDS / 2.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_serve::Json;

    /// `(name, unit)` pairs of one `BENCHMARK.json` array.
    fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json array")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(result: &RunResult) -> Vec<(String, String)> {
        result
            .metrics
            .iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect()
    }

    /// The `[profile.release]` settings of a manifest.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_equals_the_workspace_profile() {
        let own = release_profile(include_str!("Cargo.toml"));
        assert!(
            !own.is_empty(),
            "the benchmark package sets a release profile"
        );
        assert_eq!(
            own,
            release_profile(include_str!("../../../../../Cargo.toml"))
        );
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        let parsed =
            args("--workload serve_read --seed 7 --seconds 2.5 --trace 1 --smoke").unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve_read"));
        let s = parsed.settings(RUN_SECONDS);
        assert_eq!((s.seed, s.seconds, s.trace, s.smoke), (7, 2.5, true, true));
        assert_eq!(args("").unwrap().settings(RUN_SECONDS).seconds, RUN_SECONDS);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--seed",
            "--bogus 1",
            "--trace 1",
        ] {
            assert!(args(bad).is_err(), "{bad} should be rejected");
        }
    }

    /// Every workload at toy sizes, untraced and traced: all oracles pass, and
    /// the names and units a run emits are exactly those `BENCHMARK.json`
    /// declares.
    #[test]
    fn smoke_runs_pass_their_oracles_and_emit_the_declared_metrics() {
        let manifest = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads array")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let run_seconds = manifest.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(RUN_SECONDS));
        for workload in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let settings = Settings {
                    seed: 2,
                    seconds: 0.3,
                    trace,
                    smoke: true,
                };
                let result = run_workload(workload, &settings).expect("smoke run");
                assert!(result.correct(), "{workload} trace={trace}: {result:?}");
                assert!(result.attempted > 0);
                assert_eq!(
                    emitted(&result),
                    declared(&manifest, key),
                    "{workload} {key}"
                );
                let line = Json::parse(&result.json_line()).expect("result line is JSON");
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            }
        }
    }
}
