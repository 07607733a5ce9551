//! The command-line harness behind every `expt-*` binary.
//!
//! `expt-all` used to fan out one subprocess per experiment; each child
//! rebuilt its workloads, and a panic anywhere took the whole run down with
//! a raw backtrace. The harness replaces that with the in-process
//! [`crate::experiments`] registry: experiments run concurrently on worker
//! threads, panics are caught per experiment, and outputs print in
//! deterministic paper order regardless of completion order.
//!
//! Flags (shared by `expt-all` and the single-experiment binaries):
//!
//! - `--json` — record this run in `BENCH_pdpa.json`: the mode block is
//!   overwritten, and one entry is **appended** to the `trajectory` array
//!   (see [`crate::trajectory`]), so the file accumulates per-invocation
//!   history for `bench-compare` to gate on;
//! - `--sequential` — one worker thread everywhere, including the
//!   experiments' inner sweeps (the baseline mode for the trajectory);
//! - `--only <name>` — run a single experiment from `expt-all`;
//! - `--trace-out <file>` — record every engine run's decision-event
//!   stream and export it as Chrome `trace_event` JSON (open in Perfetto);
//! - `--metrics-out <file>` — write the metrics-registry snapshot
//!   (counters, scopes, histograms, failures) as JSON;
//! - `--mpl-csv <file>` — export the recorded runs' multiprogramming-level
//!   history as CSV (the Fig.-8 series, one row per change);
//! - `--analyze-out <file>` — run `pdpa-analyze` over every recorded
//!   stream and write the `pdpa-analyze/v1` document (timelines,
//!   time-in-state, migrations, CPU/MPL series) as JSON;
//! - `--shards <n>` — replay-style experiments (`scale`) run their engine
//!   executions on `n` shards via the epoch-parallel sharded engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use crate::experiments::{self, Experiment};
use crate::stats;
use crate::trajectory::{BenchReport, ExperimentTiming, ModeReport};
use pdpa_analyze::{analysis_json, RunAnalysis};
use pdpa_obs::json;
use pdpa_obs::metrics::Registry;
use pdpa_obs::{
    chrome_trace, collector, metrics_json, mpl_series_csv, scope, ExperimentFailure, TimedEvent,
};

/// Width of the separator rule between experiments (matches the old
/// subprocess-based `expt-all`).
const SEPARATOR_WIDTH: usize = 78;

/// File the `--json` trajectory is merged into, relative to the working
/// directory (the repo root under `cargo run`).
pub const BENCH_PATH: &str = "BENCH_pdpa.json";

/// Parsed command-line flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Options {
    /// Write the run's timings into [`BENCH_PATH`].
    pub json: bool,
    /// Force one worker thread everywhere.
    pub sequential: bool,
    /// Restrict `expt-all` to one named experiment.
    pub only: Option<String>,
    /// The export files to write after the runs.
    pub exports: Exports,
    /// Replay-style experiments run their engine executions on this many
    /// shards (epoch-parallel sharded engine) instead of the classic
    /// sequential loop.
    pub shards: Option<usize>,
}

/// The four decision-event export files. `pdpa run`, `pdpa replay`,
/// `pdpa analyze` and this harness all write them through [`Exports::write`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Exports {
    /// Chrome `trace_event` JSON of the recorded streams (`--trace-out`).
    pub trace_out: Option<String>,
    /// Multiprogramming-level history CSV, the Fig. 8 series (`--mpl-csv`).
    pub mpl_csv: Option<String>,
    /// Metrics-registry snapshot JSON (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// `pdpa-analyze/v1` analysis of every recorded stream
    /// (`--analyze-out`).
    pub analyze_out: Option<String>,
}

impl Exports {
    /// Whether runs must record their decision-event streams.
    pub fn records(&self) -> bool {
        self.trace_out.is_some() || self.mpl_csv.is_some() || self.analyze_out.is_some()
    }

    /// Whether any file is requested.
    pub fn any(&self) -> bool {
        self.records() || self.metrics_out.is_some()
    }

    /// Writes every requested file from the recorded `runs`, the global
    /// metrics registry and the captured experiment `failures`. Returns
    /// `(what, path)` for each file, in the order written.
    ///
    /// # Errors
    ///
    /// `cannot write <path>: <cause>` for the first file that fails.
    pub fn write(
        &self,
        runs: &[(String, Vec<TimedEvent>)],
        failures: &[ExperimentFailure],
    ) -> Result<Vec<(&'static str, String)>, String> {
        let mut written = Vec::new();
        let mut put = |path: &Option<String>, what, render: &dyn Fn() -> String| {
            if let Some(path) = path {
                std::fs::write(path, render()).map_err(|e| format!("cannot write {path}: {e}"))?;
                written.push((what, path.clone()));
            }
            Ok::<_, String>(())
        };
        put(&self.trace_out, "Chrome trace", &|| chrome_trace(runs))?;
        put(&self.mpl_csv, "MPL series CSV", &|| mpl_series_csv(runs))?;
        put(&self.metrics_out, "metrics JSON", &|| {
            metrics_json(&Registry::global().snapshot(), failures)
        })?;
        put(&self.analyze_out, "run analysis JSON", &|| {
            let analyses: Vec<(String, RunAnalysis)> = runs
                .iter()
                .map(|(key, events)| (key.clone(), RunAnalysis::from_events(events)))
                .collect();
            analysis_json(&analyses)
        })?;
        Ok(written)
    }
}

/// Parses flags from an argument iterator (without the program name).
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut args = args;
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sequential" => opts.sequential = true,
            "--only" => match args.next() {
                Some(name) => opts.only = Some(name),
                None => return Err("--only requires an experiment name".into()),
            },
            "--trace-out" => match args.next() {
                Some(path) => opts.exports.trace_out = Some(path),
                None => return Err("--trace-out requires a file path".into()),
            },
            "--metrics-out" => match args.next() {
                Some(path) => opts.exports.metrics_out = Some(path),
                None => return Err("--metrics-out requires a file path".into()),
            },
            "--mpl-csv" => match args.next() {
                Some(path) => opts.exports.mpl_csv = Some(path),
                None => return Err("--mpl-csv requires a file path".into()),
            },
            "--analyze-out" => match args.next() {
                Some(path) => opts.exports.analyze_out = Some(path),
                None => return Err("--analyze-out requires a file path".into()),
            },
            "--shards" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.shards = Some(n),
                _ => return Err("--shards requires a positive integer".into()),
            },
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --json, --sequential, --only <name>, \
                     --trace-out <file>, --metrics-out <file>, --mpl-csv <file>, \
                     --analyze-out <file>, or --shards <n>)"
                ))
            }
        }
    }
    Ok(opts)
}

/// Entry point for `expt-all`: every registered experiment, or the
/// `--only` subset.
pub fn main_all() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => return usage_error(&message),
    };
    let list = match &opts.only {
        None => experiments::registry(),
        Some(name) => match experiments::find(name) {
            Some(e) => vec![e],
            None => {
                let known: Vec<&str> = experiments::registry().iter().map(|e| e.name).collect();
                return usage_error(&format!(
                    "unknown experiment `{name}`; available: {}",
                    known.join(", ")
                ));
            }
        },
    };
    run(&list, &opts)
}

/// Entry point for the single-experiment binaries (`expt-fig5`, …).
pub fn main_single(name: &str) -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) if opts.only.is_some() => {
            return usage_error("--only is only meaningful for expt-all")
        }
        Ok(opts) => opts,
        Err(message) => return usage_error(&message),
    };
    let e = experiments::find(name).unwrap_or_else(|| panic!("unregistered experiment {name}"));
    run(&[e], &opts)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// One guarded experiment execution.
struct Outcome {
    /// Rendered output, or the panic message.
    output: Result<String, String>,
    wall_secs: f64,
}

fn run_guarded(e: &Experiment) -> Outcome {
    // Engine runs below are attributed to this experiment in the metrics
    // registry (and in recorded event-stream keys).
    let _scope = scope::enter(e.name);
    let start = Instant::now();
    let output = catch_unwind(AssertUnwindSafe(e.run)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string());
        // Preserve the panic as a structured event so the failure shows up
        // in the metrics export, not just on stderr.
        collector::record_failure(e.name, message.clone());
        message
    });
    Outcome {
        output,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

use crate::trajectory::git_rev;

/// Runs `list` (concurrently unless `--sequential`), prints the outputs in
/// registry order, merges the trajectory under `--json`, and reports
/// failures with a nonzero exit instead of a panic.
fn run(list: &[Experiment], opts: &Options) -> ExitCode {
    if opts.sequential {
        // Push the choice down into the experiments' own par_map sweeps.
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    if let Some(shards) = opts.shards {
        // Experiments are fn() thunks, so the shard request travels the
        // same way --sequential does: through the environment. Only the
        // replay-style experiments (scale) consult it.
        std::env::set_var("PDPA_SHARDS", shards.to_string());
    }
    let threads = if opts.sequential {
        1
    } else {
        pdpa_parallel::num_threads()
    };
    if opts.exports.records() {
        collector::set_recording(true);
    }

    let before = stats::snapshot();
    let start = Instant::now();
    let outcomes = pdpa_parallel::par_map(list, threads, run_guarded);
    let wall_secs = start.elapsed().as_secs_f64();
    let counters = stats::snapshot().since(&before);

    let mut failures: Vec<&str> = Vec::new();
    for (e, outcome) in list.iter().zip(&outcomes) {
        if list.len() > 1 {
            println!("{}", "=".repeat(SEPARATOR_WIDTH));
        }
        match &outcome.output {
            Ok(text) => print!("{text}"),
            Err(message) => {
                eprintln!("{}: FAILED: {message}", e.name);
                failures.push(e.name);
            }
        }
    }

    // Drain the observability state once; every export below reads from
    // these (deterministically ordered) drains.
    let recorded_runs = if opts.exports.records() {
        collector::set_recording(false);
        collector::take_runs()
    } else {
        Vec::new()
    };
    let obs_failures = collector::take_failures();
    match opts.exports.write(&recorded_runs, &obs_failures) {
        Ok(written) => {
            for (what, path) in written {
                eprintln!("[{path}] {what} written");
            }
        }
        Err(message) => return usage_error(&message),
    }

    if opts.json {
        let report = ModeReport {
            threads,
            wall_secs,
            counters,
            // The same document `--metrics-out` writes, embedded as the
            // mode's `metrics` block (pdpa-bench/v2).
            metrics: json::parse(&metrics_json(&Registry::global().snapshot(), &obs_failures)).ok(),
            experiments: list
                .iter()
                .zip(&outcomes)
                .map(|(e, o)| ExperimentTiming {
                    name: e.name.to_string(),
                    wall_secs: o.wall_secs,
                    ok: o.output.is_ok(),
                })
                .collect(),
        };
        let events_per_sec = report.events_per_sec();
        let existing = std::fs::read_to_string(BENCH_PATH).ok();
        let merged =
            BenchReport::merge_into(existing.as_deref(), opts.sequential, report, &git_rev());
        if let Err(e) = std::fs::write(BENCH_PATH, merged) {
            eprintln!("error: cannot write {BENCH_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[{}] {} mode: {} thread(s), {:.2}s wall, {:.0} events/sec, {} engine runs, {} cells",
            BENCH_PATH,
            if opts.sequential {
                "sequential"
            } else {
                "parallel"
            },
            threads,
            wall_secs,
            events_per_sec,
            counters.engine_runs,
            counters.cells_run,
        );
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} experiment(s) failed: {}",
            failures.len(),
            list.len(),
            failures.join(", ")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Options, String> {
        parse_args(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        assert_eq!(parse(&[]).unwrap(), Options::default());
        let opts = parse(&["--json", "--sequential", "--only", "fig5"]).unwrap();
        assert!(opts.json && opts.sequential);
        assert_eq!(opts.only.as_deref(), Some("fig5"));
    }

    #[test]
    fn parses_observability_flags() {
        let opts = parse(&[
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
            "--mpl-csv",
            "mpl.csv",
            "--analyze-out",
            "analysis.json",
        ])
        .unwrap();
        assert_eq!(opts.exports.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(opts.exports.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(opts.exports.mpl_csv.as_deref(), Some("mpl.csv"));
        assert_eq!(opts.exports.analyze_out.as_deref(), Some("analysis.json"));
        assert!(opts.exports.records());
        assert!(!Options::default().exports.any());
        // --analyze-out alone must turn recording on, or the analysis
        // would silently be empty.
        let alone = parse(&["--analyze-out", "analysis.json"]).unwrap();
        assert!(alone.exports.records());
    }

    #[test]
    fn parses_shards() {
        assert_eq!(parse(&["--shards", "4"]).unwrap().shards, Some(4));
        assert_eq!(parse(&[]).unwrap().shards, None);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--only"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--metrics-out"]).is_err());
        assert!(parse(&["--mpl-csv"]).is_err());
        assert!(parse(&["--analyze-out"]).is_err());
        assert!(parse(&["--shards"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "x"]).is_err());
    }

    #[test]
    fn guarded_runs_catch_panics() {
        let boom = Experiment {
            name: "boom",
            title: "always panics",
            run: || panic!("exploded as designed"),
        };
        let outcome = run_guarded(&boom);
        assert_eq!(
            outcome.output.unwrap_err(),
            "exploded as designed".to_string()
        );
        assert!(outcome.wall_secs >= 0.0);
    }
}
