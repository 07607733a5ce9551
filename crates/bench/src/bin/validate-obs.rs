//! Validates the observability exports emitted by the harness flags —
//! the CI gate behind `--trace-out` / `--metrics-out`.
//!
//! ```text
//! validate-obs --trace trace.json --metrics metrics.json \
//!              [--bench BENCH_pdpa.json] [--analyze analysis.json]
//! ```
//!
//! Checks (any failure exits nonzero with a message):
//!
//! - the Chrome trace parses as JSON, has a non-empty `traceEvents` array,
//!   and every duration-begin (`B`) event is closed by an end (`E`) on the
//!   same `(pid, tid)` lane;
//! - the metrics document parses, carries the `pdpa-obs-metrics/v1`
//!   schema, and shows nonzero engine runs, drained events, and decisions;
//! - with `--bench`, the trajectory carries a `pdpa-bench/v2`-or-newer
//!   schema, at least one mode embeds a metrics block, and (v3) the
//!   `trajectory` array is non-empty;
//! - with `--analyze`, the analysis document carries the `pdpa-analyze/v1`
//!   schema and every run shows events, jobs, and decisions.

use std::collections::HashMap;
use std::process::ExitCode;

use pdpa_obs::json::{parse, Value};

fn fail(message: &str) -> ExitCode {
    eprintln!("validate-obs: FAILED: {message}");
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn check_trace(doc: &Value) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("trace has no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    // Every B must be matched by an E on its (pid, tid) lane; the exporter
    // closes leftovers synthetically, so an imbalance is a writer bug.
    let mut open: HashMap<(u64, u64), i64> = HashMap::new();
    for ev in events {
        let phase = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or("event without ph")?;
        let lane = (
            ev.get("pid").and_then(Value::as_u64).unwrap_or(0),
            ev.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        match phase {
            "B" => *open.entry(lane).or_insert(0) += 1,
            "E" => {
                let depth = open.entry(lane).or_insert(0);
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!("E without B on pid={} tid={}", lane.0, lane.1));
                }
            }
            _ => {}
        }
    }
    if let Some((lane, depth)) = open.iter().find(|(_, &d)| d != 0) {
        return Err(format!(
            "unclosed span on pid={} tid={} (depth {depth})",
            lane.0, lane.1
        ));
    }
    Ok(events.len())
}

fn check_metrics(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("metrics document has no schema")?;
    if schema != "pdpa-obs-metrics/v1" {
        return Err(format!("unexpected metrics schema {schema:?}"));
    }
    let engine = doc.get("engine").ok_or("metrics has no engine block")?;
    for key in ["runs", "events_popped", "decisions"] {
        let n = engine
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("engine.{key} missing"))?;
        if n == 0 {
            return Err(format!("engine.{key} is zero — nothing was observed"));
        }
    }
    let failures = doc
        .get("failures")
        .and_then(Value::as_arr)
        .ok_or("metrics has no failures array")?;
    if !failures.is_empty() {
        return Err(format!("{} experiment failure(s) recorded", failures.len()));
    }
    Ok(())
}

fn check_bench(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("bench document has no schema")?;
    if schema != "pdpa-bench/v2" && schema != "pdpa-bench/v3" {
        return Err(format!("unexpected bench schema {schema:?}"));
    }
    let modes = doc.get("modes").ok_or("bench document has no modes")?;
    let has_metrics = ["parallel", "sequential"]
        .iter()
        .filter_map(|m| modes.get(m))
        .any(|m| m.get("metrics").is_some());
    if !has_metrics {
        return Err("no mode embeds a metrics block".into());
    }
    if schema == "pdpa-bench/v3" {
        // v3 documents must carry history: a --json run that failed to
        // append would silently starve the perf gate.
        let entries = doc
            .get("trajectory")
            .and_then(Value::as_arr)
            .ok_or("v3 bench document has no trajectory array")?;
        if entries.is_empty() {
            return Err("trajectory array is empty — the run did not append".into());
        }
        for e in entries {
            for key in ["git_rev", "mode"] {
                if e.get(key).and_then(Value::as_str).is_none() {
                    return Err(format!("trajectory entry missing {key}"));
                }
            }
            for key in ["threads", "wall_secs", "events_per_sec"] {
                if e.get(key).and_then(Value::as_f64).is_none() {
                    return Err(format!("trajectory entry missing {key}"));
                }
            }
        }
    }
    Ok(())
}

fn check_analysis(doc: &Value) -> Result<usize, String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("analysis document has no schema")?;
    if schema != "pdpa-analyze/v1" {
        return Err(format!("unexpected analysis schema {schema:?}"));
    }
    let runs = doc.get("runs").ok_or("analysis document has no runs")?;
    let Value::Obj(pairs) = runs else {
        return Err("runs is not an object".into());
    };
    if pairs.is_empty() {
        return Err("runs is empty — nothing was recorded".into());
    }
    for (key, run) in pairs {
        for field in ["events", "jobs", "decisions"] {
            let n = run
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("run {key:?} missing {field}"))?;
            if n <= 0.0 {
                return Err(format!("run {key:?} has zero {field}"));
            }
        }
    }
    Ok(pairs.len())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut trace, mut metrics, mut bench, mut analyze) = (None, None, None, None);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--trace" => &mut trace,
            "--metrics" => &mut metrics,
            "--bench" => &mut bench,
            "--analyze" => &mut analyze,
            other => return fail(&format!("unknown argument `{other}`")),
        };
        match args.next() {
            Some(path) => *slot = Some(path),
            None => return fail(&format!("{arg} requires a file path")),
        }
    }
    if trace.is_none() && metrics.is_none() && bench.is_none() && analyze.is_none() {
        return fail("nothing to validate (pass --trace, --metrics, --bench, or --analyze)");
    }

    if let Some(path) = trace {
        match read(&path).and_then(|doc| check_trace(&doc)) {
            Ok(n) => println!("validate-obs: {path}: OK ({n} trace events, spans paired)"),
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = metrics {
        match read(&path).and_then(|doc| check_metrics(&doc)) {
            Ok(()) => println!("validate-obs: {path}: OK (schema, nonzero counters)"),
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = bench {
        match read(&path).and_then(|doc| check_bench(&doc)) {
            Ok(()) => println!("validate-obs: {path}: OK (bench schema, metrics, trajectory)"),
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = analyze {
        match read(&path).and_then(|doc| check_analysis(&doc)) {
            Ok(n) => println!("validate-obs: {path}: OK ({n} analyzed run(s), nonzero metrics)"),
            Err(e) => return fail(&e),
        }
    }
    ExitCode::SUCCESS
}
