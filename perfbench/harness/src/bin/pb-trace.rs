//! The traced run: times calls into each layer's public functions from
//! outside the program.
//!
//! ```text
//! pb-trace --trace FILE.swf --seed N --rate SUBMITS_PER_S --secs S --out FILE.json
//! ```
//!
//! - `qs`, `engine`, `policies`/`core`, `obs`, `analyze`: the `pdpa replay`
//!   path on the trace, with a timing wrapper around the PDPA policy and
//!   one around the recording observer;
//! - `engine::shard`: the same replay on 1 and `nproc` shards;
//! - `bench`/`parallel`: every registry experiment, one at a time;
//! - `daemon`, `watch`: an in-process `DaemonCore` fed the seeded op
//!   stream, with the protocol codec and the status mirror timed per call.
//!
//! Raw figures go to the JSON file; `run.py` derives the metrics.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use pdpa_analyze::RunAnalysis;
use pdpa_core::Pdpa;
use pdpa_daemon::{DaemonConfig, DaemonCore};
use pdpa_engine::{shard::DEFAULT_EPOCH_SECS, Engine, EngineConfig, Instrumentation, RunResult};
use pdpa_obs::{ObsEvent, Observer, RecordingObserver, Registry};
use pdpa_perf::PerfSample;
use pdpa_policies::{Decisions, PolicyCtx, SchedulingPolicy, SharingModel};
use pdpa_qs::{shape, swf, JobSpec};
use pdpa_sim::{JobId, SimTime};
use pdpa_watch::{Request, RequestKind, Response, ResponseBody};
use perfbench_harness::{op_stream, request_line, time_scale, DAEMON_CPUS};

/// Machine size and engine seed of `pdpa replay`'s defaults.
const REPLAY_CPUS: usize = 60;
const REPLAY_SEED: u64 = 42;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Time spent in each policy hook.
#[derive(Default)]
struct PolicyStats {
    report_calls: u64,
    report_ns: u128,
    arrival_ns: u128,
    completion_ns: u128,
    other_ns: u128,
}

/// Forwards every hook to the wrapped policy and times it.
struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    stats: Rc<RefCell<PolicyStats>>,
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sharing(&self) -> SharingModel {
        self.inner.sharing()
    }

    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        let t = Instant::now();
        let d = self.inner.on_job_arrival(ctx, job);
        self.stats.borrow_mut().arrival_ns += t.elapsed().as_nanos();
        d
    }

    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        let t = Instant::now();
        let d = self.inner.on_job_completion(ctx, job);
        self.stats.borrow_mut().completion_ns += t.elapsed().as_nanos();
        d
    }

    fn on_performance_report(
        &mut self,
        ctx: &PolicyCtx,
        job: JobId,
        sample: PerfSample,
    ) -> Decisions {
        let t = Instant::now();
        let d = self.inner.on_performance_report(ctx, job, sample);
        let mut stats = self.stats.borrow_mut();
        stats.report_ns += t.elapsed().as_nanos();
        stats.report_calls += 1;
        d
    }

    fn on_capacity_change(&mut self, ctx: &PolicyCtx, changed: &[JobId]) -> Decisions {
        let t = Instant::now();
        let d = self.inner.on_capacity_change(ctx, changed);
        self.stats.borrow_mut().other_ns += t.elapsed().as_nanos();
        d
    }

    fn may_start_new_job(&self, ctx: &PolicyCtx) -> bool {
        let t = Instant::now();
        let ok = self.inner.may_start_new_job(ctx);
        self.stats.borrow_mut().other_ns += t.elapsed().as_nanos();
        ok
    }
}

/// Times every publish into the wrapped recorder.
struct TimedObserver {
    inner: RecordingObserver,
    calls: u64,
    ns: u128,
}

impl Observer for TimedObserver {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        let t = Instant::now();
        self.inner.on_event(at, event);
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
    }
}

struct Args {
    trace: String,
    seed: u64,
    rate: f64,
    secs: f64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: String::new(),
        seed: 0,
        rate: 0.0,
        secs: 0.0,
        out: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--trace" => args.trace = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--rate" => args.rate = value.parse().map_err(|_| bad())?,
            "--secs" => args.secs = value.parse().map_err(|_| bad())?,
            "--out" => args.out = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.trace.is_empty() || args.out.is_empty() || args.rate <= 0.0 || args.secs <= 0.0 {
        return Err("usage: pb-trace --trace F --seed N --rate R --secs S --out F".into());
    }
    Ok(args)
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(","))
}

/// One replay of `jobs` on the classic engine (`shards == 0`) or the
/// sharded one, through both timing wrappers.
fn replay(
    config: &EngineConfig,
    jobs: Vec<JobSpec>,
    shards: usize,
) -> (RunResult, f64, PolicyStats, TimedObserver) {
    let stats = Rc::new(RefCell::new(PolicyStats::default()));
    let policy = Box::new(TimedPolicy {
        inner: Box::new(Pdpa::paper_default()),
        stats: Rc::clone(&stats),
    });
    let mut observer = TimedObserver {
        inner: RecordingObserver::new(),
        calls: 0,
        ns: 0,
    };
    let engine = Engine::new(config.clone());
    let t = Instant::now();
    let result = if shards == 0 {
        engine.run_observed(jobs, policy, &mut observer)
    } else {
        engine.run_sharded_instrumented(
            jobs,
            policy,
            shards,
            DEFAULT_EPOCH_SECS,
            &mut observer,
            Instrumentation::none(),
        )
    };
    let run_ms = ms(t);
    let stats = Rc::try_unwrap(stats)
        .map(RefCell::into_inner)
        .unwrap_or_default();
    (result, run_ms, stats, observer)
}

fn slowdowns(analysis: &RunAnalysis) -> (f64, f64) {
    let dist = analysis.timeline.slowdown_dist.unwrap_or_default();
    (dist.p50, dist.p99)
}

fn trace_replay(args: &Args, out: &mut String) -> Result<(), String> {
    // qs: parse and shape exactly as `pdpa replay` does.
    let t = Instant::now();
    let file = std::fs::File::open(&args.trace).map_err(|e| format!("{}: {e}", args.trace))?;
    let trace = swf::read_swf(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let read_ms = ms(t);
    let t = Instant::now();
    let from_cpus = trace.machine_size().unwrap_or(REPLAY_CPUS);
    let records = shape::remap_machine(&trace.records, from_cpus, REPLAY_CPUS);
    let jobs = shape::jobs_from_records(&records);
    let shape_ms = ms(t);
    let (lo, hi) = records
        .iter()
        .map(|r| r.submit_secs)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(s), hi.max(s))
        });
    let mut config = EngineConfig::default()
        .with_seed(REPLAY_SEED ^ 0xA5A5)
        .with_cpus(REPLAY_CPUS);
    config.max_sim_secs = config
        .max_sim_secs
        .max((hi - lo).max(0.0) * 20.0 + 10_000.0);

    // engine, policies/core, obs, analyze.
    let (result, run_ms, policy, observer) = replay(&config, jobs.clone(), 0);
    let events = observer.inner.take_events();
    let t = Instant::now();
    let analysis = RunAnalysis::from_events(&events);
    let analyze_ms = ms(t);
    drop(events);
    let (p50, p99) = slowdowns(&analysis);
    let makespan = result.summary.makespan_secs();
    let _ = write!(
        out,
        "\"qs\":{{\"read_swf_ms\":{read_ms:.3},\"shape_ms\":{shape_ms:.3}}},\
         \"engine\":{{\"run_ms\":{run_ms:.3},\"events_popped\":{},\"stale_dropped\":{},\
         \"decisions\":{},\"memo_hits\":{},\"memo_misses\":{},\"completed_all\":{},\
         \"watchdog\":{}}},\
         \"policy\":{{\"report_calls\":{},\"report_ms\":{:.3},\"arrival_ms\":{:.3},\
         \"completion_ms\":{:.3},\"other_ms\":{:.3}}},\
         \"obs\":{{\"publish_calls\":{},\"publish_ms\":{:.3}}},\
         \"analyze\":{{\"from_events_ms\":{analyze_ms:.3}}},\
         \"sim\":{{\"makespan_s\":{makespan},\"slowdown_p50\":{p50},\"slowdown_p99\":{p99}}},",
        result.events_popped,
        result.events_stale_dropped,
        result.decisions_applied,
        result.memo_hits,
        result.memo_misses,
        result.completed_all,
        result.watchdog.is_some(),
        policy.report_calls,
        policy.report_ns as f64 / 1e6,
        policy.arrival_ns as f64 / 1e6,
        policy.completion_ns as f64 / 1e6,
        policy.other_ns as f64 / 1e6,
        observer.calls,
        observer.ns as f64 / 1e6,
    );
    drop(result);

    // engine::shard: one shard, then one per core.
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (_, s1_ms, _, _) = replay(&config, jobs.clone(), 1);
    let (sharded, sn_ms, _, observer) = replay(&config, jobs, shards);
    let (sn_p50, _) = slowdowns(&RunAnalysis::from_events(&observer.inner.take_events()));
    let _ = write!(
        out,
        "\"shard\":{{\"shards\":{shards},\"s1_ms\":{s1_ms:.3},\"sN_ms\":{sn_ms:.3},\
         \"sN_makespan_s\":{},\"sN_slowdown_p50\":{sn_p50}}},",
        sharded.summary.makespan_secs(),
    );
    Ok(())
}

fn trace_experiments(out: &mut String) {
    let before = Registry::global().snapshot().engine;
    let mut timings = Vec::new();
    for e in pdpa_bench::experiments::registry() {
        let t = Instant::now();
        let text = (e.run)();
        timings.push(format!("\"{}\":{:.3}", e.name, ms(t)));
        std::hint::black_box(text);
    }
    let after = Registry::global().snapshot().engine;
    let _ = write!(
        out,
        "\"expt\":{{\"ms\":{{{}}},\"engine_runs\":{},\"events_popped\":{},\"threads\":{}}},",
        timings.join(","),
        after.runs - before.runs,
        after.events_popped - before.events_popped,
        pdpa_parallel::num_threads(),
    );
}

fn trace_daemon(args: &Args, out: &mut String) -> Result<(), String> {
    let mut core = DaemonCore::new(DaemonConfig {
        cpus: DAEMON_CPUS,
        seed: args.seed,
        max_sim_secs: Some(1e12),
        max_queue: 4096,
        time_scale: time_scale(args.rate),
        ..DaemonConfig::default()
    })?;
    let tap = core.tap();
    let (mut parse, mut handle, mut pace, mut status, mut encode) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pace_events = 0;
    for (i, op) in op_stream(args.seed, args.rate, args.secs)
        .iter()
        .enumerate()
    {
        let line = request_line(i as u64 + 1, &op.kind);
        let t = Instant::now();
        let request = Request::parse_line(&line)?;
        parse.push(us(t));

        let popped = core.session().queue_stats().popped;
        let t = Instant::now();
        core.pace(op.due_secs);
        pace.push(us(t));
        pace_events += core.session().queue_stats().popped - popped;

        let body = if matches!(request.kind, RequestKind::Status) {
            let t = Instant::now();
            let body = tap.status_body();
            status.push(us(t));
            ResponseBody::Status(body)
        } else {
            let t = Instant::now();
            let body = core.handle(&request.kind, op.due_secs);
            handle.push(us(t));
            if !matches!(body, ResponseBody::Ack(_)) {
                return Err(format!("request {} was not acknowledged", i + 1));
            }
            body
        };
        let response = Response {
            id: request.id,
            body,
        };
        let t = Instant::now();
        let line = response.to_line();
        encode.push(us(t));
        std::hint::black_box(line);
    }
    let _ = write!(
        out,
        "\"daemon\":{{\"handle_submit\":{},\"pace\":{},\"pace_events\":{pace_events}}},\
         \"watch\":{{\"parse_request\":{},\"encode_response\":{},\"status_body\":{}}}",
        list(&handle),
        list(&pace),
        list(&parse),
        list(&encode),
        list(&status),
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let mut out = String::from("{");
    trace_replay(args, &mut out)?;
    trace_experiments(&mut out);
    trace_daemon(args, &mut out)?;
    out.push_str("}\n");
    std::fs::write(&args.out, out).map_err(|e| format!("cannot write {}: {e}", args.out))
}

fn main() -> std::process::ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pb-trace: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}
