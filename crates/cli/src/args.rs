//! Hand-rolled argument parsing (no external dependencies).

use std::str::FromStr;

use pdpa_bench::harness::Exports;
use pdpa_core::RosterEntry;
use pdpa_policies::SharingModel;
use pdpa_qs::Workload;

/// A policy named on the command line: one row of the
/// [`pdpa_core::roster`].
pub type Policy = &'static RosterEntry;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `pdpa run` — one workload, one policy.
    Run(Options),
    /// `pdpa compare` — one workload, every policy.
    Compare(Options),
    /// `pdpa analyze` — one recorded run, full derived analytics.
    Analyze(Options),
    /// `pdpa diff` — two recorded runs, first divergence + metric deltas.
    Diff(Options),
    /// `pdpa replay` — replay an SWF trace file through the engine.
    Replay(ReplayOptions),
    /// `pdpa tournament` — race the whole policy zoo and rank by slowdown.
    Tournament(TournamentOptions),
    /// `pdpa watch` — query a live `--serve` replay over TCP.
    Watch(WatchOptions),
    /// `pdpa daemon` — run `pdpad`, the resident scheduler daemon.
    Daemon(DaemonOptions),
    /// `pdpa submit` — submit jobs to a running `pdpad`.
    Submit(SubmitOptions),
    /// `pdpa ctl` — control a running `pdpad` (drain, snapshot, ...).
    Ctl(CtlOptions),
    /// `pdpa curves` — print the Fig. 3 speedup curves.
    Curves,
    /// `pdpa help` / `--help`.
    Help,
}

/// Options of `pdpa replay`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOptions {
    /// Path of the SWF trace to replay.
    pub trace_path: String,
    /// Scheduling policy to replay under.
    pub policy: Policy,
    /// Rescale the trace to this demand fraction (omitted: replay the
    /// trace's intrinsic arrival rate).
    pub load: Option<f64>,
    /// Machine size to replay on; requests are remapped from the trace's
    /// recorded machine size.
    pub cpus: usize,
    /// Replay only the submissions inside `[start, end)` seconds.
    pub window: Option<(f64, f64)>,
    /// Engine seed (timing noise).
    pub seed: u64,
    /// Append a `replay-<policy>` entry to the `BENCH_pdpa.json`
    /// trajectory.
    pub json: bool,
    /// Print a decision-event summary after the metrics.
    pub obs: bool,
    /// The Chrome trace and analysis files to write (`--trace-out`,
    /// `--analyze-out`).
    pub exports: Exports,
    /// Replay through the epoch-parallel sharded engine with this many
    /// shards (omitted: the classic sequential engine).
    pub shards: Option<usize>,
    /// Barrier epoch in simulated seconds for `--shards` (omitted: the
    /// engine default).
    pub epoch: Option<f64>,
    /// Replay a second time with this shard count and diff the two
    /// decision-event streams (requires `--shards`; a divergence is an
    /// error, so CI can gate on the exit status).
    pub diff_shards: Option<usize>,
    /// Fault-injection plan (the `pdpa_faults::FaultPlan` grammar),
    /// applied identically to both replays under `--diff-shards`.
    pub faults: Option<String>,
    /// Enable the span profiler and write its Chrome `trace_event` JSON
    /// here (one lane per shard); also prints the text hot-path report.
    pub profile_out: Option<String>,
    /// Write the recorded decision-event stream to this file.
    pub obs_out: Option<String>,
    /// Serialization of `--obs-out`: line-oriented text or the `PDPAOBS1`
    /// length-prefixed binary framing.
    pub obs_format: ObsFormat,
    /// Abort with a structured diagnostic when the simulated clock stops
    /// advancing (default on for replay; `--no-watchdog` disables).
    pub watchdog: bool,
    /// Emit periodic health snapshots to stderr at this wall-clock cadence
    /// in seconds (`--heartbeat SECS`; off when omitted).
    pub heartbeat: Option<f64>,
    /// Serve live status/metrics queries on this TCP address while the
    /// replay runs (`--serve ADDR`; `127.0.0.1:0` picks an ephemeral port,
    /// printed to stderr at bind time).
    pub serve: Option<String>,
    /// Keep only these comma-separated event kinds in the recorded stream
    /// (`--obs-filter kind1,kind2`; validated against `ObsEvent::KINDS` at
    /// parse time).
    pub obs_filter: Option<String>,
}

/// Options of `pdpa tournament`.
#[derive(Clone, Debug, PartialEq)]
pub struct TournamentOptions {
    /// SWF trace file for the replay leg (omitted: a shaped trace is
    /// generated in process).
    pub trace_path: Option<String>,
    /// Machine size of the replay leg.
    pub cpus: usize,
    /// Seed for trace generation and both legs' engines.
    pub seed: u64,
    /// Rescale the replay leg to this demand fraction.
    pub load: Option<f64>,
    /// Submission window of the generated trace, seconds (only without a
    /// trace file).
    pub duration: Option<f64>,
    /// Append one `tournament-<policy>` entry per entrant to the
    /// `BENCH_pdpa.json` trajectory.
    pub json: bool,
    /// Write the `pdpa-tournament/v1` JSON report here.
    pub out: Option<String>,
}

impl Default for TournamentOptions {
    fn default() -> Self {
        TournamentOptions {
            trace_path: None,
            cpus: 60,
            seed: 42,
            load: None,
            duration: None,
            json: false,
            out: None,
        }
    }
}

/// On-disk encodings of a decision-event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsFormat {
    /// One event per line, the `TimedEvent::to_line` grammar.
    #[default]
    Text,
    /// `PDPAOBS1` magic + uvarint length-prefixed frames.
    Binary,
}

impl ObsFormat {
    /// Parses an `--obs-format` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(ObsFormat::Text),
            "binary" | "bin" => Some(ObsFormat::Binary),
            _ => None,
        }
    }
}

/// The policy every command defaults to.
fn pdpa() -> Policy {
    pdpa_core::by_slug("pdpa").expect("PDPA is on the roster")
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            trace_path: String::new(),
            policy: pdpa(),
            load: None,
            cpus: 60,
            window: None,
            seed: 42,
            json: false,
            obs: false,
            exports: Exports::default(),
            shards: None,
            epoch: None,
            diff_shards: None,
            faults: None,
            profile_out: None,
            obs_out: None,
            obs_format: ObsFormat::Text,
            watchdog: true,
            heartbeat: None,
            serve: None,
            obs_filter: None,
        }
    }
}

/// Options of `pdpa watch`.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchOptions {
    /// TCP address of the `--serve` replay to query.
    pub addr: String,
    /// Poll until the run reaches a terminal state instead of querying
    /// once.
    pub follow: bool,
    /// Print the raw protocol response lines (NDJSON) instead of the
    /// human rendering.
    pub json: bool,
    /// Also fetch the newest N observer events.
    pub tail: Option<usize>,
    /// Poll cadence for `--follow`, in seconds.
    pub interval: f64,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            addr: String::new(),
            follow: false,
            json: false,
            tail: None,
            interval: 1.0,
        }
    }
}

/// Options of `pdpa daemon`.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonOptions {
    /// TCP address to serve on (`127.0.0.1:0` picks an ephemeral port,
    /// printed to stderr at bind time).
    pub addr: String,
    /// Scheduling policy the daemon runs.
    pub policy: Policy,
    /// Machine size.
    pub cpus: usize,
    /// Engine seed.
    pub seed: u64,
    /// Queue backfilling.
    pub backfill: bool,
    /// Admission bound: reject submissions with `queue_full` while this
    /// many jobs wait.
    pub max_queue: usize,
    /// Sim seconds advanced per wall second between ops (`0` disables
    /// pacing).
    pub time_scale: f64,
    /// Simulation horizon override.
    pub max_sim_secs: Option<f64>,
    /// Write the decision-event stream to this file.
    pub stream: Option<String>,
    /// Default snapshot target for `snapshot`/`shutdown` requests that
    /// name no path.
    pub snapshot: Option<String>,
    /// Restore state from this `pdpa-snapshot/v1` file before serving.
    pub restore: Option<String>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            addr: "127.0.0.1:0".to_string(),
            policy: pdpa(),
            cpus: 32,
            seed: 42,
            backfill: false,
            max_queue: 64,
            time_scale: 1.0,
            max_sim_secs: None,
            stream: None,
            snapshot: None,
            restore: None,
        }
    }
}

/// Options of `pdpa submit`.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitOptions {
    /// TCP address of the daemon.
    pub addr: String,
    /// Application class (`swim`, `bt.A`, `hydro2d`, `apsi`).
    pub class: String,
    /// Processor request override.
    pub request: Option<u64>,
    /// Sequential-work override in sim seconds.
    pub work_secs: Option<f64>,
    /// Submit this many identical jobs.
    pub count: usize,
    /// Print raw protocol response lines instead of the human rendering.
    pub json: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            addr: String::new(),
            class: "swim".to_string(),
            request: None,
            work_secs: None,
            count: 1,
            json: false,
        }
    }
}

/// The control action of `pdpa ctl`.
#[derive(Clone, Debug, PartialEq)]
pub enum CtlAction {
    /// Identify the server (`hello`).
    Hello,
    /// Finish all admitted work and stop admitting.
    Drain,
    /// Write a snapshot (optionally to an explicit path).
    Snapshot(Option<String>),
    /// Shut the daemon down (optionally snapshotting first).
    Shutdown(Option<String>),
    /// Cancel one job.
    Cancel(u64),
    /// List the newest N jobs.
    Jobs(usize),
    /// Show one job.
    Job(u64),
}

/// Options of `pdpa ctl`.
#[derive(Clone, Debug, PartialEq)]
pub struct CtlOptions {
    /// TCP address of the daemon.
    pub addr: String,
    /// What to ask it.
    pub action: CtlAction,
    /// Print raw protocol response lines instead of the human rendering.
    pub json: bool,
}

/// Options of `run`, `compare`, `analyze` and `diff`; each command
/// accepts only the flags it acts on.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// The workload to execute.
    pub workload: Workload,
    /// Policy (`run`, `analyze`, `diff`; `compare` runs them all).
    pub policy: Option<Policy>,
    /// System load fraction.
    pub load: f64,
    /// Seed for the generator and engine.
    pub seed: u64,
    /// Machine size.
    pub cpus: usize,
    /// Untuned requests (everything asks for 30).
    pub untuned: bool,
    /// Queue backfilling.
    pub backfill: bool,
    /// Print the ASCII execution view.
    pub ascii: bool,
    /// Write a Paraver trace here.
    pub prv_out: Option<String>,
    /// Write an SWF log here.
    pub swf_log: Option<String>,
    /// Print a decision-event summary after the metrics.
    pub obs: bool,
    /// The decision-event export files to write (`run`, `analyze`).
    pub exports: Exports,
    /// Fault-injection plan (the `pdpa_faults::FaultPlan` grammar),
    /// unparsed — validated against `cpus` when the engine is built.
    pub faults: Option<String>,
    /// Second policy for `pdpa diff` (defaults to `--policy`).
    pub policy_b: Option<Policy>,
    /// Second seed for `pdpa diff` (defaults to `--seed`).
    pub seed_b: Option<u64>,
    /// `analyze`/`diff`: read this recorded decision-event stream (text or
    /// `PDPAOBS1` binary, auto-detected) instead of running the engine.
    pub from_stream: Option<String>,
    /// `diff`: the second recorded stream to compare against.
    pub from_stream_b: Option<String>,
}

impl Options {
    /// Whether the run collects the per-CPU activity trace, which only
    /// `--ascii` and `--prv-out` read.
    pub fn trace(&self) -> bool {
        self.ascii || self.prv_out.is_some()
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: Workload::W3,
            policy: None,
            load: 1.0,
            seed: 42,
            cpus: 60,
            untuned: false,
            backfill: false,
            ascii: false,
            prv_out: None,
            swf_log: None,
            obs: false,
            exports: Exports::default(),
            faults: None,
            policy_b: None,
            seed_b: None,
            from_stream: None,
            from_stream_b: None,
        }
    }
}

/// Walks one command's arguments. Each getter reads the current flag's
/// value and applies one validation rule, so every diagnostic is written
/// once.
struct Flags<'a> {
    verb: &'a str,
    args: std::slice::Iter<'a, String>,
    /// The argument last returned by [`Flags::next`].
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(verb: &'a str, args: &'a [String]) -> Self {
        Flags {
            verb,
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument: a flag, whose value the getters read, or a
    /// positional word.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    fn unknown(&self) -> String {
        format!("unknown option {:?}; try `pdpa help`", self.flag)
    }

    /// Rejects the current flag unless the command is one of `verbs`.
    fn only_for(&self, verbs: &[&str]) -> Result<(), String> {
        if verbs.contains(&self.verb) {
            return Ok(());
        }
        let verbs: Vec<String> = verbs.iter().map(|v| format!("`pdpa {v}`")).collect();
        Err(format!(
            "{} is only meaningful for {}",
            self.flag,
            verbs.join("/")
        ))
    }

    /// Stores the current word as the command's one positional argument.
    fn positional(&self, slot: &mut Option<String>, what: &str) -> Result<(), String> {
        if self.flag.starts_with('-') {
            return Err(self.unknown());
        }
        if let Some(first) = slot {
            return Err(format!(
                "{} takes one {what}; got {first:?} and {:?}",
                self.verb, self.flag
            ));
        }
        *slot = Some(self.flag.to_string());
        Ok(())
    }

    fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The next argument, unless it is a flag.
    fn optional_value(&mut self) -> Option<String> {
        match self.args.as_slice().first() {
            Some(next) if !next.starts_with('-') => self.args.next().cloned(),
            _ => None,
        }
    }

    /// The value parsed as `T`, and its text for later diagnostics;
    /// `expects` describes the wanted form.
    fn parsed<T: FromStr>(&mut self, expects: &str) -> Result<(T, String), String> {
        let v = self.value()?;
        match v.parse() {
            Ok(x) => Ok((x, v)),
            Err(_) => Err(format!("{} {expects}, got {v:?}", self.flag)),
        }
    }

    fn int<T: FromStr>(&mut self) -> Result<T, String> {
        Ok(self.parsed("expects an integer")?.0)
    }

    fn count(&mut self) -> Result<usize, String> {
        match self.int()? {
            0 => Err(format!("{} must be at least 1", self.flag)),
            n => Ok(n),
        }
    }

    fn seconds(&mut self) -> Result<f64, String> {
        let (secs, v): (f64, _) = self.parsed("expects seconds")?;
        if !(secs > 0.0 && secs.is_finite()) {
            return Err(format!(
                "{} {v} must be a positive number of seconds",
                self.flag
            ));
        }
        Ok(secs)
    }

    fn load(&mut self) -> Result<f64, String> {
        let (load, v): (f64, _) = self.parsed("expects a number")?;
        if !(load > 0.0 && load <= 2.0) {
            return Err(format!("{} {v} out of range (0, 2]", self.flag));
        }
        Ok(load)
    }

    fn policy(&mut self) -> Result<Policy, String> {
        let v = self.value()?;
        pdpa_core::by_slug(&v).ok_or_else(|| format!("unknown policy {v:?}"))
    }

    fn workload(&mut self) -> Result<Workload, String> {
        let v = self.value()?;
        Workload::ALL
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(&v))
            .ok_or_else(|| {
                format!(
                    "unknown workload {:?}; expected w1..w4",
                    v.to_ascii_lowercase()
                )
            })
    }
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable diagnostic on any malformed input.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((verb, args)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "curves" => {
            let mut f = Flags::new("curves", args);
            match f.next() {
                None => Ok(Command::Curves),
                Some(_) => Err(f.unknown()),
            }
        }
        "replay" => parse_replay(args),
        "tournament" => parse_tournament(args),
        "watch" => parse_watch(args),
        "daemon" => parse_daemon(args),
        "submit" => parse_submit(args),
        "ctl" => parse_ctl(args),
        "run" | "compare" | "analyze" | "diff" => parse_run(verb, args),
        other => Err(format!("unknown command {other:?}; try `pdpa help`")),
    }
}

/// Parses `pdpa run|compare|analyze|diff [flags]`.
fn parse_run(verb: &str, args: &[String]) -> Result<Command, String> {
    const POLICY: &[&str] = &["run", "analyze", "diff"];
    const EXPORTS: &[&str] = &["run", "analyze"];
    let mut opts = Options::default();
    let mut workload_set = false;
    let mut f = Flags::new(verb, args);
    while let Some(arg) = f.next() {
        match arg {
            "--workload" => {
                opts.workload = f.workload()?;
                workload_set = true;
            }
            "--load" => opts.load = f.load()?,
            "--seed" => opts.seed = f.int()?,
            "--cpus" => opts.cpus = f.count()?,
            "--untuned" => opts.untuned = true,
            "--backfill" => opts.backfill = true,
            "--faults" => opts.faults = Some(f.value()?),
            "--policy" => {
                f.only_for(POLICY)?;
                opts.policy = Some(f.policy()?);
            }
            "--ascii" => {
                f.only_for(&["run"])?;
                opts.ascii = true;
            }
            "--prv-out" => {
                f.only_for(&["run"])?;
                opts.prv_out = Some(f.value()?);
            }
            "--swf-log" => {
                f.only_for(&["run"])?;
                opts.swf_log = Some(f.value()?);
            }
            "--obs" => {
                f.only_for(&["run"])?;
                opts.obs = true;
            }
            "--trace-out" => {
                f.only_for(EXPORTS)?;
                opts.exports.trace_out = Some(f.value()?);
            }
            "--metrics-out" => {
                f.only_for(EXPORTS)?;
                opts.exports.metrics_out = Some(f.value()?);
            }
            "--mpl-csv" => {
                f.only_for(EXPORTS)?;
                opts.exports.mpl_csv = Some(f.value()?);
            }
            "--analyze-out" => {
                f.only_for(EXPORTS)?;
                opts.exports.analyze_out = Some(f.value()?);
            }
            "--policy-b" => {
                f.only_for(&["diff"])?;
                opts.policy_b = Some(f.policy()?);
            }
            "--seed-b" => {
                f.only_for(&["diff"])?;
                opts.seed_b = Some(f.int()?);
            }
            "--from-stream" => {
                f.only_for(&["analyze", "diff"])?;
                opts.from_stream = Some(f.value()?);
            }
            "--from-stream-b" => {
                f.only_for(&["diff"])?;
                opts.from_stream_b = Some(f.value()?);
            }
            _ => return Err(f.unknown()),
        }
    }
    let from_stream = opts.from_stream.is_some();
    if verb == "diff" && (from_stream != opts.from_stream_b.is_some()) {
        return Err(
            "`pdpa diff` compares two streams; give both --from-stream and --from-stream-b".into(),
        );
    }
    if !workload_set && !from_stream {
        return Err("--workload is required".into());
    }
    if verb != "compare" && opts.policy.is_none() && !from_stream {
        return Err(format!("--policy is required for `pdpa {verb}`"));
    }
    Ok(match verb {
        "run" => Command::Run(opts),
        "compare" => Command::Compare(opts),
        "analyze" => Command::Analyze(opts),
        _ => Command::Diff(opts),
    })
}

/// Parses `pdpa replay <trace.swf> [flags]`.
fn parse_replay(args: &[String]) -> Result<Command, String> {
    let mut opts = ReplayOptions::default();
    let mut trace_path = None;
    let mut policy = None;
    let mut f = Flags::new("replay", args);
    while let Some(arg) = f.next() {
        match arg {
            "--policy" => policy = Some(f.policy()?),
            "--load" => opts.load = Some(f.load()?),
            "--cpus" => opts.cpus = f.count()?,
            "--window" => opts.window = Some(parse_window(&f.value()?)?),
            "--seed" => opts.seed = f.int()?,
            "--shards" => opts.shards = Some(f.count()?),
            "--epoch" => opts.epoch = Some(f.seconds()?),
            "--diff-shards" => opts.diff_shards = Some(f.count()?),
            "--json" => opts.json = true,
            "--obs" => opts.obs = true,
            "--trace-out" => opts.exports.trace_out = Some(f.value()?),
            "--analyze-out" => opts.exports.analyze_out = Some(f.value()?),
            "--faults" => opts.faults = Some(f.value()?),
            "--profile-out" => opts.profile_out = Some(f.value()?),
            "--obs-out" => opts.obs_out = Some(f.value()?),
            "--obs-format" => {
                let v = f.value()?;
                opts.obs_format = ObsFormat::parse(&v)
                    .ok_or_else(|| format!("--obs-format expects text or binary, got {v:?}"))?;
            }
            "--watchdog" => opts.watchdog = true,
            "--no-watchdog" => opts.watchdog = false,
            "--heartbeat" => opts.heartbeat = Some(f.seconds()?),
            "--serve" => opts.serve = Some(f.value()?),
            "--obs-filter" => {
                let v = f.value()?;
                // Validate the kind list now so typos fail before a long
                // replay starts; the filter is rebuilt from the spec later.
                pdpa_obs::KindFilter::parse(&v).map_err(|e| format!("--obs-filter: {e}"))?;
                opts.obs_filter = Some(v);
            }
            _ => f.positional(&mut trace_path, "trace path")?,
        }
    }
    opts.trace_path =
        trace_path.ok_or("replay needs a trace path: `pdpa replay <trace.swf> --policy <p>`")?;
    opts.policy = policy.ok_or("--policy is required for `pdpa replay`")?;
    if opts.shards.is_some()
        && !matches!((opts.policy.build)().sharing(), SharingModel::SpaceShared)
    {
        return Err(format!(
            "--shards requires a space-sharing policy; {} is not one",
            opts.policy.label
        ));
    }
    if opts.epoch.is_some() && opts.shards.is_none() {
        return Err("--epoch is only meaningful together with --shards".into());
    }
    if opts.diff_shards.is_some() && opts.shards.is_none() {
        return Err(
            "--diff-shards compares two sharded replays; give the first count with --shards".into(),
        );
    }
    if opts.obs_format != ObsFormat::Text && opts.obs_out.is_none() {
        return Err("--obs-format chooses the --obs-out encoding; give --obs-out too".into());
    }
    if opts.serve.is_some() && opts.diff_shards.is_some() {
        return Err("--serve watches one live replay; it conflicts with --diff-shards".into());
    }
    Ok(Command::Replay(opts))
}

/// Parses `pdpa watch <addr> [flags]`.
fn parse_watch(args: &[String]) -> Result<Command, String> {
    let mut opts = WatchOptions::default();
    let mut addr = None;
    let mut f = Flags::new("watch", args);
    while let Some(arg) = f.next() {
        match arg {
            "--follow" => opts.follow = true,
            "--json" => opts.json = true,
            "--tail" => opts.tail = Some(f.count()?),
            "--interval" => opts.interval = f.seconds()?,
            _ => f.positional(&mut addr, "address")?,
        }
    }
    opts.addr = addr.ok_or("watch needs the server address: `pdpa watch HOST:PORT`")?;
    Ok(Command::Watch(opts))
}

/// Parses `pdpa daemon [flags]`.
fn parse_daemon(args: &[String]) -> Result<Command, String> {
    let mut opts = DaemonOptions::default();
    let mut f = Flags::new("daemon", args);
    while let Some(arg) = f.next() {
        match arg {
            "--addr" => opts.addr = f.value()?,
            "--policy" => opts.policy = f.policy()?,
            "--cpus" => opts.cpus = f.count()?,
            "--seed" => opts.seed = f.int()?,
            "--backfill" => opts.backfill = true,
            "--max-queue" => opts.max_queue = f.count()?,
            "--time-scale" => {
                let (scale, v): (f64, _) = f.parsed("expects a number")?;
                if !(scale >= 0.0 && scale.is_finite()) {
                    return Err(format!("--time-scale {v} must be finite and >= 0"));
                }
                opts.time_scale = scale;
            }
            "--max-sim-secs" => opts.max_sim_secs = Some(f.seconds()?),
            "--stream" => opts.stream = Some(f.value()?),
            "--snapshot" => opts.snapshot = Some(f.value()?),
            "--restore" => opts.restore = Some(f.value()?),
            _ => return Err(f.unknown()),
        }
    }
    Ok(Command::Daemon(opts))
}

/// Parses `pdpa submit ADDR --class NAME [flags]`.
fn parse_submit(args: &[String]) -> Result<Command, String> {
    let mut opts = SubmitOptions::default();
    let mut addr = None;
    let mut f = Flags::new("submit", args);
    while let Some(arg) = f.next() {
        match arg {
            "--class" => opts.class = f.value()?,
            "--request" => opts.request = Some(f.count()? as u64),
            "--work-secs" => opts.work_secs = Some(f.seconds()?),
            "--count" => opts.count = f.count()?,
            "--json" => opts.json = true,
            _ => f.positional(&mut addr, "address")?,
        }
    }
    opts.addr =
        addr.ok_or("submit needs the daemon address: `pdpa submit HOST:PORT --class swim`")?;
    Ok(Command::Submit(opts))
}

/// Parses `pdpa ctl ADDR ACTION [ARG] [flags]`.
fn parse_ctl(args: &[String]) -> Result<Command, String> {
    let mut addr = None;
    let mut action = None;
    let mut json = false;
    let mut snapshot_flag = None;
    let mut f = Flags::new("ctl", args);
    while let Some(arg) = f.next() {
        match arg {
            "--json" => json = true,
            "--snapshot" => snapshot_flag = Some(f.value()?),
            _ if arg.starts_with('-') => return Err(f.unknown()),
            _ if addr.is_none() => addr = Some(arg.to_string()),
            _ if action.is_none() => action = Some(ctl_action(arg, &mut f)?),
            extra => return Err(format!("unexpected ctl argument {extra:?}")),
        }
    }
    let addr = addr.ok_or("ctl needs the daemon address: `pdpa ctl HOST:PORT ACTION`")?;
    let mut action = action.ok_or("ctl needs an action: `pdpa ctl HOST:PORT drain`")?;
    if let Some(path) = snapshot_flag {
        match &mut action {
            CtlAction::Shutdown(snapshot) => *snapshot = Some(path),
            _ => return Err("--snapshot only applies to `ctl ... shutdown`".into()),
        }
    }
    Ok(Command::Ctl(CtlOptions { addr, action, json }))
}

/// Parses a `pdpa ctl` action verb and its operand.
fn ctl_action(word: &str, f: &mut Flags) -> Result<CtlAction, String> {
    Ok(match word {
        "hello" => CtlAction::Hello,
        "drain" => CtlAction::Drain,
        "snapshot" => CtlAction::Snapshot(f.optional_value()),
        "shutdown" => CtlAction::Shutdown(None),
        "cancel" => CtlAction::Cancel(operand(word, f.args.next(), "a job id")?),
        "jobs" => CtlAction::Jobs(match f.optional_value() {
            Some(v) => operand(word, Some(&v), "a count")?,
            None => 20,
        }),
        "job" => CtlAction::Job(operand(word, f.args.next(), "a job id")?),
        other => {
            return Err(format!(
                "unknown ctl action {other:?} (hello, drain, snapshot, shutdown, \
                 cancel, jobs, job)"
            ))
        }
    })
}

/// The number after the `ctl` action `word`.
fn operand<T: FromStr>(word: &str, v: Option<&String>, what: &str) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("ctl {word} needs {what}"))?;
    v.parse()
        .map_err(|_| format!("ctl {word} expects {what}, got {v:?}"))
}

/// Parses `pdpa tournament [trace.swf] [flags]`.
fn parse_tournament(args: &[String]) -> Result<Command, String> {
    let mut opts = TournamentOptions::default();
    let mut f = Flags::new("tournament", args);
    while let Some(arg) = f.next() {
        match arg {
            "--cpus" => opts.cpus = f.count()?,
            "--seed" => opts.seed = f.int()?,
            "--load" => opts.load = Some(f.load()?),
            "--duration" => opts.duration = Some(f.seconds()?),
            "--json" => opts.json = true,
            "--out" => opts.out = Some(f.value()?),
            _ => f.positional(&mut opts.trace_path, "trace path")?,
        }
    }
    if opts.duration.is_some() && opts.trace_path.is_some() {
        return Err("--duration shapes the generated trace; it conflicts with a trace file".into());
    }
    Ok(Command::Tournament(opts))
}

/// Parses a `--window A:B` value into a `[start, end)` pair of seconds.
fn parse_window(s: &str) -> Result<(f64, f64), String> {
    let (a, b) = s
        .split_once(':')
        .ok_or_else(|| format!("--window expects START:END, got {s:?}"))?;
    let from = a
        .parse::<f64>()
        .map_err(|_| format!("--window start is not a number: {a:?}"))?;
    let to = b
        .parse::<f64>()
        .map_err(|_| format!("--window end is not a number: {b:?}"))?;
    if !from.is_finite() || !to.is_finite() || from < 0.0 || to <= from {
        return Err(format!("--window {s} must satisfy 0 <= START < END"));
    }
    Ok((from, to))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn p(slug: &str) -> Policy {
        pdpa_core::by_slug(slug).unwrap()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn curves_has_no_options() {
        assert_eq!(parse(&argv("curves")).unwrap(), Command::Curves);
    }

    #[test]
    fn full_run_invocation() {
        let cmd = parse(&argv(
            "run --workload w2 --policy pdpa --load 0.8 --seed 7 --cpus 32 \
             --untuned --backfill --ascii --prv-out out.prv --swf-log log.swf",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(o.workload, Workload::W2);
        assert_eq!(o.policy, Some(p("pdpa")));
        assert_eq!(o.load, 0.8);
        assert_eq!(o.seed, 7);
        assert_eq!(o.cpus, 32);
        assert!(o.untuned && o.backfill && o.ascii && o.trace());
        assert_eq!(o.prv_out.as_deref(), Some("out.prv"));
        assert_eq!(o.swf_log.as_deref(), Some("log.swf"));
    }

    #[test]
    fn fault_plan_flag() {
        let cmd = parse(&argv(
            "run --workload w1 --policy pdpa --faults cpu3@120;retry=2,backoff=30",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(o.faults.as_deref(), Some("cpu3@120;retry=2,backoff=30"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --faults"))
            .unwrap_err()
            .contains("--faults"));
    }

    #[test]
    fn observability_flags() {
        let cmd = parse(&argv(
            "run --workload w1 --policy pdpa --obs --trace-out t.json \
             --metrics-out m.json --mpl-csv mpl.csv",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected Run")
        };
        assert!(o.obs && o.exports.records());
        assert_eq!(o.exports.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.exports.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.exports.mpl_csv.as_deref(), Some("mpl.csv"));
        assert!(!Options::default().exports.any());
        assert!(parse(&argv("run --workload w1 --policy pdpa --trace-out"))
            .unwrap_err()
            .contains("--trace-out"));
    }

    #[test]
    fn run_requires_policy_and_workload() {
        assert!(parse(&argv("run --workload w1"))
            .unwrap_err()
            .contains("--policy"));
        assert!(parse(&argv("run --policy pdpa"))
            .unwrap_err()
            .contains("--workload"));
    }

    #[test]
    fn compare_needs_only_workload() {
        let cmd = parse(&argv("compare --workload w4")).unwrap();
        assert!(matches!(cmd, Command::Compare(_)));
    }

    #[test]
    fn analyze_parses_like_run() {
        let cmd = parse(&argv(
            "analyze --workload w1 --policy pdpa --analyze-out a.json --trace-out t.json \
             --mpl-csv m.csv --metrics-out m.json",
        ))
        .unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("expected Analyze")
        };
        assert_eq!(o.policy, Some(p("pdpa")));
        assert_eq!(o.exports.analyze_out.as_deref(), Some("a.json"));
        assert_eq!(o.exports.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.exports.mpl_csv.as_deref(), Some("m.csv"));
        assert_eq!(o.exports.metrics_out.as_deref(), Some("m.json"));
        assert!(parse(&argv("analyze --workload w1 --policy pdpa --ascii"))
            .unwrap_err()
            .contains("only meaningful for `pdpa run`"));
        assert!(parse(&argv("analyze --workload w1"))
            .unwrap_err()
            .contains("--policy"));
    }

    #[test]
    fn diff_accepts_a_second_policy_and_seed() {
        let cmd = parse(&argv(
            "diff --workload w1 --policy pdpa --policy-b equip --seed-b 7",
        ))
        .unwrap();
        let Command::Diff(o) = cmd else {
            panic!("expected Diff")
        };
        assert_eq!(o.policy, Some(p("pdpa")));
        assert_eq!(o.policy_b, Some(p("equip")));
        assert_eq!(o.seed_b, Some(7));
        // The B-side flags are rejected everywhere else.
        assert!(
            parse(&argv("run --workload w1 --policy pdpa --policy-b equip"))
                .unwrap_err()
                .contains("--policy-b")
        );
        assert!(parse(&argv("diff --workload w1 --policy pdpa --seed-b x"))
            .unwrap_err()
            .contains("--seed-b"));
    }

    #[test]
    fn replay_full_invocation() {
        let cmd = parse(&argv(
            "replay trace.swf --policy equip --load 0.9 --cpus 128 \
             --window 100:5000 --seed 9 --json --obs --analyze-out a.json \
             --trace-out t.json",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.trace_path, "trace.swf");
        assert_eq!(o.policy, p("equip"));
        assert_eq!(o.load, Some(0.9));
        assert_eq!(o.cpus, 128);
        assert_eq!(o.window, Some((100.0, 5000.0)));
        assert_eq!(o.seed, 9);
        assert!(o.json && o.obs);
        assert_eq!(o.exports.analyze_out.as_deref(), Some("a.json"));
        assert_eq!(o.exports.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn replay_defaults_and_flag_order() {
        // The trace path may come after the flags.
        let cmd = parse(&argv("replay --policy pdpa trace.swf")).unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.trace_path, "trace.swf");
        assert_eq!(o.policy, p("pdpa"));
        assert_eq!(o.load, None);
        assert_eq!(o.cpus, 60);
        assert_eq!(o.window, None);
        assert_eq!(o.seed, 42);
        assert!(!o.json && !o.obs);
    }

    #[test]
    fn replay_requires_trace_and_policy() {
        assert!(parse(&argv("replay --policy pdpa"))
            .unwrap_err()
            .contains("trace path"));
        assert!(parse(&argv("replay trace.swf"))
            .unwrap_err()
            .contains("--policy"));
        assert!(parse(&argv("replay a.swf b.swf --policy pdpa"))
            .unwrap_err()
            .contains("one trace path"));
    }

    #[test]
    fn replay_window_diagnostics() {
        assert!(parse(&argv("replay t.swf --policy pdpa --window 100"))
            .unwrap_err()
            .contains("START:END"));
        assert!(parse(&argv("replay t.swf --policy pdpa --window x:5"))
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(&argv("replay t.swf --policy pdpa --window 9:4"))
            .unwrap_err()
            .contains("START < END"));
        assert!(parse(&argv("replay t.swf --policy pdpa --load 3"))
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn replay_shard_flags() {
        let cmd = parse(&argv(
            "replay t.swf --policy pdpa --shards 4 --epoch 5 --diff-shards 2",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.shards, Some(4));
        assert_eq!(o.epoch, Some(5.0));
        assert_eq!(o.diff_shards, Some(2));
    }

    #[test]
    fn replay_shard_flag_diagnostics() {
        assert!(parse(&argv("replay t.swf --policy pdpa --shards 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("replay t.swf --policy irix --shards 2"))
            .unwrap_err()
            .contains("space-sharing"));
        assert!(parse(&argv("replay t.swf --policy pdpa --epoch 5"))
            .unwrap_err()
            .contains("--shards"));
        assert!(
            parse(&argv("replay t.swf --policy pdpa --shards 2 --epoch -1"))
                .unwrap_err()
                .contains("positive")
        );
        assert!(parse(&argv("replay t.swf --policy pdpa --diff-shards 4"))
            .unwrap_err()
            .contains("--shards"));
        assert!(parse(&argv(
            "replay t.swf --policy pdpa --shards 1 --diff-shards 0"
        ))
        .unwrap_err()
        .contains("at least 1"));
    }

    #[test]
    fn replay_observability_flags() {
        let cmd = parse(&argv(
            "replay t.swf --policy pdpa --shards 2 --profile-out p.json \
             --obs-out s.bin --obs-format binary --heartbeat 2.5",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.profile_out.as_deref(), Some("p.json"));
        assert_eq!(o.obs_out.as_deref(), Some("s.bin"));
        assert_eq!(o.obs_format, ObsFormat::Binary);
        assert_eq!(o.heartbeat, Some(2.5));
        assert!(o.watchdog, "watchdog must default on for replay");
        // The default encoding is text, and `bin` is accepted as an alias.
        assert_eq!(ReplayOptions::default().obs_format, ObsFormat::Text);
        assert_eq!(ObsFormat::parse("bin"), Some(ObsFormat::Binary));
        assert_eq!(ObsFormat::parse("csv"), None);
    }

    #[test]
    fn replay_watchdog_and_heartbeat_diagnostics() {
        let cmd = parse(&argv("replay t.swf --policy pdpa --no-watchdog")).unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert!(!o.watchdog);
        assert!(parse(&argv("replay t.swf --policy pdpa --heartbeat -3"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("replay t.swf --policy pdpa --obs-format xml"))
            .unwrap_err()
            .contains("--obs-format"));
        // --obs-format binary is meaningless without a destination file.
        assert!(
            parse(&argv("replay t.swf --policy pdpa --obs-format binary"))
                .unwrap_err()
                .contains("--obs-out")
        );
    }

    #[test]
    fn replay_serve_and_obs_filter_flags() {
        let cmd = parse(&argv(
            "replay t.swf --policy pdpa --serve 127.0.0.1:0 --obs-filter decision,state",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.obs_filter.as_deref(), Some("decision,state"));
        // Bad kind names fail at parse time, before any replay starts.
        assert!(
            parse(&argv("replay t.swf --policy pdpa --obs-filter bogus"))
                .unwrap_err()
                .contains("bogus")
        );
        // A diff replay runs the engine twice; there is no single live run
        // to serve.
        assert!(parse(&argv(
            "replay t.swf --policy pdpa --shards 2 --diff-shards 4 --serve 127.0.0.1:0"
        ))
        .unwrap_err()
        .contains("--diff-shards"));
    }

    #[test]
    fn watch_full_invocation_and_defaults() {
        let cmd = parse(&argv(
            "watch 127.0.0.1:7777 --follow --json --tail 5 --interval 0.5",
        ))
        .unwrap();
        let Command::Watch(o) = cmd else {
            panic!("expected Watch")
        };
        assert_eq!(o.addr, "127.0.0.1:7777");
        assert!(o.follow && o.json);
        assert_eq!(o.tail, Some(5));
        assert_eq!(o.interval, 0.5);
        let Command::Watch(o) = parse(&argv("watch localhost:9")).unwrap() else {
            panic!("expected Watch")
        };
        assert!(!o.follow && !o.json && o.tail.is_none());
        assert_eq!(o.interval, 1.0);
    }

    #[test]
    fn watch_diagnostics() {
        assert!(parse(&argv("watch")).unwrap_err().contains("address"));
        assert!(parse(&argv("watch a:1 b:2"))
            .unwrap_err()
            .contains("one address"));
        assert!(parse(&argv("watch a:1 --tail 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("watch a:1 --interval -2"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("watch a:1 --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn from_stream_relaxes_workload_and_policy() {
        let cmd = parse(&argv("analyze --from-stream run.obs")).unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("expected Analyze")
        };
        assert_eq!(o.from_stream.as_deref(), Some("run.obs"));
        assert!(o.policy.is_none());
        let cmd = parse(&argv("diff --from-stream a.obs --from-stream-b b.obs")).unwrap();
        assert!(matches!(cmd, Command::Diff(_)));
        // A stream diff needs both sides, and the flags stay scoped to
        // analyze/diff.
        assert!(parse(&argv("diff --from-stream a.obs"))
            .unwrap_err()
            .contains("--from-stream-b"));
        assert!(
            parse(&argv("run --workload w1 --policy pdpa --from-stream a.obs"))
                .unwrap_err()
                .contains("--from-stream")
        );
        assert!(parse(&argv("analyze --from-stream-b b.obs"))
            .unwrap_err()
            .contains("--from-stream-b"));
    }

    #[test]
    fn literature_policies_parse_with_aliases() {
        // The new policies are space-shared, so sharded replay takes them.
        let cmd = parse(&argv("replay t.swf --policy he-srpt --shards 2")).unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.policy, p("hesrpt"));
        assert_eq!(o.shards, Some(2));
    }

    #[test]
    fn tournament_defaults_and_full_invocation() {
        let cmd = parse(&argv("tournament")).unwrap();
        assert_eq!(cmd, Command::Tournament(TournamentOptions::default()));
        let cmd = parse(&argv(
            "tournament big.swf --cpus 50 --seed 7 --load 0.9 --json --out r.json",
        ))
        .unwrap();
        let Command::Tournament(o) = cmd else {
            panic!("expected Tournament")
        };
        assert_eq!(o.trace_path.as_deref(), Some("big.swf"));
        assert_eq!(o.cpus, 50);
        assert_eq!(o.seed, 7);
        assert_eq!(o.load, Some(0.9));
        assert!(o.json);
        assert_eq!(o.out.as_deref(), Some("r.json"));
        let cmd = parse(&argv("tournament --duration 600")).unwrap();
        let Command::Tournament(o) = cmd else {
            panic!("expected Tournament")
        };
        assert_eq!(o.duration, Some(600.0));
    }

    #[test]
    fn tournament_diagnostics() {
        assert!(parse(&argv("tournament a.swf b.swf"))
            .unwrap_err()
            .contains("one trace path"));
        assert!(parse(&argv("tournament a.swf --duration 600"))
            .unwrap_err()
            .contains("--duration"));
        assert!(parse(&argv("tournament --duration -5"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("tournament --load 3"))
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&argv("tournament --cpus 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("tournament --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn daemon_defaults_and_full_invocation() {
        let cmd = parse(&argv("daemon")).unwrap();
        assert_eq!(cmd, Command::Daemon(DaemonOptions::default()));
        let cmd = parse(&argv(
            "daemon --addr 127.0.0.1:7777 --policy rigid --cpus 8 --seed 9 \
             --backfill --max-queue 4 --time-scale 60 --max-sim-secs 5000 \
             --stream run.stream --snapshot run.snapshot --restore old.snapshot",
        ))
        .unwrap();
        let Command::Daemon(o) = cmd else {
            panic!("expected Daemon")
        };
        assert_eq!(o.addr, "127.0.0.1:7777");
        assert_eq!(o.policy, p("rigid"));
        assert_eq!(o.cpus, 8);
        assert_eq!(o.seed, 9);
        assert!(o.backfill);
        assert_eq!(o.max_queue, 4);
        assert_eq!(o.time_scale, 60.0);
        assert_eq!(o.max_sim_secs, Some(5000.0));
        assert_eq!(o.stream.as_deref(), Some("run.stream"));
        assert_eq!(o.snapshot.as_deref(), Some("run.snapshot"));
        assert_eq!(o.restore.as_deref(), Some("old.snapshot"));
    }

    #[test]
    fn daemon_diagnostics() {
        assert!(parse(&argv("daemon --cpus 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("daemon --max-queue 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("daemon --time-scale -1"))
            .unwrap_err()
            .contains(">= 0"));
        assert!(parse(&argv("daemon --policy bogus"))
            .unwrap_err()
            .contains("bogus"));
        assert!(parse(&argv("daemon --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn submit_parses_and_validates() {
        let cmd = parse(&argv(
            "submit 127.0.0.1:7777 --class bt.A --request 8 --work-secs 4000 --count 3 --json",
        ))
        .unwrap();
        let Command::Submit(o) = cmd else {
            panic!("expected Submit")
        };
        assert_eq!(o.addr, "127.0.0.1:7777");
        assert_eq!(o.class, "bt.A");
        assert_eq!(o.request, Some(8));
        assert_eq!(o.work_secs, Some(4000.0));
        assert_eq!(o.count, 3);
        assert!(o.json);
        // Defaults: one swim job.
        let Command::Submit(o) = parse(&argv("submit 127.0.0.1:7777")).unwrap() else {
            panic!("expected Submit")
        };
        assert_eq!(o.class, "swim");
        assert_eq!(o.count, 1);
        assert_eq!(o.request, None);
        assert!(parse(&argv("submit")).unwrap_err().contains("address"));
        assert!(parse(&argv("submit 127.0.0.1:7777 --request 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("submit 127.0.0.1:7777 --work-secs -5"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("submit 127.0.0.1:7777 --count 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("submit a:1 b:2"))
            .unwrap_err()
            .contains("one address"));
    }

    #[test]
    fn ctl_grammar() {
        let ctl = |s: &str| match parse(&argv(s)).unwrap() {
            Command::Ctl(o) => o,
            other => panic!("expected Ctl, got {other:?}"),
        };
        assert_eq!(ctl("ctl a:1 hello").action, CtlAction::Hello);
        assert_eq!(ctl("ctl a:1 drain").action, CtlAction::Drain);
        assert_eq!(ctl("ctl a:1 snapshot").action, CtlAction::Snapshot(None));
        assert_eq!(
            ctl("ctl a:1 snapshot mid.snapshot").action,
            CtlAction::Snapshot(Some("mid.snapshot".to_string()))
        );
        assert_eq!(ctl("ctl a:1 shutdown").action, CtlAction::Shutdown(None));
        assert_eq!(
            ctl("ctl a:1 shutdown --snapshot final.snapshot").action,
            CtlAction::Shutdown(Some("final.snapshot".to_string()))
        );
        assert_eq!(ctl("ctl a:1 cancel 3").action, CtlAction::Cancel(3));
        assert_eq!(ctl("ctl a:1 jobs").action, CtlAction::Jobs(20));
        assert_eq!(ctl("ctl a:1 jobs 5").action, CtlAction::Jobs(5));
        assert_eq!(ctl("ctl a:1 job 7").action, CtlAction::Job(7));
        let o = ctl("ctl a:1 hello --json");
        assert!(o.json);
        assert_eq!(o.addr, "a:1");
    }

    #[test]
    fn ctl_diagnostics() {
        assert!(parse(&argv("ctl")).unwrap_err().contains("address"));
        assert!(parse(&argv("ctl a:1")).unwrap_err().contains("action"));
        assert!(parse(&argv("ctl a:1 explode"))
            .unwrap_err()
            .contains("explode"));
        assert!(parse(&argv("ctl a:1 cancel"))
            .unwrap_err()
            .contains("job id"));
        assert!(parse(&argv("ctl a:1 cancel x"))
            .unwrap_err()
            .contains("job id"));
        assert!(parse(&argv("ctl a:1 drain --snapshot p"))
            .unwrap_err()
            .contains("--snapshot"));
        assert!(parse(&argv("ctl a:1 hello extra"))
            .unwrap_err()
            .contains("extra"));
    }

    #[test]
    fn diagnostics_are_specific() {
        assert!(parse(&argv("run --workload w9 --policy pdpa"))
            .unwrap_err()
            .contains("w9"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --load x"))
            .unwrap_err()
            .contains("--load"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --load 5"))
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn the_trace_flag_is_gone_and_the_renderers_collect_the_trace() {
        assert!(parse(&argv("run --workload w1 --policy pdpa --trace"))
            .unwrap_err()
            .contains("unknown option \"--trace\""));
        let trace = |s: &str| match parse(&argv(s)).unwrap() {
            Command::Run(o) => o.trace(),
            other => panic!("expected Run, got {other:?}"),
        };
        assert!(!trace("run --workload w1 --policy pdpa --obs"));
        assert!(trace("run --workload w1 --policy pdpa --ascii"));
        assert!(trace("run --workload w1 --policy pdpa --prv-out x.prv"));
    }

    #[test]
    fn compare_rejects_the_flags_it_ignores() {
        for flag in ["--trace-out x.json", "--ascii", "--policy gang", "--obs"] {
            let err = parse(&argv(&format!("compare --workload w1 {flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.starts_with(&format!("{name} is only meaningful for `pdpa run`")),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn diff_rejects_export_and_render_flags() {
        for flag in [
            "--mpl-csv a.csv",
            "--analyze-out a.json",
            "--prv-out x",
            "--obs",
        ] {
            let err =
                parse(&argv(&format!("diff --workload w1 --policy pdpa {flag}"))).unwrap_err();
            assert!(
                err.contains("is only meaningful for `pdpa run`"),
                "{flag}: {err}"
            );
        }
    }

    /// A minimal invocation of `cmd` that parses.
    fn base(cmd: &str) -> String {
        match cmd {
            "run" | "analyze" | "diff" => format!("{cmd} --workload w1 --policy pdpa"),
            "compare" => "compare --workload w1".into(),
            "replay" => "replay t.swf --policy pdpa".into(),
            "watch" | "submit" => format!("{cmd} a:1"),
            "ctl" => "ctl a:1 shutdown".into(),
            other => other.into(),
        }
    }

    #[test]
    fn usage_synopsis_lists_exactly_the_flags_each_parser_accepts() {
        use std::collections::{BTreeMap, BTreeSet};
        let usage = crate::USAGE;
        let from = |heading: &str| &usage[usage.find(heading).unwrap()..];
        // Command -> its synopsis flags; flag -> whether it takes a value.
        let mut synopsis: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut arity: BTreeMap<&str, bool> = BTreeMap::new();
        let mut cmd = "";
        let commands = from("COMMANDS:").len();
        let block = from("USAGE:");
        for line in block[..block.len() - commands].lines().skip(1) {
            if let Some(rest) = line.strip_prefix("  pdpa ") {
                cmd = rest.split_whitespace().next().unwrap();
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let flags = synopsis.entry(cmd).or_default();
            for (i, word) in words.iter().enumerate() {
                let flag = word.trim_matches(|c| c == '[' || c == ']');
                if flag.starts_with("--") {
                    let takes = words.get(i + 1).is_some_and(|w| w.starts_with('<'));
                    assert_eq!(*arity.entry(flag).or_insert(takes), takes, "{flag} arity");
                    flags.insert(flag);
                }
            }
        }
        // OPTIONS documents exactly the synopsis flags.
        let documented: BTreeSet<&str> = from("OPTIONS:")
            .lines()
            .filter(|l| l.starts_with("  --"))
            .flat_map(|l| {
                l.split_whitespace()
                    .take_while(|w| w.starts_with("--") || *w == "/")
            })
            .filter(|w| *w != "/")
            .collect();
        assert_eq!(documented, arity.keys().copied().collect());
        // Probe every parser with every flag.
        for (cmd, listed) in &synopsis {
            let accepted: BTreeSet<&str> = arity
                .iter()
                .filter(|&(flag, &takes)| {
                    let mut args = argv(&base(cmd));
                    args.push(flag.to_string());
                    if takes {
                        args.push("1".into());
                    }
                    match parse(&args) {
                        Ok(_) => true,
                        Err(e) => {
                            !e.contains("unknown option")
                                && !e.contains("only meaningful for `pdpa")
                        }
                    }
                })
                .map(|(flag, _)| *flag)
                .collect();
            assert_eq!(&accepted, listed, "`pdpa {cmd}` synopsis vs parser");
        }
        // The policy list is the roster's.
        let slugs: Vec<&str> = pdpa_core::ROSTER.iter().map(|e| e.slug).collect();
        assert!(usage.contains(&format!("--policy <{}>", slugs.join("|"))));
    }
}
