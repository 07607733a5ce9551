#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the shipped binaries (`pdpa`,
`swfgen`, `expt-all`) and the benchmark's own package (`perfbench/harness`)
into `$CARGO_TARGET_DIR` (default `.bench_build`), makes the workload's
inputs from the seed in a scratch directory under `.perfbench_work/`, and
runs the workload:

- `replay-w4`      `pdpa replay <trace> --policy pdpa` on a seeded w4 trace;
- `paper`          `expt-all`, every registry experiment;
- `daemon-submit`  `pdpa daemon` under an open-loop submit stream.

`--trace 0` times the binaries from outside and prints the end-to-end
metrics; `--trace 1` runs `pb-trace`, which calls each layer's public
functions and times them, plus one untraced pass of each workload to
compare against. Human-readable lines come first; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit status is 0 only when every correctness check passed. See
`perfbench/README.md` for the metrics and what each one should move.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness"
WORKLOADS = ("replay-w4", "paper", "daemon-submit")

# Inputs and fixed settings.
TRACE_LOAD = "1.0"
TRACE_DURATION_S = "150000"
NOMINAL_RATE = 1000.0
LATENCY_LIMIT_MS = 10.0
# A generator whose p99 lateness exceeds this share of the latency limit
# makes its reading invalid: the stall would be read as daemon latency.
GENERATOR_LATE_FRACTION = 0.5
LADDER = (1000.0, 1400.0, 2000.0, 2800.0, 4000.0, 5600.0, 8000.0, 11000.0, 16000.0, 22000.0)
LADDER_MIN_SUBMITS = 1000
DAEMON_CPUS = "60"
DAEMON_MAX_QUEUE = "4096"
WINDOW_S = 2.0
CHILD_TIMEOUT_S = 150.0

# Every `expt-all` section, in registry order, with a fragment of its
# heading line.
PAPER_SECTIONS = (
    ("fig3", "# Fig. 3"), ("table1", "# Table 1"), ("fig4", "## Fig. 4"),
    ("fig5", "# Fig. 5"), ("table2", "# Table 2"), ("fig6", "## Fig. 6"),
    ("fig7", "# Fig. 7"), ("fig8", "# Fig. 8"), ("fig9", "## Fig. 9"),
    ("table3", "# Table 3"), ("fig10", "## Fig. 10"), ("table4", "# Table 4"),
    ("ablation", "# PDPA ablations"), ("hybrid", "# Hybrid"),
    ("cluster", "# Cluster"), ("fragmentation", "# Rigid first-fit"),
    ("sensitivity", "# Sensitivity"), ("sharing", "# Sharing"),
    ("chaos", "# Chaos"), ("scale", "# Scale"), ("tournament", "# Tournament"),
)


class BenchError(Exception):
    """Aborts the run without a result line."""


# ---------------------------------------------------------------- helpers


def quantile(values, q):
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def log(line=""):
    print(line, flush=True)


class Checks:
    """Counts operations and failed correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, problem=None, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(problem or "unnamed check")
        return ok

    def require(self, ok, problem):
        """A check that is not an operation of its own."""
        if not ok:
            self.problems.append(problem)
        return ok


class Paths:
    def __init__(self, target, work):
        release = target / "release"
        self.pdpa = release / "pdpa"
        self.swfgen = release / "swfgen"
        self.expt_all = release / "expt-all"
        self.pb_load = release / "pb-load"
        self.pb_trace = release / "pb-trace"
        self.pb_spawn = release / "pb-spawn"
        self.work = work


def target_dir():
    raw = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return raw if raw.is_absolute() else ROOT / raw


def build(target):
    """Builds the shipped binaries and the harness (a no-op when fresh)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the workspace")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = (
        ["cargo", "build", "--release", "--offline", "-p", "pdpa-cli", "-p", "pdpa-qs",
         "-p", "pdpa-bench", "--bin", "pdpa", "--bin", "swfgen", "--bin", "expt-all"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HARNESS / "Cargo.toml")],
    )
    for argv in steps:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=880)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(argv))


def tree_digest():
    """Digest of every file of the checkout outside build and scratch output."""
    skip = {".git", ".bench_build", ".perfbench_work", "target"}
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            path = Path(dirpath) / name
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(argv, cwd, stdout_path, timeout=CHILD_TIMEOUT_S):
    """Runs a child to completion: (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(timeout, child.kill)
        killer.start()
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - start
        killer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, child.returncode, usage.ru_maxrss / 1024.0


def spawn_until(argv, cwd, marker, timeout=30.0):
    """Starts a child and waits for a stderr line starting with `marker`.
    Returns the child and that line."""
    child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, child.kill)
    killer.start()
    try:
        for line in child.stderr:
            if line.startswith(marker):
                return child, line.strip()
        raise BenchError(f"{argv[0]} exited before printing {marker!r}")
    finally:
        killer.cancel()


def metric(value, unit):
    return {"value": value, "unit": unit}


def startup(paths, checks, samples, argv, marker=None, hello=False):
    """Median start-up time of `argv` over `samples` starts, taken by
    `pb-spawn` (see its docs for what each mode times)."""
    probe = [str(paths.pb_spawn), "--samples", str(samples)]
    if marker:
        probe += ["--marker", marker] + (["--hello"] if hello else [])
    done = subprocess.run(probe + ["--"] + argv, cwd=paths.work, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    times = [float(line) for line in done.stdout.split()]
    ok = done.returncode == 0 and len(times) == samples
    checks.op(ok, f"start-up probe of {Path(argv[0]).name} failed: {done.stderr.strip()}",
              count=samples)
    if not ok:
        raise BenchError(f"start-up probe of {Path(argv[0]).name} failed")
    return median(times)


# ---------------------------------------------------------------- replay-w4


def make_trace(paths, seed):
    trace = paths.work / "trace.swf"
    start = time.perf_counter()
    with open(trace, "wb") as out:
        done = subprocess.run([str(paths.swfgen), "gen", "w4", TRACE_LOAD, str(seed),
                               "--duration", TRACE_DURATION_S], stdout=out, timeout=120)
    if done.returncode != 0:
        raise BenchError("swfgen failed")
    jobs = sum(1 for line in open(trace) if line.strip() and not line.startswith(";"))
    log(f"  input: w4 trace, load {TRACE_LOAD}, --duration {TRACE_DURATION_S}: "
        f"{jobs} jobs, generated in {time.perf_counter() - start:.3f} s")
    return trace, jobs


def parse_replay(text):
    """The figures of one `pdpa replay` report, or None if any is missing."""
    out = {}
    for line in text.splitlines():
        if line.startswith("replay of "):
            out["jobs"] = int(line.split("(", 1)[1].split(" jobs", 1)[0])
        elif line.startswith("makespan "):
            parts = line.split("|")
            out["makespan_s"] = float(parts[0].split()[1])
            out["events"] = int(parts[-1].split()[0])
        elif line.startswith("slowdown avg "):
            fields = dict(p.strip().split()[-2:] for p in line.split("|"))
            out["slowdown_p50"] = float(fields["p50"])
            out["slowdown_p99"] = float(fields["p99"])
        elif out.get("in_table"):
            cols = line.split()
            if len(cols) == 6 and cols[1].isdigit():
                out["class_jobs"] = out.get("class_jobs", 0) + int(cols[1])
            elif not line.strip():
                out["in_table"] = False
        elif line.startswith("class ") and "jobs" in line:
            out["in_table"] = True
    out.pop("in_table", None)
    needed = ("jobs", "makespan_s", "events", "slowdown_p50", "slowdown_p99", "class_jobs")
    return out if all(k in out for k in needed) else None


def replay_once(paths, trace, jobs, checks, tag):
    stdout = paths.work / f"replay-{tag}.out"
    secs, code, rss = run_child([str(paths.pdpa), "replay", str(trace), "--policy", "pdpa"],
                                paths.work, stdout)
    text = stdout.read_text()
    parsed = parse_replay(text) if code == 0 else None
    ok = checks.op(parsed is not None and parsed["jobs"] == jobs
                   and parsed["class_jobs"] == jobs,
                   f"replay {tag}: exit {code}, unfinished jobs, a watchdog abort "
                   "or unparseable result lines")
    return secs, rss, (parsed if ok else None), text


def replay_setup(paths, trace, checks):
    """Spawn to the end of trace parse and shape: `--serve` binds its
    status port right after shaping and says so on stderr."""
    return startup(paths, checks, 7, [str(paths.pdpa), "replay", str(trace), "--policy",
                                      "pdpa", "--serve", "127.0.0.1:0"],
                   marker="serve: listening on")


def workload_replay(paths, seed, seconds, checks):
    trace, jobs = make_trace(paths, seed)
    setup = replay_setup(paths, trace, checks)
    walls, rsses, texts, first = [], [], set(), None
    deadline = time.perf_counter() + seconds
    while len(walls) < 3 or time.perf_counter() < deadline:
        secs, rss, parsed, text = replay_once(paths, trace, jobs, checks, len(walls))
        walls.append(secs)
        rsses.append(rss)
        texts.add(text)
        first = first or parsed
    checks.require(len(texts) == 1, "replay output differs between runs of one trace")
    if first is None:
        raise BenchError("no replay produced a result")
    events_per_s = [first["events"] / w for w in walls]
    log(f"  replays: {len(walls)}; wall {', '.join(f'{w:.3f}' for w in walls)} s")
    report = {
        "wall_s": (median(walls), "s"),
        "wall_tail_s": (quantile(walls, 0.75), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(rsses), "MB"),
        "events_per_s": (median(events_per_s), "1/s"),
    }
    extra = {
        "makespan_s": (first["makespan_s"], "s"),
        "slowdown_p50": (first["slowdown_p50"], "x"),
        "slowdown_p99": (first["slowdown_p99"], "x"),
        "events": (first["events"], "count"),
        "jobs": (jobs, "count"),
    }
    return report, extra


# ---------------------------------------------------------------- paper


def check_paper_output(text):
    sections = [s.strip() for s in text.split("=" * 78 + "\n") if s.strip()]
    if len(sections) != len(PAPER_SECTIONS):
        return False
    return all(s.startswith(head) for s, (_, head) in zip(sections, PAPER_SECTIONS))


def paper_once(paths, checks, tag):
    stdout = paths.work / f"paper-{tag}.out"
    metrics_path = paths.work / f"paper-{tag}.metrics.json"
    secs, code, rss = run_child([str(paths.expt_all), "--metrics-out", str(metrics_path)],
                                paths.work, stdout)
    text = stdout.read_text()
    events = None
    if code == 0 and metrics_path.is_file():
        events = json.loads(metrics_path.read_text())["engine"]["events_popped"]
    ok = checks.op(code == 0 and events and check_paper_output(text),
                   f"expt-all {tag}: exit {code} or a registry section missing")
    return secs, rss, events if ok else None, text


def paper_setup(paths, checks):
    """Spawn to exit of the cheapest registry entry: process start, flag
    parsing, registry and worker start-up with almost no experiment work."""
    return startup(paths, checks, 31, [str(paths.expt_all), "--only", "table1"])


def workload_paper(paths, seed, seconds, checks):
    del seed  # the registry's experiments are fixed; nothing to derive
    setup = paper_setup(paths, checks)
    walls, rsses, rates, texts = [], [], [], set()
    deadline = time.perf_counter() + seconds
    while len(walls) < 5 or time.perf_counter() < deadline:
        secs, rss, events, text = paper_once(paths, checks, len(walls))
        walls.append(secs)
        rsses.append(rss)
        texts.add(text)
        if events:
            rates.append(events / secs)
    checks.require(len(texts) == 1, "expt-all stdout differs between runs")
    if not rates:
        raise BenchError("no expt-all run produced a result")
    log(f"  expt-all runs: {len(walls)}; wall {', '.join(f'{w:.3f}' for w in walls)} s")
    report = {
        "wall_s": (median(walls), "s"),
        "wall_tail_s": (quantile(walls, 0.75), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(rsses), "MB"),
        "events_per_s": (median(rates), "1/s"),
    }
    return report, {"threads": (os.cpu_count() or 1, "count")}


# ---------------------------------------------------------------- daemon-submit


def daemon_argv(paths, seed, rate):
    scale = time_scale(paths, rate)
    return [str(paths.pdpa), "daemon", "--addr", "127.0.0.1:0", "--cpus", DAEMON_CPUS,
            "--seed", str(seed), "--time-scale", repr(scale), "--max-queue",
            DAEMON_MAX_QUEUE, "--max-sim-secs", "1e12"]


def time_scale(paths, rate):
    """Simulated seconds per wall second for demand 0.8 at `rate` submits/s."""
    out = subprocess.run([str(paths.pb_load), "--time-scale", repr(rate)],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(out.stdout)


def request(addr, line):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(line.encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply.decode()


def shutdown(child, addr):
    try:
        request(addr, '{"id":1,"type":"shutdown"}')
    except OSError:
        pass
    killer = threading.Timer(30, child.kill)
    killer.start()
    _, status, usage = os.wait4(child.pid, 0)
    killer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stderr.close()
    return child.returncode, usage.ru_maxrss / 1024.0


def daemon_setup(paths, seed, checks):
    """Spawn to the first `hello` ack."""
    return startup(paths, checks, 15, daemon_argv(paths, seed, NOMINAL_RATE),
                   marker="pdpad: listening on", hello=True)


def read_load(path):
    rows, tail = [], {}
    for line in open(path):
        parts = line.split()
        if parts[0] == "r":
            rows.append((parts[2], int(parts[3]), int(parts[4]), int(parts[5]), parts[6]))
        else:
            tail[parts[0]] = parts[1:]
    return rows, tail


def load_session(paths, seed, rate, secs, tag, drain):
    """One daemon under one op stream. Returns the parsed load file,
    the daemon's exit code and peak RSS, and the session wall time."""
    child, line = spawn_until(daemon_argv(paths, seed, rate), paths.work,
                              "pdpad: listening on")
    addr = line.split()[-1]
    out = paths.work / f"load-{tag}.txt"
    argv = [str(paths.pb_load), "--addr", addr, "--seed", str(seed), "--rate", repr(rate),
            "--secs", repr(secs), "--out", str(out)] + (["--drain"] if drain else [])
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=paths.work, timeout=secs + 90)
    wall = time.perf_counter() - start
    code, rss = shutdown(child, addr)
    if done.returncode != 0 or not out.is_file():
        raise BenchError(f"pb-load failed at {rate}/s")
    rows, tail = read_load(out)
    return rows, tail, code, rss, wall


def summarize_load(rows, tail, secs):
    """Latency and validity figures of one session, in ms."""
    submit = [(due, recv - due) for kind, due, _, recv, resp in rows
              if kind == "s" and recv >= 0]
    query = [recv - due for kind, due, _, recv, resp in rows if kind == "q" and recv >= 0]
    late = [sent - due for _, due, sent, _, _ in rows if sent >= 0]
    bad = sum(1 for kind, _, _, recv, resp in rows
              if recv < 0 or resp != ("ack" if kind == "s" else "status"))
    rejects = {}
    for _, _, _, _, resp in rows:
        if resp.startswith("reject:"):
            rejects[resp[7:]] = rejects.get(resp[7:], 0) + 1
    bad += int(tail["duplicates"][0]) + int(tail["unknown"][0])
    lat = [v / 1000 for _, v in submit]
    windows = []
    w = 0.0
    while w < secs:
        win = [v / 1000 for due, v in submit if w * 1e6 <= due < (w + WINDOW_S) * 1e6]
        if len(win) >= 100:
            windows.append(quantile(win, 0.99))
        w += WINDOW_S
    half = secs * 5e5
    first = [v / 1000 for due, v in submit if due < half]
    second = [v / 1000 for due, v in submit if due >= half]
    return {
        "requests": len(rows),
        "acked": len(submit),
        "bad": bad,
        "rejects": rejects,
        "p50_ms": quantile(lat, 0.5) if lat else float("inf"),
        "p99_ms": quantile(lat, 0.99) if lat else float("inf"),
        "window_p99_ms": median(windows) if windows else float("inf"),
        "query_p99_ms": quantile([v / 1000 for v in query], 0.99) if query else float("inf"),
        "late_p99_ms": quantile([v / 1000 for v in late], 0.99) if late else float("inf"),
        "growing": bool(first and second
                        and median(second) > 2 * median(first) + 1.0),
    }


def generator_valid(summary):
    return summary["late_p99_ms"] <= GENERATOR_LATE_FRACTION * LATENCY_LIMIT_MS


def nominal_session(paths, seed, secs, checks, attempts=3):
    """The nominal-rate session; a run whose generator ran late is
    invalid and is repeated, up to `attempts` times."""
    for attempt in range(attempts):
        rows, tail, code, rss, wall = load_session(paths, seed, NOMINAL_RATE, secs,
                                                   f"nominal-{attempt}", drain=True)
        summary = summarize_load(rows, tail, secs)
        log(f"  nominal session {attempt}: {summary['requests']} requests, generator "
            f"p99 late {summary['late_p99_ms']:.2f} ms"
            + ("" if generator_valid(summary) else " -> invalid, repeated"))
        if generator_valid(summary):
            break
    checks.require(generator_valid(summary),
                   f"generator ran late in every nominal session "
                   f"(p99 {summary['late_p99_ms']:.2f} ms)")
    checks.op(summary["bad"] == 0,
              f"{summary['bad']} requests rejected, unanswered or mismatched",
              count=summary["requests"])
    checks.require(code == 0, f"daemon exited {code}")
    checks.require(tail.get("drain", ["?"])[0] == "ack", "drain was not acknowledged")
    return summary, tail, rss, wall


def ladder(paths, seed, budget_s):
    """Highest rung whose session meets the latency limit with no failures
    and no growing backlog; its achieved submit rate, or 0."""
    best, deadline = 0.0, time.perf_counter() + budget_s
    for rate in LADDER:
        secs = max(1.0, LADDER_MIN_SUBMITS / rate)
        if time.perf_counter() + secs > deadline:
            log(f"  ladder: out of time before {rate:.0f}/s")
            break
        rows, tail, code, _, _ = load_session(paths, seed, rate, secs, f"ladder-{rate:.0f}",
                                              drain=False)
        s = summarize_load(rows, tail, secs)
        valid = generator_valid(s)
        ok = valid and code == 0 and s["bad"] == 0 and not s["growing"] \
            and s["p99_ms"] <= LATENCY_LIMIT_MS
        log(f"  ladder {rate:6.0f}/s: p99 {s['p99_ms']:8.2f} ms, bad {s['bad']}, "
            f"growing {s['growing']}, generator late {s['late_p99_ms']:.2f} ms -> "
            + ("pass" if ok else "generator-limited" if not valid else "fail"))
        if not ok:
            break
        best = s["acked"] / secs
    return best


def workload_daemon(paths, seed, seconds, checks):
    setup = daemon_setup(paths, seed, checks)
    nominal_s = max(2 * WINDOW_S, round(seconds / 2))
    summary, tail, rss, wall = nominal_session(paths, seed, nominal_s, checks)
    events = int(tail.get("progress", ["-1"])[0])
    checks.require(events > 0, "progress query returned no event count")
    max_rate = ladder(paths, seed, max(0.0, seconds - nominal_s))
    report = {
        "wall_s": (summary["p50_ms"] / 1000, "s"),
        "wall_tail_s": (summary["window_p99_ms"] / 1000, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "events_per_s": (events / wall, "1/s"),
    }
    extra = {
        "submit_p50_ms": (summary["p50_ms"], "ms"),
        "submit_p99_ms": (summary["p99_ms"], "ms"),
        "query_p99_ms": (summary["query_p99_ms"], "ms"),
        "max_submit_rate": (max_rate, "1/s"),
        "generator_late_ms": (summary["late_p99_ms"], "ms"),
        "queue_full": (summary["rejects"].get("queue_full", 0), "count"),
        "busy": (summary["rejects"].get("busy", 0), "count"),
        "drain_ms": (int(tail.get("drain", ["", "0"])[1]) / 1000, "ms"),
    }
    return report, extra


# ---------------------------------------------------------------- traced run


def traced(paths, seed, seconds, checks):
    """Per-layer metrics from `pb-trace`, with one untraced pass of each
    workload to compare against."""
    trace, jobs = make_trace(paths, seed)
    replay_secs, _, replay, _ = replay_once(paths, trace, jobs, checks, "untraced")
    paper_secs, _, _, _ = paper_once(paths, checks, "untraced")
    daemon_s = max(2 * WINDOW_S, min(6.0, seconds / 3))
    summary, _, _, _ = nominal_session(paths, seed, daemon_s, checks)

    out = paths.work / "trace.json"
    stdout = paths.work / "pb-trace.out"
    secs, code, _ = run_child([str(paths.pb_trace), "--trace", str(trace), "--seed", str(seed),
                               "--rate", repr(NOMINAL_RATE), "--secs", repr(daemon_s),
                               "--out", str(out)], paths.work, stdout)
    if not checks.op(code == 0 and out.is_file(), f"pb-trace exited {code}"):
        sys.stderr.write(Path(str(stdout) + ".err").read_text()[-4000:])
        raise BenchError("pb-trace failed")
    t = json.loads(out.read_text())
    log(f"  pb-trace finished in {secs:.2f} s")

    m = {}
    m["qs.read_swf_ms"] = (t["qs"]["read_swf_ms"], "ms")
    m["qs.shape_ms"] = (t["qs"]["shape_ms"], "ms")
    e = t["engine"]
    run_ms = e["run_ms"]
    policy_ms = sum(t["policy"][k] for k in ("report_ms", "arrival_ms", "completion_ms",
                                              "other_ms"))
    m["engine.run_ms"] = (run_ms, "ms")
    m["engine.self_ms"] = (run_ms - policy_ms - t["obs"]["publish_ms"], "ms")
    m["engine.ns_per_event"] = (run_ms * 1e6 / e["events_popped"], "ns")
    m["engine.events_popped"] = (e["events_popped"], "count")
    m["engine.stale_frac"] = (e["stale_dropped"] / e["events_popped"], "ratio")
    m["engine.decisions"] = (e["decisions"], "count")
    m["engine.memo_hit_rate"] = (e["memo_hits"] / max(1, e["memo_hits"] + e["memo_misses"]),
                                 "ratio")
    for k in ("report_calls", "report_ms", "arrival_ms", "completion_ms"):
        m["policy." + k] = (t["policy"][k], "count" if k.endswith("calls") else "ms")
    m["obs.publish_calls"] = (t["obs"]["publish_calls"], "count")
    m["obs.publish_ms"] = (t["obs"]["publish_ms"], "ms")
    m["analyze.from_events_ms"] = (t["analyze"]["from_events_ms"], "ms")
    m["sim.makespan_s"] = (t["sim"]["makespan_s"], "s")
    m["sim.slowdown_p50"] = (t["sim"]["slowdown_p50"], "x")
    m["sim.slowdown_p99"] = (t["sim"]["slowdown_p99"], "x")
    sh = t["shard"]
    m["shard.s1_wall_ratio"] = (sh["s1_ms"] / run_ms, "ratio")
    m["shard.sN_wall_ratio"] = (sh["sN_ms"] / run_ms, "ratio")
    m["shard.sN_shards"] = (sh["shards"], "count")
    m["shard.makespan_delta_pct"] = (
        100 * (sh["sN_makespan_s"] - t["sim"]["makespan_s"]) / t["sim"]["makespan_s"], "%")
    m["shard.slowdown_p50_delta_pct"] = (
        100 * (sh["sN_slowdown_p50"] - t["sim"]["slowdown_p50"]) / t["sim"]["slowdown_p50"],
        "%")
    expt_total = 0.0
    for name, ms in t["expt"]["ms"].items():
        m[f"expt.{name}_ms"] = (ms, "ms")
        expt_total += ms
    m["expt.engine_runs"] = (t["expt"]["engine_runs"], "count")
    m["expt.events_popped"] = (t["expt"]["events_popped"], "count")
    threads = t["expt"]["threads"]
    m["parallel.efficiency"] = (expt_total / (paper_secs * 1000 * threads), "ratio")
    d = t["daemon"]
    for layer in ("handle_submit", "pace"):
        m[f"daemon.{layer}_us_p50"] = (quantile(d[layer], 0.5), "us")
        m[f"daemon.{layer}_us_p99"] = (quantile(d[layer], 0.99), "us")
    m["daemon.pace_events"] = (d["pace_events"], "count")
    w = t["watch"]
    parse_us = median(w["parse_request"])
    encode_us = median(w["encode_response"])
    m["watch.parse_request_us"] = (parse_us, "us")
    m["watch.encode_response_us"] = (encode_us, "us")
    m["watch.status_body_us"] = (median(w["status_body"]), "us")
    m["daemon.wire_us_p50"] = (
        summary["p50_ms"] * 1000 - parse_us - median(d["handle_submit"]) - encode_us, "us")
    m["daemon.queue_full"] = (summary["rejects"].get("queue_full", 0), "count")
    m["daemon.busy"] = (summary["rejects"].get("busy", 0), "count")
    m["daemon.generator_late_ms"] = (summary["late_p99_ms"], "ms")
    traced_ms = t["qs"]["read_swf_ms"] + t["qs"]["shape_ms"] + run_ms \
        + t["analyze"]["from_events_ms"]
    m["trace.overhead_frac"] = ((traced_ms / 1000 - replay_secs) / replay_secs, "ratio")

    if replay:
        checks.require(f"{t['sim']['makespan_s']:.1f}" == f"{replay['makespan_s']:.1f}"
                       and f"{t['sim']['slowdown_p50']:.3f}" == f"{replay['slowdown_p50']:.3f}"
                       and t["engine"]["events_popped"] == replay["events"],
                       "traced replay's schedule differs from the untraced replay's")
    checks.require(t["engine"]["completed_all"] and not t["engine"]["watchdog"],
                   "traced replay did not complete every job")
    return m


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    target = target_dir()
    build(target)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    paths = Paths(target, work)
    checks = Checks()
    before = tree_digest()
    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    try:
        if args.trace:
            metrics = traced(paths, args.seed, args.seconds, checks)
            extra = {}
        else:
            runner = {"replay-w4": workload_replay, "paper": workload_paper,
                      "daemon-submit": workload_daemon}[args.workload]
            metrics, extra = runner(paths, args.seed, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.require(tree_digest() == before,
                   "the run changed files of the checkout (BENCH_pdpa.json or sources)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    checks.require(set(metrics) == declared,
                   f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        log(f"  {name:<28} {value:>16.6g} {unit}")
    failed_frac = checks.failed / max(1, checks.attempted)
    log(f"  {'failed_frac':<28} {failed_frac:>16.6g} ratio "
        f"({checks.failed} of {checks.attempted})")
    for problem in checks.problems:
        log(f"  CHECK FAILED: {problem}")
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: metric(value, unit) for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
