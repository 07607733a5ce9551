//! Open-loop load generator for `pdpa daemon`.
//!
//! ```text
//! pb-load --addr HOST:PORT --seed N --rate SUBMITS_PER_S --secs S --out FILE [--drain]
//! ```
//!
//! Sends the seeded op stream (see `perfbench_harness::op_stream`) over one
//! connection from one thread, each request at its due time whether or not
//! earlier ones were answered, and records for every request when it was due, when it
//! was written and when its response arrived. With `--drain` it then sends
//! `drain` and a `progress` query and records both. Everything goes to
//! `FILE` as plain lines; `run.py` computes the statistics.
//!
//! `pb-load --time-scale RATE` prints the daemon `--time-scale` that loads
//! the simulated machine to the target demand at `RATE` submits per second.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use perfbench_harness::{op_stream, request_line, time_scale, Op, OpKind};

/// How long after the last due time unanswered requests are waited for.
const ANSWER_GRACE: Duration = Duration::from_secs(10);
/// The event loop stops sleeping this long before a request is due.
const SPIN_WINDOW: Duration = Duration::from_millis(5);

struct Args {
    addr: String,
    seed: u64,
    rate: f64,
    secs: f64,
    out: String,
    drain: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        seed: 0,
        rate: 0.0,
        secs: 0.0,
        out: String::new(),
        drain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--drain" {
            args.drain = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--addr" => args.addr = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--rate" => args.rate = value.parse().map_err(|_| format!("bad --rate {value}"))?,
            "--secs" => args.secs = value.parse().map_err(|_| format!("bad --secs {value}"))?,
            "--out" => args.out = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.addr.is_empty() || args.out.is_empty() || args.rate <= 0.0 || args.secs <= 0.0 {
        return Err(
            "usage: pb-load --addr A --seed N --rate R --secs S --out FILE [--drain]".into(),
        );
    }
    Ok(args)
}

/// The value of `"key":` in a one-line JSON object, up to the next `,`,
/// `}` or closing quote.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

/// `type`, or `reject:<reason>` for rejections.
fn response_kind(line: &str) -> String {
    match field(line, "type") {
        Some("reject") => format!("reject:{}", field(line, "reason").unwrap_or("?")),
        Some(kind) => kind.to_string(),
        None => "unparsed".to_string(),
    }
}

fn micros(since: Instant, at: Instant) -> i64 {
    at.saturating_duration_since(since).as_micros() as i64
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// What the event loop recorded for each request.
struct Outcome {
    sent: Vec<Option<Instant>>,
    recv: Vec<Option<(Instant, String)>>,
    duplicates: u64,
    unknown: u64,
}

/// Sends `ops` on schedule and collects the responses, on one thread that
/// polls the socket without blocking. A thread woken from a blocking call
/// can start milliseconds late on a busy host; polling keeps that delay out
/// of both the send times and the receive times. The loop sleeps only when
/// nothing is outstanding and the next request is more than
/// [`SPIN_WINDOW`] away.
fn exchange(stream: &mut TcpStream, ops: &[Op], start: Instant, deadline: Instant) -> Outcome {
    let n = ops.len();
    let due = |i: usize| start + Duration::from_secs_f64(ops[i].due_secs);
    let mut o = Outcome {
        sent: vec![None; n],
        recv: vec![None; n],
        duplicates: 0,
        unknown: 0,
    };
    let (mut next, mut answered) = (0usize, 0usize);
    // Bytes not yet accepted by the socket, and where each request ends.
    let (mut outgoing, mut written) = (Vec::<u8>::new(), 0usize);
    let mut ends: VecDeque<(usize, usize)> = VecDeque::new();
    let (mut pending, mut chunk) = (Vec::<u8>::new(), vec![0u8; 1 << 16]);
    while answered < n && Instant::now() < deadline {
        let now = Instant::now();
        while next < n && due(next) <= now {
            outgoing.extend_from_slice(request_line(next as u64 + 1, &ops[next].kind).as_bytes());
            outgoing.push(b'\n');
            ends.push_back((outgoing.len(), next));
            next += 1;
        }
        if written < outgoing.len() {
            match stream.write(&outgoing[written..]) {
                Ok(wrote) => written += wrote,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            let at = Instant::now();
            while ends.front().is_some_and(|&(end, _)| end <= written) {
                let (_, i) = ends.pop_front().expect("checked");
                o.sent[i] = Some(at);
            }
            if written == outgoing.len() {
                outgoing.clear();
                written = 0;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => {
                let at = Instant::now();
                pending.extend_from_slice(&chunk[..got]);
                while let Some(end) = pending.iter().position(|&b| b == b'\n') {
                    let raw: Vec<u8> = pending.drain(..=end).collect();
                    let line = String::from_utf8_lossy(&raw);
                    match field(&line, "id").and_then(|v| v.trim().parse::<usize>().ok()) {
                        Some(id) if (1..=n).contains(&id) => {
                            if o.recv[id - 1].is_some() {
                                o.duplicates += 1;
                            } else {
                                o.recv[id - 1] = Some((at, response_kind(&line)));
                                answered += 1;
                            }
                        }
                        _ => o.unknown += 1,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let idle = answered == next && outgoing.is_empty();
                match (next < n, idle) {
                    (true, true) => match due(next)
                        .saturating_duration_since(Instant::now())
                        .checked_sub(SPIN_WINDOW)
                    {
                        Some(long) if !long.is_zero() => std::thread::sleep(long),
                        _ => std::thread::yield_now(),
                    },
                    _ => std::thread::yield_now(),
                }
            }
            Err(_) => break,
        }
    }
    o
}

fn run(args: &Args) -> Result<String, String> {
    let ops = op_stream(args.seed, args.rate, args.secs);
    let n = ops.len();
    let mut stream =
        TcpStream::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(args.secs) + ANSWER_GRACE;
    // Keep the other cores busy with yielding threads while the stream
    // runs: an idle core can take milliseconds to wake (on a VM, the host
    // must schedule it again), which would add to the daemon's latency
    // whenever its threads wake there. A yielding thread gives way to any
    // runnable thread.
    let stop = AtomicBool::new(false);
    let keepers = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    let outcome = std::thread::scope(|scope| {
        for _ in 0..keepers {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        let outcome = exchange(&mut stream, &ops, start, deadline);
        stop.store(true, Ordering::Relaxed);
        outcome
    });
    let Outcome {
        sent,
        recv,
        duplicates,
        unknown,
    } = outcome;
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);

    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        let kind = if op.kind == OpKind::Status { 'q' } else { 's' };
        let due_us = (op.due_secs * 1e6).round() as i64;
        let sent_us = sent[i].map_or(-1, |t| micros(start, t));
        let (recv_us, response) = match &recv[i] {
            Some((t, r)) => (micros(start, *t), r.as_str()),
            None => (-1, "none"),
        };
        out.push_str(&format!(
            "r {} {kind} {due_us} {sent_us} {recv_us} {response}\n",
            i + 1
        ));
    }
    out.push_str(&format!("duplicates {duplicates}\nunknown {unknown}\n"));

    if args.drain {
        reader
            .get_mut()
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let id = n as u64 + 1;
        let begun = Instant::now();
        writeln!(writer, "{{\"id\":{id},\"type\":\"drain\"}}").map_err(|e| e.to_string())?;
        let ack = read_response(&mut reader)?;
        let drain_us = micros(begun, Instant::now());
        let events = field(&ack, "info")
            .and_then(|info| info.strip_prefix("drained: "))
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or("-1");
        out.push_str(&format!(
            "drain {} {drain_us} {events}\n",
            response_kind(&ack)
        ));
        writeln!(writer, "{{\"id\":{},\"type\":\"progress\"}}", id + 1)
            .map_err(|e| e.to_string())?;
        let progress = read_response(&mut reader)?;
        out.push_str(&format!(
            "progress {} {} {}\n",
            field(&progress, "events_popped").unwrap_or("-1"),
            field(&progress, "jobs_finished").unwrap_or("-1"),
            field(&progress, "sim_clock_secs").unwrap_or("-1"),
        ));
    }
    Ok(out)
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, rate] = argv.as_slice() {
        if flag == "--time-scale" {
            if let Ok(rate) = rate.parse::<f64>() {
                println!("{}", time_scale(rate));
                return std::process::ExitCode::SUCCESS;
            }
        }
    }
    let result = parse_args().and_then(|args| {
        let out = run(&args)?;
        std::fs::write(&args.out, out).map_err(|e| format!("cannot write {}: {e}", args.out))
    });
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pb-load: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}
