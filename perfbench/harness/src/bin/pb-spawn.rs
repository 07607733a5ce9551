//! Times a program's start-up from outside.
//!
//! ```text
//! pb-spawn --samples N [--marker TEXT [--hello]] -- PROGRAM ARGS...
//! ```
//!
//! Starts `PROGRAM` `N` times, one after another, and prints one line per
//! start: the seconds from spawn to
//!
//! - its exit (no `--marker`; the exit status must be 0), or
//! - the first stderr line starting with `TEXT` (the process is then
//!   killed), or
//! - with `--hello`, the ack of a `hello` sent to the address that line
//!   ends with (the process is then sent `shutdown` and must exit 0).
//!
//! Every core runs a yielding thread meanwhile: an idle core can take
//! milliseconds to wake on a VM, which would swamp start-up times of a few
//! milliseconds. A yielding thread gives way to any runnable thread.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Args {
    samples: usize,
    marker: Option<String>,
    hello: bool,
    argv: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        samples: 0,
        marker: None,
        hello: false,
        argv: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--samples" => {
                let v = it.next().ok_or("--samples needs a value")?;
                args.samples = v.parse().map_err(|_| format!("bad --samples {v}"))?;
            }
            "--marker" => args.marker = Some(it.next().ok_or("--marker needs a value")?),
            "--hello" => args.hello = true,
            "--" => {
                args.argv = it.by_ref().collect();
                break;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.samples == 0 || args.argv.is_empty() || (args.hello && args.marker.is_none()) {
        return Err(
            "usage: pb-spawn --samples N [--marker TEXT [--hello]] -- PROGRAM ARGS...".into(),
        );
    }
    Ok(args)
}

/// Sends one request line and returns the response line.
fn exchange(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    writeln!(stream, "{line}").map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply)
}

fn finish(mut child: Child, kill: bool) -> Result<(), String> {
    if kill {
        let _ = child.kill();
        child.wait().map_err(|e| e.to_string())?;
        return Ok(());
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{status}"))
    }
}

fn sample(args: &Args) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = Command::new(&args.argv[0])
        .args(&args.argv[1..])
        .stdout(Stdio::null())
        .stderr(if args.marker.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", args.argv[0]))?;
    let Some(marker) = &args.marker else {
        finish(child, false)?;
        return Ok(start.elapsed().as_secs_f64());
    };
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut lines = BufReader::new(stderr).lines();
    let line = loop {
        match lines.next() {
            Some(Ok(line)) if line.starts_with(marker.as_str()) => break line,
            Some(Ok(_)) => {}
            _ => {
                finish(child, true)?;
                return Err(format!(
                    "{} exited before printing {marker:?}",
                    args.argv[0]
                ));
            }
        }
    };
    if !args.hello {
        let secs = start.elapsed().as_secs_f64();
        finish(child, true)?;
        return Ok(secs);
    }
    let addr = line
        .split_whitespace()
        .last()
        .unwrap_or_default()
        .to_string();
    let reply = exchange(&addr, "{\"id\":1,\"type\":\"hello\"}");
    let secs = start.elapsed().as_secs_f64();
    let acked = reply
        .as_ref()
        .is_ok_and(|r| r.contains("\"type\":\"hello\""));
    let down = exchange(&addr, "{\"id\":2,\"type\":\"shutdown\"}");
    // Drain stderr so the child never blocks on a full pipe while exiting.
    for _ in lines {}
    finish(child, down.is_err())?;
    if acked {
        Ok(secs)
    } else {
        Err(format!("hello was not acknowledged: {reply:?}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pb-spawn: {message}");
            return ExitCode::FAILURE;
        }
    };
    let stop = AtomicBool::new(false);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        let result = (0..args.samples)
            .map(|_| sample(&args))
            .collect::<Result<Vec<f64>, String>>();
        stop.store(true, Ordering::Relaxed);
        result
    });
    match result {
        Ok(times) => {
            for secs in times {
                println!("{secs:.9}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("pb-spawn: {message}");
            ExitCode::FAILURE
        }
    }
}
