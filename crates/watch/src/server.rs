//! The TCP status server behind `pdpa replay --serve`.
//!
//! A tiny thread-per-connection server over std::net — the seed of the
//! `pdpad` daemon's query surface (ROADMAP item 1). Each connection speaks
//! the line-delimited protocol of [`proto`](crate::proto): read one
//! request line, answer one response line, repeat until the client hangs
//! up. All answers come from the [`LiveTap`] mirror and the global metrics
//! registry; server threads never touch engine state, so a slow or
//! misbehaving client cannot perturb the run.
//!
//! Every accepted socket has Nagle's algorithm off (`TCP_NODELAY`): a
//! reply is one small segment, and holding it back for the client's
//! delayed ACK would cost more than the whole request path. Each reply
//! is therefore a single `write_all` of the line and its newline.
//!
//! The network edge is bounded: a request line longer than 64 KiB gets
//! `reject "frame_too_long"`, a frame whose newline does not follow its
//! first byte within 10 s gets `reject "frame_timeout"`, and both close
//! the connection; a connection idle for 120 s is closed silently; past
//! 256 open connections a new one gets `reject "busy"` and is closed
//! without a thread. The parse and reply-write stages of every request
//! are timed into the `request_parse_ns` and `request_reply_write_ns`
//! histograms of the global registry.
//!
//! Lifecycle: the CLI binds before the run starts (printing the actual
//! bound address, so `--serve 127.0.0.1:0` works for CI), lets the run
//! drive, then calls [`StatusServer::wait_for_final_query`] so a polling
//! client can observe the terminal state before the process exits, and
//! finally [`StatusServer::shutdown`].

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdpa_obs::{Histogram, Registry};

use crate::prom::prometheus_text;
use crate::proto::{
    HelloBody, RejectBody, Request, RequestKind, Response, ResponseBody, RunState, PROTO_VERSION,
};
use crate::tap::LiveTap;

/// The server's network-edge bounds.
#[derive(Clone, Copy, Debug)]
struct Limits {
    /// Longest request line, newline excluded.
    max_frame: usize,
    /// Time from a frame's first byte to its newline.
    frame_deadline: Duration,
    /// Time a connection may sit with no frame in progress.
    idle: Duration,
    /// Connections served at once.
    max_connections: u64,
}

const LIMITS: Limits = Limits {
    max_frame: 64 * 1024,
    frame_deadline: Duration::from_secs(10),
    idle: Duration::from_secs(120),
    max_connections: 256,
};

/// Retry hint sent with the connection-cap `busy`, wall seconds.
const BUSY_RETRY_SECS: f64 = 1.0;

/// Serves the v2 control vocabulary (`submit`, `cancel`, `drain`,
/// `snapshot`, `shutdown`, `jobs`, `job`, and the `hello` identity
/// exchange). The read-only replay server uses [`ReadOnlyControl`], which
/// answers `hello` and rejects everything else with `not_a_daemon`; the
/// `pdpad` daemon installs a handler that round-trips ops to the engine
/// loop. Handlers run on connection threads, so they must be thread-safe
/// and must never block on the engine.
pub trait ControlHandler: Send + Sync {
    /// Answers one control request. Query kinds never reach the handler.
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody;
}

/// The default [`ControlHandler`]: identifies the server as `replay` and
/// rejects every mutating request with the stable `not_a_daemon` code, so
/// a v2 client pointed at `pdpa replay --serve` gets a typed refusal, not
/// a protocol error.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadOnlyControl;

impl ControlHandler for ReadOnlyControl {
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody {
        match kind {
            RequestKind::Hello => ResponseBody::Hello(HelloBody {
                proto: PROTO_VERSION,
                server: "replay".to_string(),
                policy: tap.status_body().policy,
                state: tap.state(),
            }),
            _ => reject("not_a_daemon", None),
        }
    }
}

fn reject(reason: &str, retry_after_secs: Option<f64>) -> ResponseBody {
    ResponseBody::Reject(RejectBody {
        reason: reason.to_string(),
        retry_after_secs,
    })
}

/// Shared bookkeeping between the accept loop, connection handlers, and
/// the owning CLI thread.
#[derive(Debug)]
struct ServerShared {
    stop: AtomicBool,
    /// Connections served over the server's lifetime.
    accepted: AtomicU64,
    /// Currently open connections.
    active: AtomicU64,
    /// Set once any request has been answered while the tap was in a
    /// terminal state — a client has seen the final status.
    final_query_served: AtomicBool,
    limits: Limits,
    /// `Request::parse_line` wall time per request.
    parse_ns: Arc<Histogram>,
    /// Reply `write_all` wall time per request.
    reply_ns: Arc<Histogram>,
}

/// A running status server. Dropping it without [`StatusServer::shutdown`]
/// leaks the accept thread until process exit (harmless, but tests and the
/// CLI shut down explicitly).
#[derive(Debug)]
pub struct StatusServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `tap` read-only: queries from the tap, control requests
    /// politely rejected by [`ReadOnlyControl`].
    pub fn bind<A: ToSocketAddrs>(addr: A, tap: Arc<LiveTap>) -> std::io::Result<StatusServer> {
        Self::bind_with_handler(addr, tap, Arc::new(ReadOnlyControl))
    }

    /// Binds like [`bind`](Self::bind) but with a custom control handler —
    /// how `pdpad` turns the status server into a full service endpoint.
    pub fn bind_with_handler<A: ToSocketAddrs>(
        addr: A,
        tap: Arc<LiveTap>,
        handler: Arc<dyn ControlHandler>,
    ) -> std::io::Result<StatusServer> {
        Self::bind_limited(addr, tap, handler, LIMITS)
    }

    fn bind_limited<A: ToSocketAddrs>(
        addr: A,
        tap: Arc<LiveTap>,
        handler: Arc<dyn ControlHandler>,
        limits: Limits,
    ) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Registry::global();
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            final_query_served: AtomicBool::new(false),
            limits,
            parse_ns: registry.histogram("request_parse_ns"),
            reply_ns: registry.histogram("request_reply_write_ns"),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pdpa-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if accept_shared.active.load(Ordering::Relaxed) >= limits.max_connections {
                        refuse(&stream, reject("busy", Some(BUSY_RETRY_SECS)));
                        continue;
                    }
                    accept_shared.accepted.fetch_add(1, Ordering::Relaxed);
                    accept_shared.active.fetch_add(1, Ordering::Relaxed);
                    let tap = Arc::clone(&tap);
                    let shared = Arc::clone(&accept_shared);
                    let handler = Arc::clone(&handler);
                    let spawned = std::thread::Builder::new()
                        .name("pdpa-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &tap, handler.as_ref(), &shared);
                            shared.active.fetch_sub(1, Ordering::Relaxed);
                        });
                    if spawned.is_err() {
                        accept_shared.active.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            })?;
        Ok(StatusServer {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections served so far (those turned away at the cap excluded).
    pub fn connections(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Gives a polling client a window to observe the terminal run state:
    /// returns once some request has been answered post-completion and no
    /// connection is still open — immediately if no client ever connected
    /// — or after `timeout`. Call after marking the tap done/aborted.
    pub fn wait_for_final_query(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.shared.accepted.load(Ordering::Relaxed) == 0 {
                return;
            }
            if self.shared.final_query_served.load(Ordering::Relaxed)
                && self.shared.active.load(Ordering::Relaxed) == 0
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops accepting and joins the accept thread. Open connections are
    /// abandoned (their threads end when the client hangs up or the
    /// process exits).
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Poke the blocking accept() so the loop observes the stop flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// The setup every accepted socket gets: Nagle off, and reads that give
/// up after `idle`.
fn configure_accepted(stream: &TcpStream, idle: Duration) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(idle))
}

/// Answers a connection the server will not serve with one id-0 `body`
/// line and closes it. Input that has already arrived is read off first:
/// closing a socket with unread input sends a reset, which can discard
/// the reply before the client reads it.
fn refuse(stream: &TcpStream, body: ResponseBody) {
    let mut line = Response { id: 0, body }.to_line();
    line.push('\n');
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut sink = [0u8; 4096];
        for _ in 0..16 {
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

/// How [`read_frame`] ended.
#[derive(Debug, PartialEq)]
enum Frame {
    /// A complete line is in the buffer, newline stripped.
    Line,
    /// The client hung up, went idle, or the socket failed.
    Closed,
    /// The line outgrew [`Limits::max_frame`].
    TooLong,
    /// The line's newline missed [`Limits::frame_deadline`].
    TimedOut,
}

/// Reads one `\n`-terminated frame into `frame`. The socket's idle read
/// timeout applies until the frame's first byte; from then on the frame
/// deadline does, so a client cannot hold the thread by trickling bytes.
/// Like `BufRead::lines`, an unterminated last line before EOF counts.
fn read_frame(reader: &mut BufReader<TcpStream>, frame: &mut Vec<u8>, limits: &Limits) -> Frame {
    frame.clear();
    let mut deadline = None;
    let outcome = loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e)
                if deadline.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                break Frame::TimedOut
            }
            Err(_) => break Frame::Closed,
        };
        if chunk.is_empty() {
            break if frame.is_empty() {
                Frame::Closed
            } else {
                Frame::Line
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = newline.unwrap_or(chunk.len());
        if frame.len() + body > limits.max_frame {
            break Frame::TooLong;
        }
        frame.extend_from_slice(&chunk[..body]);
        reader.consume(newline.map_or(body, |i| i + 1));
        if newline.is_some() {
            break Frame::Line;
        }
        let due = *deadline.get_or_insert_with(|| Instant::now() + limits.frame_deadline);
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
            break Frame::TimedOut;
        }
    };
    if deadline.is_some() && outcome == Frame::Line {
        let _ = reader.get_ref().set_read_timeout(Some(limits.idle));
    }
    if frame.last() == Some(&b'\r') {
        frame.pop();
    }
    outcome
}

fn handle_connection(
    stream: TcpStream,
    tap: &LiveTap,
    handler: &dyn ControlHandler,
    shared: &ServerShared,
) {
    let limits = shared.limits;
    if configure_accepted(&stream, limits.idle).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    loop {
        match read_frame(&mut reader, &mut frame, &limits) {
            Frame::Line => {}
            Frame::Closed => break,
            Frame::TooLong => {
                refuse(reader.get_ref(), reject("frame_too_long", None));
                break;
            }
            Frame::TimedOut => {
                refuse(reader.get_ref(), reject("frame_timeout", None));
                break;
            }
        }
        let Ok(line) = std::str::from_utf8(&frame) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let parse_started = Instant::now();
        let parsed = Request::parse_line(line);
        shared.parse_ns.record_since(parse_started);
        let response = match parsed {
            Ok(request) => answer(&request, tap, handler),
            Err(message) => Response {
                id: 0,
                body: ResponseBody::Error { message },
            },
        };
        let mut reply = response.to_line();
        reply.push('\n');
        let write_started = Instant::now();
        let written = writer.write_all(reply.as_bytes());
        shared.reply_ns.record_since(write_started);
        if written.is_err() {
            break;
        }
        if tap.state() != RunState::Running && !matches!(response.body, ResponseBody::Error { .. })
        {
            shared.final_query_served.store(true, Ordering::Relaxed);
        }
    }
}

fn answer(request: &Request, tap: &LiveTap, handler: &dyn ControlHandler) -> Response {
    let body = match &request.kind {
        RequestKind::Status => ResponseBody::Status(tap.status_body()),
        RequestKind::Progress => ResponseBody::Progress(tap.progress_body()),
        RequestKind::Health => ResponseBody::Health(tap.health_body()),
        RequestKind::Metrics => ResponseBody::Metrics {
            format: "prometheus".to_string(),
            body: prometheus_text(Registry::global()),
        },
        RequestKind::Tail { n } => ResponseBody::Tail(tap.tail_body(*n)),
        control => handler.control(control, tap),
    };
    Response {
        id: request.id,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::RunMeta;
    use pdpa_obs::ObsEvent;
    use pdpa_sim::{JobId, SimTime};

    fn query(addr: SocketAddr, lines: &[String]) -> Vec<Response> {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("writes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            out.push(Response::parse_line(reply.trim_end()).expect("parses"));
        }
        out
    }

    fn hello_line(id: u64) -> String {
        Request {
            id,
            kind: RequestKind::Hello,
        }
        .to_line()
    }

    /// Asserts that a fresh, well-behaved client is served.
    fn assert_serves(addr: SocketAddr) {
        let responses = query(addr, &[hello_line(9)]);
        assert_eq!(responses[0].id, 9);
        assert!(matches!(responses[0].body, ResponseBody::Hello(_)));
    }

    /// Reads the one id-0 reject a refused connection gets, then expects
    /// the server to have closed the connection.
    fn read_refusal(reader: &mut BufReader<TcpStream>) -> RejectBody {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads the refusal");
        let response = Response::parse_line(line.trim_end()).expect("parses");
        assert_eq!(response.id, 0);
        let ResponseBody::Reject(reject) = response.body else {
            panic!("expected a reject, got {:?}", response.body);
        };
        let mut rest = String::new();
        let closed = matches!(reader.read_line(&mut rest), Ok(0) | Err(_));
        assert!(closed, "connection still open after the refusal: {rest:?}");
        reject
    }

    fn read_only_server(limits: Limits) -> StatusServer {
        StatusServer::bind_limited(
            "127.0.0.1:0",
            LiveTap::new(RunMeta::default()),
            Arc::new(ReadOnlyControl),
            limits,
        )
        .expect("binds")
    }

    #[test]
    fn accepted_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connects");
        let (accepted, _) = listener.accept().expect("accepts");
        configure_accepted(&accepted, LIMITS.idle).expect("configures");
        assert!(accepted.nodelay().expect("reads TCP_NODELAY"));
        assert_eq!(accepted.read_timeout().unwrap(), Some(LIMITS.idle));
    }

    #[test]
    fn oversize_line_is_refused_and_the_server_keeps_serving() {
        let server = read_only_server(LIMITS);
        let addr = server.local_addr();
        // Exactly at the bound is still a frame (a malformed one).
        let at_bound = query(addr, &["x".repeat(LIMITS.max_frame)]);
        assert!(matches!(at_bound[0].body, ResponseBody::Error { .. }));

        let mut stream = TcpStream::connect(addr).expect("connects");
        let oversize = "x".repeat(LIMITS.max_frame + 1);
        stream.write_all(oversize.as_bytes()).expect("writes");
        let reject = read_refusal(&mut BufReader::new(stream));
        assert_eq!(reject.reason, "frame_too_long");
        assert!(reject.retry_after_secs.is_none());
        assert_serves(addr);
        server.shutdown();
    }

    #[test]
    fn slowloris_client_is_dropped_at_the_frame_deadline() {
        let server = read_only_server(Limits {
            frame_deadline: Duration::from_millis(200),
            idle: Duration::from_secs(30),
            ..LIMITS
        });
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connects");
        let mut trickle = stream.try_clone().expect("clones");
        // One byte every 20 ms, never a newline: each byte arrives well
        // inside any per-read timeout, so only a whole-frame deadline
        // ends it.
        let trickler = std::thread::spawn(move || {
            for _ in 0..500 {
                if trickle.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let reject = read_refusal(&mut BufReader::new(stream));
        assert_eq!(reject.reason, "frame_timeout");
        assert_serves(addr);
        trickler.join().expect("trickler");

        // A frame begun and then abandoned also ends at the deadline,
        // long before the idle timeout would.
        let mut stalled = TcpStream::connect(addr).expect("connects");
        let started = Instant::now();
        stalled.write_all(b"{\"id\":1,").expect("writes");
        let reject = read_refusal(&mut BufReader::new(stalled));
        assert_eq!(reject.reason, "frame_timeout");
        assert!(
            started.elapsed() < Duration::from_secs(15),
            "the idle timeout, not the frame deadline, ended the frame"
        );
        assert_serves(addr);
        server.shutdown();
    }

    #[test]
    fn mid_frame_disconnect_frees_the_connection() {
        let server = read_only_server(Limits {
            max_connections: 1,
            ..LIMITS
        });
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(b"{\"id\":1,\"ty").expect("writes");
        drop(stream);
        // The one connection slot comes back once the server sees the
        // hang-up; until then a new client is turned away as busy.
        for attempt in 0.. {
            let stream = TcpStream::connect(addr).expect("connects");
            let mut writer = stream.try_clone().expect("clones");
            writer
                .write_all(format!("{}\n", hello_line(3)).as_bytes())
                .expect("writes");
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).expect("reads");
            let response = Response::parse_line(line.trim_end()).expect("parses");
            if response.id == 3 {
                break;
            }
            assert!(attempt < 500, "slot never freed: {line}");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn connections_past_the_cap_get_busy_until_others_close() {
        let cap = 4;
        let server = read_only_server(Limits {
            max_connections: cap,
            ..LIMITS
        });
        let addr = server.local_addr();
        // A round trip on each proves the server counts it as open.
        let held: Vec<(TcpStream, BufReader<TcpStream>)> = (0..cap)
            .map(|i| {
                let stream = TcpStream::connect(addr).expect("connects");
                let mut writer = stream.try_clone().expect("clones");
                let mut reader = BufReader::new(stream);
                writer
                    .write_all(format!("{}\n", hello_line(i)).as_bytes())
                    .expect("writes");
                let mut line = String::new();
                reader.read_line(&mut line).expect("reads");
                assert!(line.contains("\"hello\""), "got: {line}");
                (writer, reader)
            })
            .collect();
        for _ in 0..3 {
            let stream = TcpStream::connect(addr).expect("connects");
            let reject = read_refusal(&mut BufReader::new(stream));
            assert_eq!(reject.reason, "busy");
            assert_eq!(reject.retry_after_secs, Some(BUSY_RETRY_SECS));
        }
        assert_eq!(
            server.connections(),
            cap,
            "refused connections are not served"
        );
        drop(held);
        for attempt in 0.. {
            let stream = TcpStream::connect(addr).expect("connects");
            let mut writer = stream.try_clone().expect("clones");
            writer
                .write_all(format!("{}\n", hello_line(5)).as_bytes())
                .expect("writes");
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).expect("reads");
            if line.contains("\"hello\"") {
                break;
            }
            assert!(line.contains("busy"), "got: {line}");
            assert!(attempt < 500, "never served again");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn serves_all_query_types_over_one_connection() {
        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "t.swf".into(),
            shards: 2,
            jobs_total: 10,
        });
        tap.observe(
            SimTime::from_secs(1.0),
            &ObsEvent::JobSubmitted { job: JobId(0) },
        );
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let addr = server.local_addr();

        let requests: Vec<String> = [
            Request {
                id: 1,
                kind: RequestKind::Status,
            },
            Request {
                id: 2,
                kind: RequestKind::Progress,
            },
            Request {
                id: 3,
                kind: RequestKind::Health,
            },
            Request {
                id: 4,
                kind: RequestKind::Metrics,
            },
            Request {
                id: 5,
                kind: RequestKind::Tail { n: 5 },
            },
        ]
        .iter()
        .map(Request::to_line)
        .collect();
        let responses = query(addr, &requests);

        assert_eq!(responses.len(), 5);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64 + 1, "ids echo in order");
        }
        match &responses[0].body {
            ResponseBody::Status(s) => {
                assert_eq!(s.policy, "PDPA");
                assert_eq!(s.jobs_total, 10);
                assert_eq!(s.jobs_submitted, 1);
                assert_eq!(s.state, RunState::Running);
            }
            other => panic!("expected status, got {other:?}"),
        }
        match &responses[3].body {
            ResponseBody::Metrics { format, body } => {
                assert_eq!(format, "prometheus");
                assert!(body.contains("pdpa_engine_runs_total"));
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match &responses[4].body {
            ResponseBody::Tail(t) => {
                assert_eq!(t.events.len(), 1);
                assert!(t.events[0].contains("submit"));
            }
            other => panic!("expected tail, got {other:?}"),
        }

        assert_eq!(server.connections(), 1);
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_response() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        // The nested line would overflow the connection thread's stack
        // without the parser's depth bound.
        let hello = Request {
            id: 7,
            kind: RequestKind::Hello,
        };
        let responses = query(
            server.local_addr(),
            &[
                "not json at all".to_string(),
                "[".repeat(20_000),
                hello.to_line(),
            ],
        );
        assert_eq!(responses.len(), 3);
        for bad in &responses[..2] {
            assert_eq!(bad.id, 0);
            assert!(matches!(bad.body, ResponseBody::Error { .. }));
        }
        assert_eq!(responses[2].id, 7);
        assert!(matches!(responses[2].body, ResponseBody::Hello(_)));
        server.shutdown();
    }

    #[test]
    fn read_only_server_answers_hello_and_rejects_control() {
        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "t.swf".into(),
            shards: 1,
            jobs_total: 1,
        });
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let responses = query(
            server.local_addr(),
            &[
                Request {
                    id: 1,
                    kind: RequestKind::Hello,
                }
                .to_line(),
                Request {
                    id: 2,
                    kind: RequestKind::Submit {
                        class: "swim".into(),
                        request: None,
                        work_secs: None,
                    },
                }
                .to_line(),
            ],
        );
        match &responses[0].body {
            ResponseBody::Hello(h) => {
                assert_eq!(h.proto, PROTO_VERSION);
                assert_eq!(h.server, "replay");
                assert_eq!(h.policy, "PDPA");
            }
            other => panic!("expected hello, got {other:?}"),
        }
        match &responses[1].body {
            ResponseBody::Reject(r) => {
                assert_eq!(r.reason, "not_a_daemon");
                assert!(r.retry_after_secs.is_none());
            }
            other => panic!("expected reject, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn wait_for_final_query_is_immediate_without_clients() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        tap.mark_done();
        let start = Instant::now();
        server.wait_for_final_query(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "no client ever connected, wait must return immediately"
        );
        server.shutdown();
    }

    #[test]
    fn wait_for_final_query_returns_after_post_done_status() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let addr = server.local_addr();
        tap.mark_done();
        let responses = query(
            addr,
            &[Request {
                id: 1,
                kind: RequestKind::Status,
            }
            .to_line()],
        );
        match &responses[0].body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Done),
            other => panic!("expected status, got {other:?}"),
        }
        let start = Instant::now();
        server.wait_for_final_query(Duration::from_secs(10));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "final query already served"
        );
        server.shutdown();
    }
}
