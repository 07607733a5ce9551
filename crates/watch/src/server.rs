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
//! Lifecycle: the CLI binds before the run starts (printing the actual
//! bound address, so `--serve 127.0.0.1:0` works for CI), lets the run
//! drive, then calls [`StatusServer::wait_for_final_query`] so a polling
//! client can observe the terminal state before the process exits, and
//! finally [`StatusServer::shutdown`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdpa_obs::Registry;

use crate::prom::prometheus_text;
use crate::proto::{
    HelloBody, RejectBody, Request, RequestKind, Response, ResponseBody, RunState, PROTO_VERSION,
};
use crate::tap::LiveTap;

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
            _ => ResponseBody::Reject(RejectBody {
                reason: "not_a_daemon".to_string(),
                retry_after_secs: None,
            }),
        }
    }
}

/// Shared bookkeeping between the accept loop, connection handlers, and
/// the owning CLI thread.
#[derive(Debug, Default)]
struct ServerShared {
    stop: AtomicBool,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Currently open connections.
    active: AtomicU64,
    /// Set once any request has been answered while the tap was in a
    /// terminal state — a client has seen the final status.
    final_query_served: AtomicBool,
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
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared::default());
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pdpa-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    accept_shared.accepted.fetch_add(1, Ordering::Relaxed);
                    accept_shared.active.fetch_add(1, Ordering::Relaxed);
                    let tap = Arc::clone(&tap);
                    let shared = Arc::clone(&accept_shared);
                    let handler = Arc::clone(&handler);
                    let _ = std::thread::Builder::new()
                        .name("pdpa-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &tap, handler.as_ref(), &shared);
                            shared.active.fetch_sub(1, Ordering::Relaxed);
                        });
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

    /// Connections accepted so far.
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

fn handle_connection(
    stream: TcpStream,
    tap: &LiveTap,
    handler: &dyn ControlHandler,
    shared: &ServerShared,
) {
    // A stuck client should not pin a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse_line(&line) {
            Ok(request) => answer(&request, tap, handler),
            Err(message) => Response {
                id: 0,
                body: ResponseBody::Error { message },
            },
        };
        if writer
            .write_all(format!("{}\n", response.to_line()).as_bytes())
            .is_err()
        {
            break;
        }
        if writer.flush().is_err() {
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
