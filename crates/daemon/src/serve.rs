//! The TCP front of `pdpad`: a [`Daemon`] couples the single-threaded
//! [`DaemonCore`] to the multi-threaded `pdpa_watch::StatusServer`.
//!
//! Split of responsibilities:
//!
//! - **Queries** (`status`, `progress`, `health`, `metrics`, `tail`) are
//!   answered by the server threads straight from the [`LiveTap`] — the
//!   unmodified v1 vocabulary, so an old `pdpa watch` works against a
//!   daemon without knowing it is one.
//! - **Control** (`hello`, `submit`, `cancel`, `drain`, `snapshot`,
//!   `shutdown`, `jobs`, `job`) goes through a bounded op channel into
//!   the core's loop thread and waits for the reply. `hello` is the one
//!   exception: it is answered directly on the connection thread so
//!   liveness probes keep working even while the core is deep inside a
//!   long `drain`.
//!
//! Every control op is timed on its way through: the wait from
//! `try_send` until the loop receives it (`request_op_wait_ns`) and the
//! [`DaemonCore::handle`] call itself (`request_engine_step_ns`), both
//! log₂ histograms in the global registry next to the server's parse and
//! reply-write stages, so the `metrics` reply carries the whole
//! request-path budget.
//!
//! The channel bound is the daemon's second backpressure layer: when ops
//! arrive faster than the core retires them, `try_send` fails and the
//! client gets an explicit `busy` rejection with a retry hint — the
//! daemon never buffers unboundedly and never blocks a connection thread
//! on another client's work. (The first layer, `queue_full`, is about the
//! *simulated* machine and lives in the core.)

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdpa_obs::{Histogram, Registry};

use pdpa_watch::{
    ControlHandler, HelloBody, LiveTap, RejectBody, RequestKind, ResponseBody, StatusServer,
    PROTO_VERSION,
};

use crate::core::{DaemonConfig, DaemonCore};

/// Ops the channel buffers before clients see `busy`.
const OP_CHANNEL_BOUND: usize = 64;
/// How long a connection thread waits for the core's reply.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);
/// Core loop tick between ops: pacing and progress cadence.
const TICK: Duration = Duration::from_millis(20);

struct ControlMsg {
    kind: RequestKind,
    /// When the connection thread handed the op to the channel.
    sent: Instant,
    reply: std::sync::mpsc::Sender<ResponseBody>,
}

/// The [`ControlHandler`] installed into the status server: forwards
/// control ops to the core loop, with channel-level backpressure.
struct DaemonControl {
    ops: SyncSender<ControlMsg>,
}

fn reject(reason: &str, retry_after_secs: Option<f64>) -> ResponseBody {
    ResponseBody::Reject(RejectBody {
        reason: reason.to_string(),
        retry_after_secs,
    })
}

impl ControlHandler for DaemonControl {
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody {
        if matches!(kind, RequestKind::Hello) {
            return ResponseBody::Hello(HelloBody {
                proto: PROTO_VERSION,
                server: "pdpad".to_string(),
                policy: tap.status_body().policy,
                state: tap.state(),
            });
        }
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        match self.ops.try_send(ControlMsg {
            kind: kind.clone(),
            sent: Instant::now(),
            reply: reply_tx,
        }) {
            Ok(()) => match reply_rx.recv_timeout(CONTROL_TIMEOUT) {
                Ok(body) => body,
                Err(_) => reject("busy", Some(1.0)),
            },
            Err(TrySendError::Full(_)) => reject("busy", Some(0.5)),
            Err(TrySendError::Disconnected(_)) => reject("shutting_down", None),
        }
    }
}

/// A bound, running `pdpad` instance: call [`Daemon::run`] to serve.
pub struct Daemon {
    core: DaemonCore,
    server: StatusServer,
    ops: Receiver<ControlMsg>,
    started: Instant,
    op_wait_ns: Arc<Histogram>,
    step_ns: Arc<Histogram>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.server.local_addr())
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds the daemon's TCP socket and wires the control channel; the
    /// daemon is reachable (queries *and* control) from the moment this
    /// returns, but ops only retire once [`run`](Daemon::run) starts.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(core: DaemonCore, addr: &str) -> Result<Daemon, String> {
        let (ops_tx, ops_rx) = sync_channel(OP_CHANNEL_BOUND);
        let handler = Arc::new(DaemonControl { ops: ops_tx });
        let server = StatusServer::bind_with_handler(addr, core.tap(), handler)
            .map_err(|e| format!("pdpad: cannot bind {addr}: {e}"))?;
        Ok(Daemon {
            core,
            server,
            ops: ops_rx,
            started: Instant::now(),
            op_wait_ns: Registry::global().histogram("request_op_wait_ns"),
            step_ns: Registry::global().histogram("request_engine_step_ns"),
        })
    }

    /// The actual bound address (`:0` requests resolve at bind time).
    pub fn local_addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Serves until a `shutdown` request is acknowledged. Returns a
    /// one-paragraph closing summary.
    pub fn run(mut self) -> Result<String, String> {
        loop {
            match self.ops.recv_timeout(TICK) {
                Ok(msg) => {
                    self.op_wait_ns.record_since(msg.sent);
                    let is_shutdown = matches!(msg.kind, RequestKind::Shutdown { .. });
                    let wall = self.started.elapsed().as_secs_f64();
                    let step_started = Instant::now();
                    let body = self.core.handle(&msg.kind, wall);
                    self.step_ns.record_since(step_started);
                    let accepted = !matches!(body, ResponseBody::Reject(_));
                    let _ = msg.reply.send(body);
                    if is_shutdown && accepted {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.core.pace(self.started.elapsed().as_secs_f64());
        }
        self.core.flush_stream();
        let tap = self.core.tap();
        tap.mark_done();
        // Give a polling watcher one window to observe the terminal
        // state before the socket goes away.
        self.server.wait_for_final_query(Duration::from_secs(1));
        let connections = self.server.connections();
        self.server.shutdown();
        let session = self.core.session();
        Ok(format!(
            "pdpad: shut down after {:.1}s — {} connections, {} jobs ({} done, {} failed), \
             sim clock {:.1}s, {} journal ops",
            self.started.elapsed().as_secs_f64(),
            connections,
            session.total_jobs(),
            session.completed_count(),
            session.failed_count(),
            session.clock().as_secs(),
            self.core.journal().len(),
        ))
    }
}

/// Convenience constructor: open a fresh core from `config` (or restore
/// it from `restore_from`) and bind it on `addr`.
///
/// # Errors
///
/// Propagates core construction/restore and bind failures.
pub fn bind_daemon(
    config: DaemonConfig,
    restore_from: Option<&str>,
    addr: &str,
) -> Result<Daemon, String> {
    let core = match restore_from {
        Some(path) => DaemonCore::restore(path, config)?,
        None => DaemonCore::new(config)?,
    };
    Daemon::bind(core, addr)
}
