//! Optional runtime instrumentation for engine runs.
//!
//! [`Instrumentation`] bundles the health/introspection knobs from
//! `pdpa-prof` — span profiling, the zero-progress watchdog, periodic
//! heartbeat snapshots, and the live-observability sinks behind
//! `pdpa replay --serve` — behind one parameter so the engines need a
//! single `*_instrumented` entry point each. The default is everything
//! off, which is what [`Engine::run_observed`](crate::Engine::run_observed)
//! and friends pass: those paths stay inside the same ≤2% overhead bound
//! as `NullObserver`, because disabled lanes and absent monitors cost one
//! branch per touch point.

use std::fmt;
use std::sync::Arc;

use pdpa_prof::{
    HealthSnapshot, Heartbeat, HeartbeatConfig, HeartbeatSink, Profiler, ProgressSink,
    StderrHeartbeat, Watchdog, WatchdogConfig,
};

/// What to measure and guard during one run. All off by default.
#[derive(Clone, Default)]
pub struct Instrumentation {
    /// Record hierarchical wall-clock spans; the result lands in
    /// `RunResult::profile`.
    pub profile: bool,
    /// Abort the run with a structured diagnostic (in
    /// `RunResult::watchdog`) when the simulated clock stops advancing
    /// for this many consecutive steps.
    pub watchdog: Option<WatchdogConfig>,
    /// Emit periodic health snapshots during the run.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Where heartbeat lines go. `None` with a heartbeat configured means
    /// stderr (the classic behaviour).
    pub heartbeat_sink: Option<Arc<dyn HeartbeatSink>>,
    /// A live-progress mirror (e.g. `pdpa_watch::LiveTap`), fed a
    /// `HealthSnapshot` on the amortized instrumentation cadence whether
    /// or not a heartbeat is due, and notified when the watchdog trips.
    pub tap: Option<Arc<dyn ProgressSink>>,
}

impl fmt::Debug for Instrumentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instrumentation")
            .field("profile", &self.profile)
            .field("watchdog", &self.watchdog)
            .field("heartbeat", &self.heartbeat)
            .field("heartbeat_sink", &self.heartbeat_sink.is_some())
            .field("tap", &self.tap.is_some())
            .finish()
    }
}

impl Instrumentation {
    /// Everything off — the zero-cost default.
    pub fn none() -> Self {
        Self::default()
    }

    /// Enables span profiling.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables the zero-progress watchdog with the given threshold.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Enables heartbeat snapshots at the given cadence.
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat = Some(cfg);
        self
    }

    /// Routes heartbeat lines to `sink` instead of stderr.
    pub fn with_heartbeat_sink(mut self, sink: Arc<dyn HeartbeatSink>) -> Self {
        self.heartbeat_sink = Some(sink);
        self
    }

    /// Attaches a live-progress mirror.
    pub fn with_tap(mut self, tap: Arc<dyn ProgressSink>) -> Self {
        self.tap = Some(tap);
        self
    }

    /// A profiler with `lanes` lanes, recording only when profiling is on.
    pub(crate) fn profiler(&self, lanes: usize) -> Profiler {
        if self.profile {
            Profiler::enabled(lanes)
        } else {
            Profiler::disabled(lanes)
        }
    }
}

/// The watchdog, heartbeat and live tap of one run, fed by a time-advance
/// strategy at its own cadence (events for the classic loop, barrier
/// rounds for the sharded one).
pub(crate) struct Monitor {
    watchdog: Option<Watchdog>,
    heartbeat: Option<Heartbeat>,
    heartbeat_sink: Arc<dyn HeartbeatSink>,
    tap: Option<Arc<dyn ProgressSink>>,
    /// Set when the watchdog stopped the run.
    pub(crate) diagnostic: Option<String>,
}

impl Monitor {
    pub(crate) fn new(instr: &Instrumentation) -> Self {
        Monitor {
            watchdog: instr.watchdog.map(Watchdog::new),
            heartbeat: instr.heartbeat.map(Heartbeat::new),
            // Heartbeat lines take exactly one typed path; stderr is just
            // the default sink.
            heartbeat_sink: instr
                .heartbeat_sink
                .clone()
                .unwrap_or_else(|| Arc::new(StderrHeartbeat)),
            tap: instr.tap.clone(),
            diagnostic: None,
        }
    }

    /// Feeds the watchdog one step at `clock_secs`. When it fires, records
    /// a diagnostic with `context`, tells the tap, and returns true: the
    /// strategy must stop.
    pub(crate) fn stalled(&mut self, clock_secs: f64, context: impl FnOnce() -> String) -> bool {
        let Some(wd) = self.watchdog.as_mut() else {
            return false;
        };
        if !wd.observe(clock_secs) {
            return false;
        }
        let diag = wd.diagnostic(&context());
        if let Some(tap) = self.tap.as_deref() {
            tap.watchdog_fired(&diag);
        }
        self.diagnostic = Some(diag);
        true
    }

    /// True when a heartbeat or a tap is attached.
    pub(crate) fn is_active(&self) -> bool {
        self.heartbeat.is_some() || self.tap.is_some()
    }

    /// Emits a heartbeat line if one is due, and refreshes the tap then or
    /// when `tap_due`. The snapshot is built only if either happens.
    pub(crate) fn report(&mut self, tap_due: bool, snapshot: impl FnOnce() -> HealthSnapshot) {
        let hb_due = self.heartbeat.as_ref().is_some_and(Heartbeat::due);
        let tap_due = tap_due && self.tap.is_some();
        if !(hb_due || tap_due) {
            return;
        }
        let snap = snapshot();
        if let Some(tap) = self.tap.as_deref() {
            tap.progress(&snap);
        }
        if hb_due {
            if let Some(line) = self.heartbeat.as_mut().and_then(|hb| hb.tick(&snap)) {
                self.heartbeat_sink.emit(&line, &snap);
            }
        }
    }

    /// The final tap refresh, so the mirror's counters reflect the whole
    /// run.
    pub(crate) fn finish(&self, snapshot: impl FnOnce() -> HealthSnapshot) {
        if let Some(tap) = self.tap.as_deref() {
            tap.progress(&snapshot());
        }
    }
}
