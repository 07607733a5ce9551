//! The one coordinator both engines drive.
//!
//! [`Coordinator`] plays the paper's resource manager. It owns the queue
//! system, the machine and the time-shared placement, and the global
//! event queue, and it holds every policy-facing path: admission,
//! decision application, the fault and kill/retry paths, event
//! publication, completion bookkeeping and result assembly. The engines
//! differ only in how they advance time:
//!
//! - the classic loop ([`crate::Engine::run_instrumented`]) and
//!   [`crate::EngineSession`] pop one event at a time and react at once;
//! - the sharded barrier loop ([`crate::shard`]) advances job shards to a
//!   barrier and replays their buffered measurements through the same
//!   coordinator.
//!
//! Per-job state sits behind the [`JobHost`] seam. The classic host is a
//! single [`JobStore`] whose iteration predictions share the
//! coordinator's queue; the sharded host spreads jobs over N shards, each
//! with its own prediction queue. The coordinator is generic over the
//! host, so the classic hot path compiles to direct calls.

use std::collections::HashMap;
use std::sync::Arc;

use pdpa_apps::{AppClass, ApplicationSpec, NoiseModel};
use pdpa_metrics::{JobOutcome, Summary};
use pdpa_obs::metrics::{Histogram, Registry, RunCounters, Span};
use pdpa_obs::{DecisionTrigger, ObsEvent, Observer};
use pdpa_perf::SelfAnalyzer;
use pdpa_policies::{Decisions, JobView, PolicyCtx, SchedulingPolicy, SharingModel};
use pdpa_prof::{Profiler, SpanKind};
use pdpa_qs::{JobSpec, QueueSystem};
use pdpa_sim::{CpuId, EventQueue, JobId, Machine, QueueStats, SimDuration, SimRng, SimTime};
use pdpa_trace::TraceObserver;

use crate::config::EngineConfig;
use crate::result::RunResult;
use crate::store::{job_noise_rng, JobStore, MemoStats};
use crate::timeshare::{effective_procs, throughput_factor, QuantumPlacement};

/// The observer slot of a [`Coordinator`]: a batch run borrows the
/// caller's observer, while a long-lived
/// [`EngineSession`](crate::EngineSession) owns its sink outright so the
/// simulation state can outlive any one call stack.
pub(crate) enum ObsSink<'a> {
    /// The batch path: the observer outlives the run.
    Borrowed(&'a mut dyn Observer),
    /// The session path: the coordinator owns its sink.
    Owned(Box<dyn Observer>),
}

impl ObsSink<'_> {
    fn is_enabled(&self) -> bool {
        match self {
            ObsSink::Borrowed(o) => o.is_enabled(),
            ObsSink::Owned(o) => o.is_enabled(),
        }
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        match self {
            ObsSink::Borrowed(o) => o.on_event(at, event),
            ObsSink::Owned(o) => o.on_event(at, event),
        }
    }
}

/// What a cancellation request ([`crate::EngineSession::cancel`]) found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still waiting in the queue; it was removed and failed
    /// terminally without ever starting.
    Queued,
    /// The job was running; it was killed (no retry) and its processors
    /// released.
    Running,
    /// The job is unknown, already finished, or already failed — nothing
    /// to cancel.
    NotFound,
}

/// Engine events.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// A job's submission instant passed: it joins the queue.
    Arrival(JobId),
    /// A job's current iteration is predicted to end. Scheduled under the
    /// job's queue key, so rescheduling or removing the job lazily
    /// invalidates the pending prediction inside the event queue. Only
    /// the classic host puts these in the coordinator's queue.
    IterEnd(JobId),
    /// Time-shared placement quantum (only scheduled for time-shared runs
    /// with trace collection).
    Tick,
    /// A CPU fails per the fault plan.
    CpuFail(CpuId),
    /// A failed CPU comes back per the fault plan.
    CpuRecover(CpuId),
    /// A job crashes per the fault plan (a no-op unless it is running).
    JobKill(JobId),
    /// A crashed job's backoff elapsed: it rejoins the queue.
    JobRetry(JobId),
}

/// Where running jobs live: the seam between the coordinator and a
/// time-advance strategy. Ids passed in refer to running jobs unless a
/// method says otherwise.
pub(crate) trait JobHost {
    /// The store that holds (or would hold) `job`.
    fn store(&self, job: JobId) -> &JobStore;
    /// Mutable access to the store that holds `job`.
    fn store_mut(&mut self, job: JobId) -> &mut JobStore;
    /// Number of running jobs.
    fn len(&self) -> usize;
    /// The running job at admission-order position `i`.
    fn id_at(&self, i: usize) -> JobId;
    /// Refills `out` with the policy view of every running job, in
    /// admission order.
    fn fill_views(&self, out: &mut Vec<JobView>);
    /// Sum of current allocations.
    fn total_allocated(&self) -> usize;
    /// Sum of effective processors (the time-shared rate model).
    fn total_effective_procs(&self) -> usize;
    /// Admits `job` as a fresh start at `now`.
    fn start(
        &mut self,
        job: JobId,
        spec: ApplicationSpec,
        analyzer: SelfAnalyzer,
        now: SimTime,
        rng: SimRng,
    );
    /// Removes `job`, returning its harvested speedup-memo stats.
    fn remove(&mut self, job: JobId) -> MemoStats;
    /// Memo stats of the jobs still running.
    fn remaining_memo_stats(&self) -> MemoStats;
    /// Replaces `job`'s pending iteration-end prediction with one made
    /// from `now` at its current rate. `events` is the coordinator's
    /// queue, for hosts that keep predictions there.
    fn reschedule(&mut self, job: JobId, now: SimTime, events: &mut EventQueue<Ev>);
    /// Drops `job`'s pending iteration-end prediction, if any.
    fn forget(&mut self, job: JobId, events: &mut EventQueue<Ev>);
    /// Traffic counters of the prediction queues the host owns itself,
    /// one per shard (empty when predictions share the coordinator's
    /// queue).
    fn shard_queue_stats(&self) -> Vec<QueueStats>;
}

/// The classic host: one store, predictions in the coordinator's queue.
impl JobHost for JobStore {
    fn store(&self, _job: JobId) -> &JobStore {
        self
    }

    fn store_mut(&mut self, _job: JobId) -> &mut JobStore {
        self
    }

    fn len(&self) -> usize {
        JobStore::len(self)
    }

    fn id_at(&self, i: usize) -> JobId {
        JobStore::id_at(self, i)
    }

    fn fill_views(&self, out: &mut Vec<JobView>) {
        JobStore::fill_views(self, out);
    }

    fn total_allocated(&self) -> usize {
        JobStore::total_allocated(self)
    }

    fn total_effective_procs(&self) -> usize {
        JobStore::total_effective_procs(self)
    }

    fn start(
        &mut self,
        job: JobId,
        spec: ApplicationSpec,
        analyzer: SelfAnalyzer,
        now: SimTime,
        rng: SimRng,
    ) {
        JobStore::start(self, job, spec, analyzer, now, rng);
    }

    fn remove(&mut self, job: JobId) -> MemoStats {
        JobStore::remove(self, job)
    }

    fn remaining_memo_stats(&self) -> MemoStats {
        JobStore::remaining_memo_stats(self)
    }

    fn reschedule(&mut self, job: JobId, now: SimTime, events: &mut EventQueue<Ev>) {
        self.repredict(job, now, events, Ev::IterEnd(job));
    }

    fn forget(&mut self, job: JobId, events: &mut EventQueue<Ev>) {
        events.invalidate_key(u64::from(job.0));
    }

    fn shard_queue_stats(&self) -> Vec<QueueStats> {
        Vec::new()
    }
}

/// All coordinator state of one run, generic over where jobs live.
pub(crate) struct Coordinator<'a, H: JobHost> {
    pub(crate) config: EngineConfig,
    pub(crate) sharing: SharingModel,
    pub(crate) qs: QueueSystem,
    machine: Machine,
    pub(crate) placement: QuantumPlacement,
    /// Arrivals, faults, retries and ticks — plus, for the classic host,
    /// every iteration-end prediction.
    pub(crate) events: EventQueue<Ev>,
    /// The running jobs.
    pub(crate) host: H,
    pub(crate) clock: SimTime,
    /// The classic engine's shared stream: timing noise and time-shared
    /// placement draw from it in event order. Sharded runs draw noise
    /// from per-job streams instead.
    pub(crate) rng: SimRng,
    pub(crate) noise: NoiseModel,
    /// Reused buffer for policy-call snapshots — refilled by
    /// `refresh_views` instead of allocating a fresh `Vec` per policy call.
    views_scratch: Vec<JobView>,
    outcomes: Vec<JobOutcome>,
    /// `(class, average allocation)` of completed jobs.
    completed_allocs: Vec<(AppClass, f64)>,
    /// Average allocation per completed job.
    completed_alloc_by_job: HashMap<JobId, f64>,
    /// Total CPU-seconds held by completed jobs.
    cpu_seconds_used: f64,
    /// The one subscription point for CPU-occupancy tracing: placement
    /// mutations publish [`ObsEvent::CpuAssigned`] and this bridge rebuilds
    /// the per-CPU burst trace from the stream.
    trace_obs: TraceObserver,
    /// `config.collect_trace`, cached where the publish sites branch on it.
    trace_on: bool,
    /// The external event sink.
    obs: ObsSink<'a>,
    /// `obs.is_enabled()`, cached at run start: publish sites skip event
    /// construction entirely when false.
    pub(crate) obs_on: bool,
    /// Reused buffer for decision batches — `apply_decisions` refills it
    /// instead of allocating a fresh `Vec` per policy activation.
    changes_scratch: Vec<(JobId, usize)>,
    /// Allocation changes applied (no-op resizes excluded).
    decisions_applied: u64,
    /// Speedup-memo stats harvested from departed jobs.
    memo_hits: u64,
    memo_misses: u64,
    /// Wall-time histogram for policy activations (`decision_ns`).
    decision_hist: Arc<Histogram>,
    /// Span buffers: lane 0 is the coordinator, any further lanes belong
    /// to shards. Disabled lanes (the default) record nothing.
    pub(crate) prof: Profiler,
    ml_series: Vec<(f64, usize)>,
    max_ml: usize,
    /// Current row of the gang matrix (gang mode only).
    pub(crate) gang_slot: usize,
    /// Previous occupant of every CPU as published on the decision-event
    /// bus (gang mode only) — the state needed to count occupant churn.
    gang_prev: Vec<Option<JobId>>,
    /// Gang-mode occupant hand-offs: a CPU passing directly from one job
    /// to another at a slot rotation. Mirrors the analyzer's replayed
    /// hand-off rule, so engine and replay agree on every policy.
    quantum_rotations: u64,
    /// Retries consumed so far by each crashed job.
    retries: HashMap<JobId, u32>,
    /// CPU failures injected (events that actually took a CPU down).
    cpu_failures: u64,
    /// Job retries scheduled.
    job_retries: u64,
    /// Jobs that failed terminally.
    jobs_failed: u64,
}

impl<'a, H: JobHost> Coordinator<'a, H> {
    pub(crate) fn new(
        config: &EngineConfig,
        jobs: Vec<JobSpec>,
        sharing: SharingModel,
        obs: ObsSink<'a>,
        prof: Profiler,
        host: H,
    ) -> Self {
        let trace_obs = if config.collect_trace {
            TraceObserver::new(config.cpus)
        } else {
            TraceObserver::disabled(config.cpus)
        };
        let obs_on = obs.is_enabled();
        Coordinator {
            config: config.clone(),
            sharing,
            qs: QueueSystem::new(jobs),
            machine: Machine::new(config.cpus),
            placement: QuantumPlacement::new(config.cpus),
            events: EventQueue::new(),
            host,
            clock: SimTime::ZERO,
            rng: SimRng::new(config.seed),
            noise: if config.noise_sigma == 0.0 {
                NoiseModel::none()
            } else {
                NoiseModel::new(config.noise_sigma)
            },
            views_scratch: Vec::new(),
            outcomes: Vec::new(),
            completed_allocs: Vec::new(),
            completed_alloc_by_job: HashMap::new(),
            cpu_seconds_used: 0.0,
            trace_on: config.collect_trace,
            trace_obs,
            obs,
            obs_on,
            changes_scratch: Vec::new(),
            decisions_applied: 0,
            memo_hits: 0,
            memo_misses: 0,
            decision_hist: Registry::global().histogram("decision_ns"),
            prof,
            ml_series: vec![(0.0, 0)],
            max_ml: 0,
            gang_slot: 0,
            gang_prev: vec![None; config.cpus],
            quantum_rotations: 0,
            retries: HashMap::new(),
            cpu_failures: 0,
            job_retries: 0,
            jobs_failed: 0,
        }
    }

    /// True when allocations are thread/gang counts rather than dedicated
    /// cpusets (the machine model is bypassed and every membership change
    /// shifts every job's rate).
    fn is_time_shared(&self) -> bool {
        matches!(
            self.sharing,
            SharingModel::TimeShared(_) | SharingModel::Gang(_)
        )
    }

    /// The trace/placement quantum of the current sharing model, if any.
    pub(crate) fn quantum(&self) -> Option<SimDuration> {
        match self.sharing {
            SharingModel::SpaceShared => None,
            SharingModel::TimeShared(p) => Some(p.quantum),
            SharingModel::Gang(p) => Some(p.quantum),
        }
    }

    /// Schedules every event known up front: the workload's arrivals, the
    /// first placement tick of a traced quantum model, and the fault plan.
    pub(crate) fn schedule_events(&mut self) {
        // One O(n) batch insertion instead of n heap sifts — on a 10k-job
        // replay trace this is the difference between a linear and an
        // n log n startup. Sequence numbers are assigned in submission
        // order, so pop order is identical to one-by-one pushes.
        let subs: Vec<(SimTime, Ev)> = self
            .qs
            .submissions()
            .map(|(id, spec)| (spec.submit, Ev::Arrival(id)))
            .collect();
        let prof = self.prof.lane(0).begin(SpanKind::QueueOps);
        self.events.push_batch(subs);
        self.prof.lane(0).end(prof);
        if self.config.collect_trace {
            if let Some(q) = self.quantum() {
                self.events.push(SimTime::ZERO + q, Ev::Tick);
            }
        }
        // The fault plan is data: every failure, recovery, and crash is
        // scheduled up front, which is what makes chaos runs reproducible.
        for f in &self.config.faults.cpu_faults {
            self.events.push(f.at, Ev::CpuFail(f.cpu));
            if let Some(r) = f.recover_at {
                self.events.push(r, Ev::CpuRecover(f.cpu));
            }
        }
        for f in &self.config.faults.job_faults {
            self.events.push(f.at, Ev::JobKill(f.job));
        }
    }

    /// Admits a job submitted online: appends it to the queue system and
    /// schedules its arrival at `at`, which must not precede any event
    /// already handled.
    pub(crate) fn submit(&mut self, at: SimTime, app: ApplicationSpec) -> JobId {
        let job = self.qs.push_job(JobSpec::new(at, app));
        self.events.push(at, Ev::Arrival(job));
        job
    }

    /// Refills the reusable snapshot of the running jobs for a policy call.
    fn refresh_views(&mut self) {
        self.host.fill_views(&mut self.views_scratch);
    }

    /// Operational processors right now (total minus injected failures) —
    /// the capacity every policy decision is framed in.
    fn alive_cpus(&self) -> usize {
        if self.is_time_shared() {
            self.placement.alive_cpus()
        } else {
            self.machine.alive_cpus()
        }
    }

    fn free_cpus(&self) -> usize {
        if self.is_time_shared() {
            let total = self.host.total_allocated();
            self.alive_cpus().saturating_sub(total)
        } else {
            self.machine.free_cpus()
        }
    }

    fn record_ml(&mut self) {
        let ml = self.host.len();
        self.max_ml = self.max_ml.max(ml);
        self.ml_series.push((self.clock.as_secs(), ml));
        if self.obs_on {
            // The O(n) allocation sum runs only with a live observer.
            let total_alloc = self.host.total_allocated();
            self.publish(ObsEvent::MplChanged {
                running: ml,
                total_alloc,
            });
        }
    }

    // --- Event publication ---

    /// Publishes to the trace bridge and the external observer. Call sites
    /// guard with `obs_on` (or `trace_on` for CPU events) so disabled runs
    /// never construct events.
    #[inline]
    fn publish(&mut self, ev: ObsEvent) {
        if self.trace_on {
            self.trace_obs.on_event(self.clock, &ev);
        }
        if self.obs_on {
            self.obs.on_event(self.clock, &ev);
        }
    }

    /// Publishes a CPU-occupancy change (the high-volume event class); one
    /// branch and out when neither sink is live.
    #[inline]
    pub(crate) fn publish_cpu(&mut self, cpu: CpuId, job: Option<JobId>) {
        if let SharingModel::Gang(_) = self.sharing {
            // Gang rotation bypasses both the machine model and the quantum
            // placement's migration counter, so occupant churn is counted
            // here, at the single point every occupancy change flows
            // through — with exactly the analyzer's replay rule: a direct
            // occupied → occupied hand-off is one rotation switch.
            let prev = &mut self.gang_prev[cpu.index()];
            if let (Some(old), Some(new)) = (*prev, job) {
                if old != new {
                    self.quantum_rotations += 1;
                }
            }
            *prev = job;
        }
        if self.trace_on || self.obs_on {
            self.publish(ObsEvent::CpuAssigned { cpu, job });
        }
    }

    /// Publishes a finished iteration's measurement.
    pub(crate) fn publish_iteration(
        &mut self,
        job: JobId,
        (procs, iter_secs): (usize, f64),
        sample: Option<pdpa_perf::PerfSample>,
    ) {
        self.publish(ObsEvent::IterationMeasured {
            job,
            procs,
            iter_secs,
            speedup: sample.as_ref().map_or(0.0, |s| s.speedup),
            efficiency: sample.as_ref().map_or(0.0, |s| s.efficiency),
            estimated: sample.is_some(),
        });
    }

    // --- Rates ---

    /// Recomputes a job's progress rate from its current effective
    /// processors. The job must already be advanced to `self.clock`.
    pub(crate) fn recompute_rate(&mut self, job: JobId) {
        let (eff, factor) = match self.sharing {
            SharingModel::SpaceShared => (self.host.store(job).effective_procs(job) as f64, 1.0),
            SharingModel::TimeShared(p) => {
                // Threads compete for operational processors only.
                let cpus = self.placement.alive_cpus();
                let total = self.host.total_effective_procs();
                let eff = effective_procs(self.host.store(job).effective_procs(job), total, cpus);
                let factor = throughput_factor(total, cpus, p.base_overhead, p.overcommit_overhead);
                (eff, factor)
            }
            SharingModel::Gang(p) => {
                // Full coscheduled width for a 1/n duty cycle, minus the
                // whole-machine switch overhead. A degraded machine caps
                // the width at the surviving processors.
                let n = self.host.len().max(1) as f64;
                let cpus = self.placement.alive_cpus();
                let eff = self.host.store(job).effective_procs(job).min(cpus) as f64;
                (eff, (1.0 - p.switch_overhead) / n)
            }
        };
        // The speedup curve goes through the job's memo; the current
        // iteration's sequential time honours working-set changes (§3.1).
        self.host.store_mut(job).set_rate_from(job, eff, factor);
    }

    /// Invalidates the job's pending iteration event and schedules a fresh
    /// one at the current rate.
    pub(crate) fn reschedule(&mut self, job: JobId) {
        self.host.reschedule(job, self.clock, &mut self.events);
    }

    /// Recomputes every running job's rate (time-shared: any membership or
    /// thread-count change shifts every share).
    fn recompute_all_rates(&mut self) {
        // Indexed loop instead of cloning the order: nothing below touches
        // the membership, only per-job rates and the event queue.
        for i in 0..self.host.len() {
            let id = self.host.id_at(i);
            self.host.store_mut(id).advance_to(id, self.clock);
            self.recompute_rate(id);
            self.reschedule(id);
        }
    }

    // --- Decisions ---

    /// One policy activation: snapshot the running jobs, call the policy
    /// (timed on the coordinator lane and in `decision_ns`), and apply
    /// what it decided. Under time sharing, an activation caused by a
    /// membership or capacity change then refreshes every rate; a
    /// report's own changes are refreshed inside `apply_decisions`.
    pub(crate) fn activate(
        &mut self,
        policy: &mut dyn SchedulingPolicy,
        trigger: DecisionTrigger,
        call: impl FnOnce(&mut dyn SchedulingPolicy, &PolicyCtx) -> Decisions,
    ) {
        self.refresh_views();
        let ctx = PolicyCtx {
            now: self.clock,
            total_cpus: self.alive_cpus(),
            free_cpus: self.free_cpus(),
            jobs: &self.views_scratch,
            queued_jobs: self.qs.waiting_count(),
            next_request: self.qs.head().map(|id| self.qs.spec(id).app.request),
        };
        let prof = self.prof.lane(0).begin(SpanKind::PolicyDecision);
        let decisions = {
            let _span = Span::start(Arc::clone(&self.decision_hist));
            call(policy, &ctx)
        };
        self.prof.lane(0).end(prof);
        self.apply_decisions(decisions, trigger);
        if trigger != DecisionTrigger::Report && self.is_time_shared() {
            self.recompute_all_rates();
        }
    }

    /// Applies a policy's allocation decisions. Shrinks run before grows so
    /// released processors are available for reassignment within the same
    /// decision batch.
    fn apply_decisions(&mut self, decisions: Decisions, trigger: DecisionTrigger) {
        if decisions.is_empty() {
            return;
        }
        let Decisions {
            allocations,
            mut transitions,
        } = decisions;
        let mut changes = std::mem::take(&mut self.changes_scratch);
        changes.clear();
        changes.extend(
            allocations
                .into_iter()
                .filter(|(job, _)| self.host.store(*job).contains(*job))
                .map(|(job, target)| {
                    // Cap at the request; a zero target is honored (a job
                    // can be stalled by capacity loss and re-granted later)
                    // rather than rounded up, which would overcommit a full
                    // machine.
                    let req = self.host.store(job).request(job);
                    (job, target.min(req))
                }),
        );
        // Shrinks first.
        changes.sort_by_key(|&(job, target)| {
            let cur = self.host.store(job).allocated(job);
            target > cur
        });
        let mut any_change = false;
        for &(job, target) in &changes {
            let from_alloc = self.host.store(job).allocated(job);
            if self.apply_one(job, target) {
                any_change = true;
                self.decisions_applied += 1;
                if self.obs_on {
                    let to_alloc = self.host.store(job).allocated(job);
                    // Pair the decision with the state move that caused it.
                    let transition = transitions
                        .iter()
                        .position(|n| n.job == job)
                        .map(|i| transitions.remove(i))
                        .map(|n| (n.from, n.to));
                    self.publish(ObsEvent::Decision {
                        trigger,
                        job,
                        from_alloc,
                        to_alloc,
                        transition,
                    });
                }
            }
        }
        if self.obs_on {
            // State moves that kept the allocation still matter (e.g.
            // INC → STABLE at the held width).
            for n in transitions {
                self.publish(ObsEvent::StateChanged {
                    job: n.job,
                    from: n.from,
                    to: n.to,
                });
            }
        }
        self.changes_scratch = changes;
        if any_change && self.is_time_shared() {
            self.recompute_all_rates();
        }
    }

    /// Applies one job's new target allocation. Returns true if anything
    /// changed. If advancing the job to the decision instant crossed its
    /// final boundary, the reschedule makes its completion due at once.
    fn apply_one(&mut self, job: JobId, target: usize) -> bool {
        let now = self.clock;
        match self.sharing {
            SharingModel::SpaceShared => {
                let current = self.machine.allocation(job);
                if current == target {
                    return false;
                }
                // Advance progress at the old rate before the change.
                self.host.store_mut(job).advance_to(job, now);
                let outcome = self.machine.resize(job, target);
                if outcome.is_noop() {
                    return false;
                }
                for cpu in &outcome.gained {
                    self.publish_cpu(*cpu, Some(job));
                }
                for cpu in &outcome.lost {
                    self.publish_cpu(*cpu, None);
                }
                let penalty = self
                    .config
                    .cost
                    .charge(outcome.gained.len(), outcome.lost.len());
                let new_alloc = self.machine.allocation(job);
                let store = self.host.store_mut(job);
                // Initial placement is free; reallocations of a running job
                // cost cache and page-migration time.
                if current > 0 {
                    store.charge(job, penalty);
                }
                let eff_before = store.effective_procs(job);
                store.set_allocated(job, new_alloc);
                if current > 0 && store.effective_procs(job) != eff_before {
                    // The in-flight iteration now mixes two allocations; its
                    // timing must not reach the policy. (Initial placement
                    // starts the first iteration fresh — nothing in flight.)
                    store.set_iter_polluted(job, true);
                }
                if current > 0 && self.obs_on {
                    self.publish(ObsEvent::ReallocCost {
                        job,
                        penalty_secs: penalty.as_secs(),
                        gained: outcome.gained.len(),
                        lost: outcome.lost.len(),
                    });
                }
                self.recompute_rate(job);
                self.reschedule(job);
                true
            }
            SharingModel::TimeShared(_) | SharingModel::Gang(_) => {
                let store = self.host.store_mut(job);
                if store.allocated(job) == target {
                    return false;
                }
                store.advance_to(job, now);
                let was_running = store.allocated(job) > 0;
                store.set_allocated(job, target);
                if was_running {
                    store.set_iter_polluted(job, true);
                }
                // Rates for everyone are refreshed by the caller.
                true
            }
        }
    }

    // --- Admission ---

    /// Picks the job to admit: the FCFS head, or — with backfilling — the
    /// first waiting job the policy accepts.
    fn pick_admissible(&self, policy: &dyn SchedulingPolicy) -> Option<JobId> {
        let candidates: Vec<JobId> = if self.config.backfill {
            self.qs.waiting().collect()
        } else {
            self.qs.head().into_iter().collect()
        };
        candidates.into_iter().find(|&job| {
            policy.may_start_new_job(&PolicyCtx {
                now: self.clock,
                total_cpus: self.alive_cpus(),
                free_cpus: self.free_cpus(),
                jobs: &self.views_scratch,
                queued_jobs: self.qs.waiting_count(),
                next_request: Some(self.qs.spec(job).app.request),
            })
        })
    }

    /// Starts waiting jobs for as long as the policy admits them.
    pub(crate) fn try_admit(&mut self, policy: &mut dyn SchedulingPolicy) {
        loop {
            self.refresh_views();
            let Some(job) = self.pick_admissible(policy) else {
                return;
            };
            assert!(self.qs.start_specific(job), "picked job is waiting");
            if self.obs_on {
                // The queue → start hand-off: queue-wait time is the span
                // from submit (or a retry's backoff expiry) to this event.
                self.publish(ObsEvent::JobDequeued { job });
            }
            let spec = self.qs.spec(job).app.clone();
            let request = spec.request;
            let analyzer = SelfAnalyzer::new(self.config.analyzer);
            // The per-job noise stream is derived, not drawn from the shared
            // rng, so admission order does not perturb other jobs' noise.
            let attempt = self.retries.get(&job).copied().unwrap_or(0);
            let rng = job_noise_rng(self.config.seed, job, attempt);
            self.host.start(job, spec, analyzer, self.clock, rng);
            if self.obs_on {
                self.publish(ObsEvent::JobStarted { job, request });
            }
            self.record_ml();
            self.activate(policy, DecisionTrigger::Arrival, |p, ctx| {
                p.on_job_arrival(ctx, job)
            });
        }
    }

    // --- Completion ---

    /// Records `job`'s completion at the current clock and releases its
    /// processors. The policy is not told here: the caller activates it,
    /// at once (classic) or at the next barrier (sharded).
    pub(crate) fn finish_job(&mut self, job: JobId) {
        let store = self.host.store(job);
        let class = store.class(job);
        let avg_alloc = store.average_allocation(job, self.clock);
        let started_at = store.started_at(job);
        self.completed_allocs.push((class, avg_alloc));
        self.completed_alloc_by_job.insert(job, avg_alloc);
        self.cpu_seconds_used += avg_alloc * self.clock.since(started_at).as_secs();
        self.outcomes.push(JobOutcome {
            job,
            class,
            submit: self.qs.spec(job).submit,
            start: started_at,
            end: self.clock,
        });
        if self.obs_on {
            self.publish(ObsEvent::JobFinished { job });
        }
        self.release(job);
        self.qs.complete(job);
        self.record_ml();
    }

    /// Frees a departing job's processors and removes it from its host,
    /// harvesting its speedup-memo stats and dropping its pending
    /// prediction.
    fn release(&mut self, job: JobId) {
        if self.is_time_shared() {
            for cpu in self.placement.evict(job) {
                self.publish_cpu(cpu, None);
            }
        } else {
            for cpu in self.machine.release(job) {
                self.publish_cpu(cpu, None);
            }
        }
        let memo = self.host.remove(job);
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
        // A retried job reuses its id, and key generations never reset,
        // so the dropped prediction can never be mistaken for a new one.
        self.host.forget(job, &mut self.events);
    }

    // --- Global events ---

    /// Handles a global event: an arrival, a fault-plan element, or a
    /// retry. Iteration ends and placement ticks belong to the classic
    /// strategy.
    pub(crate) fn handle(&mut self, ev: Ev, policy: &mut dyn SchedulingPolicy) {
        match ev {
            Ev::Arrival(job) => {
                self.qs.arrive(job);
                if self.obs_on {
                    self.publish(ObsEvent::JobSubmitted { job });
                }
                self.try_admit(policy);
            }
            Ev::CpuFail(cpu) => self.on_cpu_fail(cpu, policy),
            Ev::CpuRecover(cpu) => self.on_cpu_recover(cpu, policy),
            Ev::JobKill(job) => {
                // You cannot crash what is not there (queued, done, or
                // between retries). The fault is dropped.
                if self.host.store(job).contains(job) {
                    self.kill_job(job, policy, true);
                }
            }
            Ev::JobRetry(job) => {
                self.qs.requeue(job);
                self.try_admit(policy);
            }
            Ev::IterEnd(_) | Ev::Tick => {
                unreachable!("iteration ends and ticks are handled by the classic strategy")
            }
        }
    }

    // --- Faults ---

    /// Publishes the new capacity level and re-drives the policy after a
    /// CPU failure or recovery. `changed` lists the jobs whose allocations
    /// the failure cut.
    fn drive_capacity_change(&mut self, changed: &[JobId], policy: &mut dyn SchedulingPolicy) {
        if self.obs_on {
            self.publish(ObsEvent::DegradedCapacity {
                alive: self.alive_cpus(),
                total: self.config.cpus,
            });
        }
        self.activate(policy, DecisionTrigger::Fault, |p, ctx| {
            p.on_capacity_change(ctx, changed)
        });
    }

    fn on_cpu_fail(&mut self, cpu: CpuId, policy: &mut dyn SchedulingPolicy) {
        let was_alive = if self.is_time_shared() {
            self.placement.is_alive(cpu)
        } else {
            self.machine.is_alive(cpu)
        };
        if !was_alive {
            // Overlapping plan elements: the CPU is already down.
            return;
        }
        self.cpu_failures += 1;
        if self.obs_on {
            self.publish(ObsEvent::CpuFailed { cpu });
        }
        let mut changed = Vec::new();
        if self.is_time_shared() {
            if self.placement.set_alive(cpu, false).is_some() {
                self.publish_cpu(cpu, None);
            }
            // Thread counts are unchanged but every share shrank.
            self.recompute_all_rates();
        } else if let Some(job) = self.machine.fail_cpu(cpu) {
            self.publish_cpu(cpu, None);
            let now = self.clock;
            let new_alloc = self.machine.allocation(job);
            let store = self.host.store_mut(job);
            // Bank progress at the old rate before the revocation.
            store.advance_to(job, now);
            let eff_before = store.effective_procs(job);
            store.set_allocated(job, new_alloc);
            if store.effective_procs(job) != eff_before {
                store.set_iter_polluted(job, true);
            }
            changed.push(job);
            self.recompute_rate(job);
            self.reschedule(job);
        }
        self.drive_capacity_change(&changed, policy);
    }

    fn on_cpu_recover(&mut self, cpu: CpuId, policy: &mut dyn SchedulingPolicy) {
        let was_dead = if self.is_time_shared() {
            let dead = !self.placement.is_alive(cpu);
            if dead {
                self.placement.set_alive(cpu, true);
                self.recompute_all_rates();
            }
            dead
        } else {
            self.machine.recover_cpu(cpu)
        };
        if !was_dead {
            return;
        }
        if self.obs_on {
            self.publish(ObsEvent::CpuRecovered { cpu });
        }
        self.drive_capacity_change(&[], policy);
        // Restored supply may unblock admission.
        self.try_admit(policy);
    }

    /// Tears down a running job: releases its processors, removes it from
    /// its host, and either schedules a retry (fault-plan crashes, when
    /// the budget allows) or fails it terminally. `allow_retry` is false
    /// for explicit cancellation — a cancelled job never comes back.
    fn kill_job(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy, allow_retry: bool) {
        let attempt = self.retries.get(&job).copied().unwrap_or(0) + 1;
        // Free the crashed job's resources — like a completion, but with no
        // outcome record: a retried job restarts from scratch.
        self.host.store_mut(job).advance_to(job, self.clock);
        self.release(job);
        self.record_ml();

        let retry = self.config.faults.retry;
        if allow_retry && retry.is_some_and(|r| attempt <= r.max_retries) {
            let backoff = retry.expect("checked").backoff_for(attempt);
            self.retries.insert(job, attempt);
            self.job_retries += 1;
            if self.obs_on {
                self.publish(ObsEvent::JobRetried {
                    job,
                    attempt,
                    backoff_secs: backoff.as_secs(),
                });
            }
            self.events.push(self.clock + backoff, Ev::JobRetry(job));
        } else {
            self.fail_terminal(job, attempt);
        }

        // The job departed: let the policy redistribute, then refill the
        // multiprogramming slot it vacated.
        self.activate(policy, DecisionTrigger::Fault, |p, ctx| {
            p.on_job_completion(ctx, job)
        });
        self.try_admit(policy);
    }

    fn fail_terminal(&mut self, job: JobId, attempts: u32) {
        self.jobs_failed += 1;
        if self.obs_on {
            self.publish(ObsEvent::JobFailed { job, attempts });
        }
        self.qs.fail_terminal(job);
    }

    /// Cancels `job` at the current clock: a still-queued job is removed
    /// and failed terminally; a running job is killed with retries
    /// forbidden.
    pub(crate) fn cancel(
        &mut self,
        job: JobId,
        policy: &mut dyn SchedulingPolicy,
    ) -> CancelOutcome {
        if job.index() >= self.qs.total_jobs() {
            return CancelOutcome::NotFound;
        }
        if self.qs.remove_waiting(job) {
            self.fail_terminal(job, 0);
            // Removing the queue head can unblock the job behind it.
            self.try_admit(policy);
            CancelOutcome::Queued
        } else if self.host.store(job).contains(job) {
            self.kill_job(job, policy, false);
            CancelOutcome::Running
        } else {
            CancelOutcome::NotFound
        }
    }

    // --- Result ---

    pub(crate) fn into_result(mut self, policy_name: &str) -> RunResult {
        let completed_all = self.qs.all_done();
        // Memo stats of jobs still running at the simulation bound.
        let leftover = self.host.remaining_memo_stats();
        self.memo_hits += leftover.hits;
        self.memo_misses += leftover.misses;
        // Average allocation per class.
        let mut sums: HashMap<AppClass, (f64, usize)> = HashMap::new();
        for (class, avg) in &self.completed_allocs {
            let e = sums.entry(*class).or_insert((0.0, 0));
            e.0 += avg;
            e.1 += 1;
        }
        let avg_alloc_by_class = sums
            .into_iter()
            .map(|(c, (sum, n))| (c, sum / n as f64))
            .collect();
        let end = self.clock;
        let shards = self.host.shard_queue_stats();
        let mut totals = self.events.stats();
        for s in &shards {
            totals.pushed += s.pushed;
            totals.popped += s.popped;
            totals.stale_drops += s.stale_drops;
        }
        pdpa_obs::metrics::record_engine_run(&RunCounters {
            events_pushed: totals.pushed,
            events_popped: totals.popped,
            events_stale_dropped: totals.stale_drops,
            decisions: self.decisions_applied,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
        });
        RunResult {
            policy: policy_name.to_string(),
            summary: Summary::new(self.outcomes),
            trace: if self.config.collect_trace {
                Some(self.trace_obs.into_trace(end))
            } else {
                None
            },
            machine_stats: self.machine.stats(),
            timeshare_migrations: self.placement.migrations,
            quantum_rotations: self.quantum_rotations,
            ml_series: self.ml_series,
            max_ml: self.max_ml,
            avg_alloc_by_class,
            avg_alloc_by_job: self.completed_alloc_by_job,
            completed_all,
            end_secs: end.as_secs(),
            cpu_seconds_used: self.cpu_seconds_used,
            total_cpus: self.config.cpus,
            events_pushed: totals.pushed,
            events_popped: totals.popped,
            events_stale_dropped: totals.stale_drops,
            decisions_applied: self.decisions_applied,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
            cpu_failures: self.cpu_failures,
            job_retries: self.job_retries,
            jobs_failed: self.jobs_failed,
            watchdog: None,
            shard_events_popped: shards.iter().map(|s| s.popped).collect(),
            profile: self.prof.finish(),
        }
    }
}
