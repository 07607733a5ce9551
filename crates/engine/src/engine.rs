//! The classic engine: one event queue, policy reactions at the instant
//! each event fires.

use pdpa_obs::{DecisionTrigger, NullObserver, Observer};
use pdpa_policies::{SchedulingPolicy, SharingModel};
use pdpa_prof::{HealthSnapshot, SpanKind};
use pdpa_qs::JobSpec;
use pdpa_sim::{CpuId, JobId};

use crate::config::EngineConfig;
use crate::coordinator::{Coordinator, Ev, ObsSink};
use crate::instrument::{Instrumentation, Monitor};
use crate::result::RunResult;
use crate::store::JobStore;

/// Executes workloads under a [`SchedulingPolicy`].
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: EngineConfig) -> Self {
        config.validate().expect("invalid engine configuration");
        Engine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs `jobs` to completion under `policy` and returns the measured
    /// result. Deterministic for a given configuration seed.
    pub fn run(&self, jobs: Vec<JobSpec>, policy: Box<dyn SchedulingPolicy>) -> RunResult {
        self.run_observed(jobs, policy, &mut NullObserver)
    }

    /// Like [`run`](Engine::run), but publishes every decision event to
    /// `observer`. With a disabled observer (`is_enabled()` false) the
    /// extra cost is one dead branch per publish site — events are not even
    /// constructed.
    pub fn run_observed(
        &self,
        jobs: Vec<JobSpec>,
        policy: Box<dyn SchedulingPolicy>,
        observer: &mut dyn Observer,
    ) -> RunResult {
        self.run_instrumented(jobs, policy, observer, Instrumentation::none())
    }

    /// Like [`run_observed`](Engine::run_observed), with optional runtime
    /// instrumentation: span profiling (`RunResult::profile`), a
    /// zero-progress watchdog that aborts a livelocked run with a
    /// diagnostic (`RunResult::watchdog`), and periodic heartbeat lines on
    /// stderr. With [`Instrumentation::none`] every touch point is a dead
    /// branch — the event stream is bit-identical either way.
    pub fn run_instrumented(
        &self,
        jobs: Vec<JobSpec>,
        mut policy: Box<dyn SchedulingPolicy>,
        observer: &mut dyn Observer,
        instr: Instrumentation,
    ) -> RunResult {
        let mut monitor = Monitor::new(&instr);
        let mut sim = Coordinator::new(
            &self.config,
            jobs,
            policy.sharing(),
            ObsSink::Borrowed(observer),
            instr.profiler(1),
            JobStore::new(),
        );
        sim.schedule_events();
        let replay = sim.prof.lane(0).begin(SpanKind::Replay);
        let mut steps: u64 = 0;
        // Stale iteration events (their job rescheduled, completed, or
        // crashed) are invalidated by key and discarded inside the queue,
        // so handlers only ever see live events.
        while let Some((t, ev)) = sim.events.pop() {
            if t.as_secs() > self.config.max_sim_secs {
                break;
            }
            sim.clock = t;
            steps += 1;
            let stalled = monitor.stalled(t.as_secs(), || {
                format!(
                    "classic engine: running={}, waiting={}, qlen={}, stale_drops={}",
                    sim.host.len(),
                    sim.qs.waiting_count(),
                    sim.events.len(),
                    sim.events.stale_drops(),
                )
            });
            if stalled {
                break;
            }
            // Amortized: snapshot building, the heartbeat due-check, and
            // the live-tap refresh all run every 64k events.
            if steps & 0xFFFF == 0 && monitor.is_active() {
                monitor.report(true, || sim.health_snapshot());
            }
            sim.dispatch(ev, policy.as_mut());
        }
        sim.prof.lane(0).add_events(steps);
        sim.prof.lane(0).end(replay);
        monitor.finish(|| sim.health_snapshot());
        let mut result = sim.into_result(policy.name());
        result.watchdog = monitor.diagnostic;
        result
    }
}

/// The classic strategy's own events: iteration ends react at once, with
/// timing noise from the coordinator's shared stream, and time-shared
/// runs rotate their placement every quantum.
impl Coordinator<'_, JobStore> {
    /// Routes one popped event to its handler.
    pub(crate) fn dispatch(&mut self, ev: Ev, policy: &mut dyn SchedulingPolicy) {
        match ev {
            Ev::IterEnd(job) => self.on_iter_end(job, policy),
            Ev::Tick => self.on_tick(),
            ev => self.handle(ev, policy),
        }
    }

    /// The health picture fed to heartbeats and live taps.
    pub(crate) fn health_snapshot(&self) -> HealthSnapshot {
        let stats = self.events.stats();
        HealthSnapshot {
            sim_clock_secs: self.clock.as_secs(),
            events_popped: stats.popped,
            queue_len: stats.len,
            running: self.host.len(),
            waiting: self.qs.waiting_count(),
            shard_events: Vec::new(),
        }
    }

    fn on_iter_end(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        // Stale events (completed job, bumped generation) never reach here:
        // the queue discards invalidated keys inside `pop`.
        let end = self.host.end_iteration(
            job,
            self.clock,
            &self.noise,
            Some(&mut self.rng),
            self.config.reset_analyzer_on_phase_change,
        );
        if self.obs_on {
            if let Some(measured) = end.measured {
                self.publish_iteration(job, measured, end.sample);
            }
        }
        if self.host.is_complete(job) {
            self.finish_job(job);
            self.activate(policy, DecisionTrigger::Completion, |p, ctx| {
                p.on_job_completion(ctx, job)
            });
            self.try_admit(policy);
            return;
        }
        if end.crossed == 0 {
            // Numerical corner: the boundary was not quite reached. Refresh
            // the schedule and move on.
            self.reschedule(job);
            return;
        }
        if let Some(s) = end.sample {
            self.activate(policy, DecisionTrigger::Report, |p, ctx| {
                p.on_performance_report(ctx, job, s)
            });
            // A report can settle the system and unblock admission (PDPA's
            // coordination path).
            self.try_admit(policy);
        }
        if self.host.contains(job) {
            // The analyzer phase may have flipped (baseline → measuring), so
            // refresh the rate either way.
            self.recompute_rate(job);
            self.reschedule(job);
        }
    }

    fn on_tick(&mut self) {
        match self.sharing {
            SharingModel::SpaceShared => return,
            SharingModel::TimeShared(p) => {
                let store = &self.host;
                let jobs: Vec<(JobId, usize)> = store
                    .ids_in_order()
                    .map(|id| (id, store.allocated(id)))
                    .collect();
                let changes = self.placement.advance(&jobs, p.affinity, &mut self.rng);
                for (cpu, occupant) in changes {
                    self.publish_cpu(cpu, occupant);
                }
            }
            SharingModel::Gang(_) => {
                // Rotate the matrix: the next gang owns the machine for this
                // slot; everything beyond its width idles. Dead processors
                // never host a gang member.
                if !self.host.is_empty() {
                    self.gang_slot = (self.gang_slot + 1) % self.host.len();
                    let job = self.host.id_at(self.gang_slot);
                    let width = self.host.allocated(job).min(self.placement.alive_cpus());
                    let mut granted = 0;
                    for c in 0..self.config.cpus {
                        let cpu = CpuId(c as u16);
                        let occupant = if self.placement.is_alive(cpu) && granted < width {
                            granted += 1;
                            Some(job)
                        } else {
                            None
                        };
                        self.publish_cpu(cpu, occupant);
                    }
                }
            }
        }
        // Keep ticking while work remains.
        if !self.qs.all_done() {
            let q = self.quantum().expect("ticks only under a quantum model");
            self.events.push(self.clock + q, Ev::Tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a, hydro2d};
    use pdpa_apps::AppClass;
    use pdpa_core::Pdpa;
    use pdpa_obs::ObsEvent;
    use pdpa_policies::Equipartition;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;
    use pdpa_sim::SimTime;

    fn quiet_config() -> EngineConfig {
        EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            ..EngineConfig::default()
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_job_completes_in_ideal_time_under_equip() {
        // One bt.A alone on the machine under Equipartition: it gets its
        // full request immediately and runs at the ideal rate, except for
        // the baseline iterations, which run at 2 processors.
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        let s = r.summary.class_averages(AppClass::BtA).unwrap();
        let spec = bt_a();
        // Ideal: all but the baseline iterations at S(30), the baseline
        // iterations at S(2).
        let baseline = 2.0;
        let ideal = spec.iter_time(30).unwrap().as_secs() * (spec.iterations as f64 - baseline)
            + spec.iter_time(2).unwrap().as_secs() * baseline;
        let got = s.avg_execution_secs;
        assert!(
            (got - ideal).abs() / ideal < 0.01,
            "got {got}, ideal {ideal}"
        );
    }

    #[test]
    fn two_jobs_split_under_equipartition() {
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let mut cfg = quiet_config();
        cfg.cpus = 40; // force contention: 2 × 30 > 40
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        let avg = r.avg_alloc_by_class[&AppClass::BtA];
        assert!(
            (avg - 20.0).abs() < 1.5,
            "each job should average ≈ 20 processors, got {avg}"
        );
    }

    #[test]
    fn pdpa_shrinks_hydro2d_to_its_knee() {
        let jobs = vec![JobSpec::new(t(0.0), hydro2d())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        let avg = r.avg_alloc_by_class[&AppClass::Hydro2d];
        // Starts at 30 (NO_REF), walks down to ≈ 10 and stays: the average
        // must land well below 30 and near the knee.
        assert!(avg < 20.0, "hydro2d average allocation {avg}");
    }

    #[test]
    fn pdpa_keeps_apsi_at_two() {
        let jobs = vec![JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        let avg = r.avg_alloc_by_class[&AppClass::Apsi];
        assert!((avg - 2.0).abs() < 0.2, "apsi stays at its request: {avg}");
    }

    #[test]
    fn response_time_includes_queue_wait() {
        // Five bt jobs, ML 1: strictly sequential.
        let jobs: Vec<JobSpec> = (0..3).map(|_| JobSpec::new(t(0.0), bt_a())).collect();
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Equipartition::new(1)));
        assert!(r.completed_all);
        let s = r.summary.class_averages(AppClass::BtA).unwrap();
        assert!(
            s.avg_response_secs > s.avg_execution_secs + 10.0,
            "queued jobs wait: response {} vs exec {}",
            s.avg_response_secs,
            s.avg_execution_secs
        );
        assert_eq!(r.max_ml, 1);
    }

    #[test]
    fn determinism() {
        let make = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(5.0), hydro2d()),
                JobSpec::new(t(9.0), apsi()),
            ]
        };
        let cfg = EngineConfig {
            seed: 1234,
            ..EngineConfig::default()
        };
        let a = Engine::new(cfg.clone()).run(make(), Box::new(Pdpa::paper_default()));
        let b = Engine::new(cfg).run(make(), Box::new(Pdpa::paper_default()));
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.max_ml, b.max_ml);
        let ra: Vec<f64> = a
            .summary
            .outcomes()
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        let rb: Vec<f64> = b
            .summary
            .outcomes()
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn trace_collection_records_bursts() {
        let jobs = vec![JobSpec::new(t(0.0), apsi())];
        let cfg = quiet_config().with_trace();
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        let trace = r.trace.expect("trace enabled");
        assert!(!trace.records.is_empty());
        // apsi requests 2 processors: exactly 2 CPUs saw work.
        let busy_cpus: std::collections::HashSet<u16> =
            trace.records.iter().map(|rec| rec.cpu.0).collect();
        assert_eq!(busy_cpus.len(), 2);
    }

    #[test]
    fn machine_invariants_hold_throughout() {
        // A mixed workload under PDPA with reallocation churn; afterwards
        // the machine must be fully free.
        let jobs = vec![
            JobSpec::new(t(0.0), bt_a()),
            JobSpec::new(t(1.0), hydro2d()),
            JobSpec::new(t(2.0), apsi()),
            JobSpec::new(t(3.0), hydro2d()),
        ];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        assert_eq!(r.summary.jobs(), 4);
    }

    #[test]
    fn recording_observer_sees_the_job_lifecycle() {
        use pdpa_obs::RecordingObserver;
        let jobs = vec![JobSpec::new(t(0.0), hydro2d())];
        let mut rec = RecordingObserver::new();
        let r = Engine::new(quiet_config()).run_observed(
            jobs,
            Box::new(Pdpa::paper_default()),
            &mut rec,
        );
        assert!(r.completed_all);
        let events = rec.take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        // The lifecycle backbone, in order.
        let submit = kinds.iter().position(|&k| k == "submit").unwrap();
        let start = kinds.iter().position(|&k| k == "start").unwrap();
        let finish = kinds.iter().position(|&k| k == "finish").unwrap();
        assert!(submit < start && start < finish);
        // PDPA shrinks hydro2d: decisions with transitions are on the bus.
        assert!(events.iter().any(|e| matches!(
            e.event,
            ObsEvent::Decision {
                transition: Some(_),
                ..
            }
        )));
        assert!(kinds.contains(&"iter"));
        assert!(kinds.contains(&"mpl"));
        // Sequence numbers are strictly increasing (per-run monotonic).
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        // Engine counters made it into the result.
        assert!(r.decisions_applied > 0);
        assert!(r.memo_misses > 0);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        use pdpa_obs::RecordingObserver;
        let make = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(2.0), hydro2d()),
            ]
        };
        let a = Engine::new(quiet_config()).run(make(), Box::new(Pdpa::paper_default()));
        let mut rec = RecordingObserver::new();
        let b = Engine::new(quiet_config()).run_observed(
            make(),
            Box::new(Pdpa::paper_default()),
            &mut rec,
        );
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.decisions_applied, b.decisions_applied);
        assert_eq!(a.events_popped, b.events_popped);
        assert_eq!(a.events_stale_dropped, b.events_stale_dropped);
        assert!(!rec.events().is_empty());
    }

    #[test]
    fn ml_series_tracks_admissions() {
        let jobs = vec![JobSpec::new(t(0.0), apsi()), JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        assert_eq!(r.peak_ml(), 2);
        // The series starts at 0 and returns to 0.
        assert_eq!(r.ml_series.first().unwrap().1, 0);
        assert_eq!(r.ml_series.last().unwrap().1, 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a, hydro2d};
    use pdpa_core::Pdpa;
    use pdpa_faults::{FaultPlan, RetryPolicy};
    use pdpa_policies::Equipartition;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;
    use pdpa_sim::SimTime;

    fn quiet() -> EngineConfig {
        EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            ..EngineConfig::default()
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn permanent_cpu_failure_shrinks_the_run() {
        // bt.A holds all 30 of its processors; losing 10 of the machine's 60
        // mid-run must not panic, and the run still drains.
        let mut plan = FaultPlan::none();
        for c in 0..10 {
            plan = plan.fail_cpu_at(CpuId(c), 50.0);
        }
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let mut cfg = quiet().with_faults(plan);
        cfg.cpus = 40; // 2 × 30 > 40: contention plus capacity loss
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 10);
    }

    #[test]
    fn failure_revokes_the_owners_cpu_and_policy_rebalances() {
        // One bt.A on a small machine: every CPU is owned, so the failure
        // dislodges the job. Equipartition's capacity hook re-deals over the
        // survivors and the job finishes on 7 processors.
        let plan = FaultPlan::none().fail_cpu_at(CpuId(3), 100.0);
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let cfg = quiet().with_cpus(8).with_faults(plan);
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 1);
    }

    #[test]
    fn recovery_restores_capacity() {
        let plan = FaultPlan::none().fail_cpu_between(CpuId(0), 50.0, 200.0);
        let jobs = vec![JobSpec::new(t(0.0), hydro2d())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 1);
    }

    #[test]
    fn job_crash_without_retry_is_terminal() {
        let plan = FaultPlan::none().fail_job_at(JobId(0), 100.0);
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        // The workload drains: the crashed job counts as done (failed).
        assert!(r.completed_all);
        assert_eq!(r.jobs_failed, 1);
        assert_eq!(r.job_retries, 0);
        assert_eq!(r.summary.jobs(), 1, "only the survivor has an outcome");
    }

    #[test]
    fn job_crash_with_retry_restarts_and_completes() {
        let plan = FaultPlan::none()
            .fail_job_at(JobId(0), 100.0)
            .with_retry(RetryPolicy::default());
        let jobs = vec![JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        assert_eq!(r.job_retries, 1);
        assert_eq!(r.jobs_failed, 0);
        assert_eq!(r.summary.jobs(), 1, "the retried job completed");
        // The restart threw away 100 s of progress plus 30 s of backoff.
        assert!(r.end_secs > 130.0, "end at {:.0}s", r.end_secs);
    }

    #[test]
    fn repeated_crashes_exhaust_retries() {
        // Crash job 0 on every attempt: first run at 100 s, the two retries
        // at later instants (backoff 30 s then 60 s — crash right after each
        // restart). After max_retries = 2, the third crash is terminal.
        let plan = FaultPlan::none()
            .fail_job_at(JobId(0), 100.0)
            .fail_job_at(JobId(0), 140.0)
            .fail_job_at(JobId(0), 210.0)
            .with_retry(RetryPolicy::default());
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all, "terminal failure still drains the run");
        assert_eq!(r.job_retries, 2);
        assert_eq!(r.jobs_failed, 1);
        assert_eq!(r.summary.jobs(), 0);
    }

    #[test]
    fn crashing_a_queued_job_is_a_noop() {
        // Job 1 waits behind an ML-1 policy when the fault fires: nothing to
        // kill, the fault is dropped, and the job later runs to completion.
        let plan = FaultPlan::none().fail_job_at(JobId(1), 10.0);
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Equipartition::new(1)));
        assert!(r.completed_all);
        assert_eq!(r.jobs_failed, 0);
        assert_eq!(r.summary.jobs(), 2);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use pdpa_obs::RecordingObserver;
        let make = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(5.0), hydro2d()),
                JobSpec::new(t(9.0), apsi()),
            ]
        };
        let plan = FaultPlan::none()
            .fail_cpu_between(CpuId(2), 60.0, 300.0)
            .fail_cpu_at(CpuId(40), 120.0)
            .fail_job_at(JobId(0), 70.0) // bt.A: long-running, still alive
            .with_retry(RetryPolicy::default());
        let cfg = quiet().with_faults(plan);
        let mut rec_a = RecordingObserver::new();
        let a = Engine::new(cfg.clone()).run_observed(
            make(),
            Box::new(Pdpa::paper_default()),
            &mut rec_a,
        );
        let mut rec_b = RecordingObserver::new();
        let b = Engine::new(cfg).run_observed(make(), Box::new(Pdpa::paper_default()), &mut rec_b);
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.cpu_failures, b.cpu_failures);
        let lines_a: Vec<String> = rec_a.take_events().iter().map(|e| e.to_line()).collect();
        let lines_b: Vec<String> = rec_b.take_events().iter().map(|e| e.to_line()).collect();
        assert_eq!(lines_a, lines_b, "identical seeds, identical streams");
        let kinds: std::collections::HashSet<&str> = Vec::leak(lines_a)
            .iter()
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        assert!(kinds.contains("cpu_failed"));
        assert!(kinds.contains("cpu_recovered"));
        assert!(kinds.contains("degraded"));
        assert!(kinds.contains("retry"));
    }

    #[test]
    fn time_shared_capacity_loss_slows_but_completes() {
        use pdpa_policies::IrixLike;
        let mut plan = FaultPlan::none();
        for c in 0..20 {
            plan = plan.fail_cpu_at(CpuId(c), 100.0);
        }
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let degraded = Engine::new(quiet().with_faults(plan))
            .run(jobs.clone(), Box::new(IrixLike::paper_default()));
        let healthy = Engine::new(quiet()).run(
            vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())],
            Box::new(IrixLike::paper_default()),
        );
        assert!(degraded.completed_all);
        assert!(
            degraded.end_secs > healthy.end_secs,
            "40 CPUs for 60 threads is slower than 60: {:.0} vs {:.0}",
            degraded.end_secs,
            healthy.end_secs
        );
    }

    #[test]
    fn gang_capacity_loss_slows_but_completes() {
        use pdpa_policies::GangScheduler;
        let mut plan = FaultPlan::none();
        for c in 0..30 {
            plan = plan.fail_cpu_at(CpuId(c), 50.0);
        }
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet().with_faults(plan))
            .run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 30);
    }

    #[test]
    fn every_policy_survives_a_chaos_plan() {
        use pdpa_policies::{GangScheduler, IrixLike, RigidFirstFit};
        let plan = || {
            FaultPlan::none()
                .fail_cpu_at(CpuId(0), 40.0)
                .fail_cpu_between(CpuId(10), 80.0, 400.0)
                .fail_job_at(JobId(0), 120.0)
                .with_retry(RetryPolicy::default())
        };
        let jobs = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(3.0), hydro2d()),
                JobSpec::new(t(6.0), apsi()),
            ]
        };
        let policies: Vec<Box<dyn SchedulingPolicy>> = vec![
            Box::new(Pdpa::paper_default()),
            Box::new(Equipartition::default()),
            Box::new(pdpa_policies::EqualEfficiency::paper_default()),
            Box::new(IrixLike::paper_default()),
            Box::new(GangScheduler::paper_comparable()),
            Box::new(RigidFirstFit::new(8)),
        ];
        for policy in policies {
            let name = policy.name();
            let cfg = quiet().with_faults(plan());
            let r = Engine::new(cfg).run(jobs(), policy);
            assert!(r.completed_all, "{name} drains under chaos");
            assert_eq!(r.cpu_failures, 2, "{name}");
        }
    }
}

#[cfg(test)]
mod phase_change_tests {
    use super::*;
    use pdpa_apps::{AppClass, ApplicationSpec, PiecewiseLinear};
    use pdpa_core::Pdpa;
    use pdpa_sim::SimTime;
    use pdpa_sim::{CostModel, SimDuration};
    use std::sync::Arc;

    /// An application with a clean efficiency knee at 12 processors whose
    /// iterations become 2.5× heavier halfway through the run.
    fn phased_app() -> ApplicationSpec {
        let curve =
            PiecewiseLinear::new(vec![(4, 3.8), (8, 7.2), (12, 9.5), (16, 10.5), (30, 11.0)]);
        ApplicationSpec::new(
            AppClass::Hydro2d,
            60,
            SimDuration::from_secs(4.0),
            30,
            Arc::new(curve),
            0.0,
        )
        .with_phase_change(30, 2.5)
    }

    fn run(reset: bool) -> crate::result::RunResult {
        let config = EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            reset_analyzer_on_phase_change: reset,
            ..EngineConfig::default()
        };
        let jobs = vec![pdpa_qs::JobSpec::new(SimTime::ZERO, phased_app())];
        Engine::new(config).run(jobs, Box::new(Pdpa::paper_default()))
    }

    #[test]
    fn analyzer_reset_preserves_the_allocation_across_a_phase_change() {
        // With the reset, the analyzer re-baselines in the heavy phase and
        // keeps estimating correctly: the allocation stays near the knee.
        let with_reset = run(true);
        assert!(with_reset.completed_all);
        let alloc = with_reset.avg_alloc_by_class[&AppClass::Hydro2d];
        assert!(
            alloc > 8.0,
            "allocation should stay near the 12-processor knee, got {alloc:.1}"
        );
    }

    #[test]
    fn stale_baseline_misleads_pdpa_without_the_reset() {
        // Without the reset, the heavy phase looks like a 2.5× slowdown to
        // the stale baseline: estimated speedups collapse and PDPA shrinks
        // the application far below its true knee — the §3.1 failure mode.
        let without = run(false);
        assert!(without.completed_all);
        let with_reset = run(true);
        let a_without = without.avg_alloc_by_class[&AppClass::Hydro2d];
        let a_with = with_reset.avg_alloc_by_class[&AppClass::Hydro2d];
        assert!(
            a_without < a_with,
            "stale baseline should cost processors: {a_without:.1} vs {a_with:.1}"
        );
        // And the misallocation costs real time.
        assert!(without.end_secs > with_reset.end_secs);
    }
}

#[cfg(test)]
mod gang_tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};
    use pdpa_policies::GangScheduler;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;
    use pdpa_sim::SimTime;

    fn quiet() -> EngineConfig {
        EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn lone_gang_runs_at_nearly_full_speed() {
        let jobs = vec![JobSpec::new(SimTime::ZERO, bt_a())];
        let r = Engine::new(quiet()).run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        let spec = bt_a();
        let ideal = spec.iter_time(30).unwrap().as_secs() * (spec.iterations as f64 - 2.0)
            + spec.iter_time(2).unwrap().as_secs() * 2.0;
        let got = r.summary.outcomes()[0].execution_time().as_secs();
        // One gang: only the 5 % switch overhead on top of the ideal.
        let expected = ideal / 0.95;
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got:.1}s, expected {expected:.1}s"
        );
    }

    #[test]
    fn two_gangs_halve_the_duty_cycle() {
        let jobs = vec![
            JobSpec::new(SimTime::ZERO, apsi()),
            JobSpec::new(SimTime::ZERO, apsi()),
        ];
        let r = Engine::new(quiet()).run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        // Each job runs half the time: execution roughly doubles vs a lone
        // run (apsi at its 2-processor width).
        let spec = apsi();
        let lone = spec.iter_time(2).unwrap().as_secs() * spec.iterations as f64;
        for o in r.summary.outcomes() {
            let got = o.execution_time().as_secs();
            let expected = lone * 2.0 / 0.95;
            assert!(
                (got - expected).abs() / expected < 0.1,
                "got {got:.1}s, expected ≈{expected:.1}s"
            );
        }
    }

    #[test]
    fn gang_trace_shows_whole_machine_rotation() {
        let jobs = vec![
            JobSpec::new(SimTime::ZERO, bt_a()),
            JobSpec::new(SimTime::ZERO, bt_a()),
        ];
        let config = quiet().with_trace();
        let r = Engine::new(config).run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        let trace = r.trace.expect("traced");
        // Rotation at the 2 s quantum: bursts are short and plentiful, and
        // both jobs appear on cpu0 over time.
        let jobs_on_cpu0: std::collections::HashSet<u32> = trace
            .records
            .iter()
            .filter(|rec| rec.cpu.0 == 0)
            .map(|rec| rec.job.0)
            .collect();
        assert_eq!(jobs_on_cpu0.len(), 2, "both gangs rotate through cpu0");
        let avg_burst: f64 = trace.records.iter().map(|r| r.duration_secs()).sum::<f64>()
            / trace.records.len() as f64;
        assert!(
            avg_burst < 10.0,
            "gang bursts are quantum-scale, got {avg_burst:.1}s"
        );
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};
    use pdpa_apps::AppClass;
    use pdpa_policies::RigidFirstFit;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;
    use pdpa_sim::SimTime;

    fn quiet() -> EngineConfig {
        // A 40-CPU machine: one 30-processor bt leaves 10 free, so the
        // second bt cannot start and blocks the queue.
        let mut c = EngineConfig::default().with_cpus(40);
        c.noise_sigma = 0.0;
        c.cost = CostModel::free();
        c
    }

    /// One 30-processor bt runs; a second bt (30) waits; a 2-processor apsi
    /// sits behind it. Strict FCFS strands 10 processors until the first bt
    /// finishes; backfilling slips the apsi through immediately.
    fn blocked_queue() -> Vec<JobSpec> {
        vec![
            JobSpec::new(SimTime::ZERO, bt_a()),
            JobSpec::new(SimTime::from_secs(1.0), bt_a()),
            JobSpec::new(SimTime::from_secs(2.0), apsi()),
        ]
    }

    #[test]
    fn strict_fcfs_blocks_the_small_job() {
        let r = Engine::new(quiet()).run(blocked_queue(), Box::new(RigidFirstFit::new(8)));
        assert!(r.completed_all);
        let apsi_outcome = r
            .summary
            .outcomes()
            .iter()
            .find(|o| o.class == AppClass::Apsi)
            .unwrap();
        // apsi waits behind the second bt, which waits for the first.
        assert!(
            apsi_outcome.wait_time().as_secs() > 50.0,
            "apsi waited only {:.1}s",
            apsi_outcome.wait_time().as_secs()
        );
    }

    #[test]
    fn backfilling_slips_the_small_job_through() {
        let config = quiet().with_backfill();
        let r = Engine::new(config).run(blocked_queue(), Box::new(RigidFirstFit::new(8)));
        assert!(r.completed_all);
        let apsi_outcome = r
            .summary
            .outcomes()
            .iter()
            .find(|o| o.class == AppClass::Apsi)
            .unwrap();
        assert!(
            apsi_outcome.wait_time().as_secs() < 5.0,
            "apsi backfilled, waited {:.1}s",
            apsi_outcome.wait_time().as_secs()
        );
        // The bypassed bt is not starved: it still completes.
        let bts = r
            .summary
            .outcomes()
            .iter()
            .filter(|o| o.class == AppClass::BtA)
            .count();
        assert_eq!(bts, 2);
    }

    #[test]
    fn backfill_is_a_noop_for_malleable_policies() {
        // Dynamic space sharing starts the head on whatever is free, so the
        // scan never reaches past it; results match strict FCFS.
        use pdpa_core::Pdpa;
        let a = Engine::new(quiet()).run(blocked_queue(), Box::new(Pdpa::paper_default()));
        let b = Engine::new(quiet().with_backfill())
            .run(blocked_queue(), Box::new(Pdpa::paper_default()));
        assert_eq!(a.end_secs, b.end_secs);
    }
}
