//! Epoch-parallel sharded execution of space-shared runs.
//!
//! The classic engine ([`crate::engine`]) interleaves every event through
//! one queue and activates the policy the instant each iteration ends.
//! That is faithful to the paper's NANOS resource manager but strictly
//! sequential: every event depends on the one before it.
//!
//! The sharded engine trades *immediacy* for *parallelism* while keeping
//! the result **independent of the shard count**. It drives the same
//! coordinator as the classic engine (`coordinator.rs`); only where jobs
//! live and how time advances differ. Jobs are partitioned over `N` shards by id; each
//! shard owns its jobs' SoA [`JobStore`] and iteration-end queue.
//! Simulation advances in rounds to a barrier time
//!
//! ```text
//! B = min( next global event,  max(clock + epoch, next iteration end) )
//! ```
//!
//! where both minima are taken over *live* queue heads: stale
//! (invalidated) predictions are discarded before they can shorten a
//! round, because which of them are still buried depends on how jobs are
//! split across shards. Within a round every shard advances its own jobs
//! to `B` in parallel — valid under space sharing because a job's
//! progress rate depends only on its own allocation, which policies can
//! change only at barriers. Measurements and completions are buffered as
//! *items*, merged at the barrier in deterministic `(time, job)` order,
//! and replayed in two passes: pass A publishes measurements/completions
//! at their true times; pass B (at `B`) feeds samples to the policy,
//! applies decisions, and admits jobs. Global events — arrivals, faults,
//! retries — are handled exactly at their timestamps because `B` never
//! jumps past one.
//!
//! Two semantic deltas from the classic engine, both shard-count
//! invariant:
//!
//! - policy activations are batched at barriers instead of firing
//!   mid-epoch (decisions land at most one epoch late);
//! - timing noise is drawn from a per-job stream derived from
//!   `(seed, job, attempt)` ([`job_noise_rng`](crate::store::job_noise_rng))
//!   instead of one shared stream, so a job's noise cannot depend on
//!   which shard — or which other jobs — it ran beside.
//!
//! The machine model stays with the coordinator: placement must not
//! depend on the shard count, so processors are never range-partitioned
//! across shards.

use pdpa_apps::{ApplicationSpec, NoiseModel};
use pdpa_obs::{DecisionTrigger, NullObserver, Observer};
use pdpa_perf::{PerfSample, SelfAnalyzer};
use pdpa_policies::{JobView, SchedulingPolicy, SharingModel};
use pdpa_prof::{HealthSnapshot, Lane, SpanKind};
use pdpa_qs::JobSpec;
use pdpa_sim::{EventQueue, JobId, QueueStats, SimDuration, SimRng, SimTime};

use crate::config::EngineConfig;
use crate::coordinator::{Coordinator, Ev, JobHost, ObsSink};
use crate::instrument::{Instrumentation, Monitor};
use crate::result::RunResult;
use crate::store::{JobStore, MemoStats};
use crate::Engine;

/// Default barrier epoch in simulated seconds.
pub const DEFAULT_EPOCH_SECS: f64 = 10.0;

/// What happened to one job inside a round, buffered for the barrier.
#[derive(Clone, Copy, Debug)]
struct Item {
    at: SimTime,
    job: JobId,
    kind: ItemKind,
}

#[derive(Clone, Copy, Debug)]
enum ItemKind {
    /// A clean iteration was measured (sample present once the
    /// SelfAnalyzer has an estimate).
    Iter {
        procs: usize,
        measured_secs: f64,
        sample: Option<PerfSample>,
    },
    /// The job crossed its final iteration boundary.
    Complete,
}

/// One shard: a disjoint subset of the running jobs and their pending
/// iteration-end predictions.
struct Shard {
    store: JobStore,
    /// Iteration-end predictions, keyed by job id (lazy invalidation).
    queue: EventQueue<JobId>,
    /// Items produced by the current round, in emission order.
    items: Vec<Item>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            store: JobStore::new(),
            queue: EventQueue::new(),
            items: Vec::new(),
        }
    }

    /// Advances all owned jobs to the barrier `b`, buffering measurement
    /// and completion items. Runs without any shared state; `lane` is this
    /// shard's private span buffer (disabled lanes record nothing).
    fn advance_round(
        &mut self,
        b: SimTime,
        config: &EngineConfig,
        noise: &NoiseModel,
        lane: &mut Lane,
    ) {
        let prof = lane.begin(SpanKind::ShardAdvance);
        let popped_before = self.queue.total_popped();
        while let Some((at, job)) = self.queue.pop_due(b) {
            self.iter_end(at, job, config, noise);
        }
        lane.add_events(self.queue.total_popped() - popped_before);
        lane.end(prof);
    }

    /// The shard-local half of the classic engine's iteration end:
    /// advance, measure (per-job noise stream), feed the SelfAnalyzer,
    /// buffer the outcome. Policy reactions wait for the barrier.
    fn iter_end(&mut self, at: SimTime, job: JobId, config: &EngineConfig, noise: &NoiseModel) {
        let end =
            self.store
                .end_iteration(job, at, noise, None, config.reset_analyzer_on_phase_change);
        if let Some((procs, measured_secs)) = end.measured {
            self.items.push(Item {
                at,
                job,
                kind: ItemKind::Iter {
                    procs,
                    measured_secs,
                    sample: end.sample,
                },
            });
        }
        if self.store.is_complete(job) {
            self.items.push(Item {
                at,
                job,
                kind: ItemKind::Complete,
            });
            return;
        }
        if end.crossed > 0 {
            // The analyzer phase may have flipped (baseline → measuring),
            // shifting the effective processors. Under space sharing the
            // rate is a pure function of the job's own state, which is
            // what makes the shard advance embarrassingly parallel.
            let eff = self.store.effective_procs(job) as f64;
            self.store.set_rate_from(job, eff, 1.0);
        }
        self.store.repredict(job, at, &mut self.queue, job);
    }
}

/// The sharded host: running jobs partitioned over shards by id.
pub(crate) struct Shards {
    shards: Vec<Shard>,
    /// Running jobs in global admission order (policy-view ordering —
    /// each shard only knows its own).
    admit_order: Vec<JobId>,
}

impl Shards {
    fn new(n: usize) -> Self {
        Shards {
            shards: (0..n).map(|_| Shard::new()).collect(),
            admit_order: Vec::new(),
        }
    }

    fn shard(&self, job: JobId) -> &Shard {
        &self.shards[job.0 as usize % self.shards.len()]
    }

    fn shard_mut(&mut self, job: JobId) -> &mut Shard {
        let n = self.shards.len();
        &mut self.shards[job.0 as usize % n]
    }
}

impl JobHost for Shards {
    fn store(&self, job: JobId) -> &JobStore {
        &self.shard(job).store
    }

    fn store_mut(&mut self, job: JobId) -> &mut JobStore {
        &mut self.shard_mut(job).store
    }

    fn len(&self) -> usize {
        self.admit_order.len()
    }

    fn id_at(&self, i: usize) -> JobId {
        self.admit_order[i]
    }

    fn fill_views(&self, out: &mut Vec<JobView>) {
        out.clear();
        out.extend(
            self.admit_order
                .iter()
                .map(|&job| self.shard(job).store.view_of(job)),
        );
    }

    fn total_allocated(&self) -> usize {
        self.shards.iter().map(|s| s.store.total_allocated()).sum()
    }

    fn total_effective_procs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.store.total_effective_procs())
            .sum()
    }

    fn start(
        &mut self,
        job: JobId,
        spec: ApplicationSpec,
        analyzer: SelfAnalyzer,
        now: SimTime,
        rng: SimRng,
    ) {
        self.shard_mut(job)
            .store
            .start(job, spec, analyzer, now, rng);
        self.admit_order.push(job);
    }

    fn remove(&mut self, job: JobId) -> MemoStats {
        self.admit_order.retain(|&id| id != job);
        self.shard_mut(job).store.remove(job)
    }

    fn remaining_memo_stats(&self) -> MemoStats {
        let mut out = MemoStats::default();
        for s in &self.shards {
            let m = s.store.remaining_memo_stats();
            out.hits += m.hits;
            out.misses += m.misses;
        }
        out
    }

    fn reschedule(&mut self, job: JobId, now: SimTime, _events: &mut EventQueue<Ev>) {
        let shard = self.shard_mut(job);
        shard.store.repredict(job, now, &mut shard.queue, job);
    }

    fn forget(&mut self, job: JobId, _events: &mut EventQueue<Ev>) {
        self.shard_mut(job).queue.invalidate_key(u64::from(job.0));
    }

    fn shard_queue_stats(&self) -> Vec<QueueStats> {
        self.shards.iter().map(|s| s.queue.stats()).collect()
    }
}

impl Engine {
    /// Runs `jobs` under `policy` on `shards` epoch-synchronized shards.
    /// The result is identical for every `shards >= 1` (deterministic
    /// cross-shard merge); larger shard counts only add parallelism.
    ///
    /// # Panics
    ///
    /// Panics unless the policy declares
    /// [`SharingModel::SpaceShared`] — shard-parallel advance relies on
    /// per-job progress rates, which time-shared models do not have.
    pub fn run_sharded(
        &self,
        jobs: Vec<JobSpec>,
        policy: Box<dyn SchedulingPolicy>,
        shards: usize,
    ) -> RunResult {
        self.run_sharded_observed(jobs, policy, shards, DEFAULT_EPOCH_SECS, &mut NullObserver)
    }

    /// [`run_sharded`](Engine::run_sharded) with an explicit barrier
    /// epoch (simulated seconds) and an observer for the event stream.
    pub fn run_sharded_observed(
        &self,
        jobs: Vec<JobSpec>,
        policy: Box<dyn SchedulingPolicy>,
        shards: usize,
        epoch_secs: f64,
        observer: &mut dyn Observer,
    ) -> RunResult {
        self.run_sharded_instrumented(
            jobs,
            policy,
            shards,
            epoch_secs,
            observer,
            Instrumentation::none(),
        )
    }

    /// [`run_sharded_observed`](Engine::run_sharded_observed) with
    /// optional runtime instrumentation — span profiling with one lane
    /// per shard (`RunResult::profile`), a zero-progress watchdog counted
    /// in barrier rounds (`RunResult::watchdog`), and heartbeat lines on
    /// stderr. With [`Instrumentation::none`] every touch point is a dead
    /// branch — the decision-event stream is bit-identical either way.
    pub fn run_sharded_instrumented(
        &self,
        jobs: Vec<JobSpec>,
        mut policy: Box<dyn SchedulingPolicy>,
        shards: usize,
        epoch_secs: f64,
        observer: &mut dyn Observer,
        instr: Instrumentation,
    ) -> RunResult {
        assert!(
            matches!(policy.sharing(), SharingModel::SpaceShared),
            "sharded execution supports space-sharing policies only"
        );
        assert!(
            epoch_secs > 0.0 && epoch_secs.is_finite(),
            "epoch must be positive"
        );
        let shards = shards.max(1);
        let epoch = SimDuration::from_secs(epoch_secs);
        let mut monitor = Monitor::new(&instr);
        let mut sim = Coordinator::new(
            self.config(),
            jobs,
            SharingModel::SpaceShared,
            ObsSink::Borrowed(observer),
            instr.profiler(shards + 1),
            Shards::new(shards),
        );
        sim.schedule_events();
        let replay = sim.prof.lane(0).begin(SpanKind::Replay);
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            let barrier_prof = sim.prof.lane(0).begin(SpanKind::BarrierCompute);
            let b = sim.next_barrier(epoch);
            sim.prof.lane(0).end(barrier_prof);
            // No globals, no predictions: nothing can ever happen again
            // (any running jobs are permanently stalled).
            let Some(b) = b else { break };
            if b.as_secs() > self.config().max_sim_secs {
                break;
            }
            // Steps are barrier rounds here: a barrier pinned to one
            // instant for thousands of rounds means the advance loop is
            // livelocked (e.g. a failed `next_up` guard).
            let stalled = monitor.stalled(b.as_secs(), || {
                let qlen: usize = sim.host.shards.iter().map(|s| s.queue.len()).sum();
                format!(
                    "sharded engine: shards={}, running={}, waiting={}, qlen={}",
                    shards,
                    sim.host.len(),
                    sim.qs.waiting_count(),
                    qlen,
                )
            });
            if stalled {
                break;
            }
            // One snapshot feeds both the heartbeat line and the live tap.
            // The tap refresh is amortized over barrier rounds so `--serve`
            // stays inside the ≤2% overhead bound.
            if monitor.is_active() {
                monitor.report(rounds & 0xFF == 0, || sim.health_snapshot());
            }
            let round_prof = sim.prof.lane(0).begin(SpanKind::Round);
            sim.round(b, policy.as_mut());
            sim.prof.lane(0).end(round_prof);
        }
        sim.prof.lane(0).end(replay);
        monitor.finish(|| sim.health_snapshot());
        let mut result = sim.into_result(policy.name());
        result.watchdog = monitor.diagnostic;
        result
    }
}

/// The barrier strategy: parallel shard advance, deterministic merge,
/// barrier-batched policy reactions.
impl Coordinator<'_, Shards> {
    /// The next barrier, or `None` when nothing is pending anywhere.
    /// Both heads are live: stale predictions are dropped first, so the
    /// barrier does not depend on how jobs are split across shards.
    fn next_barrier(&mut self, epoch: SimDuration) -> Option<SimTime> {
        let next_global = self.events.peek_live_time();
        let next_iter = self
            .host
            .shards
            .iter_mut()
            .filter_map(|s| s.queue.peek_live_time())
            .min();
        let inner = next_iter.map(|t| t.max(self.clock + epoch));
        match (next_global, inner) {
            (Some(g), Some(i)) => Some(g.min(i)),
            (g, i) => g.or(i),
        }
    }

    /// The current health picture: clock, event totals, queue depth, and
    /// per-shard popped counts (for imbalance diagnostics).
    fn health_snapshot(&self) -> HealthSnapshot {
        let shards = self.host.shard_queue_stats();
        let shard_events: Vec<u64> = shards.iter().map(|s| s.popped).collect();
        HealthSnapshot {
            sim_clock_secs: self.clock.as_secs(),
            events_popped: self.events.total_popped() + shard_events.iter().sum::<u64>(),
            queue_len: self.events.len() + shards.iter().map(|s| s.len).sum::<usize>(),
            running: self.host.len(),
            waiting: self.qs.waiting_count(),
            shard_events,
        }
    }

    /// One epoch round: parallel shard advance to `b`, then the
    /// deterministic barrier merge.
    fn round(&mut self, b: SimTime, policy: &mut dyn SchedulingPolicy) {
        // Parallel phase: each shard owns disjoint state; the coordinator
        // (machine, queue system, policy) is untouched. Lane `i + 1` of
        // the profiler travels into shard `i`'s worker thread.
        {
            let config = &self.config;
            let noise = &self.noise;
            let lanes = &mut self.prof.lanes_mut()[1..];
            let shards = &mut self.host.shards;
            if shards.len() == 1 {
                shards[0].advance_round(b, config, noise, &mut lanes[0]);
            } else {
                std::thread::scope(|scope| {
                    for (shard, lane) in shards.iter_mut().zip(lanes.iter_mut()) {
                        scope.spawn(move || shard.advance_round(b, config, noise, lane));
                    }
                });
            }
        }

        // Merge: stable sort by (time, job). Items of one job come from
        // exactly one shard in emission order, so the merged order is a
        // pure function of the item set — independent of the partition.
        let merge_prof = self.prof.lane(0).begin(SpanKind::Merge);
        let mut items: Vec<Item> = Vec::new();
        for shard in &mut self.host.shards {
            items.append(&mut shard.items);
        }
        items.sort_by_key(|it| (it.at, it.job.0));
        self.prof.lane(0).end(merge_prof);
        let publish_prof = self.prof.lane(0).begin(SpanKind::Publish);

        // Pass A: publish measurements and record completions at their
        // true times (the observer stream stays monotonic: item times are
        // <= b, and pass B stamps everything at b).
        for it in &items {
            self.clock = it.at;
            match it.kind {
                ItemKind::Iter {
                    procs,
                    measured_secs,
                    sample,
                } => {
                    if self.obs_on {
                        self.publish_iteration(it.job, (procs, measured_secs), sample);
                    }
                }
                ItemKind::Complete => self.finish_job(it.job),
            }
        }

        // Globals land exactly at b (the barrier never jumps past one).
        self.clock = b;
        while let Some((_, ev)) = self.events.pop_due(b) {
            self.handle(ev, policy);
        }

        // Pass B: policy reactions, in the same merged order, all at b.
        for it in &items {
            let job = it.job;
            match it.kind {
                ItemKind::Iter {
                    sample: Some(s), ..
                } => {
                    // Skip jobs that completed in pass A or were killed
                    // at the barrier — the view no longer contains them.
                    if !self.host.store(job).contains(job) {
                        continue;
                    }
                    self.activate(policy, DecisionTrigger::Report, |p, ctx| {
                        p.on_performance_report(ctx, job, s)
                    });
                }
                ItemKind::Iter { .. } => continue,
                ItemKind::Complete => {
                    self.activate(policy, DecisionTrigger::Completion, |p, ctx| {
                        p.on_job_completion(ctx, job)
                    });
                }
            }
            self.try_admit(policy);
        }
        self.prof.lane(0).end(publish_prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_core::Pdpa;
    use pdpa_policies::{EqualEfficiency, Equipartition};
    use pdpa_qs::Workload;

    const POLICY_NAMES: [&str; 3] = ["pdpa", "equip", "equal-eff"];

    fn fresh_policy(name: &str) -> Box<dyn SchedulingPolicy> {
        match name {
            "pdpa" => Box::new(Pdpa::paper_default()),
            "equip" => Box::new(Equipartition::new(4)),
            _ => Box::new(EqualEfficiency::paper_default()),
        }
    }

    fn digest(r: &RunResult) -> (usize, String, u64, u64) {
        let mut ends: Vec<String> = r
            .summary
            .outcomes()
            .iter()
            .map(|o| {
                format!(
                    "{}:{:.9}:{:.9}",
                    o.job.0,
                    o.start.as_secs(),
                    o.end.as_secs()
                )
            })
            .collect();
        ends.sort();
        (
            r.summary.outcomes().len(),
            ends.join(","),
            r.decisions_applied,
            r.jobs_failed,
        )
    }

    #[test]
    fn sharded_runs_complete() {
        let jobs = Workload::W3.build(0.5, 11);
        let engine = Engine::new(EngineConfig::default());
        let r = engine.run_sharded(jobs, Box::new(Pdpa::paper_default()), 2);
        assert!(r.completed_all);
        assert!(!r.summary.outcomes().is_empty());
    }

    /// The first 700 s of the 10k-job `w4` replay trace (`swfgen gen w4
    /// 1.0 7 --duration 45000`), read back through SWF like `pdpa replay`
    /// does: 192 jobs, enough backlog for stale predictions to pile up.
    fn replayed_w4_prefix() -> Vec<JobSpec> {
        let config = pdpa_qs::GeneratorConfig {
            composition: Workload::W4.composition(),
            load: 1.0,
            cpus: 60,
            duration_secs: 45_000.0,
            tuned: true,
        };
        let text = pdpa_qs::swf::write_swf(&pdpa_qs::generate(&config, 7));
        let trace = pdpa_qs::swf::parse_swf_trace(&text).expect("generated SWF parses");
        let prefix = pdpa_qs::shape::slice_window(&trace.records, 0.0, 700.0);
        pdpa_qs::shape::jobs_from_records(&prefix)
    }

    #[test]
    fn shard_count_is_invisible() {
        // The defining invariant: identical results for every shard
        // count, across workloads, policies and barrier epochs. Sub-second
        // epochs are where a barrier built from stale predictions, whose
        // survival depends on the partition, would diverge.
        let engine = Engine::new(EngineConfig::default());
        let workloads = [Workload::W3.build(0.6, 7), replayed_w4_prefix()];
        for epoch in [0.1, 0.25, DEFAULT_EPOCH_SECS] {
            // Sub-second epochs run ~100x more rounds, each spawning one
            // thread per shard, so they check the two smallest splits.
            let counts: &[usize] = if epoch < 1.0 { &[2, 3] } else { &[2, 3, 4, 8] };
            for (w, jobs) in workloads.iter().enumerate() {
                for name in POLICY_NAMES {
                    let run = |shards| {
                        engine.run_sharded_observed(
                            jobs.clone(),
                            fresh_policy(name),
                            shards,
                            epoch,
                            &mut NullObserver,
                        )
                    };
                    let base = run(1);
                    for &shards in counts {
                        assert_eq!(
                            digest(&base),
                            digest(&run(shards)),
                            "{name} diverged at {shards} shards, epoch {epoch}, workload {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_count_is_invisible_under_faults() {
        use pdpa_faults::{FaultPlan, RetryPolicy};
        let mut config = EngineConfig::default();
        let horizon = 9_000.0;
        let mut plan = FaultPlan::none()
            .mtbf(3_000.0, horizon, config.cpus, 99)
            .with_retry(RetryPolicy::default());
        for job in [2u32, 5, 9] {
            plan = plan.fail_job_at(JobId(job), 400.0 * f64::from(job));
        }
        config.faults = plan;
        let engine = Engine::new(config);
        for name in POLICY_NAMES {
            let base = engine.run_sharded(Workload::W3.build(0.6, 13), fresh_policy(name), 1);
            for shards in [2usize, 4] {
                let r = engine.run_sharded(Workload::W3.build(0.6, 13), fresh_policy(name), shards);
                assert_eq!(
                    digest(&base),
                    digest(&r),
                    "{name} diverged at {shards} shards under faults"
                );
            }
        }
    }

    #[test]
    fn epoch_length_changes_batching_not_sanity() {
        let engine = Engine::new(EngineConfig::default());
        for epoch in [1.0, 10.0, 120.0] {
            let r = engine.run_sharded_observed(
                Workload::W3.build(0.5, 3),
                Box::new(Equipartition::new(4)),
                4,
                epoch,
                &mut NullObserver,
            );
            assert!(r.completed_all, "epoch {epoch} failed to complete");
        }
    }

    #[test]
    #[should_panic(expected = "space-sharing")]
    fn time_shared_policies_are_rejected() {
        let engine = Engine::new(EngineConfig::default());
        let _ = engine.run_sharded(
            Workload::W3.build(0.3, 1),
            Box::new(pdpa_policies::IrixLike::paper_default()),
            2,
        );
    }
}
