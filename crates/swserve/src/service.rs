//! The serving plane: admission, scheduling, worker lifecycle, and
//! recovery, as a deterministic discrete-event simulation.
//!
//! Everything observable — dispatch order, latency percentiles, which
//! worker dies when — is a pure function of the submitted load and the
//! installed [`FaultPlan`](swfault::FaultPlan): time is virtual
//! nanoseconds, the cost model is arithmetic on job sizes, and every
//! chaos decision flows through `swfault`'s deterministic plane. The
//! physics, however, is *real*: each dispatch wraps an
//! [`Engine`] in [`FaultTolerantRunner::new_durable`] over a per-job
//! `swstore` directory, so a worker death mid-job loses nothing but
//! uncommitted steps and the resumed trajectory is bit-identical.
//!
//! # Recovery state machine
//!
//! ```text
//!   submit ──admit──▶ Queued ──dispatch──▶ Running ──final step──▶ Done
//!     │                 ▲  ▲                  │
//!     │ quota/full      │  └──reconcile───┐   │ worker killed
//!     ▼                 │    (job_drop)   │   ▼
//!   backpressure        └──readmit── liveness timeout
//!   (bounded retry,          (resume from newest valid generation)
//!    then rejected)
//! ```
//!
//! A full queue sheds the lowest-priority queued job (strictly lower
//! than the incoming one) instead of wedging; nothing in the loop
//! blocks, and an event budget turns any would-be livelock into a loud
//! error instead of a hang.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::io;
use std::path::PathBuf;

use swfault::Site;
use swgmx::engine::{Engine, EngineConfig};
use swgmx::recovery::FaultTolerantRunner;
use swprof::{slo, tel};

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::{mix64, trajectory_checksum, JobSpec};

/// Canonical span/flow labels of the serving plane, so one merged
/// timeline reads the same in every tool: a request is `submit → admit
/// → schedule → run → deliver`, with the `job.*` flows stitching
/// client, scheduler, and worker ranks.
mod labels {
    /// Client-side span around one submit attempt.
    pub const SPAN_SUBMIT: &str = "swserve.submit";
    /// Scheduler-side span around one admission decision.
    pub const SPAN_ADMIT: &str = "swserve.admit";
    /// Scheduler-side span around one dispatch decision.
    pub const SPAN_SCHEDULE: &str = "swserve.schedule";
    /// Worker-side span around one execution quantum.
    pub const SPAN_RUN: &str = "swserve.run";
    /// Scheduler-side span around trajectory delivery.
    pub const SPAN_DELIVER: &str = "swserve.deliver";
    /// Flow: client submit reaching the scheduler.
    pub const FLOW_SUBMIT: &str = "job.submit";
    /// Flow: scheduler dispatching a job to a worker.
    pub const FLOW_DISPATCH: &str = "job.dispatch";
    /// Flow: worker reporting completion to the scheduler.
    pub const FLOW_RESULT: &str = "job.result";
    /// Flow: scheduler delivering the trajectory to the client.
    pub const FLOW_DELIVER: &str = "job.deliver";
}

/// Scheduler rank on the merged timeline (workers are `1 + index`,
/// the client population is one rank past the last worker).
const SCHEDULER_RANK: usize = 0;

/// Virtual cost of one admission decision.
const ADMIT_NS: u64 = 5_000;
/// Virtual cost of handing a job to a worker (engine + store setup).
const DISPATCH_NS: u64 = 50_000;
/// Fixed virtual overhead per execution quantum.
const QUANTUM_OVERHEAD_NS: u64 = 20_000;
/// Virtual cost of one MD step per particle.
const STEP_NS_PER_PARTICLE: u64 = 40;
/// MD steps per execution quantum (kill/preemption granularity).
const QUANTUM_STEPS: u64 = 10;
/// How stale a running job's heartbeat must be before the liveness
/// sweep declares its worker dead and readmits it: generous against
/// quantum costs.
const LIVENESS_TIMEOUT_NS: u64 = 2_000_000;
/// Virtual delay before a killed worker's replacement comes up.
const RESPAWN_DELAY_NS: u64 = 1_500_000;
/// Cadence of the liveness/reconcile sweep.
const SWEEP_INTERVAL_NS: u64 = 500_000;
/// Virtual network latency for submit/dispatch/result messages.
const WIRE_NS: u64 = 10_000;
/// Base backoff for client-side submit retries
/// (`swfault::retry::backoff_ns` schedule).
const RETRY_BASE_NS: u64 = 100_000;
/// Hard event budget: exceeded means a scheduler bug, reported as an
/// error rather than a silent hang.
const MAX_EVENTS: u64 = 2_000_000;

/// Virtual duration of a quantum executing `steps` steps of an
/// `n_particles` system.
fn quantum_cost_ns(n_particles: usize, steps: u64) -> u64 {
    steps * n_particles as u64 * STEP_NS_PER_PARTICLE + QUANTUM_OVERHEAD_NS
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker pool size (each worker runs one job at a time).
    pub n_workers: usize,
    /// Root directory for per-job durable stores (`job-NNNNNN/`).
    pub store_root: PathBuf,
    /// Checkpoint cadence handed to the runner; must be a positive
    /// multiple of the engine `nstlist` (10).
    pub cp_every: usize,
    /// Quota and queue-capacity policy.
    pub admission: AdmissionConfig,
}

impl ServiceConfig {
    /// `n_workers` workers over `store_root`, 10-step checkpoint epochs
    /// and the default admission policy.
    pub fn new(n_workers: usize, store_root: impl Into<PathBuf>) -> Self {
        Self {
            n_workers,
            store_root: store_root.into(),
            cp_every: 10,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Terminal result of a completed job.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Virtual ns at which the trajectory reached the client.
    pub finished_ns: u64,
    /// `finished_ns - submitted_ns`.
    pub latency_ns: u64,
    /// FNV-1a fingerprint of the final positions (bit-identity proof).
    pub checksum: u64,
    /// Whether the job finished past its deadline.
    pub deadline_missed: bool,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy)]
pub enum JobPhase {
    /// Admitted, waiting in the run queue.
    Queued,
    /// Executing on worker `.0`.
    Running(usize),
    /// Trajectory delivered.
    Done(Outcome),
    /// Evicted by a higher-priority submission under queue pressure.
    Shed,
}

/// Registry entry for one admitted job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Virtual ns of the client's *first* submit attempt.
    pub submitted_ns: u64,
    /// Virtual ns of admission.
    pub admitted_ns: u64,
    /// Admission order: the FIFO key within a priority band.
    pub admit_seq: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Times this job was handed to a worker (1 = never disturbed).
    pub dispatches: u64,
    /// Re-dispatches that resumed from a durable generation.
    pub resumes: u64,
    /// Times the liveness sweep pulled it off a dead worker.
    pub readmissions: u64,
    /// Times the reconcile sweep restored it after a queue drop.
    pub requeues: u64,
    /// Last virtual ns a worker made progress on it.
    pub last_heartbeat_ns: u64,
}

#[derive(Debug)]
enum WorkerState {
    Idle,
    Busy { job: u64 },
    Dead { until_ns: u64 },
}

struct Worker {
    state: WorkerState,
    /// Bumped on every kill; pending quantum events carry the
    /// incarnation they were scheduled under and go stale on mismatch.
    incarnation: u64,
    runner: Option<FaultTolerantRunner>,
    /// Runner-report high-water marks so service-wide rollback counts
    /// are deltas, not double counts.
    rollbacks_seen: u64,
    lane_panics_seen: u64,
}

/// Monotonic service-wide counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Distinct jobs submitted via [`Service::submit_at`].
    pub submitted: u64,
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Jobs whose trajectory was delivered.
    pub completed: u64,
    /// Queued jobs evicted for higher-priority work.
    pub shed: u64,
    /// Submissions that exhausted their retry budget.
    pub rejected: u64,
    /// Backpressure verdicts issued (each schedules one retry).
    pub backpressure: u64,
    /// Backpressure because the tenant was at quota.
    pub over_quota: u64,
    /// Backpressure because the queue was full and nothing sheddable.
    pub queue_full: u64,
    /// Worker processes killed by chaos.
    pub worker_kills: u64,
    /// Replacement workers brought up by the sweep.
    pub respawns: u64,
    /// Jobs readmitted off dead workers by the liveness sweep.
    pub readmissions: u64,
    /// Jobs restored to the queue by the reconcile sweep.
    pub requeues: u64,
    /// Dispatches that resumed from a durable generation.
    pub resumes: u64,
    /// Enqueue-path losses injected at `sched.job_drop`.
    pub job_drops: u64,
    /// Step rollbacks absorbed inside workers' runners.
    pub rollbacks: u64,
    /// Kernel-lane panics absorbed inside workers' runners.
    pub lane_panics: u64,
    /// Completed jobs that finished past their deadline.
    pub deadline_misses: u64,
    /// MD steps of completed trajectories.
    pub md_steps: u64,
}

#[derive(Clone)]
enum Ev {
    Submit {
        spec: JobSpec,
        attempt: u32,
        submitted_ns: u64,
    },
    Quantum {
        worker: usize,
        incarnation: u64,
    },
    Sweep,
}

struct Scheduled {
    ns: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.ns, self.seq) == (other.ns, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first with
    // insertion order breaking ties (deterministic event order).
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ns, other.seq).cmp(&(self.ns, self.seq))
    }
}

/// The multi-tenant MD service.
pub struct Service {
    cfg: ServiceConfig,
    now: u64,
    next_event_seq: u64,
    next_job_id: u64,
    next_admit_seq: u64,
    heap: BinaryHeap<Scheduled>,
    /// Run queue: `(priority rank, admission order, job id)` — High
    /// first, FIFO within a band.
    queue: BTreeSet<(u8, u64, u64)>,
    jobs: BTreeMap<u64, JobRecord>,
    workers: Vec<Worker>,
    admission: AdmissionController,
    stats: ServiceStats,
    sweep_scheduled: bool,
    /// Optional live telemetry plane; every lifecycle transition is
    /// mirrored into it as a [`slo::Event`].
    scope: Option<slo::Scope>,
}

impl Service {
    /// Stand up a service; creates the store root.
    pub fn new(cfg: ServiceConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.store_root)?;
        let workers = (0..cfg.n_workers)
            .map(|_| Worker {
                state: WorkerState::Idle,
                incarnation: 0,
                runner: None,
                rollbacks_seen: 0,
                lane_panics_seen: 0,
            })
            .collect();
        let admission = AdmissionController::new(cfg.admission.clone());
        Ok(Self {
            cfg,
            now: 0,
            next_event_seq: 0,
            next_job_id: 0,
            next_admit_seq: 0,
            heap: BinaryHeap::new(),
            queue: BTreeSet::new(),
            jobs: BTreeMap::new(),
            workers,
            admission,
            stats: ServiceStats::default(),
            sweep_scheduled: false,
            scope: None,
        })
    }

    /// Attach a live telemetry plane. Alert spans land on the
    /// scheduler rank; every admit/dispatch/complete/kill/retry event
    /// from here on feeds the plane at the scheduler's virtual clock.
    pub fn attach_scope(&mut self, mut scope: slo::Scope) {
        scope.bind_rank(SCHEDULER_RANK);
        self.scope = Some(scope);
    }

    /// Seal and detach the telemetry plane (closes the final partial
    /// window just past the current virtual time, running one last
    /// alert evaluation).
    pub fn detach_scope(&mut self) -> Option<slo::Scope> {
        let mut scope = self.scope.take()?;
        scope.seal(self.now + 1);
        Some(scope)
    }

    /// The attached telemetry plane, if any.
    pub fn scope(&self) -> Option<&slo::Scope> {
        self.scope.as_ref()
    }

    /// Mirror one lifecycle transition into the telemetry plane at the
    /// current virtual time.
    fn scope_event(
        &mut self,
        tenant: Option<u32>,
        worker: Option<usize>,
        job: u64,
        trace: u64,
        kind: slo::Kind,
    ) {
        if let Some(scope) = self.scope.as_mut() {
            scope.on_event(slo::Event {
                at_ns: self.now,
                tenant,
                worker,
                job,
                trace,
                kind,
            });
        }
    }

    /// Enqueue a client submission at virtual time `ns`.
    pub fn submit_at(&mut self, ns: u64, spec: JobSpec) {
        self.stats.submitted += 1;
        self.schedule(
            ns,
            Ev::Submit {
                spec,
                attempt: 0,
                submitted_ns: ns,
            },
        );
    }

    /// Drain the event loop until every pending event has fired. On a
    /// healthy service this is exactly "until every submitted job is
    /// terminal"; exceeding the event budget is reported as an error
    /// (the service must never wedge silently).
    pub fn run_to_completion(&mut self) -> io::Result<&ServiceStats> {
        let mut events = 0u64;
        while let Some(s) = self.heap.pop() {
            events += 1;
            if events > MAX_EVENTS {
                return Err(io::Error::other(format!(
                    "event budget ({MAX_EVENTS}) exhausted with {} jobs non-terminal: scheduler bug",
                    self.jobs
                        .values()
                        .filter(|j| !matches!(j.phase, JobPhase::Done(_) | JobPhase::Shed))
                        .count()
                )));
            }
            debug_assert!(s.ns >= self.now, "virtual time went backwards");
            self.now = s.ns;
            match s.ev {
                Ev::Submit {
                    spec,
                    attempt,
                    submitted_ns,
                } => self.on_submit(spec, attempt, submitted_ns)?,
                Ev::Quantum {
                    worker,
                    incarnation,
                } => self.on_quantum(worker, incarnation)?,
                Ev::Sweep => self.on_sweep()?,
            }
        }
        Ok(&self.stats)
    }

    /// Counters so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The job registry (terminal phases carry outcomes).
    pub fn jobs(&self) -> &BTreeMap<u64, JobRecord> {
        &self.jobs
    }

    /// Current virtual time (the makespan after
    /// [`run_to_completion`](Service::run_to_completion)).
    pub fn now_ns(&self) -> u64 {
        self.now
    }

    fn schedule(&mut self, ns: u64, ev: Ev) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.heap.push(Scheduled {
            ns: ns.max(self.now),
            seq,
            ev,
        });
    }

    fn worker_rank(&self, w: usize) -> usize {
        1 + w
    }

    fn client_rank(&self) -> usize {
        1 + self.cfg.n_workers
    }

    fn ensure_sweep(&mut self) {
        if !self.sweep_scheduled {
            self.sweep_scheduled = true;
            self.schedule(self.now + SWEEP_INTERVAL_NS, Ev::Sweep);
        }
    }

    fn queue_key(&self, id: u64) -> (u8, u64, u64) {
        let job = &self.jobs[&id];
        (job.spec.priority.rank(), job.admit_seq, id)
    }

    fn on_submit(&mut self, spec: JobSpec, attempt: u32, submitted_ns: u64) -> io::Result<()> {
        let client = self.client_rank();
        tel::align(client, self.now);
        let ctx = {
            let _submit = tel::span_on(client, labels::SPAN_SUBMIT);
            tel::send_from(labels::FLOW_SUBMIT, client, SCHEDULER_RANK)
        };
        if let Some(ctx) = &ctx {
            tel::deliver(ctx, WIRE_NS);
        }
        let submit_trace = ctx.as_ref().map_or(0, |c| c.flow_id);
        let _admit = tel::span_on(SCHEDULER_RANK, labels::SPAN_ADMIT);
        tel::tick_on(SCHEDULER_RANK, ADMIT_NS);

        if !self.admission.has_headroom(spec.tenant) {
            self.stats.over_quota += 1;
            return self.backpressure(spec, attempt, submitted_ns);
        }
        if self.queue.len() >= self.admission.queue_capacity() {
            // Graceful degradation, not a wedge: a full queue sheds its
            // lowest-priority member iff the incoming job outranks it.
            let victim = self.queue.iter().next_back().copied();
            match victim {
                Some(key) if key.0 > spec.priority.rank() => {
                    self.queue.remove(&key);
                    let victim_id = key.2;
                    let tenant = {
                        let j = self
                            .jobs
                            .get_mut(&victim_id)
                            .expect("queued job registered");
                        j.phase = JobPhase::Shed;
                        j.spec.tenant
                    };
                    self.admission.release(tenant);
                    self.stats.shed += 1;
                    tel::flight::record("serve", "job_shed", victim_id, 0);
                    self.scope_event(Some(tenant), None, victim_id, 0, slo::Kind::Shed);
                }
                _ => {
                    self.stats.queue_full += 1;
                    return self.backpressure(spec, attempt, submitted_ns);
                }
            }
        }
        let id = self.next_job_id;
        self.next_job_id += 1;
        let admit_seq = self.next_admit_seq;
        self.next_admit_seq += 1;
        self.admission.charge(spec.tenant);
        self.stats.admitted += 1;
        self.jobs.insert(
            id,
            JobRecord {
                spec,
                submitted_ns,
                admitted_ns: self.now,
                admit_seq,
                phase: JobPhase::Queued,
                dispatches: 0,
                resumes: 0,
                readmissions: 0,
                requeues: 0,
                last_heartbeat_ns: self.now,
            },
        );
        self.scope_event(Some(spec.tenant), None, id, submit_trace, slo::Kind::Admit);
        self.enqueue(id)
    }

    /// Client-side bounded retry: exponential backoff with
    /// payload-derived jitter on the shared `swfault::retry` schedule,
    /// rejection after `MAX_ATTEMPTS`.
    fn backpressure(&mut self, spec: JobSpec, attempt: u32, submitted_ns: u64) -> io::Result<()> {
        self.stats.backpressure += 1;
        let next = attempt + 1;
        if next >= swfault::retry::MAX_ATTEMPTS {
            self.stats.rejected += 1;
            tel::flight::record("serve", "job_rejected", spec.seed, attempt as u64);
            self.scope_event(Some(spec.tenant), None, 0, 0, slo::Kind::Reject);
            return Ok(());
        }
        self.scope_event(Some(spec.tenant), None, 0, 0, slo::Kind::Retry);
        let payload = mix64(spec.seed ^ ((next as u64) << 32));
        let delay = swfault::retry::backoff_ns(next, RETRY_BASE_NS as f64, payload) as u64;
        self.schedule(
            self.now + delay.max(1),
            Ev::Submit {
                spec,
                attempt: next,
                submitted_ns,
            },
        );
        Ok(())
    }

    fn enqueue(&mut self, id: u64) -> io::Result<()> {
        let key = self.queue_key(id);
        // Chaos: the hop from admission into the run queue can silently
        // lose the job. The registry entry survives, so the reconcile
        // sweep will find the Queued-but-not-queued job and restore it
        // — recovery from a drop is guaranteed, not probabilistic.
        if swfault::should(Site::SchedJobDrop) {
            self.stats.job_drops += 1;
            tel::flight::record("serve", "job_drop", id, 0);
            let tenant = self.jobs[&id].spec.tenant;
            self.scope_event(Some(tenant), None, id, 0, slo::Kind::Drop);
        } else {
            self.queue.insert(key);
        }
        self.ensure_sweep();
        self.try_dispatch()
    }

    fn try_dispatch(&mut self) -> io::Result<()> {
        loop {
            let Some(w) = self
                .workers
                .iter()
                .position(|wk| matches!(wk.state, WorkerState::Idle))
            else {
                return Ok(());
            };
            let Some(&key) = self.queue.iter().next() else {
                return Ok(());
            };
            self.queue.remove(&key);
            self.dispatch(key.2, w)?;
        }
    }

    fn dispatch(&mut self, id: u64, w: usize) -> io::Result<()> {
        let (spec, prior_dispatches) = {
            let j = &self.jobs[&id];
            (j.spec, j.dispatches)
        };
        tel::align(SCHEDULER_RANK, self.now);
        let ctx = {
            let _sched = tel::span_on(SCHEDULER_RANK, labels::SPAN_SCHEDULE);
            tel::send_from(labels::FLOW_DISPATCH, SCHEDULER_RANK, self.worker_rank(w))
        };
        if let Some(ctx) = &ctx {
            tel::deliver(ctx, DISPATCH_NS);
        }
        // The job's whole durable life lives under one directory; a
        // re-dispatch after a kill finds the chain and resumes from the
        // newest valid generation — bit-identically, by the runner's
        // checkpoint contract.
        let dir = self.cfg.store_root.join(format!("job-{id:06}"));
        let runner =
            FaultTolerantRunner::new_durable(build_engine(&spec), self.cfg.cp_every, &dir)?;
        if runner.report().resumed_from.is_some() && prior_dispatches > 0 {
            self.stats.resumes += 1;
            self.jobs.get_mut(&id).expect("dispatched job").resumes += 1;
        }
        {
            let j = self.jobs.get_mut(&id).expect("dispatched job");
            j.phase = JobPhase::Running(w);
            j.dispatches += 1;
            j.last_heartbeat_ns = self.now;
        }
        let start = runner.engine().step_index() as u64;
        let chunk = spec.steps.saturating_sub(start).min(QUANTUM_STEPS);
        let cost = DISPATCH_NS + quantum_cost_ns(spec.n_particles(), chunk);
        let wk = &mut self.workers[w];
        wk.state = WorkerState::Busy { job: id };
        wk.runner = Some(runner);
        wk.rollbacks_seen = 0;
        wk.lane_panics_seen = 0;
        let incarnation = wk.incarnation;
        self.scope_event(
            Some(spec.tenant),
            Some(w),
            id,
            ctx.as_ref().map_or(0, |c| c.flow_id),
            slo::Kind::Dispatch,
        );
        self.schedule(
            self.now + cost,
            Ev::Quantum {
                worker: w,
                incarnation,
            },
        );
        Ok(())
    }

    fn on_quantum(&mut self, w: usize, incarnation: u64) -> io::Result<()> {
        if self.workers[w].incarnation != incarnation {
            return Ok(()); // event from a killed incarnation: stale
        }
        let WorkerState::Busy { job: id } = self.workers[w].state else {
            return Ok(());
        };

        // Chaos: the worker process can die at any quantum boundary —
        // the same site ddrun uses for rank death, lane = worker index
        // so scripted plans can target one worker.
        let killed = {
            let _worker = swprof::scope::Who::enter_lane(Some(w));
            swfault::should(Site::RankKill)
        };
        if killed {
            self.kill_worker(w);
            return Ok(());
        }

        let spec = self.jobs[&id].spec;
        let mut runner = self.workers[w]
            .runner
            .take()
            .expect("busy worker holds a runner");
        let start = runner.engine().step_index() as u64;
        let target = spec.steps.min(start + QUANTUM_STEPS);
        let executed = target.saturating_sub(start);
        let wrank = self.worker_rank(w);
        let qcost = quantum_cost_ns(spec.n_particles(), executed);
        // The quantum event fires at its *end*; backdate the span so
        // the merged timeline shows the work interval.
        tel::align(wrank, self.now.saturating_sub(qcost));
        {
            let _run = tel::span_on(wrank, labels::SPAN_RUN);
            runner.run_until(target as usize)?;
            tel::tick_on(wrank, qcost);
        }
        {
            let report = runner.report();
            let wk = &mut self.workers[w];
            self.stats.rollbacks += report.rollbacks - wk.rollbacks_seen;
            self.stats.lane_panics += report.lane_panics - wk.lane_panics_seen;
            wk.rollbacks_seen = report.rollbacks;
            wk.lane_panics_seen = report.lane_panics;
        }
        let now_step = runner.engine().step_index() as u64;
        self.jobs
            .get_mut(&id)
            .expect("running job")
            .last_heartbeat_ns = self.now;
        self.scope_event(
            Some(spec.tenant),
            Some(w),
            id,
            0,
            slo::Kind::Quantum { dur_ns: qcost },
        );

        if now_step < spec.steps {
            let chunk = (spec.steps - now_step).min(QUANTUM_STEPS);
            let cost = quantum_cost_ns(spec.n_particles(), chunk);
            self.workers[w].runner = Some(runner);
            self.schedule(
                self.now + cost,
                Ev::Quantum {
                    worker: w,
                    incarnation,
                },
            );
            return Ok(());
        }

        // Final step done: fingerprint the trajectory, deliver it, and
        // free the worker. The store chain stays on disk (audit trail).
        let checksum = trajectory_checksum(&runner.engine().sys);
        drop(runner);
        self.workers[w].state = WorkerState::Idle;
        self.workers[w].runner = None;
        let result_ctx = tel::send_from(labels::FLOW_RESULT, wrank, SCHEDULER_RANK);
        if let Some(ctx) = &result_ctx {
            tel::deliver(ctx, WIRE_NS);
        }
        let deliver_ctx = {
            let _deliver = tel::span_on(SCHEDULER_RANK, labels::SPAN_DELIVER);
            tel::send_from(labels::FLOW_DELIVER, SCHEDULER_RANK, self.client_rank())
        };
        if let Some(ctx) = &deliver_ctx {
            tel::deliver(ctx, WIRE_NS);
        }
        let finished_ns = self.now + 2 * WIRE_NS;
        let (tenant, md_steps, deadline_missed) = {
            let j = self.jobs.get_mut(&id).expect("completed job");
            let latency_ns = finished_ns - j.submitted_ns;
            let deadline_missed = j.spec.deadline_ns.is_some_and(|d| latency_ns > d);
            j.phase = JobPhase::Done(Outcome {
                finished_ns,
                latency_ns,
                checksum,
                deadline_missed,
            });
            (j.spec.tenant, j.spec.steps, deadline_missed)
        };
        self.admission.release(tenant);
        self.stats.completed += 1;
        self.stats.md_steps += md_steps;
        if deadline_missed {
            self.stats.deadline_misses += 1;
        }
        // The deliver flow id is the exemplar's handle into the merged
        // Chrome trace: `args.id` of the `s`/`f` pair on this job's
        // final hop.
        let latency_ns = finished_ns - self.jobs[&id].submitted_ns;
        self.scope_event(
            Some(tenant),
            Some(w),
            id,
            deliver_ctx.as_ref().map_or(0, |c| c.flow_id),
            slo::Kind::Complete { latency_ns },
        );
        self.try_dispatch()
    }

    /// The worker process dies: its in-memory engine and runner die
    /// with it, only durably committed generations survive. Pending
    /// quantum events go stale via the incarnation bump; the liveness
    /// sweep notices the orphaned job once its heartbeat ages out.
    fn kill_worker(&mut self, w: usize) {
        let wk = &mut self.workers[w];
        let victim = match wk.state {
            WorkerState::Busy { job } => Some(job),
            _ => None,
        };
        wk.runner = None;
        wk.state = WorkerState::Dead {
            until_ns: self.now + RESPAWN_DELAY_NS,
        };
        wk.incarnation += 1;
        wk.rollbacks_seen = 0;
        wk.lane_panics_seen = 0;
        self.stats.worker_kills += 1;
        // Payload: (worker, victim job) — the job id is how a kill
        // alert's exemplar finds this entry in the ring the loop's
        // caller armed (u64::MAX when the worker died idle).
        tel::flight::record("serve", "worker_kill", w as u64, victim.unwrap_or(u64::MAX));
        swprof::metrics::counter_add("serve.worker_kills", 1);
        let tenant = victim.map(|id| self.jobs[&id].spec.tenant);
        self.scope_event(tenant, Some(w), victim.unwrap_or(0), 0, slo::Kind::Kill);
        self.ensure_sweep();
    }

    fn on_sweep(&mut self) -> io::Result<()> {
        self.sweep_scheduled = false;
        for w in 0..self.workers.len() {
            if let WorkerState::Dead { until_ns } = self.workers[w].state {
                if self.now >= until_ns {
                    self.workers[w].state = WorkerState::Idle;
                    self.stats.respawns += 1;
                }
            }
        }
        // Liveness: a Running job whose worker no longer holds it (the
        // process died under it) is readmitted once its heartbeat is
        // stale. Re-entry keeps the original admission-order key, so a
        // victim of chaos goes to the *front* of its priority band.
        let mut to_readmit = Vec::new();
        for (&id, job) in &self.jobs {
            if let JobPhase::Running(w) = job.phase {
                let wk = &self.workers[w];
                let held = wk.runner.is_some()
                    && matches!(wk.state, WorkerState::Busy { job } if job == id);
                if !held && self.now.saturating_sub(job.last_heartbeat_ns) >= LIVENESS_TIMEOUT_NS {
                    to_readmit.push(id);
                }
            }
        }
        for id in to_readmit {
            let tenant = {
                let j = self.jobs.get_mut(&id).expect("readmitted job");
                j.phase = JobPhase::Queued;
                j.readmissions += 1;
                j.spec.tenant
            };
            self.stats.readmissions += 1;
            tel::flight::record("serve", "job_readmit", id, 0);
            self.scope_event(Some(tenant), None, id, 0, slo::Kind::Readmit);
            self.enqueue(id)?;
        }
        // Reconcile: Queued jobs missing from the run queue (a
        // `sched.job_drop` firing) are re-inserted directly — no second
        // drop draw on this path, so drop recovery always converges.
        let mut to_requeue = Vec::new();
        for (&id, job) in &self.jobs {
            if matches!(job.phase, JobPhase::Queued) {
                let key = (job.spec.priority.rank(), job.admit_seq, id);
                if !self.queue.contains(&key) {
                    to_requeue.push((key, id));
                }
            }
        }
        for (key, id) in to_requeue {
            self.queue.insert(key);
            self.jobs.get_mut(&id).expect("requeued job").requeues += 1;
            self.stats.requeues += 1;
        }
        self.try_dispatch()?;
        let work_pending = self
            .jobs
            .values()
            .any(|j| matches!(j.phase, JobPhase::Queued | JobPhase::Running(_)))
            || self
                .workers
                .iter()
                .any(|w| matches!(w.state, WorkerState::Dead { .. }));
        if work_pending {
            self.ensure_sweep();
        }
        Ok(())
    }
}

/// The engine a worker runs for `spec`: the paper configuration on the
/// requested version/backend, trajectory output off (the service
/// delivers checksummed final states, not frame streams).
fn build_engine(spec: &JobSpec) -> Engine {
    Engine::new(
        mdsim::water::water_box(spec.n_mol, 300.0, spec.seed),
        EngineConfig {
            backend: spec.backend,
            nstxout: 0,
            ..EngineConfig::paper(spec.version)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use swfault::FaultPlan;
    use swgmx::engine::Version;
    use swgmx::BackendSel;

    fn spec(seed: u64, steps: u64, priority: Priority, tenant: u32) -> JobSpec {
        JobSpec {
            tenant,
            n_mol: 8,
            version: Version::Other,
            backend: BackendSel::Metered,
            steps,
            seed,
            priority,
            deadline_ns: Some(1_000_000_000),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swserve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Whether every registered job reached a terminal phase.
    fn all_terminal(svc: &Service) -> bool {
        svc.jobs()
            .values()
            .all(|j| matches!(j.phase, JobPhase::Done(_) | JobPhase::Shed))
    }

    fn latencies(svc: &Service) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = svc
            .jobs()
            .values()
            .filter_map(|j| match j.phase {
                JobPhase::Done(o) => Some((j.spec.seed, o.latency_ns)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn run_small(tag: &str) -> (ServiceStats, Vec<(u64, u64)>) {
        let dir = tmp(tag);
        let mut svc = Service::new(ServiceConfig::new(2, &dir)).unwrap();
        for i in 0..8u64 {
            let p = match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            };
            svc.submit_at(i * 30_000, spec(1000 + i, 20, p, (i % 2) as u32));
        }
        svc.run_to_completion().unwrap();
        assert!(all_terminal(&svc));
        let out = (svc.stats().clone(), latencies(&svc));
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn two_runs_of_the_same_load_are_bit_identical() {
        let a = run_small("det-a");
        let b = run_small("det-b");
        assert_eq!(a.0, b.0, "stats diverged between identical runs");
        assert_eq!(a.1, b.1, "latencies/checksum keys diverged");
        assert_eq!(a.0.completed, 8);
        assert_eq!(a.0.worker_kills, 0);
    }

    #[test]
    fn scripted_worker_kill_readmits_and_resumes_bit_identically() {
        // Reference: the same single job with no chaos.
        let reference = {
            let dir = tmp("kill-ref");
            let mut svc = Service::new(ServiceConfig::new(1, &dir)).unwrap();
            svc.submit_at(0, spec(77, 30, Priority::Normal, 0));
            svc.run_to_completion().unwrap();
            let cks = match svc.jobs()[&0].phase {
                JobPhase::Done(o) => o.checksum,
                ref p => panic!("reference job not done: {p:?}"),
            };
            let _ = std::fs::remove_dir_all(&dir);
            cks
        };

        // Chaos: worker 0's process dies at its first quantum boundary.
        let plan = FaultPlan::with_seed(3).one_shot(Site::RankKill, Some(0), 0);
        let scope = swfault::install(plan);
        let dir = tmp("kill-chaos");
        let mut svc = Service::new(ServiceConfig::new(1, &dir)).unwrap();
        svc.submit_at(0, spec(77, 30, Priority::Normal, 0));
        svc.run_to_completion().unwrap();
        let log = scope.finish();
        assert_eq!(log.count(Site::RankKill), 1);

        let stats = svc.stats();
        assert_eq!(stats.worker_kills, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.readmissions, 1);
        assert_eq!(stats.resumes, 1, "re-dispatch resumed from the store");
        assert_eq!(stats.completed, 1);
        let job = &svc.jobs()[&0];
        assert_eq!(job.dispatches, 2);
        match job.phase {
            JobPhase::Done(o) => {
                assert_eq!(o.checksum, reference, "resumed trajectory diverged")
            }
            ref p => panic!("job not done after recovery: {p:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_job_is_restored_by_the_reconcile_sweep() {
        // The first enqueue on the scheduler (MPE) lane loses the job.
        let plan = FaultPlan::with_seed(4).one_shot(Site::SchedJobDrop, None, 0);
        let scope = swfault::install(plan);
        let dir = tmp("drop");
        let mut svc = Service::new(ServiceConfig::new(1, &dir)).unwrap();
        svc.submit_at(0, spec(5, 20, Priority::Normal, 0));
        svc.run_to_completion().unwrap();
        let log = scope.finish();
        assert_eq!(log.count(Site::SchedJobDrop), 1);

        let stats = svc.stats();
        assert_eq!(stats.job_drops, 1);
        assert_eq!(stats.requeues, 1, "reconcile restored the lost job");
        assert_eq!(stats.completed, 1);
        assert!(all_terminal(&svc));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unmeetable_deadline_is_counted_not_enforced() {
        let dir = tmp("deadline");
        let mut svc = Service::new(ServiceConfig::new(1, &dir)).unwrap();
        let mut s = spec(9, 20, Priority::Normal, 0);
        s.deadline_ns = Some(1); // nothing finishes in 1 virtual ns
        svc.submit_at(0, s);
        svc.run_to_completion().unwrap();
        assert_eq!(svc.stats().completed, 1, "late jobs still deliver");
        assert_eq!(svc.stats().deadline_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_queue_rejects_after_bounded_retries() {
        let dir = tmp("reject");
        let mut cfg = ServiceConfig::new(1, &dir);
        cfg.admission.queue_capacity = 0;
        let mut svc = Service::new(cfg).unwrap();
        svc.submit_at(0, spec(1, 20, Priority::Normal, 0));
        svc.run_to_completion().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(
            stats.backpressure,
            swfault::retry::MAX_ATTEMPTS as u64,
            "one verdict per attempt, then rejection"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_sheds_strictly_lower_priority_work() {
        let dir = tmp("shed");
        let mut cfg = ServiceConfig::new(1, &dir);
        cfg.admission.queue_capacity = 1;
        let mut svc = Service::new(cfg).unwrap();
        svc.submit_at(0, spec(100, 40, Priority::Normal, 0)); // dispatches
        svc.submit_at(1, spec(101, 20, Priority::Low, 1)); // queues
        svc.submit_at(2, spec(102, 20, Priority::High, 2)); // sheds the Low job
        svc.run_to_completion().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 2);
        assert!(matches!(svc.jobs()[&1].phase, JobPhase::Shed));
        assert!(matches!(svc.jobs()[&2].phase, JobPhase::Done(_)));
        assert!(all_terminal(&svc));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
