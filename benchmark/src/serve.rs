//! The `serve_*` workloads: rounds of `swserve::loadgen::run`.
//!
//! Tiny boxes, few steps: force work is negligible, and engine
//! construction, the per-step fixed cost, checkpoint encode, `swstore`
//! commit+fsync and the event loop do the work — the opposite corner
//! from `kernel_48k`. Under chaos the same jobs also exercise store
//! reads, rollbacks, readmits and resumes.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use mdsim::checkpoint::Checkpoint;
use swgmx::engine::{Engine, EngineConfig};
use swgmx::recovery::FaultTolerantRunner;
use swserve::loadgen::{self, LoadPlan, RunResult};
use swserve::service::ServiceConfig;
use swserve::{trajectory_checksum, JobSpec};
use swstore::{Store, StoreOptions};

use crate::outcome::{peak_rss_mb, Outcome};
use crate::scratch::Scratch;
use crate::stats;
use crate::trace::Tracer;
use crate::SETUP_REPS;

/// Jobs per round: six of them native (`native_every` = 16), about
/// 1.7 s of work for the four workers.
pub const N_JOBS: usize = 96;
const N_WORKERS: usize = 4;

/// Jobs replayed one at a time in a traced run of the default length.
const REPLAY_JOBS: usize = 48;

/// Whole-service rounds in a traced run of the default length.
const TRACED_ROUNDS: usize = 3;

pub struct ServeWorkload {
    pub name: &'static str,
    pub chaos: bool,
    pub n_jobs: usize,
}

impl ServeWorkload {
    /// Seed of the run's `k`-th plan. Job sizes are drawn from the plan
    /// seed, so one plan's mix can sit well off the average; a run cycles
    /// through [`SETUP_REPS`] plans, distinct for every `--seed`.
    fn plan_seed(seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(SETUP_REPS as u64).wrapping_add(k as u64)
    }

    fn reference_plan(&self, plan_seed: u64) -> LoadPlan {
        LoadPlan::standard(plan_seed, self.n_jobs, N_WORKERS)
    }

    fn timed_plan(&self, plan_seed: u64) -> LoadPlan {
        let plan = self.reference_plan(plan_seed);
        if self.chaos {
            plan.with_chaos()
        } else {
            plan
        }
    }

    /// The jobs of a round, in submission order.
    fn specs(&self, plan_seed: u64) -> Vec<JobSpec> {
        let plan = self.reference_plan(plan_seed);
        (0..self.n_jobs)
            .map(|i| loadgen::spec_for(&plan, i))
            .collect()
    }
}

/// One plan of a run with what its rounds are checked against.
struct Variant {
    plan: LoadPlan,
    specs: Vec<JobSpec>,
    steps: u64,
    /// The fault-free run of the same jobs.
    reference: RunResult,
}

/// Injected lane panics are caught and replayed by the recovery layer;
/// the default hook would still print each one. Silence exactly those.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        let injected = msg.starts_with("injected pool worker panic")
            || msg.starts_with("native pool: a kernel lane panicked");
        if !injected {
            default(info);
        }
    }));
}

/// One round in its own store directory, deleted afterwards. The delete
/// is flushed before returning: on a journalled filesystem the next
/// round's first fsync would otherwise pay for it (and for the discards
/// it queues), inside the caller's timing.
fn round(plan: &LoadPlan, scratch: &Scratch, tag: &str) -> io::Result<(RunResult, f64)> {
    let dir = scratch.path().join(tag);
    let t0 = Instant::now();
    let result = loadgen::run(plan, &dir);
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::File::open(scratch.path())?.sync_all()?;
    Ok((result?, wall_s))
}

/// MD steps of the jobs that did not complete, or completed on a
/// trajectory other than the fault-free reference's. An operation of
/// these workloads is one MD step delivered to a client: job sizes are
/// drawn from the seed, steps are what every seed is measured in. Both
/// maps are `job seed -> trajectory checksum`.
fn failed_steps(
    specs: &[JobSpec],
    run: &BTreeMap<u64, u64>,
    reference: &BTreeMap<u64, u64>,
) -> u64 {
    specs
        .iter()
        .filter(|spec| {
            let delivered = run.get(&spec.seed);
            delivered.is_none() || delivered != reference.get(&spec.seed)
        })
        .map(|spec| spec.steps)
        .sum()
}

pub fn run_untraced(w: &ServeWorkload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let scratch = Scratch::new(w.name)?;
    quiet_injected_panics();

    // Set-up: the fault-free reference run of a plan. Its checksums are
    // what every timed job must reproduce, and it warms the pool and the
    // page cache. Each repetition sets up the next plan of the cycle.
    let mut setups = Vec::new();
    let mut variants = Vec::new();
    for k in 0..SETUP_REPS {
        let plan_seed = ServeWorkload::plan_seed(seed, k);
        let (reference, wall_s) = round(
            &w.reference_plan(plan_seed),
            &scratch,
            &format!("reference-{k}"),
        )?;
        setups.push(wall_s);
        let specs = w.specs(plan_seed);
        variants.push(Variant {
            plan: w.timed_plan(plan_seed),
            steps: specs.iter().map(|s| s.steps).sum(),
            specs,
            reference,
        });
    }
    out.set_median("setup_s", &setups);
    out.check(
        format!("every reference run completed all {} jobs", w.n_jobs),
        variants
            .iter()
            .all(|v| v.reference.checksums.len() == w.n_jobs),
    );

    let mut step_ms = Vec::new();
    let mut total_wall_s = 0.0;
    let mut all_admitted = true;
    let mut same_sim_p99 = true;
    let mut sim_p99 = vec![None; variants.len()];
    let loop_start = Instant::now();
    // Whole cycles only, so every run measures the same mix of plans.
    while loop_start.elapsed().as_secs_f64() < seconds
        || !step_ms.len().is_multiple_of(variants.len())
    {
        let k = step_ms.len() % variants.len();
        let v = &variants[k];
        let (r, wall_s) = round(&v.plan, &scratch, &format!("round-{}", step_ms.len()))?;
        total_wall_s += wall_s;
        step_ms.push(wall_s * 1e3 / v.steps as f64);
        out.attempted += v.steps;
        out.failed += failed_steps(&v.specs, &r.checksums, &v.reference.checksums);
        let s = &r.slo.stats;
        all_admitted &= s.submitted == w.n_jobs as u64
            && s.admitted == s.submitted
            && s.completed == s.admitted;
        // Fault-free rounds must also replay the reference run itself.
        let expect = *sim_p99[k].get_or_insert(if w.chaos {
            r.slo.p99_ns
        } else {
            v.reference.slo.p99_ns
        });
        same_sim_p99 &= r.slo.p99_ns == expect;
    }
    out.check(
        "completed = admitted = submitted in every round",
        all_admitted,
    );
    out.check(
        "every round of a plan replays to the same simulated p99 latency",
        same_sim_p99,
    );

    let steps_per_s = out.attempted as f64 / total_wall_s;
    out.set("ops_per_s", steps_per_s);
    out.set_median("op_ms_p50", &step_ms);
    let rounds = step_ms.len();
    out.note(format!(
        "jobs_per_s {:.2} ({rounds} rounds of {} jobs over {} plans, {} steps)",
        (rounds * w.n_jobs) as f64 / total_wall_s,
        w.n_jobs,
        variants.len(),
        out.attempted
    ));
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The engine a swserve worker builds for `spec` (`service::build_engine`
/// is private): paper configuration, requested backend, no trajectory.
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

pub fn run_traced(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let scratch = Scratch::new(w.name)?;
    let mut tr = Tracer::new();
    quiet_injected_panics();
    let samples = |base: usize| crate::scaled(base, seconds);

    let plan_seed = ServeWorkload::plan_seed(seed, 0);
    let plan = w.timed_plan(plan_seed);
    let (reference, _) = round(&w.reference_plan(plan_seed), &scratch, "reference")?;

    // The service as a whole.
    let specs = w.specs(plan_seed);
    let steps_per_round: u64 = specs.iter().map(|s| s.steps).sum();
    let mut run_s = Vec::new();
    let mut last = None;
    for i in 0..samples(TRACED_ROUNDS) {
        let dir = scratch.path().join(format!("service-{i}"));
        let (run, ms) = tr.timed("service.run", i as u64, || loadgen::run(&plan, &dir));
        let run = run?;
        run_s.push(ms / 1e3);
        out.attempted += steps_per_round;
        out.failed += failed_steps(&specs, &run.checksums, &reference.checksums);
        last = Some(run);
    }
    let run = last.expect("at least two rounds");
    let s = &run.slo.stats;
    let run_s = out.set_median("service.run_s", &run_s);
    out.set("service.jobs_per_s", s.completed as f64 / run_s);
    out.set("service.kills", s.worker_kills as f64);
    out.set("service.readmits", s.readmissions as f64);
    out.set("service.resumes", s.resumes as f64);
    out.set("service.injected_faults", run.slo.injected_faults as f64);
    out.set("service.sim_p99_latency_ms", run.slo.p99_ns as f64 / 1e6);
    out.set("recovery.rollbacks", s.rollbacks as f64);
    out.set("recovery.lane_panics", s.lane_panics as f64);

    // The same jobs one at a time, fault-free, outside the service: what
    // a job costs without the scheduler around it.
    let cp_every = ServiceConfig::new(N_WORKERS, scratch.path()).cp_every;
    let n_replay = samples(REPLAY_JOBS).min(w.n_jobs);
    let mut new_us = Vec::new();
    let mut job_ms = Vec::new();
    let mut replay_matches = true;
    let mut replayed_steps = 0u64;
    for (i, spec) in specs.iter().take(n_replay).enumerate() {
        let job = tr.open("recovery.job", i as u64);
        let (engine, ms) = tr.timed("engine.new", i as u64, || build_engine(spec));
        new_us.push(ms * 1e3);
        let dir = scratch.path().join(format!("replay-{i}"));
        let mut runner = FaultTolerantRunner::new_durable(engine, cp_every, &dir)?;
        runner.run_until(spec.steps as usize)?;
        job_ms.push(tr.close(job) as f64 / 1e6);
        replayed_steps += spec.steps;
        let (engine, _) = runner.into_parts();
        replay_matches &=
            reference.checksums.get(&spec.seed) == Some(&trajectory_checksum(&engine.sys));
    }
    out.check(
        format!("{n_replay} jobs replayed alone end on the service's trajectory checksums"),
        replay_matches,
    );
    out.set_median("engine.new_us_p50", &new_us);
    out.set_median("recovery.job_ms_p50", &job_ms);
    // Standalone cost of the round's delivered steps against what the
    // service took for them (under chaos that includes every replay).
    let standalone_s =
        job_ms.iter().sum::<f64>() / 1e3 * steps_per_round as f64 / replayed_steps as f64;
    out.set("service.sched_overhead_share", 1.0 - standalone_s / run_s);

    // Checkpoint encode and the store, on a serve-sized frame.
    let sys = mdsim::water::water_box(24, 300.0, seed);
    let mut frame = Vec::new();
    let mut encode_us = Vec::new();
    for i in 0..samples(200) as u64 {
        frame.clear();
        let (written, ms) = tr.timed("checkpoint.encode", i, || {
            Checkpoint::capture(&sys, i).write_to(&mut frame)
        });
        written?;
        encode_us.push(ms * 1e3);
    }
    out.set_median("checkpoint.encode_us_p50", &encode_us);
    out.set("checkpoint.bytes", frame.len() as f64);

    let store_dir = scratch.path().join("store");
    let (mut store, _) = Store::open(&store_dir, StoreOptions::default())?;
    let frames = [frame];
    let mut commit_ms = Vec::new();
    // Never fewer than 200: the p95 needs ten samples beyond it.
    for epoch in 0..samples(200).max(200) as u64 {
        let (committed, ms) = tr.timed("swstore.commit", epoch, || store.commit(epoch, &frames));
        committed?;
        commit_ms.push(ms);
    }
    out.set_median("swstore.commit_ms_p50", &commit_ms);
    out.set("swstore.commit_ms_p95", stats::tail(&commit_ms, 95));

    let mut load_ms = Vec::new();
    for i in 0..samples(50) as u64 {
        let (loaded, ms) = tr.timed("swstore.load", i, || store.load_newest_valid());
        load_ms.push(ms);
        assert!(
            loaded?.is_some_and(|g| g.frames == frames),
            "store lost a commit"
        );
    }
    out.set_median("swstore.load_ms_p50", &load_ms);
    drop(store);

    let mut open_ms = Vec::new();
    for i in 0..samples(20) as u64 {
        let (opened, ms) = tr.timed("swstore.open", i, || {
            Store::open(&store_dir, StoreOptions::default())
        });
        open_ms.push(ms);
        let (reopened, report) = opened?;
        assert!(
            reopened.newest().is_some() && report.rejected.is_empty(),
            "store reopened without its chain"
        );
    }
    out.set_median("swstore.open_ms_p50", &open_ms);

    // A 12K-particle checkpoint is 288 KB: the fsync-bound end of commit.
    let big = [vec![0xA5u8; 288 * 1024]];
    let (mut big_store, _) =
        Store::open(scratch.path().join("store-288k"), StoreOptions::default())?;
    let mut big_ms = Vec::new();
    for epoch in 0..samples(20) as u64 {
        let (committed, ms) = tr.timed("swstore.commit_288k", epoch, || {
            big_store.commit(epoch, &big)
        });
        committed?;
        big_ms.push(ms);
    }
    out.set_median("swstore.commit_288k_ms_p50", &big_ms);

    out.set("trace.spans", tr.spans().len() as f64);
    if let Err(e) = tr.write(trace_path, w.name, "job") {
        out.check(format!("span file {}: {e}", trace_path.display()), false);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_or_missing_checksum_fails_the_jobs_steps() {
        let w = ServeWorkload {
            name: "unit",
            chaos: false,
            n_jobs: 3,
        };
        let specs = w.specs(5);
        let reference: BTreeMap<u64, u64> = specs.iter().map(|s| (s.seed, s.seed ^ 1)).collect();
        assert_eq!(failed_steps(&specs, &reference, &reference), 0);

        let mut wrong = reference.clone();
        *wrong.get_mut(&specs[1].seed).unwrap() ^= 0xff;
        assert_eq!(failed_steps(&specs, &wrong, &reference), specs[1].steps);

        let mut missing = reference.clone();
        missing.remove(&specs[0].seed);
        assert_eq!(failed_steps(&specs, &missing, &reference), specs[0].steps);
        // A job the reference lacks cannot be vouched for either.
        assert_eq!(failed_steps(&specs, &reference, &missing), specs[0].steps);
        assert_eq!(
            failed_steps(&specs, &BTreeMap::new(), &reference),
            specs.iter().map(|s| s.steps).sum::<u64>()
        );
    }
}
