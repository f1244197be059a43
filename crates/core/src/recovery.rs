//! Fault-tolerant engine driver: step-level checkpoint/rollback for the
//! full simulated MD step.
//!
//! [`FaultTolerantRunner`] wraps an [`Engine`] and drives it the way a
//! production campaign would run on real hardware: periodic checkpoints
//! serialized through the (fault-injectable) checkpoint codec, with
//! rollback-and-replay when a step is detected as corrupt
//! ([`Site::StepAbort`](swfault::Site::StepAbort)).
//!
//! Recovery here is **bit-exact** for every site except kernel faults:
//! checkpoints land on `nstlist` boundaries so the pair-list rebuild
//! schedule replays identically after [`Engine::resume_at`], each step
//! is a pure function of `(positions, velocities, step index)`, and all
//! substrate-level faults perturb only simulated cycles. Kernel-fault
//! degradation (the `Ori` fallback) changes FP summation order and is
//! therefore the one site a differential test must leave disabled.

use std::io;
use std::path::Path;
use std::sync::Arc;

use mdsim::checkpoint::Checkpoint;
use swprof::tel::flight::Ring;
use swstore::{Store, StoreOptions};

use crate::engine::Engine;

/// Outcome of a fault-tolerant engine run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Step executions performed, including replays after rollback.
    pub step_executions: u64,
    /// Rollbacks to the last checkpoint.
    pub rollbacks: u64,
    /// Checkpoint serialize/deserialize attempts retried after an
    /// injected I/O fault.
    pub checkpoint_io_retries: u64,
    /// Checkpoints successfully serialized.
    pub checkpoints_written: u64,
    /// Worker-thread panics (poisoned native-pool regions) absorbed by
    /// rollback instead of propagating.
    pub lane_panics: u64,
    /// Whether the engine ended the run degraded to the `Ori` kernel.
    pub degraded: bool,
    /// Kernel faults absorbed by the engine during the run.
    pub kernel_faults: u64,
    /// Step executions whose SHAKE ran out of iterations
    /// ([`Engine::constraint_failures`]); replays count again.
    pub constraint_failures: u64,
    /// Checkpoint generations persisted to the durable store (durable
    /// mode only; 0 for the in-memory runner).
    pub generations_persisted: u64,
    /// fsync retries burned committing to the store.
    pub store_fsync_retries: u64,
    /// Step the runner resumed from when the store held a valid
    /// generation at construction.
    pub resumed_from: Option<u64>,
}

/// Drives an [`Engine`] under a fault plan with checkpoint/rollback.
/// A runner owns the flight ring its rollbacks dump: everything recorded
/// while it builds and runs lands there, and in no ring further out.
pub struct FaultTolerantRunner {
    engine: Engine,
    ring: Arc<Ring>,
    cp_every: usize,
    cp_bytes: Vec<u8>,
    high_water: usize,
    report: RecoveryReport,
    store: Option<Store>,
    last_persisted: Option<u64>,
}

impl FaultTolerantRunner {
    /// Wrap `engine`, checkpointing every `cp_every` steps. `cp_every`
    /// must be a positive multiple of the engine's `nstlist` so a
    /// restored run rebuilds its pair list at the same step index the
    /// original did (the [`Engine::resume_at`] contract).
    pub fn new(engine: Engine, cp_every: usize) -> io::Result<Self> {
        let ring = Ring::new();
        let _armed = ring.enter();
        Self::recording_into(ring, engine, cp_every)
    }

    /// [`FaultTolerantRunner::new`] with the caller's ring, entered.
    fn recording_into(ring: Arc<Ring>, engine: Engine, cp_every: usize) -> io::Result<Self> {
        let nstlist = engine.config().nstlist;
        assert!(
            cp_every > 0 && cp_every.is_multiple_of(nstlist),
            "cp_every ({cp_every}) must be a positive multiple of nstlist ({nstlist})"
        );
        let mut report = RecoveryReport::default();
        let cp_bytes = Self::serialize(&engine, &mut report)?;
        let high_water = engine.step_index();
        Ok(Self {
            engine,
            ring,
            cp_every,
            cp_bytes,
            high_water,
            report,
            store: None,
            last_persisted: None,
        })
    }

    /// Like [`FaultTolerantRunner::new`], but every checkpoint is also
    /// committed to a crash-consistent [`Store`] at `dir` as a
    /// single-frame generation (epoch = step index). If the store
    /// already holds a valid generation — this process was restarted —
    /// the engine resumes from the newest one instead of its current
    /// state, so a campaign survives process death, not just step
    /// aborts. Torn or corrupted generations on disk are skipped by the
    /// store's fallback walk.
    ///
    /// The starting generation this writes into an empty store is
    /// durable once the first [`FaultTolerantRunner::run_until`] has
    /// returned or the runner is dropped, whichever is first: a crash
    /// before that restarts from the engine the caller passed in, as a
    /// crash just before this call would.
    pub fn new_durable(mut engine: Engine, cp_every: usize, dir: &Path) -> io::Result<Self> {
        let ring = Ring::new();
        let _armed = ring.enter();
        let (mut store, _open) = Store::open(dir, StoreOptions::default())?;
        let mut report = RecoveryReport::default();
        let mut last_persisted = None;
        if let Some(generation) = store.load_newest_valid()? {
            let frame = generation
                .frames
                .first()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty generation"))?;
            let cp = Self::deserialize(frame, &mut report)?;
            cp.restore(&mut engine.sys)?;
            engine.resume_at(cp.step as usize);
            report.resumed_from = Some(cp.step);
            last_persisted = Some(cp.step);
            swprof::metrics::counter_add("rank.resumes", 1);
        }
        let mut runner = Self::recording_into(ring, engine, cp_every)?;
        runner.report.checkpoint_io_retries += report.checkpoint_io_retries;
        runner.report.resumed_from = report.resumed_from;
        runner.store = Some(store);
        runner.last_persisted = last_persisted;
        // Persist the starting state: a crash before the first boundary
        // must still find a generation to restart from.
        if runner.last_persisted.is_none() {
            runner.persist(runner.engine.step_index() as u64)?;
        }
        Ok(runner)
    }

    /// Commit the current in-memory checkpoint bytes as generation
    /// `epoch` (no-op without a store or if `epoch` is already on disk).
    /// The commit's barrier is left in flight ([`Store::begin`]), so the
    /// steps that follow run while the disk flushes;
    /// [`FaultTolerantRunner::run_until`] waits for it.
    fn persist(&mut self, epoch: u64) -> io::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        if self.last_persisted == Some(epoch) {
            return Ok(());
        }
        let frames = [self.cp_bytes.clone()];
        self.report.store_fsync_retries += store.begin(epoch, &frames)? as u64;
        self.report.generations_persisted += 1;
        self.last_persisted = Some(epoch);
        Ok(())
    }

    /// The wrapped engine (read access for energies/breakdown).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The report accumulated so far (e.g. to read `resumed_from`
    /// right after [`FaultTolerantRunner::new_durable`], before any
    /// steps have run).
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Checkpoint the engine's current state, retrying injected I/O faults.
    fn serialize(engine: &Engine, report: &mut RecoveryReport) -> io::Result<Vec<u8>> {
        let cp = Checkpoint::capture(&engine.sys, engine.step_index() as u64);
        let (bytes, retries) = cp.encode_with_retry()?;
        report.checkpoint_io_retries += retries;
        report.checkpoints_written += 1;
        Ok(bytes)
    }

    fn deserialize(bytes: &[u8], report: &mut RecoveryReport) -> io::Result<Checkpoint> {
        let (cp, retries) = Checkpoint::decode_with_retry(bytes)?;
        report.checkpoint_io_retries += retries;
        Ok(cp)
    }

    /// Discard everything since the last checkpoint: black-box the abort
    /// before state is rewound — the last N flight events explain *why*
    /// this rollback happened, and the dump lives next to the generation
    /// chain a restart would read — then restore and resume there.
    fn roll_back(&mut self, cause: &'static str, at_step: usize) -> io::Result<()> {
        self.report.rollbacks += 1;
        swprof::metrics::counter_add("fault.rollbacks", 1);
        let cp = Self::deserialize(&self.cp_bytes, &mut self.report)?;
        swprof::tel::flight::record("abort", cause, at_step as u64, cp.step);
        if let Some(store) = &self.store {
            let dump = store.dir().join("blackbox-rollback.json");
            let _ = self.ring.dump_to(&dump);
        }
        cp.restore(&mut self.engine.sys)?;
        self.engine.resume_at(cp.step as usize);
        Ok(())
    }

    /// Run until the engine's step index reaches `until_step`. Steps at
    /// or below the previous high-water mark (replays after rollback)
    /// are shielded from further abort decisions, guaranteeing forward
    /// progress and deterministic termination. In durable mode every
    /// generation counted in the report is durable when this returns.
    pub fn run_until(&mut self, until_step: usize) -> io::Result<&RecoveryReport> {
        let _armed = self.ring.enter();
        let mut consecutive_panics = 0u32;
        while self.engine.step_index() < until_step {
            let step = self.engine.step_index();
            // Checkpoint at each boundary the first time it is reached;
            // during a replay (step < high_water) the stored checkpoint
            // already holds this exact state.
            if step > 0 && step.is_multiple_of(self.cp_every) && step >= self.high_water {
                self.cp_bytes = Self::serialize(&self.engine, &mut self.report)?;
                self.persist(step as u64)?;
            }
            // A worker-thread panic mid-step (a poisoned native-pool
            // region) leaves the engine with partial forces; recovery
            // is the same as a step abort — discard everything since
            // the checkpoint and replay. Bounded: a step that panics on
            // every retry is a real bug, not chaos, and must surface.
            let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.engine.step();
            }));
            self.report.step_executions += 1;
            if stepped.is_err() {
                self.report.lane_panics += 1;
                consecutive_panics += 1;
                if consecutive_panics > swfault::retry::MAX_ATTEMPTS {
                    return Err(io::Error::other(
                        "kernel lane panicked on every replay of one step; giving up",
                    ));
                }
                swprof::metrics::counter_add("fault.lane_panics", 1);
                self.roll_back("lane_panic", step)?;
                continue;
            }
            consecutive_panics = 0;
            let now = self.engine.step_index();
            if now > self.high_water {
                self.high_water = now;
                if swfault::should(swfault::Site::StepAbort) {
                    self.roll_back("step_rollback", now)?;
                }
            }
        }
        if let Some(store) = self.store.as_mut() {
            store.settle()?;
        }
        self.report.degraded = self.engine.degraded();
        self.report.kernel_faults = self.engine.kernel_faults();
        self.report.constraint_failures = self.engine.constraint_failures();
        Ok(&self.report)
    }

    /// Consume the runner, returning the engine and the final report.
    pub fn into_parts(self) -> (Engine, RecoveryReport) {
        (self.engine, self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSel;
    use crate::engine::{Engine, EngineConfig, Version};
    use mdsim::water::water_box_equilibrated;

    fn engine() -> Engine {
        Engine::new(
            water_box_equilibrated(48, 300.0, 11),
            EngineConfig::paper(Version::Other),
        )
    }

    #[test]
    fn injected_worker_panic_rolls_back_and_replays_bit_identically() {
        let native = || {
            Engine::new(
                water_box_equilibrated(48, 300.0, 11),
                EngineConfig {
                    backend: BackendSel::Native,
                    ..EngineConfig::paper(Version::Other)
                },
            )
        };
        // Reference: the same campaign with no chaos.
        let mut reference = FaultTolerantRunner::new(native(), 10).unwrap();
        reference.run_until(20).unwrap();

        // One scripted pool-worker panic at lane 7's first region: the
        // poisoned region surfaces through Engine::step as a panic,
        // which the runner absorbs as a rollback, and the replayed step
        // (the one-shot is consumed) lands bit-identically.
        let scope = swfault::install(swfault::FaultPlan::with_seed(5).one_shot(
            swfault::Site::LanePanic,
            Some(7),
            0,
        ));
        let mut faulted = FaultTolerantRunner::new(native(), 10).unwrap();
        let report = faulted.run_until(20).unwrap().clone();
        let log = scope.finish();
        assert_eq!(report.lane_panics, 1);
        assert!(report.rollbacks >= 1);
        assert_eq!(log.count(swfault::Site::LanePanic), 1);

        let (engine_a, _) = reference.into_parts();
        let (engine_b, _) = faulted.into_parts();
        for (x, y) in engine_a.sys.pos.iter().zip(&engine_b.sys.pos) {
            assert_eq!(x.x.to_bits(), y.x.to_bits(), "panic recovery diverged");
            assert_eq!(x.y.to_bits(), y.y.to_bits());
            assert_eq!(x.z.to_bits(), y.z.to_bits());
        }
    }

    #[test]
    fn every_generation_counted_when_run_until_returns_is_on_disk() {
        let dir = std::env::temp_dir().join(format!("swgmx-settled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut runner = FaultTolerantRunner::new_durable(engine(), 10, &dir).unwrap();
        // Each call returns one step after a commit was begun.
        for (until, epochs) in [(1, vec![0]), (11, vec![0, 10]), (21, vec![0, 10, 20])] {
            let persisted = runner.run_until(until).unwrap().generations_persisted;
            assert_eq!(persisted, epochs.len() as u64);
            // With the runner alive, a second look at its directory
            // finds every generation whole and no commit half done.
            let (store, found) = Store::open(&dir, StoreOptions::default()).unwrap();
            assert_eq!(store.chain(), epochs, "after run_until({until})");
            assert!(found.rejected.is_empty() && found.temps_swept == 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_restart_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("swgmx-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cp_every = 10;

        // Reference: one uninterrupted run to 40.
        let mut reference = FaultTolerantRunner::new(engine(), cp_every).unwrap();
        reference.run_until(40).unwrap();

        // Interrupted campaign: run to 25, then "crash" (drop the
        // runner), then restart a *fresh* engine from the store.
        let mut first = FaultTolerantRunner::new_durable(engine(), cp_every, &dir).unwrap();
        first.run_until(25).unwrap();
        let (_, first_report) = first.into_parts();
        assert_eq!(first_report.resumed_from, None);
        assert!(first_report.generations_persisted >= 3); // 0, 10, 20

        let mut second = FaultTolerantRunner::new_durable(engine(), cp_every, &dir).unwrap();
        second.run_until(40).unwrap();
        let (engine_b, report_b) = second.into_parts();
        assert_eq!(report_b.resumed_from, Some(20), "newest boundary before 25");
        assert_eq!(report_b.step_executions, 20);

        let (engine_a, _) = reference.into_parts();
        for (x, y) in engine_a.sys.pos.iter().zip(&engine_b.sys.pos) {
            assert_eq!(x.x.to_bits(), y.x.to_bits(), "restart diverged");
            assert_eq!(x.y.to_bits(), y.y.to_bits());
            assert_eq!(x.z.to_bits(), y.z.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
