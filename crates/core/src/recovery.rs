//! Fault-tolerant engine driver: step-level checkpoint/rollback for the
//! full simulated MD step.
//!
//! [`FaultTolerantRunner`] steps an [`Engine`] through the checkpoint,
//! rollback and resume loop of [`mdsim::durable`] the way a production
//! campaign would run on real hardware: periodic checkpoints serialized
//! through the (fault-injectable) checkpoint codec, with
//! rollback-and-replay when a step is detected as corrupt
//! ([`Site::StepAbort`](swfault::Site::StepAbort)) or a kernel lane
//! panics.
//!
//! Recovery here is **bit-exact** for every site except kernel faults:
//! checkpoints land on `nstlist` boundaries so the pair-list rebuild
//! schedule replays identically after [`Engine::resume_at`], each step
//! is a pure function of `(positions, velocities, step index)`, and all
//! substrate-level faults perturb only simulated cycles. Kernel-fault
//! degradation (the `Ori` fallback) changes FP summation order and is
//! therefore the one site a differential test must leave disabled.

use std::io;
use std::ops::Deref;
use std::path::Path;

use mdsim::checkpoint::Checkpoint;
use mdsim::durable::{Durable, Report, Step, Stepper};
use swprof::tel::flight::Ring;

use crate::engine::Engine;

/// Outcome of a fault-tolerant engine run: the loop's counters (read
/// through this report too) and the engine's own.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The loop's counters: step executions (replays included),
    /// rollbacks, generations persisted (0 without a store), fsync
    /// retries and the step resumed from.
    pub run: Report,
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
}

impl Deref for RecoveryReport {
    type Target = Report;

    fn deref(&self) -> &Report {
        &self.run
    }
}

/// Drives an [`Engine`] under a fault plan with checkpoint/rollback.
/// A runner owns the flight ring its rollbacks dump: everything recorded
/// while it builds and runs lands there, and in no ring further out.
pub struct FaultTolerantRunner {
    run: Durable,
    on: Driven,
}

/// The engine as the loop steps it.
struct Driven {
    engine: Engine,
    report: RecoveryReport,
}

impl FaultTolerantRunner {
    /// Wrap `engine`, checkpointing every `cp_every` steps in memory.
    /// `cp_every` must be a positive multiple of the engine's `nstlist`
    /// so a restored run rebuilds its pair list at the same step index
    /// the original did (the [`Engine::resume_at`] contract).
    pub fn new(engine: Engine, cp_every: usize) -> io::Result<Self> {
        Self::open(engine, cp_every, None)
    }

    /// Like [`FaultTolerantRunner::new`], but every checkpoint is also
    /// committed to a crash-consistent store at `dir` as a single-frame
    /// generation (epoch = step index). If the store already holds a
    /// valid generation — this process was restarted — the engine
    /// resumes from the newest one instead of its current state, so a
    /// campaign survives process death, not just step aborts. Torn or
    /// corrupted generations on disk are skipped by the store's
    /// fallback walk.
    ///
    /// The starting generation this writes into an empty store is
    /// durable once the first [`FaultTolerantRunner::run_until`] has
    /// returned or the runner is dropped, whichever is first: a crash
    /// before that restarts from the engine the caller passed in, as a
    /// crash just before this call would.
    pub fn new_durable(engine: Engine, cp_every: usize, dir: &Path) -> io::Result<Self> {
        Self::open(engine, cp_every, Some(dir))
    }

    fn open(engine: Engine, cp_every: usize, dir: Option<&Path>) -> io::Result<Self> {
        let nstlist = engine.config().nstlist;
        assert!(
            cp_every > 0 && cp_every.is_multiple_of(nstlist),
            "cp_every ({cp_every}) must be a positive multiple of nstlist ({nstlist})"
        );
        let step = engine.step_index() as u64;
        let mut on = Driven {
            engine,
            report: RecoveryReport::default(),
        };
        let run = Durable::open(Ring::new(), dir, cp_every as u64, step, &mut on)?;
        Ok(Self { run, on })
    }

    /// The wrapped engine (read access for energies/breakdown).
    pub fn engine(&self) -> &Engine {
        &self.on.engine
    }

    /// The report accumulated so far (e.g. to read `resumed_from`
    /// right after [`FaultTolerantRunner::new_durable`], before any
    /// steps have run).
    pub fn report(&self) -> &RecoveryReport {
        &self.on.report
    }

    /// Run until the engine's step index reaches `until_step` (see
    /// [`Durable::run_until`]). With a store, every generation counted
    /// in the report is durable when this returns.
    pub fn run_until(&mut self, until_step: usize) -> io::Result<&RecoveryReport> {
        self.run.run_until(&mut self.on, until_step as u64)?;
        let Driven { engine, report } = &mut self.on;
        report.degraded = engine.degraded();
        report.kernel_faults = engine.kernel_faults();
        report.constraint_failures = engine.constraint_failures();
        Ok(report)
    }

    /// Consume the runner, returning the engine and the final report.
    pub fn into_parts(self) -> (Engine, RecoveryReport) {
        (self.on.engine, self.on.report)
    }
}

impl Stepper for Driven {
    /// Checkpoint the engine's state, retrying injected I/O faults.
    fn capture(&mut self, step: u64) -> io::Result<Vec<Vec<u8>>> {
        let (bytes, retries) = Checkpoint::capture(&self.engine.sys, step).encode_with_retry()?;
        self.report.checkpoint_io_retries += retries;
        self.report.checkpoints_written += 1;
        Ok(vec![bytes])
    }

    fn restore(&mut self, frames: &[Vec<u8>]) -> io::Result<u64> {
        let frame = frames
            .first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty generation"))?;
        let (cp, retries) = Checkpoint::decode_with_retry(frame)?;
        self.report.checkpoint_io_retries += retries;
        cp.restore(&mut self.engine.sys)?;
        self.engine.resume_at(cp.step as usize);
        Ok(cp.step)
    }

    /// A worker-thread panic mid-step (a poisoned native-pool region)
    /// leaves the engine with partial forces: the step failed, and the
    /// loop rolls back as for a step abort.
    fn step(&mut self, _step: u64) -> io::Result<Step> {
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.engine.step();
        }));
        if stepped.is_ok() {
            return Ok(Step::Ran);
        }
        self.report.lane_panics += 1;
        swprof::metrics::counter_add("fault.lane_panics", 1);
        Ok(Step::Failed("lane_panic"))
    }

    fn report(&mut self) -> &mut Report {
        &mut self.report.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSel;
    use crate::engine::{Engine, EngineConfig, Version};
    use mdsim::water::water_box_equilibrated;
    use swstore::{Store, StoreOptions};

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
    fn a_step_abort_and_a_lane_panic_in_one_run_keep_their_draw_order() {
        let native = || {
            Engine::new(
                water_box_equilibrated(48, 300.0, 11),
                EngineConfig {
                    backend: BackendSel::Native,
                    ..EngineConfig::paper(Version::Other)
                },
            )
        };
        let mut reference = FaultTolerantRunner::new(native(), 10).unwrap();
        reference.run_until(30).unwrap();
        // Abort decision 14 rolls step 15 back to 10; lane 7's 21st region
        // panics on the step after a boundary, which is captured again.
        // Literals recorded before the loop moved into `mdsim::durable`.
        let scope = swfault::install(
            swfault::FaultPlan::with_seed(5)
                .one_shot(swfault::Site::StepAbort, None, 14)
                .one_shot(swfault::Site::LanePanic, Some(7), 20),
        );
        let mut faulted = FaultTolerantRunner::new(native(), 10).unwrap();
        let report = faulted.run_until(30).unwrap().clone();
        assert_eq!(scope.finish().total(), 2);
        assert_eq!(
            (
                report.step_executions,
                report.rollbacks,
                report.lane_panics,
                report.checkpoints_written
            ),
            (36, 2, 1, 4)
        );
        let bits = |r: FaultTolerantRunner| {
            r.into_parts()
                .0
                .sys
                .pos
                .iter()
                .map(|p| p.x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(reference), bits(faulted), "recovery diverged");
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
