//! Durable runs: one checkpoint, rollback and resume loop
//! ([`Durable`]) and the domain-decomposed run that steps through it
//! ([`run_dd_md_durable`]); `swgmx::recovery::FaultTolerantRunner` is
//! the loop's other user.
//!
//! A [`Stepper`] says what a step is; the loop owns the rest:
//! resume from the store's newest valid generation, a generation at every
//! `every`-th step at or above the high-water mark (committed with
//! [`Store::begin`], settled before [`Durable::run_until`] returns), the
//! one [`Site::StepAbort`](swfault::Site::StepAbort) draw after each new
//! step, and rollback to the newest captured generation, kept in memory.
//!
//! A DD generation is one [`RankShard`] per live rank, committed behind
//! an epoch barrier; it reassembles ([`assemble_shards`]) into global
//! state whatever rank count wrote it. A rank killed for good
//! ([`Site::RankKill`](swfault::Site::RankKill)) is detected by halo
//! timeout; the survivors re-decompose and reload the newest generation.
//! Since [`compute_forces_dd`] is a pure function of `(state, n_ranks)`,
//! every recovery changes *when* steps execute, never what one computes.

use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use swnet::{
    epoch_barrier, epoch_barrier_traced, halo_exchange_ns, halo_timeout_ns, SeqChannel, Transport,
};
use swprof::scope::Who;
use swprof::tel::flight::Ring;
use swstore::{Store, StoreOptions};

use crate::checkpoint::{assemble_shards, RankShard};
use crate::constraints::ConstraintSet;
use crate::ddrun::compute_forces_dd;
use crate::domain::Decomposition;
use crate::integrate::leapfrog_step_constrained;
use crate::nonbonded::{NbEnergies, NbParams};
use crate::system::System;

/// Leapfrog time step of a durable run: the paper's 2 fs.
pub const DT: f32 = 0.002;

/// Transport of the durable run's communication plane: the paper's RDMA
/// (§3.6).
const TRANSPORT: Transport = Transport::Rdma;

/// What one [`Stepper::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The step ran; a new one draws the abort.
    Ran,
    /// The step ran and failed for `cause`: roll back and replay.
    Failed(&'static str),
    /// No step ran and the stepped state changed shape (a rank died):
    /// reload the newest generation, counting nothing.
    Reload,
}

/// What a [`Durable`] loop steps.
pub trait Stepper {
    /// The frames of a generation of the current state, at `step`.
    fn capture(&mut self, step: u64) -> io::Result<Vec<Vec<u8>>>;
    /// Restore a generation's frames; the step they hold.
    fn restore(&mut self, frames: &[Vec<u8>]) -> io::Result<u64>;
    /// Run step `step`.
    fn step(&mut self, step: u64) -> io::Result<Step>;
    /// The loop's counters, kept in the stepper's own report.
    fn report(&mut self) -> &mut Report;
    /// Run `commit`, the store's half of a commit, wrapped in what a
    /// commit costs the stepper beyond the store; the fsync retries.
    fn committing(&mut self, commit: impl FnOnce() -> io::Result<u32>) -> io::Result<u32> {
        commit()
    }
}

/// The counters a [`Durable`] loop keeps, whatever it steps.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Step executions, including replays after a rollback.
    pub step_executions: u64,
    /// Rollbacks to the newest generation (step aborts, failed steps).
    pub rollbacks: u64,
    /// Generations committed to the store.
    pub generations_persisted: u64,
    /// fsync retries the store burned committing.
    pub fsync_retries: u64,
    /// Step the run resumed from, if the store held a valid generation.
    pub resumed_from: Option<u64>,
}

/// The checkpoint, rollback and resume loop. It owns the flight ring
/// its rollbacks dump: everything recorded while it opens and runs lands
/// there, and in no ring further out.
pub struct Durable {
    ring: Arc<Ring>,
    store: Option<Store>,
    every: u64,
    /// Frames of the newest captured generation.
    newest: Vec<Vec<u8>>,
    /// Newest epoch committed or resumed from this run.
    committed: Option<u64>,
    step: u64,
    /// Steps above this mark are new; only a new step may abort.
    high_water: u64,
}

impl Durable {
    /// Open the loop over `s`, which is at `step`, capturing a generation
    /// every `every` steps. With a store at `dir`, `s` first resumes from
    /// its newest valid generation, if any. The floor generation is the
    /// state the run starts from, committed unless the store holds it.
    pub fn open(
        ring: Arc<Ring>,
        dir: Option<&Path>,
        every: u64,
        step: u64,
        s: &mut impl Stepper,
    ) -> io::Result<Self> {
        assert!(every > 0, "the checkpoint cadence must be positive");
        let _armed = ring.enter();
        let open = |dir| Store::open(dir, StoreOptions::default()).map(|(store, _)| store);
        let mut store = dir.map(open).transpose()?;
        let (mut step, mut committed) = (step, None);
        let resumed = store.as_mut().map(Store::load_newest_valid).transpose()?;
        if let Some(generation) = resumed.flatten() {
            step = s.restore(&generation.frames)?;
            committed = Some(step);
            s.report().resumed_from = Some(step);
            swprof::metrics::counter_add("rank.resumes", 1);
        }
        let mut run = Self {
            ring: ring.clone(),
            store,
            every,
            newest: Vec::new(),
            committed,
            step,
            high_water: step,
        };
        run.capture(s)?;
        Ok(run)
    }

    /// Epochs the store holds, oldest first (none without a store).
    pub fn chain(&self) -> &[u64] {
        self.store.as_ref().map_or(&[], Store::chain)
    }

    /// Step `s` until step `until`. A step at a cadence boundary at or
    /// above the high-water mark is captured first (a replayed one below
    /// it holds the captured state; one just restored onto the mark is
    /// captured again, an encode the runner's pinned fault draws count;
    /// step 0 is `open`'s); a step that fails
    /// [`swfault::retry::MAX_ATTEMPTS`] times running ends the run. Every
    /// generation counted is durable when this returns.
    pub fn run_until(&mut self, s: &mut impl Stepper, until: u64) -> io::Result<()> {
        let _armed = self.ring.enter();
        let mut failures = 0;
        while self.step < until {
            let step = self.step;
            if step > 0 && step.is_multiple_of(self.every) && step >= self.high_water {
                self.capture(s)?;
            }
            match s.step(step)? {
                Step::Ran => {
                    failures = 0;
                    s.report().step_executions += 1;
                    self.step += 1;
                    if self.step > self.high_water {
                        self.high_water = self.step;
                        if swfault::should(swfault::Site::StepAbort) {
                            self.roll_back(s, "step_rollback", self.step)?;
                        }
                    }
                }
                Step::Failed(cause) => {
                    s.report().step_executions += 1;
                    failures += 1;
                    if failures > swfault::retry::MAX_ATTEMPTS {
                        return Err(io::Error::other(format!(
                            "{cause} on every replay of step {step}; giving up"
                        )));
                    }
                    self.roll_back(s, cause, step)?;
                }
                Step::Reload => self.step = s.restore(&self.newest)?,
            }
        }
        self.store.as_mut().map_or(Ok(()), Store::settle)
    }

    /// Capture the current step and commit it unless the store holds it.
    /// The commit's barrier is left in flight, so the steps that follow
    /// run while the disk flushes.
    fn capture(&mut self, s: &mut impl Stepper) -> io::Result<()> {
        self.newest = s.capture(self.step)?;
        let pending = self.committed != Some(self.step);
        if let Some(store) = self.store.as_mut().filter(|_| pending) {
            let (step, frames) = (self.step, &self.newest);
            s.report().fsync_retries += s.committing(|| store.begin(step, frames))? as u64;
            s.report().generations_persisted += 1;
            self.committed = Some(self.step);
        }
        Ok(())
    }

    /// Roll back to the newest captured generation for `cause`, seen at
    /// step `at`, and black-box it: the last flight events explain *why*,
    /// and the dump lives next to the chain a restart would read.
    fn roll_back(&mut self, s: &mut impl Stepper, cause: &'static str, at: u64) -> io::Result<()> {
        self.step = s.restore(&self.newest)?;
        s.report().rollbacks += 1;
        swprof::metrics::counter_add("fault.rollbacks", 1);
        swprof::tel::flight::record("abort", cause, at, self.step);
        if let Some(store) = &self.store {
            let dump = store.dir().join("blackbox-rollback.json");
            let _ = self.ring.dump_to(&dump);
        }
        Ok(())
    }
}

/// Configuration of a durable run. Generations on disk follow
/// [`StoreOptions::default`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Ranks the run starts with (the decomposition shrinks on death).
    pub n_ranks: usize,
    /// Steps to run (absolute: a resumed run continues to this count).
    pub n_steps: u64,
    /// Steps between coordinated snapshots (nstlist-aligned in the
    /// paper's terms); epoch 0 is always committed as the floor.
    pub epoch_interval: u64,
}

impl DurableConfig {
    /// A run of `n_steps` over `n_ranks` ranks, snapshotting every
    /// `epoch_interval` steps.
    pub fn new(n_ranks: usize, n_steps: u64, epoch_interval: u64) -> Self {
        Self {
            n_ranks,
            n_steps,
            epoch_interval,
        }
    }
}

/// Outcome of a durable run: the loop's counters (read through this
/// report too) and the decomposition's own.
#[derive(Debug, Clone, Default)]
pub struct DurableRunReport {
    /// The loop's counters.
    pub run: Report,
    /// Ranks that died permanently.
    pub rank_kills: u64,
    /// Elastic re-decompositions performed (one per death event).
    pub redecompositions: u64,
    /// Halo-timeout detection rounds survivors paid for.
    pub halo_timeouts: u64,
    /// Duplicate halo messages discarded by sequence-number checks.
    pub duplicates_discarded: u64,
    /// Simulated communication time: halo traffic, epoch barriers,
    /// liveness timeouts.
    pub comm_ns: f64,
    /// Non-bonded energies of the final step.
    pub energies: NbEnergies,
    /// Ranks still alive at the end.
    pub live_ranks: usize,
    /// Per-particle owners under the final decomposition (SWC106).
    pub final_coverage: Vec<u32>,
    /// Epochs retained on disk at the end, oldest first (SWC107).
    pub chain: Vec<u64>,
    /// Snapshot cadence, for auditing the chain.
    pub epoch_interval: u64,
}

impl Deref for DurableRunReport {
    type Target = Report;

    fn deref(&self) -> &Report {
        &self.run
    }
}

/// The state a durable DD run steps.
struct Ranks<'a> {
    sys: &'a mut System,
    params: &'a NbParams,
    constraints: &'a ConstraintSet,
    dir: &'a Path,
    ring: Arc<Ring>,
    /// Live members by their original rank id; the RankKill lane is the
    /// original id, so a scripted kill targets the same physical rank no
    /// matter how the decomposition has shrunk around it.
    members: Vec<usize>,
    halo_channels: Vec<SeqChannel>,
    report: DurableRunReport,
}

/// Run durable DD-MD against the store at `dir` (created if absent).
/// Errors are unrecoverable storage failures or the death of the last
/// rank. The run records into a flight ring of its own, the one its
/// black-box dumps hold.
pub fn run_dd_md_durable(
    sys: &mut System,
    dir: &Path,
    cfg: &DurableConfig,
    params: &NbParams,
    constraints: &ConstraintSet,
) -> io::Result<DurableRunReport> {
    assert!(cfg.n_ranks >= 1);
    let _run_span = swprof::span("durable.run");
    let ring = Ring::new();
    let mut ranks = Ranks {
        sys,
        params,
        constraints,
        dir,
        ring: ring.clone(),
        members: (0..cfg.n_ranks).collect(),
        halo_channels: (0..cfg.n_ranks).map(|_| SeqChannel::new()).collect(),
        report: DurableRunReport {
            epoch_interval: cfg.epoch_interval,
            ..Default::default()
        },
    };
    let mut run = Durable::open(ring, Some(dir), cfg.epoch_interval, 0, &mut ranks)?;
    run.run_until(&mut ranks, cfg.n_steps)?;

    let mut report = ranks.report;
    report.live_ranks = ranks.members.len();
    report.final_coverage = vec![0; ranks.sys.n()];
    let decomposition = Decomposition::new(ranks.sys.pbc, ranks.members.len());
    for &i in decomposition.partition(&ranks.sys.pos).iter().flatten() {
        report.final_coverage[i as usize] += 1;
    }
    report.chain = run.chain().to_vec();
    Ok(report)
}

impl Stepper for Ranks<'_> {
    fn capture(&mut self, step: u64) -> io::Result<Vec<Vec<u8>>> {
        let n = self.members.len();
        let parts = Decomposition::new(self.sys.pbc, n).partition(&self.sys.pos);
        let shard = |(r, owned): (usize, &Vec<u32>)| {
            let mut buf = Vec::new();
            RankShard::capture(self.sys, step, r as u32, n as u32, owned)
                .write_to(&mut buf)
                .map(|()| buf)
        };
        parts.iter().enumerate().map(shard).collect()
    }

    fn restore(&mut self, frames: &[Vec<u8>]) -> io::Result<u64> {
        let shards = frames
            .iter()
            .map(|f| RankShard::read_from(&mut f.as_slice()));
        let cp = assemble_shards(&shards.collect::<io::Result<Vec<_>>>()?, self.sys.n())?;
        cp.restore(self.sys)?;
        Ok(cp.step)
    }

    /// The live ranks agree on the epoch at a barrier; the commit itself
    /// is an all-to-disk gather, charged one more barrier-sized round.
    fn committing(&mut self, commit: impl FnOnce() -> io::Result<u32>) -> io::Result<u32> {
        let live = vec![true; self.members.len()];
        self.report.comm_ns += epoch_barrier_traced(TRANSPORT, &live, &self.members).ns;
        let retries = commit()?;
        self.report.comm_ns += epoch_barrier(TRANSPORT, &live).ns;
        Ok(retries)
    }

    fn step(&mut self, step: u64) -> io::Result<Step> {
        // Poll the fault plane: does any live rank die this step?
        let dead: Vec<usize> = (0..self.members.len())
            .filter(|&pos| {
                let _rank = Who::enter_lane(Some(self.members[pos]));
                swfault::should(swfault::Site::RankKill)
            })
            .collect();
        if !dead.is_empty() {
            self.bury(&dead, step)?;
            return Ok(Step::Reload);
        }

        let _step_span = swprof::span("durable.step");
        self.sys.clear_forces();
        let (en, stats) = compute_forces_dd(self.sys, self.members.len(), self.params);
        self.report.energies = en;
        leapfrog_step_constrained(self.sys, DT, self.constraints);

        // Halo force return on the wire: sequence-numbered, so a
        // delayed-then-retransmitted copy is discarded, not re-applied.
        let topo = swnet::Topology::new(self.members.len());
        for (pos, &m) in self.members.iter().enumerate() {
            let _rank = Who::enter_lane(Some(m));
            // The traced transmit stamps the causal context *before*
            // consuming any fault decision, so seeded chaos schedules
            // replay identically with tracing on or off; delivery is
            // deferred until the halo round-trip cost is known.
            let peer = self.members[(pos + 1) % self.members.len()];
            let (tx, ctx) = if peer != m {
                self.halo_channels[m].transmit_traced("halo.f", m, peer)
            } else {
                (self.halo_channels[m].transmit(), None)
            };
            self.report.duplicates_discarded += tx.duplicates_discarded as u64;
            let halo_bytes = stats.halo.get(pos).copied().unwrap_or(0) * 12;
            let halo_ns = halo_exchange_ns(&topo, TRANSPORT, 6, halo_bytes);
            self.report.comm_ns += halo_ns;
            if let Some(ctx) = ctx {
                swprof::tel::deliver(&ctx, halo_ns.max(0.0) as u64);
            }
        }
        Ok(Step::Ran)
    }

    fn report(&mut self) -> &mut Report {
        &mut self.report.run
    }
}

impl Ranks<'_> {
    /// The ranks at `dead` (positions in `members`) died at `step`:
    /// black-box it next to the chain, then shrink the decomposition to
    /// the survivors, or fail when there are none.
    fn bury(&mut self, dead: &[usize], step: u64) -> io::Result<()> {
        let _rec_span = swprof::span("durable.recover");
        let everyone = dead.len() == self.members.len();
        if !everyone {
            // Survivors notice the silence (one timeout round, paid in
            // parallel), then confirm at a barrier over the old
            // communicator with the dead seats empty.
            self.report.halo_timeouts += 1;
            self.report.comm_ns += halo_timeout_ns();
            let seats: Vec<bool> = (0..self.members.len())
                .map(|p| !dead.contains(&p))
                .collect();
            self.report.comm_ns += epoch_barrier(TRANSPORT, &seats).ns;
            self.report.rank_kills += dead.len() as u64;
        }
        for &p in dead {
            let rank = self.members[p] as u64;
            swprof::tel::flight::record("abort", "rank_kill", rank, step);
        }
        // The post-mortem needs the tail of events even (especially)
        // when nobody survives.
        let name = if everyone {
            "blackbox-alldead.json".into()
        } else {
            format!("blackbox-rankkill-step{step}.json")
        };
        let _ = self.ring.dump_to(&self.dir.join(name));
        if everyone {
            return Err(io::Error::other(
                "all ranks died; nothing left to recover onto",
            ));
        }
        for &p in dead.iter().rev() {
            self.members.remove(p);
        }
        self.report.redecompositions += 1;
        swprof::metrics::counter_add("rank.kills", dead.len() as u64);
        swprof::metrics::counter_add("rank.redecompositions", 1);
        swprof::metrics::counter_add("rank.halo_timeouts", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonbonded::Coulomb;
    use crate::water::{theta_hoh, water_box, D_OH};
    use swfault::{FaultPlan, Site};

    fn decode_shards(frames: &[Vec<u8>]) -> io::Result<Vec<RankShard>> {
        frames
            .iter()
            .map(|f| RankShard::read_from(&mut f.as_slice()))
            .collect()
    }

    fn params() -> NbParams {
        NbParams {
            r_cut: 0.7,
            coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("swdur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn assert_bits_equal(a: &System, b: &System) {
        for (x, y) in a.pos.iter().zip(&b.pos).chain(a.vel.iter().zip(&b.vel)) {
            assert_eq!(x.x.to_bits(), y.x.to_bits(), "state diverged");
            assert_eq!(x.y.to_bits(), y.y.to_bits());
            assert_eq!(x.z.to_bits(), y.z.to_bits());
        }
    }

    /// `steps` plain DD steps of `sys` over `n_ranks`: the physics a
    /// recovered run must reproduce bit for bit.
    fn replay(sys: &mut System, n_ranks: usize, steps: std::ops::Range<u64>) {
        let cs = ConstraintSet::rigid_water(sys, D_OH, theta_hoh());
        for _ in steps {
            sys.clear_forces();
            compute_forces_dd(sys, n_ranks, &params());
            leapfrog_step_constrained(sys, DT, &cs);
        }
    }

    #[test]
    fn fault_free_durable_run_matches_plain_dd_steps() {
        let dir = tmpdir("clean");
        let p = params();
        let mut a = water_box(60, 300.0, 31);
        let cs = ConstraintSet::rigid_water(&a, D_OH, theta_hoh());
        let cfg = DurableConfig::new(4, 12, 4);
        let rep = run_dd_md_durable(&mut a, &dir, &cfg, &p, &cs).unwrap();
        assert_eq!(rep.step_executions, 12);
        assert_eq!(rep.rollbacks, 0);
        assert_eq!(rep.generations_persisted, 3); // epochs 0, 4, 8
        assert_eq!(rep.chain, vec![0, 4, 8]);
        assert_eq!(rep.live_ranks, 4);
        assert!(rep.final_coverage.iter().all(|&c| c == 1));

        let mut b = water_box(60, 300.0, 31);
        replay(&mut b, 4, 0..12);
        assert_bits_equal(&a, &b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_disk_is_bit_identical_to_uninterrupted() {
        let dir = tmpdir("resume");
        let p = params();
        let cfg = DurableConfig::new(4, 10, 4);
        // First invocation stops "early" at step 10 of an eventual 20.
        let mut a = water_box(60, 300.0, 32);
        let cs = ConstraintSet::rigid_water(&a, D_OH, theta_hoh());
        run_dd_md_durable(&mut a, &dir, &cfg, &p, &cs).unwrap();
        // Second invocation restarts from a *fresh* system: everything
        // it knows comes off disk. Steps 8..20 replay from epoch 8.
        let mut b = water_box(60, 300.0, 32);
        let cs_b = ConstraintSet::rigid_water(&b, D_OH, theta_hoh());
        let cfg20 = DurableConfig {
            n_steps: 20,
            ..cfg.clone()
        };
        let rep = run_dd_md_durable(&mut b, &dir, &cfg20, &p, &cs_b).unwrap();
        assert_eq!(rep.resumed_from, Some(8));
        assert_eq!(rep.step_executions, 12);

        // Reference: one uninterrupted 20-step run.
        let dir_ref = tmpdir("resume-ref");
        let mut c = water_box(60, 300.0, 32);
        let cs_c = ConstraintSet::rigid_water(&c, D_OH, theta_hoh());
        run_dd_md_durable(&mut c, &dir_ref, &cfg20, &p, &cs_c).unwrap();
        assert_bits_equal(&b, &c);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_ref);
    }

    #[test]
    fn rank_death_shrinks_and_recovers_bit_identically() {
        let dir = tmpdir("kill");
        let p = params();
        let cfg = DurableConfig::new(4, 14, 4);
        // Kill original rank 2 at its 10th liveness poll (step 10).
        let plan = FaultPlan::with_seed(5).one_shot(Site::RankKill, Some(2), 10);
        let scope = swfault::install(plan);
        let mut a = water_box(60, 300.0, 33);
        let cs = ConstraintSet::rigid_water(&a, D_OH, theta_hoh());
        let rep = run_dd_md_durable(&mut a, &dir, &cfg, &p, &cs).unwrap();
        drop(scope.finish());
        assert_eq!(rep.rank_kills, 1);
        assert_eq!(rep.redecompositions, 1);
        assert_eq!(rep.halo_timeouts, 1);
        assert_eq!(rep.live_ranks, 3);
        assert!(rep.final_coverage.iter().all(|&c| c == 1));
        // Steps 8..14 replayed after reload: 14 + (10 - 8) executions.
        assert_eq!(rep.step_executions, 16);

        // Reference: restore the same epoch-8 generation into a fresh
        // system and run steps 8..14 with the survivor decomposition.
        let dir_ref = tmpdir("kill-ref");
        let (mut store_ref, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        let newest = store_ref.load_newest_valid().unwrap().unwrap();
        assert_eq!(newest.epoch, 12, "post-death epochs commit under 3 ranks");
        let gen8 = store_ref.load(8).unwrap();
        let shards = decode_shards(&gen8.frames).unwrap();
        let mut b = water_box(60, 300.0, 33);
        assemble_shards(&shards, b.n())
            .unwrap()
            .restore(&mut b)
            .unwrap();
        replay(&mut b, 3, 8..14);
        assert_bits_equal(&a, &b);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_ref);
    }

    #[test]
    fn last_rank_death_is_an_error_not_a_hang() {
        let dir = tmpdir("lastrank");
        let p = params();
        let cfg = DurableConfig::new(1, 10, 2);
        let plan = FaultPlan::with_seed(6).one_shot(Site::RankKill, Some(0), 3);
        let scope = swfault::install(plan);
        let mut a = water_box(30, 300.0, 34);
        let cs = ConstraintSet::rigid_water(&a, D_OH, theta_hoh());
        let err = run_dd_md_durable(&mut a, &dir, &cfg, &p, &cs).unwrap_err();
        drop(scope.finish());
        assert!(err.to_string().contains("all ranks died"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delayed_halo_messages_are_deduplicated_not_double_applied() {
        let dir = tmpdir("dup");
        let p = params();
        let cfg = DurableConfig::new(2, 6, 3);
        let plan = FaultPlan {
            net_delay: 1.0,
            ..FaultPlan::with_seed(8)
        };
        let scope = swfault::install(plan);
        let mut a = water_box(40, 300.0, 35);
        let cs = ConstraintSet::rigid_water(&a, D_OH, theta_hoh());
        let rep = run_dd_md_durable(&mut a, &dir, &cfg, &p, &cs).unwrap();
        drop(scope.finish());
        // Every halo transmit was delayed => retransmitted => deduped:
        // one per live rank per step.
        assert_eq!(rep.duplicates_discarded, 12);

        // And dedup means physics is untouched: bit-equal to fault-free.
        let dir_ref = tmpdir("dup-ref");
        let mut b = water_box(40, 300.0, 35);
        let cs_b = ConstraintSet::rigid_water(&b, D_OH, theta_hoh());
        run_dd_md_durable(&mut b, &dir_ref, &cfg, &p, &cs_b).unwrap();
        assert_bits_equal(&a, &b);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_ref);
    }

    #[test]
    fn one_run_survives_a_step_abort_and_a_rank_death() {
        let dir = tmpdir("abort-kill");
        let p = params();
        let cfg = DurableConfig::new(4, 14, 4);
        // StepAbort decision 5 is drawn after step 6: roll back to epoch
        // 4 and replay steps 5..=6 under all four ranks. Original rank 2
        // then dies at its 10th liveness poll (step 8): reload epoch 8
        // and finish under three.
        let plan = FaultPlan::with_seed(5)
            .one_shot(Site::StepAbort, None, 5)
            .one_shot(Site::RankKill, Some(2), 10);
        let scope = swfault::install(plan);
        let mut a = water_box(60, 300.0, 36);
        let cs = ConstraintSet::rigid_water(&a, D_OH, theta_hoh());
        let rep = run_dd_md_durable(&mut a, &dir, &cfg, &p, &cs).unwrap();
        let log = scope.finish();
        assert_eq!(log.count(Site::StepAbort), 1);
        assert_eq!(log.count(Site::RankKill), 1);
        assert_eq!(rep.rollbacks, 1);
        assert_eq!(rep.rank_kills, 1);
        assert_eq!(rep.redecompositions, 1);
        assert_eq!(rep.live_ranks, 3);
        // 14 steps, plus 5..=6 after the abort, plus none after the
        // kill (it hit at the epoch-8 boundary).
        assert_eq!(rep.step_executions, 16);
        let findings = swcheck::recovery::audit(&swcheck::recovery::RecoveryAudit {
            run: "abort-then-kill",
            coverage: &rep.final_coverage,
            chain: &rep.chain,
            epoch_interval: rep.epoch_interval,
        });
        assert!(findings.is_empty(), "recovery audit: {findings:?}");

        // Reference: the generation the kill reloaded, replayed under
        // the survivors.
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        let gen8 = store.load(8).unwrap();
        let mut b = water_box(60, 300.0, 36);
        assemble_shards(&decode_shards(&gen8.frames).unwrap(), b.n())
            .unwrap()
            .restore(&mut b)
            .unwrap();
        replay(&mut b, 3, 8..14);
        assert_bits_equal(&a, &b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_leaves_the_fault_stream_alone() {
        let p = params();
        let cfg = DurableConfig::new(4, 6, 3);
        let run = |traced: bool| {
            let dir = tmpdir(if traced { "traced" } else { "untraced" });
            let scope = swfault::install(FaultPlan {
                net_delay: 0.3,
                ..FaultPlan::with_seed(8)
            });
            let session = traced.then(|| swprof::tel::Session::begin(7));
            let mut sys = water_box(60, 300.0, 37);
            let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
            let rep = run_dd_md_durable(&mut sys, &dir, &cfg, &p, &cs).unwrap();
            let tel = session.map(|s| s.finish());
            let log = scope.finish();
            let _ = std::fs::remove_dir_all(&dir);
            (rep, log, tel)
        };
        let (plain, plain_log, _) = run(false);
        let (traced, traced_log, tel) = run(true);
        assert!(plain_log.total() > 0, "the plan must delay some halos");
        assert_eq!(traced_log.total(), plain_log.total());
        assert_eq!(traced.duplicates_discarded, plain.duplicates_discarded);
        let halo_sends = tel
            .unwrap()
            .flows
            .iter()
            .filter(|f| f.label == "halo.f" && f.phase == swprof::tel::FlowPhase::Send)
            .count();
        assert_eq!(
            halo_sends as u64,
            4 * 6,
            "one halo return per live rank per step"
        );
    }

    #[test]
    fn every_rank_has_its_own_halo_channel() {
        let dir = tmpdir("chan-ids");
        let mut sys = water_box(60, 300.0, 38);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let session = sw26010::trace::Session::begin();
        run_dd_md_durable(&mut sys, &dir, &DurableConfig::new(4, 4, 4), &params(), &cs).unwrap();
        let chans: std::collections::BTreeSet<u64> = session
            .finish()
            .iter()
            .filter_map(|e| match e.kind {
                sw26010::trace::EventKind::ChanSend { chan, .. } => Some(chan),
                _ => None,
            })
            .collect();
        assert_eq!(chans.len(), 4, "one halo channel per rank");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
