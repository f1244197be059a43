//! The domain-decomposed MD driver: coordinated snapshots to an
//! on-disk `swstore` chain, and recovery from all three faults a DD run
//! meets — an aborted step, a process crash, a rank that dies for good.
//!
//! - **Coordinated snapshots.** Every `epoch_interval` steps the live
//!   ranks pass an epoch barrier ([`swnet::epoch_barrier`]), partition
//!   the system under the current decomposition, and each contributes a
//!   [`RankShard`] tagged with the agreed epoch. The shards are one
//!   generation, committed atomically by [`swstore::Store`].
//! - **Step aborts.** After each *new* step an injected
//!   [`Site::StepAbort`](swfault::Site::StepAbort) rolls the system back
//!   to the newest valid generation, under the decomposition it already
//!   has, and replays from there. Replayed steps (at or below the
//!   high-water mark) draw no abort, so every run terminates.
//! - **Crash restart.** A fresh invocation on a non-empty store resumes
//!   from the newest fully-valid generation: shards reassemble
//!   ([`assemble_shards`]) into the exact global state, torn or
//!   corrupted generations are skipped by the store's fallback walk.
//! - **Elastic rank death.** A [`Site::RankKill`](swfault::Site::RankKill)
//!   hit is permanent. Survivors detect the silence by halo-exchange
//!   timeout, confirm it at a barrier, re-decompose the box over the
//!   shrunken rank set, reload the last coordinated generation, and
//!   replay.
//!
//! All three recoveries are one reload of the newest generation. Because
//! a generation reassembles to *global* state and [`compute_forces_dd`]
//! is a pure function of `(state, n_ranks)`, a recovered trajectory is
//! bit-identical to an unfailed run of the same decomposition started
//! from that generation. Each step is `clear_forces`,
//! [`compute_forces_dd`], [`leapfrog_step_constrained`] and one
//! sequence-numbered halo force return per rank, so recovery changes
//! *when* steps execute, never what a step computes.

use std::io;
use std::path::Path;

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

/// Configuration of a durable run. Generations on disk follow
/// [`StoreOptions::default`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Ranks the run starts with (the decomposition shrinks on death).
    pub n_ranks: usize,
    /// Steps to run (absolute: a resumed run continues to this count).
    pub n_steps: u64,
    /// Steps between coordinated snapshots; the epoch tag of every
    /// generation is a multiple of this (nstlist-aligned in the paper's
    /// terms). Epoch 0 is always committed so recovery has a floor.
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

/// Outcome of a durable run.
#[derive(Debug, Clone, Default)]
pub struct DurableRunReport {
    /// MD step executions, including steps replayed after a recovery.
    pub step_executions: u64,
    /// Rollbacks to the newest generation (injected step aborts).
    pub rollbacks: u64,
    /// Coordinated generations committed this invocation.
    pub epochs_committed: u64,
    /// Epoch the run resumed from, if the store held a valid generation.
    pub resumed_from: Option<u64>,
    /// Ranks that died permanently.
    pub rank_kills: u64,
    /// Elastic re-decompositions performed (one per death event).
    pub redecompositions: u64,
    /// Halo-timeout detection rounds survivors paid for.
    pub halo_timeouts: u64,
    /// Duplicate halo messages discarded by sequence-number checks.
    pub duplicates_discarded: u64,
    /// fsync retries the store needed while committing.
    pub fsync_retries: u64,
    /// Simulated communication time: halo traffic, epoch barriers,
    /// liveness timeouts.
    pub comm_ns: f64,
    /// Non-bonded energies of the final step.
    pub energies: NbEnergies,
    /// Ranks still alive at the end.
    pub live_ranks: usize,
    /// Per-particle owner counts under the final decomposition — the
    /// input of the `swcheck` SWC106 "no orphaned cells" rule.
    pub final_coverage: Vec<u32>,
    /// Epochs retained on disk at the end, oldest first — the input of
    /// the `swcheck` SWC107 "no epoch gaps" rule.
    pub chain: Vec<u64>,
    /// Snapshot cadence, for auditing the chain.
    pub epoch_interval: u64,
}

/// Run durable DD-MD against the store at `dir` (created if absent).
/// See the module docs for the protocol. Errors are unrecoverable
/// storage failures or the death of the last rank. The run records into
/// a flight ring of its own, the one its black-box dumps hold.
pub fn run_dd_md_durable(
    sys: &mut System,
    dir: &Path,
    cfg: &DurableConfig,
    params: &NbParams,
    constraints: &ConstraintSet,
) -> io::Result<DurableRunReport> {
    assert!(cfg.epoch_interval > 0, "epoch_interval must be positive");
    assert!(cfg.n_ranks >= 1);
    let _run_span = swprof::span("durable.run");
    let ring = Ring::new();
    let _armed = ring.enter();
    let mut report = DurableRunReport {
        epoch_interval: cfg.epoch_interval,
        ..Default::default()
    };
    let (mut store, _open) = Store::open(dir, StoreOptions::default())?;

    // Resume: the newest fully-valid generation wins; every rank of the
    // new invocation starts from the reassembled global state, whatever
    // rank count produced the generation (that's the elasticity).
    let mut step = 0u64;
    let mut last_committed: Option<u64> = None;
    if let Some(epoch) = restore_newest(&mut store, sys)? {
        step = epoch;
        last_committed = Some(epoch);
        report.resumed_from = Some(epoch);
        swprof::metrics::counter_add("rank.resumes", 1);
    }
    // Steps above this mark are new; only a new step may abort.
    let mut high_water = step;

    // Live members by their original rank id; the RankKill lane is the
    // original id, so a scripted kill targets the same physical rank no
    // matter how the decomposition has shrunk around it.
    let mut members: Vec<usize> = (0..cfg.n_ranks).collect();
    let mut halo_channels: Vec<SeqChannel> = vec![SeqChannel::new(); cfg.n_ranks];

    while step < cfg.n_steps {
        // Coordinated snapshot at every epoch boundary not yet on disk
        // (step 0 included: recovery always has a floor generation).
        if step.is_multiple_of(cfg.epoch_interval) && last_committed != Some(step) {
            let _cp_span = swprof::span("durable.commit");
            let topo = swnet::Topology::new(members.len());
            let barrier = epoch_barrier_traced(TRANSPORT, &vec![true; members.len()], &members);
            report.comm_ns += barrier.ns;
            let decomposition = Decomposition::new(sys.pbc, members.len());
            let parts = decomposition.partition(&sys.pos);
            let frames: Vec<Vec<u8>> = parts
                .iter()
                .enumerate()
                .map(|(r, owned)| {
                    let shard =
                        RankShard::capture(sys, step, r as u32, members.len() as u32, owned);
                    let mut buf = Vec::new();
                    shard.write_to(&mut buf).map(|()| buf)
                })
                .collect::<io::Result<_>>()?;
            report.fsync_retries += store.commit_with_retry(step, &frames)? as u64;
            report.epochs_committed += 1;
            last_committed = Some(step);
            // The commit itself is an all-to-disk gather; charge one
            // more barrier-sized round for the completion handshake.
            report.comm_ns += epoch_barrier(TRANSPORT, &vec![true; topo.n_ranks]).ns;
        }

        // Poll the fault plane: does any live rank die this step?
        let mut dead_positions: Vec<usize> = Vec::new();
        for (pos, &m) in members.iter().enumerate() {
            let _rank = Who::enter_lane(Some(m));
            if swfault::should(swfault::Site::RankKill) {
                dead_positions.push(pos);
            }
        }

        if !dead_positions.is_empty() {
            let _rec_span = swprof::span("durable.recover");
            if dead_positions.len() == members.len() {
                // Black box first: the post-mortem needs the tail of
                // events even (especially) when nobody survives.
                for &p in &dead_positions {
                    swprof::tel::flight::record("abort", "rank_kill", members[p] as u64, step);
                }
                let _ = ring.dump_to(&dir.join("blackbox-alldead.json"));
                return Err(io::Error::other(
                    "all ranks died; nothing left to recover onto",
                ));
            }
            // Survivors notice the silence (one timeout round, paid in
            // parallel), then confirm at a barrier over the old
            // communicator with the dead seats empty.
            report.halo_timeouts += 1;
            report.comm_ns += halo_timeout_ns();
            let mut seats = vec![true; members.len()];
            for &p in &dead_positions {
                seats[p] = false;
            }
            let barrier = epoch_barrier(TRANSPORT, &seats);
            report.comm_ns += barrier.ns;
            report.rank_kills += dead_positions.len() as u64;
            // Flight-recorder black box: who died, at which step, dumped
            // next to the generation chain the survivors recover from.
            for &p in &dead_positions {
                swprof::tel::flight::record("abort", "rank_kill", members[p] as u64, step);
            }
            let _ = ring.dump_to(&dir.join(format!("blackbox-rankkill-step{step}.json")));
            for &p in dead_positions.iter().rev() {
                members.remove(p);
            }
            // Elastic shrink: reload the last coordinated generation and
            // replay it under the survivor decomposition.
            let epoch = restore_newest(&mut store, sys)?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    "rank died before any generation survived on disk",
                )
            })?;
            step = epoch;
            last_committed = Some(epoch);
            report.redecompositions += 1;
            swprof::metrics::counter_add("rank.kills", dead_positions.len() as u64);
            swprof::metrics::counter_add("rank.redecompositions", 1);
            swprof::metrics::counter_add("rank.halo_timeouts", 1);
            continue;
        }

        // The physics step.
        let _step_span = swprof::span("durable.step");
        sys.clear_forces();
        let (en, stats) = compute_forces_dd(sys, members.len(), params);
        report.energies = en;
        leapfrog_step_constrained(sys, DT, constraints);
        step += 1;
        report.step_executions += 1;

        // Halo force return on the wire: sequence-numbered, so a
        // delayed-then-retransmitted copy is discarded, not re-applied.
        let topo = swnet::Topology::new(members.len());
        for (pos, &m) in members.iter().enumerate() {
            let _rank = Who::enter_lane(Some(m));
            // The traced transmit stamps the causal context *before*
            // consuming any fault decision, so seeded chaos schedules
            // replay identically with tracing on or off; delivery is
            // deferred until the halo round-trip cost is known.
            let peer = members[(pos + 1) % members.len()];
            let (tx, ctx) = if peer != m {
                halo_channels[m].transmit_traced("halo.f", m, peer)
            } else {
                (halo_channels[m].transmit(), None)
            };
            report.duplicates_discarded += tx.duplicates_discarded as u64;
            let halo_bytes = stats.halo.get(pos).copied().unwrap_or(0) * 12;
            let halo_ns = halo_exchange_ns(&topo, TRANSPORT, 6, halo_bytes);
            report.comm_ns += halo_ns;
            if let Some(ctx) = ctx {
                swprof::tel::deliver(&ctx, halo_ns.max(0.0) as u64);
            }
        }

        if step > high_water {
            high_water = step;
            if swfault::should(swfault::Site::StepAbort) {
                // Roll back under the decomposition the run already has:
                // the newest generation holds the state a replay needs.
                let epoch = restore_newest(&mut store, sys)?.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        "step aborted with no generation on disk",
                    )
                })?;
                report.rollbacks += 1;
                swprof::metrics::counter_add("fault.rollbacks", 1);
                swprof::tel::flight::record("abort", "step_rollback", step, epoch);
                step = epoch;
                last_committed = Some(epoch);
            }
        }
    }

    report.live_ranks = members.len();
    let decomposition = Decomposition::new(sys.pbc, members.len());
    let parts = decomposition.partition(&sys.pos);
    let mut coverage = vec![0u32; sys.n()];
    for part in &parts {
        for &i in part {
            coverage[i as usize] += 1;
        }
    }
    report.final_coverage = coverage;
    report.chain = store.chain().to_vec();
    Ok(report)
}

/// Restore `sys` from the newest fully-valid generation in `store` and
/// return its epoch, or `None` (and `sys` untouched) if the store holds
/// none. Resume, rank-death reload and step-abort rollback all land here.
fn restore_newest(store: &mut Store, sys: &mut System) -> io::Result<Option<u64>> {
    let Some(generation) = store.load_newest_valid()? else {
        return Ok(None);
    };
    let cp = assemble_shards(&decode_shards(&generation.frames)?, sys.n())?;
    cp.restore(sys)?;
    Ok(Some(cp.step))
}

/// Decode every frame of a generation back into a [`RankShard`].
fn decode_shards(frames: &[Vec<u8>]) -> io::Result<Vec<RankShard>> {
    frames
        .iter()
        .map(|f| RankShard::read_from(&mut f.as_slice()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonbonded::Coulomb;
    use crate::water::{theta_hoh, water_box, D_OH};
    use swfault::{FaultPlan, Site};

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
        assert_eq!(rep.epochs_committed, 3); // epochs 0, 4, 8
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
}
