//! The full MD step on the simulated machine.
//!
//! [`Engine`] runs real dynamics (forces, integration, constraints are
//! all computed functionally) on one simulated core group while charging
//! every stage to the cost model, producing the per-kernel breakdown of
//! the paper's Table 1. [`MultiCgModel`] extends a representative
//! single-CG run with domain-decomposition communication costs from
//! `swnet` for the multi-rank experiments (Table 1 case 2, Fig. 10
//! case 2, Fig. 12 scaling).
//!
//! The four optimization versions of Fig. 10:
//!
//! | version | force kernel | pair list | comm | I/O |
//! |---------|-------------|-----------|------|-----|
//! | `Ori`   | MPE scalar  | MPE       | MPI  | std |
//! | `Cal`   | Mark (CPE)  | MPE       | MPI  | std |
//! | `List`  | Mark (CPE)  | CPE 2-way | MPI  | std |
//! | `Other` | Mark (CPE)  | CPE 2-way | RDMA | fast|

use mdsim::constraints::{most_sweeps, ConstraintSet};
use mdsim::integrate;
use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::{ListKind, PairList};
use mdsim::system::System;
use mdsim::water::{theta_hoh, D_OH};
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::pool::{LanePool, N_LANES};
use sw26010::trace;
use swnet::params::{MPI_SW_OVERHEAD_NS, RDMA_SW_OVERHEAD_NS};
use swnet::{Topology, Transport};

use crate::backend::{AnyBackend, BackendSel, KernelBackend, KernelInput};
use crate::check::{Variant, REGION_SYS_POS, REGION_SYS_VEL};
use crate::cpelist::CpePairList;
use crate::fastio;
use crate::kernels::KernelResult;
use crate::package::{PackageLayout, PackedSystem};
use crate::pairgen;

/// Fig. 10 optimization versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Unoptimized MPE-only port.
    Ori,
    /// + optimized short-range calculation (§3.1–3.4).
    Cal,
    /// + CPE pair-list generation (§3.5).
    List,
    /// + RDMA communication and fast I/O (§3.6–3.7).
    Other,
}

impl Version {
    /// All versions in ladder order.
    pub const ALL: [Version; 4] = [Version::Ori, Version::Cal, Version::List, Version::Other];

    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            Version::Ori => "Ori",
            Version::Cal => "Cal",
            Version::List => "List",
            Version::Other => "Other",
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Optimization version.
    pub version: Version,
    /// Short-range parameters.
    pub params: NbParams,
    /// Pair-list radius (>= cutoff).
    pub rlist: f32,
    /// Steps between pair-list rebuilds (Table 3: 10).
    pub nstlist: usize,
    /// Integration step, ps.
    pub dt: f32,
    /// Steps between trajectory frames (0 = never). The engine charges
    /// each frame's modelled "Write traj" cost; writing the frames is the
    /// caller's (`swgmx_mdrun --traj`).
    pub nstxout: usize,
    /// Apply SHAKE rigid-water constraints.
    pub constraints: bool,
    /// Berendsen thermostat target temperature (None = NVE).
    pub t_ref: Option<f64>,
    /// PME grid points per axis (None = short-range Ewald only). The
    /// paper's benchmark uses PME (Table 3); GROMACS folds the mesh time
    /// into the Force row of Table 1, and so do we.
    pub pme_grid: Option<usize>,
    /// Which execution substrate carries the force kernels: the
    /// cycle-metered simulator (paper-figure runs) or the native
    /// thread-pool backend (wall-clock runs). Outside the force stage
    /// the arithmetic and the modelled costs are backend-independent —
    /// update and constraints are charged as the MPE's rows in every
    /// version — but a native engine also deals its update + SHAKE pass
    /// and its shift refresh to the pool's lanes once they split into
    /// blocks worth a region (`lane_blocks`), to the same bits.
    pub backend: BackendSel,
}

impl EngineConfig {
    /// The paper's benchmark configuration (Table 3) for a version.
    pub fn paper(version: Version) -> Self {
        Self {
            version,
            params: NbParams::paper_default(),
            rlist: 1.0,
            nstlist: 10,
            dt: 0.002,
            nstxout: 100,
            constraints: true,
            t_ref: Some(300.0),
            pme_grid: None,
            backend: BackendSel::Metered,
        }
    }
}

/// Book a stage into both the cost breakdown and the profiler: the
/// swprof span carries exactly the cycles charged to the `Breakdown`
/// row, so the Chrome-trace per-stage totals agree with Table 1 by
/// construction. One thread-local read when no profiling session is
/// active.
fn charge(breakdown: &mut Breakdown, label: &'static str, perf: PerfCounters) {
    swprof::stage(label, perf.cycles);
    swprof::tel::flight::record("stage", label, perf.cycles, 0);
    breakdown.add(label, perf);
}

/// MPE cycles per pair-list candidate when the list is generated
/// serially on the MPE (versions Ori/Cal).
const MPE_LIST_CYCLES_PER_CANDIDATE: u64 = 55;

/// MPE cycles per particle for the leapfrog update.
const MPE_UPDATE_CYCLES_PER_PARTICLE: u64 = 30;

/// MPE cycles per *molecule* for rigid-water constraints. GROMACS uses
/// the direct SETTLE solver (~150 flops + a handful of memory accesses
/// per molecule, one pass); we integrate with iterative SHAKE but charge
/// the SETTLE cost, since that is what the paper's "Constraints" row
/// measures.
const MPE_SETTLE_CYCLES_PER_MOL: u64 = 220;

/// Molecules per lane block of the update: ≈0.3 µs of leapfrog + SHAKE
/// each, against the ≈12 µs of an empty region.
const UPDATE_GRAIN_MOLS: usize = 128;

/// List entries per lane block of the shift refresh: eight of them are
/// ≈35 ns of gather and scatter.
const SHIFT_GRAIN_ENTRIES: usize = 4096;

/// How many lane blocks `n_items` of the engine's own work — the update,
/// the shift refresh — go to the pool as: one per `grain` items, at most
/// one a lane. Under two, no region is opened (`LanePool::run_blocks`):
/// an empty one costs ≈12 µs, so a box under two grains (every swserve
/// job) is done where it stands. So is every metered run, whose model
/// has both on the MPE and whose traces and fault draws stay the serial
/// step's.
fn lane_blocks(backend: BackendSel, n_items: usize, grain: usize) -> usize {
    match backend {
        BackendSel::Native => (n_items / grain).min(N_LANES),
        BackendSel::Metered => 1,
    }
}

/// One constrained leapfrog step of `sys`, as `n_blocks` runs of whole
/// molecules dealt to `pool`'s lanes: the bits of
/// [`integrate::leapfrog_step_constrained`] at every `n_blocks` and
/// thread count. Returns the sweeps SHAKE took, `None` if a molecule
/// did not converge.
fn update_constrained(
    sys: &mut System,
    cs: &ConstraintSet,
    dt: f32,
    pool: &LanePool,
    n_blocks: usize,
) -> Option<usize> {
    // Atoms per block: `block_range`'s partition of the molecules.
    let per = match n_blocks {
        0 | 1 => usize::MAX,
        _ => 3 * cs.n_mol().div_ceil(n_blocks),
    };
    let tracing = n_blocks >= 2 && trace::enabled();
    let sweeps = pool.run_blocks(sys.atom_runs(per), |_, atoms| {
        if tracing {
            let words = 3 * atoms.first..3 * (atoms.first + atoms.pos.len());
            trace::shared_write(REGION_SYS_POS, words.start, words.end);
            trace::shared_write(REGION_SYS_VEL, words.start, words.end);
        }
        integrate::leapfrog_constrained_block(atoms, dt, cs)
    });
    sweeps.into_iter().fold(Some(1), most_sweeps)
}

/// What the engine derives from one pair list and keeps for as long as
/// the list holds: the lowered list (CSR + masks) and the packed system
/// (slot order, types, charges, LJ tables). Their position-dependent
/// parts (shifts, packed coordinates) are brought up to date in place
/// every step. [`Engine::rebuild_list`] creates it;
/// [`Engine::resume_at`] drops it with the list.
struct ListState {
    cpelist: CpePairList,
    psys: PackedSystem,
}

impl ListState {
    /// Lower and pack `list` at `sys`'s current positions. The geometric
    /// list ends here: `CpePairList::build` copies its CSR and its
    /// clustering moves into the packed system.
    fn new(sys: &System, list: PairList, layout: PackageLayout) -> Self {
        Self {
            cpelist: CpePairList::build(sys, &list),
            psys: PackedSystem::build(sys, list.clustering, layout),
        }
    }

    /// Follow `sys`'s positions on a step that keeps the list, the
    /// shifts on `backend`'s lanes where it and their number say so.
    fn refresh(&mut self, sys: &System, backend: &AnyBackend) {
        self.psys.repack(sys);
        let n_blocks = lane_blocks(backend.sel(), self.cpelist.n_entries(), SHIFT_GRAIN_ENTRIES);
        let pool = backend.core_group().pool();
        self.cpelist
            .update_shifts(sys, &self.psys.clustering, pool, n_blocks);
    }
}

/// One simulated core group running real dynamics with cost accounting.
pub struct Engine {
    /// The live system. Positions are read every step; types, charges
    /// and exclusions when the pair list is rebuilt.
    pub sys: System,
    config: EngineConfig,
    /// The force kernels' substrate; the list and bonded kernels spawn
    /// on its core group, so one engine has one set of host threads.
    backend: AnyBackend,
    lists: Option<ListState>,
    constraints: Option<ConstraintSet>,
    constraint_failures: u64,
    step_idx: usize,
    pme: Option<mdsim::pme::Pme>,
    /// Cumulative per-kernel costs.
    pub breakdown: Breakdown,
    /// Last short-range energies.
    pub energies: NbEnergies,
    kernel_faults: u64,
    consecutive_kernel_faults: u32,
    degraded: bool,
}

impl Engine {
    /// Build an engine over `sys`.
    ///
    /// The cutoff and list radius are clamped to 30% of the smallest box
    /// edge: beyond that the one-shift-per-cluster-pair minimum-image
    /// scheme of the CPE kernels stops being exact. Production-scale
    /// boxes (>= 12 K particles at the paper's 1.0 nm cutoff) are never
    /// clamped.
    pub fn new(sys: System, mut config: EngineConfig) -> Self {
        let max_r = 0.3
            * sys
                .pbc
                .lengths()
                .x
                .min(sys.pbc.lengths().y)
                .min(sys.pbc.lengths().z);
        if config.rlist > max_r {
            config.rlist = max_r;
        }
        if config.params.r_cut > config.rlist {
            config.params.r_cut = config.rlist;
        }
        let constraints = config
            .constraints
            .then(|| ConstraintSet::rigid_water(&sys, D_OH, theta_hoh()));
        let pme = config.pme_grid.map(|k| {
            let beta = match config.params.coulomb {
                mdsim::Coulomb::EwaldShort { beta } => beta as f64,
                _ => 3.12,
            };
            mdsim::pme::Pme::new(mdsim::pme::PmeParams {
                beta,
                grid: [k.next_power_of_two(); 3],
            })
        });
        Self {
            sys,
            backend: AnyBackend::of(config.backend),
            config,
            lists: None,
            constraints,
            constraint_failures: 0,
            step_idx: 0,
            pme,
            breakdown: Breakdown::new(),
            energies: NbEnergies::default(),
            kernel_faults: 0,
            consecutive_kernel_faults: 0,
            degraded: false,
        }
    }

    /// Active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current step index.
    pub fn step_index(&self) -> usize {
        self.step_idx
    }

    /// Resume the step counter at `step` (after restoring a checkpoint).
    /// Checkpoint on an `nstlist` boundary for exact continuation: the
    /// pair-list rebuild schedule is keyed to the step index, and a list
    /// built from pre-checkpoint positions cannot be reconstructed.
    pub fn resume_at(&mut self, step: usize) {
        self.step_idx = step;
        self.lists = None; // force a rebuild from the restored positions
    }

    /// Whether repeated kernel faults have permanently degraded this
    /// engine to the `Ori` force kernel (graceful degradation).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Total injected kernel faults absorbed so far.
    pub fn kernel_faults(&self) -> u64 {
        self.kernel_faults
    }

    /// Steps whose SHAKE ran out of iterations: they were integrated
    /// with the bonds as far as the solver got them.
    pub fn constraint_failures(&self) -> u64 {
        self.constraint_failures
    }

    fn rebuild_list(&mut self) {
        // The outgoing list's state goes first, so the search and the
        // lowering below reuse its memory instead of adding to it.
        self.lists = None;
        let v = self.config.version;
        let list = if matches!(v, Version::List | Version::Other) {
            // Span opens before the CPE spawn so the per-CPE pairgen
            // spans nest under it on the timeline; ticking the region
            // cycles keeps the MPE span equal to the Breakdown row.
            let span = swprof::span("Neighbor search");
            let gen = pairgen::generate_pairlist(
                &self.sys,
                self.config.rlist,
                ListKind::Half,
                self.backend.core_group(),
                2,
            );
            swprof::tick(gen.perf.cycles);
            drop(span);
            swprof::tel::flight::record("stage", "Neighbor search", gen.perf.cycles, 0);
            self.breakdown.add("Neighbor search", gen.perf);
            gen.list
        } else {
            // Serial MPE generation: same list, modeled cost per candidate
            // examined (~27 cells x cell occupancy per cluster).
            let list = PairList::build(&self.sys, self.config.rlist, ListKind::Half);
            let candidates = (list.n_pairs() as u64) * 3; // examined ~3x kept
            let perf = PerfCounters {
                cycles: candidates * MPE_LIST_CYCLES_PER_CANDIDATE,
                ..Default::default()
            };
            charge(&mut self.breakdown, "Neighbor search", perf);
            list
        };
        let layout = if v == Version::Ori {
            PackageLayout::Interleaved
        } else {
            PackageLayout::Transposed
        };
        self.lists = Some(ListState::new(&self.sys, list, layout));
    }

    /// Advance one step. Returns the short-range kernel result.
    pub fn step(&mut self) -> NbEnergies {
        let _step = swprof::span("step");
        // --- buffer ops: (re)package positions (Table 1 "NB X/F buffer
        // ops"). A rebuild lowers and packs the new list at the current
        // positions; any other step only follows the positions.
        match &mut self.lists {
            Some(lists) if !self.step_idx.is_multiple_of(self.config.nstlist) => {
                lists.refresh(&self.sys, &self.backend)
            }
            _ => self.rebuild_list(),
        }
        let lists = self.lists.as_ref().expect("rebuilt or refreshed above");
        let pack_perf = PerfCounters {
            // One streaming pass over the particle data on CPEs.
            cycles: (self.sys.n() as u64 * 20) / self.backend.core_group().n_cpes as u64 + 2_000,
            ..Default::default()
        };
        charge(&mut self.breakdown, "NB X/F buffer ops", pack_perf);

        // --- short-range force. The span opens before the CPE spawn so
        // the per-CPE kernel spans nest under it; the mesh part below is
        // ticked into the same span, mirroring the Breakdown rollup.
        let force_span = swprof::span("Force");
        // Graceful kernel degradation: an injected CPE exception aborts
        // the optimized kernel's attempt, charges the wasted region to
        // the Force row, and falls back to the always-safe Ori kernel
        // for this step. Three consecutive faults degrade the engine to
        // Ori permanently (the operational "stop trusting this kernel"
        // policy). Note a degraded step changes FP summation order, so
        // kernel faults are the one site excluded from the bit-exact
        // recovery contract.
        let mut effective = self.config.version;
        if effective != Version::Ori && !self.degraded && swfault::enabled() {
            if let Some(payload) = swfault::decide(swfault::Site::KernelFault) {
                sw26010::trace::emit_abort("kernel-fault");
                self.kernel_faults += 1;
                let penalty = sw26010::params::STRAGGLER_TIMEOUT_CYCLES
                    + swfault::retry::backoff_cycles(
                        self.consecutive_kernel_faults,
                        sw26010::params::SPAWN_JOIN_CYCLES,
                        payload,
                    );
                self.consecutive_kernel_faults += 1;
                swprof::tick(penalty);
                self.breakdown.add(
                    "Force",
                    PerfCounters {
                        cycles: penalty,
                        ..Default::default()
                    },
                );
                swprof::metrics::counter_add("fault.kernel_faults", 1);
                swprof::tel::flight::record(
                    "abort",
                    "kernel_fault",
                    penalty,
                    self.consecutive_kernel_faults as u64,
                );
                if self.consecutive_kernel_faults >= 3 {
                    self.degraded = true;
                    swprof::tel::flight::record(
                        "abort",
                        "kernel_degraded",
                        self.kernel_faults,
                        self.consecutive_kernel_faults as u64,
                    );
                    swprof::metrics::counter_add("fault.degradations", 1);
                }
                effective = Version::Ori;
            } else {
                self.consecutive_kernel_faults = 0;
            }
        }
        if self.degraded {
            effective = Version::Ori;
        }
        let variant = if effective == Version::Ori {
            Variant::Ori
        } else {
            Variant::Rma
        };
        let result: KernelResult = self.backend.run(
            variant,
            KernelInput {
                psys: &lists.psys,
                list: &lists.cpelist,
                params: &self.config.params,
            },
        );
        swprof::tick(result.total.cycles);
        swprof::tel::flight::record("stage", "Force", result.total.cycles, 0);
        swprof::metrics::counter_add("kernel.flops", result.total.flops());
        swprof::metrics::counter_add("kernel.dma.bytes", result.total.dma_bytes);
        swprof::metrics::counter_add("kernel.gld.bytes", result.total.gld_bytes);
        self.breakdown.add("Force", result.total);
        self.energies = result.energies;
        self.sys.force.copy_from_slice(&result.forces);
        if let Some(pme) = &self.pme {
            // Long-range mesh part: spread -> 3-D FFT -> solve -> gather,
            // executed functionally; cost modeled for the 64-CPE pipeline
            // and folded into the Force row like GROMACS' md.log rollup.
            let e_recip = pme.long_range(&mut self.sys);
            self.energies.coulomb += e_recip;
            let k = pme.params().grid[0] as u64;
            let n = self.sys.n() as u64;
            let fft_flops = 10 * k * k * k * (3 * k.ilog2() as u64);
            let spread_gather = 2 * n * 64 * 6;
            let pme_perf = PerfCounters {
                cycles: (fft_flops + spread_gather) / self.backend.core_group().n_cpes as u64,
                ..Default::default()
            };
            swprof::tick(pme_perf.cycles);
            self.breakdown.add("Force", pme_perf);
        }
        drop(force_span);

        // --- bonded terms (flexible runs only; rigid water replaces them
        // with constraints). These are the Fig. 1 "Bound" interactions;
        // the optimized versions evaluate them on the CPEs by molecule.
        if !self.config.constraints {
            if self.config.version == Version::Ori {
                let n_terms: u64 = self
                    .sys
                    .topology
                    .blocks
                    .iter()
                    .map(|&(k, count)| {
                        let kind = &self.sys.topology.kinds[k];
                        ((kind.bonds.len() + kind.angles.len() + kind.dihedrals.len()) * count)
                            as u64
                    })
                    .sum();
                mdsim::bonded::compute_bonded(&mut self.sys);
                charge(
                    &mut self.breakdown,
                    "Bonded",
                    PerfCounters {
                        cycles: n_terms * 60, // ~60 MPE cycles per term
                        ..Default::default()
                    },
                );
            } else {
                let span = swprof::span("Bonded");
                let out = crate::kernels::run_bonded_cpe(&self.sys, self.backend.core_group());
                swprof::tick(out.total.cycles);
                drop(span);
                swprof::tel::flight::record("stage", "Bonded", out.total.cycles, 0);
                for (i, f) in out.forces.iter().enumerate() {
                    self.sys.force[i] += *f;
                }
                self.breakdown.add("Bonded", out.total);
            }
        }

        // --- update + constraints. The modelled rows are the MPE's in
        // every version (cheap rows); the host runs them as one pass per
        // molecule, on lanes when the box is large and the run native.
        let converged = match &self.constraints {
            Some(cs) => {
                let n_blocks = lane_blocks(self.config.backend, cs.n_mol(), UPDATE_GRAIN_MOLS);
                let pool = self.backend.core_group().pool();
                update_constrained(&mut self.sys, cs, self.config.dt, pool, n_blocks).is_some()
            }
            None => {
                integrate::leapfrog_step(&mut self.sys, self.config.dt);
                true
            }
        };
        charge(
            &mut self.breakdown,
            "Update",
            PerfCounters {
                cycles: self.sys.n() as u64 * MPE_UPDATE_CYCLES_PER_PARTICLE,
                ..Default::default()
            },
        );
        if let Some(cs) = &self.constraints {
            charge(
                &mut self.breakdown,
                "Constraints",
                PerfCounters {
                    cycles: cs.n_mol() as u64 * MPE_SETTLE_CYCLES_PER_MOL,
                    ..Default::default()
                },
            );
        }
        if !converged {
            self.constraint_failures += 1;
            swprof::tel::flight::record("abort", "shake_unconverged", self.step_idx as u64, 0);
            swprof::metrics::counter_add("constraints.unconverged", 1);
        }
        if let Some(t_ref) = self.config.t_ref {
            let dof = if self.config.constraints {
                self.sys.dof_rigid_water()
            } else {
                self.sys.dof_unconstrained()
            };
            let t_now = self.sys.temperature(dof);
            integrate::berendsen_scale(&mut self.sys, self.config.dt, 0.1, t_ref, t_now);
        }

        // --- trajectory output: modelled cost only.
        if self.config.nstxout > 0 && self.step_idx.is_multiple_of(self.config.nstxout) {
            let fast = self.config.version == Version::Other;
            charge(
                &mut self.breakdown,
                "Write traj",
                PerfCounters {
                    cycles: fastio::cost::frame_cycles(3 * self.sys.n() as u64, fast),
                    ..Default::default()
                },
            );
        }

        self.sys.clear_forces();
        self.step_idx += 1;
        self.energies
    }

    /// Run `n` steps; returns total simulated milliseconds.
    pub fn run(&mut self, n: usize) -> f64 {
        for _ in 0..n {
            self.step();
        }
        self.total_ms()
    }

    /// Total simulated milliseconds so far.
    pub fn total_ms(&self) -> f64 {
        let mut total = PerfCounters::new();
        for (_, c) in self.breakdown.iter() {
            total.merge_seq(c);
        }
        total.ms()
    }
}

/// Multi-CG step model: a representative single-CG engine plus
/// communication from the `swnet` model.
pub struct MultiCgModel {
    /// Total particles across all ranks.
    pub n_particles: usize,
    /// Ranks (CGs).
    pub n_ranks: usize,
    /// Version under test.
    pub version: Version,
    /// PME mesh size per axis (None = short-range only, the default).
    pub pme_grid: Option<usize>,
}

/// Result of a modeled multi-CG run.
#[derive(Debug, Clone)]
pub struct MultiCgResult {
    /// Per-kernel breakdown including communication rows.
    pub breakdown: Breakdown,
    /// Simulated milliseconds per `n_steps` steps.
    pub total_ms: f64,
}

impl MultiCgModel {
    /// Build a model for `n_particles` over `n_ranks` CGs.
    pub fn new(n_particles: usize, n_ranks: usize, version: Version) -> Self {
        Self {
            n_particles,
            n_ranks,
            version,
            pme_grid: None,
        }
    }

    /// Simulate `n_steps` steps: run a representative CG functionally and
    /// add modeled communication. `seed` controls the water box.
    ///
    /// The representative system never goes below ~9 K particles so the
    /// paper's 1.0 nm cutoff stays physical; per-kernel costs are then
    /// scaled linearly to the actual per-rank particle count (at fixed
    /// density every kernel row is linear in particles).
    pub fn run(&self, n_steps: usize, seed: u64) -> MultiCgResult {
        let per_rank = (self.n_particles / self.n_ranks).max(3);
        let rep_particles = per_rank.clamp(4_200, 48_000) / 3 * 3;
        let sys = mdsim::water::water_box(rep_particles / 3, 300.0, seed);
        let mut engine = Engine::new(sys, EngineConfig::paper(self.version));
        engine.run(n_steps);
        let scale = per_rank as f64 / rep_particles as f64;
        let mut breakdown = Breakdown::new();
        for (label, c) in engine.breakdown.iter() {
            let mut scaled = *c;
            scaled.cycles = (c.cycles as f64 * scale) as u64;
            scaled.dma_bytes = (c.dma_bytes as f64 * scale) as u64;
            breakdown.add(label, scaled);
        }
        let force_ns_per_step =
            sw26010::params::cycles_to_ns(breakdown.cycles("Force")) / n_steps as f64;

        if self.n_ranks > 1 {
            let topo = Topology::new(self.n_ranks);
            let ranks: Vec<usize> = (0..self.n_ranks).collect();
            let transport = if self.version == Version::Other {
                Transport::Rdma
            } else {
                Transport::Mpi
            };
            // Halo exchange every step: coordinates out, forces back.
            // GROMACS overlaps the wire time with force computation; the
            // "Wait + comm. F" row only keeps the non-overlapped part
            // plus the per-message software time (which occupies the
            // MPE and cannot overlap).
            let halo_particles = self.halo_estimate(per_rank);
            let halo_bytes = halo_particles * 12;
            let halo_full = 2.0
                * swnet::traced_halo_exchange_ns(&topo, transport, 6, halo_bytes, &ranks, "halo.x");
            let sw_per_msg = match transport {
                Transport::Mpi => MPI_SW_OVERHEAD_NS,
                Transport::Rdma => RDMA_SW_OVERHEAD_NS,
            };
            let halo_sw = 12.0 * sw_per_msg;
            let halo_wait = halo_sw + (halo_full - halo_sw - 0.8 * force_ns_per_step).max(0.0);
            // Energy all-reduce: a handful of doubles, synchronous, every
            // step. GROMACS books the global-synchronization wait (load
            // imbalance surfacing at the collective) under the same
            // "Comm. energies" row; imbalance grows slowly with rank
            // count.
            let imbalance = 0.025 * (self.n_ranks as f64).log2();
            let allreduce =
                swnet::traced_allreduce_ns(&topo, transport, 64, &ranks, "energies.allreduce")
                    + imbalance * force_ns_per_step;
            // Domain decomposition every nstlist steps: repartition by
            // neighbor exchange of about two halo volumes.
            let dd_per_rebuild = 4.0 * swnet::halo_exchange_ns(&topo, transport, 6, halo_bytes);
            let n_rebuilds = n_steps.div_ceil(engine.config().nstlist) as f64;
            charge(
                &mut breakdown,
                "Wait + comm. F",
                ns_counters(halo_wait * n_steps as f64),
            );
            charge(
                &mut breakdown,
                "Comm. energies",
                ns_counters(allreduce * n_steps as f64),
            );
            charge(
                &mut breakdown,
                "Domain decomp.",
                ns_counters(dd_per_rebuild * n_rebuilds),
            );
            if let Some(grid) = self.pme_grid {
                let pme = swnet::traced_pme_fft_comm_ns(&topo, transport, grid, &ranks);
                charge(
                    &mut breakdown,
                    "PME comm.",
                    ns_counters(pme * n_steps as f64),
                );
            }
        }

        let mut total = PerfCounters::new();
        for (_, c) in breakdown.iter() {
            total.merge_seq(c);
        }
        MultiCgResult {
            total_ms: total.ms(),
            breakdown,
        }
    }

    /// Geometric halo estimate: particles within `r_cut` of the domain
    /// surface, from the shell-volume ratio. Validated against the
    /// functional decomposition in `tests/halo_model_validation.rs`.
    pub fn halo_estimate(&self, per_rank: usize) -> usize {
        let density = mdsim::water::WATER_DENSITY_PER_NM3 * 3.0; // particles/nm^3
        let v_domain = per_rank as f64 / density;
        let a = v_domain.cbrt();
        let rc = 1.0f64;
        let shell = ((a + 2.0 * rc).powi(3) - a.powi(3)) / a.powi(3);
        (per_rank as f64 * shell.min(8.0)) as usize
    }
}

fn ns_counters(ns: f64) -> PerfCounters {
    PerfCounters {
        cycles: sw26010::params::ns_to_cycles(ns),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    #[test]
    fn engine_conserves_geometry_and_advances() {
        let sys = water_box(30, 300.0, 101);
        let mut e = Engine::new(sys, EngineConfig::paper(Version::Other));
        for _ in 0..5 {
            e.step();
        }
        assert_eq!(e.step_index(), 5);
        let cs = ConstraintSet::rigid_water(&e.sys, D_OH, theta_hoh());
        assert!(cs.max_violation(&e.sys) < 1e-2);
        assert!(e.total_ms() > 0.0);
    }

    /// A lattice box pushed 0.1 nm along the diagonal without wrapping:
    /// particles past the upper faces bin into the first cells beside
    /// particles a box length below them, so clusters straddle the
    /// boundary from the first list on.
    fn straddling_box() -> System {
        let mut sys = water_box(300, 300.0, 107);
        for p in &mut sys.pos {
            *p += mdsim::vec3(0.1, 0.1, 0.1);
        }
        sys
    }

    fn short_list_config(backend: BackendSel) -> EngineConfig {
        EngineConfig {
            nstlist: 4,
            nstxout: 0,
            backend,
            ..EngineConfig::paper(Version::Other)
        }
    }

    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn vec3_bits(v: &[mdsim::Vec3]) -> Vec<[u32; 3]> {
        v.iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    #[test]
    fn list_state_equals_a_fresh_lowering_on_every_step() {
        use crate::backend::NativeBackend;
        let cg = sw26010::CoreGroup::new();
        for backend in [BackendSel::Metered, BackendSel::Native] {
            let mut e = Engine::new(straddling_box(), short_list_config(backend));
            if backend == BackendSel::Native {
                // More threads than the refresh has row blocks to give.
                e.backend = AnyBackend::Native(NativeBackend::with_threads(4));
            }
            let (nstlist, rlist) = (e.config().nstlist, e.config().rlist);
            let mut list = None;
            for step in 0..3 * nstlist + 2 {
                // The positions the step lowers, and the list it holds.
                let before = e.sys.clone();
                if step % nstlist == 0 {
                    list = Some(
                        pairgen::generate_pairlist(&before, rlist, ListKind::Half, &cg, 2).list,
                    );
                }
                let list = list.as_ref().expect("generated on step 0");
                e.step();

                let held = e.lists.as_ref().expect("held between steps");
                let cpelist = CpePairList::build(&before, list);
                let psys = PackedSystem::build(
                    &before,
                    list.clustering.clone(),
                    PackageLayout::Transposed,
                );
                let at = format!("{backend:?} step {step}");
                assert_eq!(held.cpelist.offsets, cpelist.offsets, "{at}");
                assert_eq!(held.cpelist.neighbors, cpelist.neighbors, "{at}");
                assert_eq!(held.cpelist.masks, cpelist.masks, "{at}");
                assert_eq!(
                    f32_bits(held.cpelist.shifts.as_flattened()),
                    f32_bits(cpelist.shifts.as_flattened()),
                    "{at}"
                );
                assert_eq!(held.psys.clustering, psys.clustering, "{at}");
                assert_eq!(f32_bits(&held.psys.pos), f32_bits(&psys.pos), "{at}");

                if step == 0 {
                    // Long enough for the refresh to go to lanes.
                    assert!(held.cpelist.n_entries() >= 2 * SHIFT_GRAIN_ENTRIES, "{at}");
                    let edge = before.pbc.lengths().x;
                    let straddling = (0..psys.n_packages()).any(|c| {
                        let members = psys.clustering.members(c).iter();
                        let xs: Vec<f32> = members
                            .filter(|&&m| m != mdsim::FILLER)
                            .map(|&m| before.pos[m as usize].x)
                            .collect();
                        xs.iter().any(|a| xs.iter().any(|b| a - b > 0.5 * edge))
                    });
                    assert!(straddling, "no cluster straddles the boundary");
                }
            }
        }
    }

    #[test]
    fn update_on_lanes_is_the_serial_constrained_step_at_every_split() {
        // One box under the grain and one over it, forces as a step
        // leaves them, every block count from inline to one molecule
        // pair a lane.
        for n_mol in [40, 300] {
            let mut sys = water_box(n_mol, 300.0, 108);
            for (k, f) in sys.force.iter_mut().enumerate() {
                *f = mdsim::vec3(900.0, -700.0, 400.0) * ((k % 7) as f32 - 3.0);
            }
            let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
            let mut want = sys.clone();
            let old = want.pos.clone();
            integrate::leapfrog_step(&mut want, 0.002);
            let sweeps = cs.apply(&mut want, &old, 0.002);
            assert!(sweeps.is_some_and(|n| n > 1), "{sweeps:?}");
            let by_grain = lane_blocks(BackendSel::Native, n_mol, UPDATE_GRAIN_MOLS);
            assert_eq!(by_grain >= 2, n_mol == 300);
            assert_eq!(
                lane_blocks(BackendSel::Metered, n_mol, UPDATE_GRAIN_MOLS),
                1
            );
            for threads in [1, 2, 4] {
                let pool = LanePool::with_threads(threads);
                for n_blocks in [by_grain, 1, 2, 64] {
                    let mut got = sys.clone();
                    let at = format!("{n_mol} molecules, {threads} threads, {n_blocks} blocks");
                    assert_eq!(
                        update_constrained(&mut got, &cs, 0.002, &pool, n_blocks),
                        sweeps,
                        "{at}"
                    );
                    assert_eq!(vec3_bits(&got.pos), vec3_bits(&want.pos), "{at}");
                    assert_eq!(vec3_bits(&got.vel), vec3_bits(&want.vel), "{at}");
                }
            }
        }
    }

    #[test]
    fn a_shake_that_runs_out_of_iterations_is_counted() {
        let session = swprof::Session::begin();
        let mut e = Engine::new(
            water_box(30, 300.0, 109),
            short_list_config(BackendSel::Metered),
        );
        e.run(2);
        assert_eq!(e.constraint_failures(), 0);
        let mut converging = Engine::new(e.sys.clone(), *e.config());
        converging.resume_at(2);
        // One sweep is never enough to move a bond and then find it held.
        e.constraints.as_mut().expect("rigid water").max_iter = 1;
        let mut runner = crate::recovery::FaultTolerantRunner::new(e, 4).unwrap();
        assert_eq!(runner.run_until(5).unwrap().constraint_failures, 3);
        let (e, _) = runner.into_parts();
        converging.run(3);
        assert_eq!(e.constraint_failures(), 3);
        assert_eq!(converging.constraint_failures(), 0);
        // The steps went on, on what one sweep made of the bonds.
        assert_eq!(e.step_index(), 5);
        assert_ne!(vec3_bits(&e.sys.pos), vec3_bits(&converging.sys.pos));
        let metrics = session.finish().metrics;
        let counted = swprof::metrics::get(&metrics, "constraints.unconverged");
        assert_eq!(counted.map(|m| m.value()), Some(3));
    }

    #[test]
    fn rollback_in_mid_cycle_drops_the_list_state() {
        use mdsim::checkpoint::Checkpoint;
        for backend in [BackendSel::Metered, BackendSel::Native] {
            let cfg = short_list_config(backend);
            // Roll back from step 9 (one rebuild later) to step 6, two
            // steps into a list's life.
            let mut rolled = Engine::new(straddling_box(), cfg);
            rolled.run(6);
            let cp = Checkpoint::capture(&rolled.sys, 6);
            rolled.run(3);
            cp.restore(&mut rolled.sys).unwrap();
            rolled.resume_at(6);
            rolled.run(7);

            // The same 7 steps on an engine that never held another list.
            let mut sys = straddling_box();
            cp.restore(&mut sys).unwrap();
            let mut straight = Engine::new(sys, cfg);
            straight.resume_at(6);
            straight.run(7);

            assert_eq!(rolled.step_index(), straight.step_index());
            assert_eq!(
                vec3_bits(&rolled.sys.pos),
                vec3_bits(&straight.sys.pos),
                "{backend:?}"
            );
            assert_eq!(
                vec3_bits(&rolled.sys.vel),
                vec3_bits(&straight.sys.vel),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn breakdown_has_expected_rows() {
        let sys = water_box(30, 300.0, 102);
        let mut e = Engine::new(sys, EngineConfig::paper(Version::Other));
        e.run(3);
        let rows: Vec<&str> = e.breakdown.iter().map(|(l, _)| l).collect();
        for want in [
            "Neighbor search",
            "Force",
            "NB X/F buffer ops",
            "Update",
            "Constraints",
            "Write traj",
        ] {
            assert!(rows.contains(&want), "missing row {want}: {rows:?}");
        }
    }

    #[test]
    fn force_dominates_single_cg_breakdown() {
        // Table 1 case 1 profiles the original port: Force is >90% of
        // the step. (On the optimized version the force share shrinks —
        // that is the point of the optimization.)
        let sys = mdsim::water::water_box_equilibrated(800, 300.0, 103);
        let mut e = Engine::new(sys, EngineConfig::paper(Version::Ori));
        e.run(3);
        let force_frac = e.breakdown.fraction("Force");
        assert!(force_frac > 0.8, "force fraction {force_frac}");
    }

    #[test]
    fn version_ladder_is_monotone() {
        let ms = |v: Version| {
            let sys = water_box(60, 300.0, 104);
            let mut e = Engine::new(sys, EngineConfig::paper(v));
            e.run(2)
        };
        let ori = ms(Version::Ori);
        let cal = ms(Version::Cal);
        let other = ms(Version::Other);
        assert!(ori > cal, "Ori {ori} vs Cal {cal}");
        assert!(cal >= other, "Cal {cal} vs Other {other}");
    }

    #[test]
    fn flexible_water_computes_bonded_terms() {
        // Without constraints the engine runs flexible water: harmonic
        // bonds/angles appear as the "Bonded" row (Fig. 1's "Bound"
        // interactions) and exert restoring forces.
        let sys = mdsim::water::water_box_equilibrated(100, 300.0, 106);
        let mut e = Engine::new(
            sys,
            EngineConfig {
                constraints: false,
                dt: 0.0002, // flexible OH bonds need a ~0.2 fs step
                nstxout: 0,
                ..EngineConfig::paper(Version::Other)
            },
        );
        for _ in 0..5 {
            e.step();
        }
        assert!(e.breakdown.cycles("Bonded") > 0);
        assert_eq!(e.breakdown.cycles("Constraints"), 0);
        // Geometry stays near equilibrium under the stiff bonds.
        let cs = ConstraintSet::rigid_water(&e.sys, D_OH, theta_hoh());
        assert!(
            cs.max_violation(&e.sys) < 0.1,
            "{}",
            cs.max_violation(&e.sys)
        );
    }

    #[test]
    fn a_cpe_bonded_row_is_flight_recorded_with_its_cycles() {
        let sys = water_box(16, 300.0, 106);
        let mut e = Engine::new(
            sys,
            EngineConfig {
                constraints: false,
                dt: 0.0002,
                nstxout: 0,
                ..EngineConfig::paper(Version::Other)
            },
        );
        let ring = swprof::tel::flight::Ring::new();
        let _armed = ring.enter();
        e.step();
        let bonded: Vec<u64> = ring
            .snapshot()
            .iter()
            .filter(|ev| (ev.kind, ev.label) == ("stage", "Bonded"))
            .map(|ev| ev.a)
            .collect();
        assert_eq!(bonded, [e.breakdown.cycles("Bonded")]);
        assert!(bonded[0] > 0);
    }

    #[test]
    fn pme_engine_adds_long_range_energy() {
        let sys = mdsim::water::water_box_equilibrated(300, 300.0, 105);
        let mut plain = Engine::new(
            sys.clone(),
            EngineConfig {
                nstxout: 0,
                ..EngineConfig::paper(Version::Other)
            },
        );
        let mut with_pme = Engine::new(
            sys,
            EngineConfig {
                nstxout: 0,
                pme_grid: Some(32),
                ..EngineConfig::paper(Version::Other)
            },
        );
        let e_plain = plain.step();
        let e_pme = with_pme.step();
        // Same short-range pairs; PME adds the (negative) reciprocal +
        // self + exclusion terms.
        assert_eq!(e_plain.pairs_within_cutoff, e_pme.pairs_within_cutoff);
        assert!(
            e_pme.coulomb < e_plain.coulomb,
            "PME should lower the Coulomb energy: {} vs {}",
            e_pme.coulomb,
            e_plain.coulomb
        );
        // And the mesh cost lands in the Force row.
        assert!(with_pme.breakdown.cycles("Force") > plain.breakdown.cycles("Force"));
    }

    #[test]
    fn multi_cg_adds_comm_rows() {
        let m = MultiCgModel::new(12_000, 8, Version::Other);
        let out = m.run(2, 7);
        let rows: Vec<&str> = out.breakdown.iter().map(|(l, _)| l).collect();
        assert!(rows.contains(&"Wait + comm. F"));
        assert!(rows.contains(&"Comm. energies"));
    }

    #[test]
    fn pme_adds_fft_comm_row_in_multi_cg() {
        let plain = MultiCgModel::new(24_000, 16, Version::Other).run(2, 7);
        let mut model = MultiCgModel::new(24_000, 16, Version::Other);
        model.pme_grid = Some(64);
        let with_pme = model.run(2, 7);
        assert_eq!(plain.breakdown.cycles("PME comm."), 0);
        assert!(with_pme.breakdown.cycles("PME comm.") > 0);
        assert!(with_pme.total_ms > plain.total_ms);
    }

    #[test]
    fn rdma_version_communicates_faster() {
        let mpi = MultiCgModel::new(24_000, 16, Version::List).run(2, 7);
        let rdma = MultiCgModel::new(24_000, 16, Version::Other).run(2, 7);
        assert!(rdma.breakdown.cycles("Comm. energies") < mpi.breakdown.cycles("Comm. energies"));
    }
}
