//! Checker integration: traced kernel runs and per-variant contracts.
//!
//! The `swcheck` binary (crate `swcheck`) validates every kernel variant
//! against the substrate's invariants by replaying the event stream a
//! run emits. This module is the kernel side of that bargain: it names
//! the shared-memory regions the kernels write (so addressed DMA and
//! direct-write annotations agree on an address space), declares what
//! each variant is *allowed* to do (its [`KernelContract`] — the
//! gld-naive baseline is gld-bound by design, so gld on a hot path is
//! not a defect *there*), and runs any variant under a capture session.

use mdsim::math::{fnv1a, FNV1A_OFFSET};
use mdsim::nonbonded::NbParams;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::water::water_box;
use sw26010::trace::{self, Event, RegionId};

use crate::backend::{AnyBackend, BackendSel, KernelBackend, KernelInput};
use crate::cpelist::CpePairList;
use crate::package::{PackageLayout, PackedSystem};

/// Region: the packed particle positions (`PackedSystem::pos`).
pub const REGION_POS: RegionId = 1;
/// Region: the per-CPE redundant force copies, laid out end to end
/// (copy of CPE `c` starts at word `c * n_pkg * FORCE_WORDS`).
pub const REGION_COPIES: RegionId = 2;
/// Region: the final slot-ordered force array.
pub const REGION_FORCES: RegionId = 3;

/// Region: the system's positions (`System::pos`), three words an atom.
pub const REGION_SYS_POS: RegionId = 4;
/// Region: the system's velocities, laid out like [`REGION_SYS_POS`].
pub const REGION_SYS_VEL: RegionId = 5;

/// What a kernel variant is allowed to do, consumed by the `swcheck`
/// lint pass. Everything not explicitly allowed is a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelContract {
    /// Variant name as reported in diagnostics.
    pub name: &'static str,
    /// gld/gst on a CPE hot path is acceptable (only for baselines whose
    /// point is gld cost; optimized kernels have cache equivalents).
    pub allow_gld: bool,
    /// Sub-package (< 32 B) DMA granularity is acceptable (only for the
    /// Pkg ablation rung, whose per-pair 12 B RMW is the cost §3.2
    /// eliminates).
    pub allow_subpackage_dma: bool,
    /// The run is expected to produce Bit-Map mark events.
    pub expects_marks: bool,
}

impl KernelContract {
    /// The strictest contract: no gld, package-granularity DMA only.
    /// Used for fixtures and as the base for optimized kernels.
    pub const fn strict(name: &'static str) -> Self {
        Self {
            name,
            allow_gld: false,
            allow_subpackage_dma: false,
            expects_marks: false,
        }
    }
}

/// The five kernel variants `swcheck` exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// MPE-serial original port.
    Ori,
    /// Naive CPE port, per-element gld/gst.
    GldNaive,
    /// The paper's full RMA ladder endpoint (`RmaConfig::MARK`).
    Rma,
    /// Full-list redundant-compute baseline (SW_LAMMPS strategy).
    Rca,
    /// CPE-compute / MPE-apply pipeline baseline.
    Ustc,
}

impl Variant {
    /// All five variants in ladder order.
    pub const ALL: [Variant; 5] = [
        Variant::Ori,
        Variant::GldNaive,
        Variant::Rma,
        Variant::Rca,
        Variant::Ustc,
    ];

    /// CLI/diagnostic name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Ori => "ori",
            Variant::GldNaive => "gldnaive",
            Variant::Rma => "rma",
            Variant::Rca => "rca",
            Variant::Ustc => "ustc",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        Variant::ALL.iter().copied().find(|v| v.name() == s)
    }

    /// The invariant contract this variant runs under.
    pub fn contract(&self) -> KernelContract {
        match self {
            // The MPE is a conventional cached core: no gld model at all.
            Variant::Ori => KernelContract::strict("ori"),
            // gld cost is this baseline's entire point.
            Variant::GldNaive => KernelContract {
                allow_gld: true,
                ..KernelContract::strict("gldnaive")
            },
            Variant::Rma => KernelContract {
                expects_marks: true,
                ..KernelContract::strict("rma")
            },
            Variant::Rca => KernelContract::strict("rca"),
            Variant::Ustc => KernelContract::strict("ustc"),
        }
    }
}

/// A kernel run captured for checking.
#[derive(Debug)]
pub struct TracedRun {
    /// Contract of the variant that ran.
    pub contract: KernelContract,
    /// Every event the run emitted, in capture order.
    pub events: Vec<Event>,
    /// Simulated cycles of the run (sanity signal for reports).
    pub cycles: u64,
    /// Bit-exact digest of the physics output (forces + energies), from
    /// [`physics_checksum`]. The certification harness demands this be
    /// identical across every legal interleaving of the same run.
    pub checksum: u64,
}

/// FNV-1a over the exact bit patterns of the forces and energies. Two
/// runs that agree here produced bit-identical physics — the currency
/// the schedule-exploration certificate (`swcheck::schedule`) trades in.
pub fn physics_checksum(forces: &[mdsim::Vec3], energies: &mdsim::nonbonded::NbEnergies) -> u64 {
    let words = forces
        .iter()
        .flat_map(|f| [f.x, f.y, f.z].map(|c| c.to_bits() as u64))
        .chain([energies.lj, energies.coulomb, energies.virial].map(f64::to_bits));
    words.fold(FNV1A_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// Run `variant` on `backend` over a seeded water box of `n_mol`
/// molecules and return its full [`KernelResult`](crate::kernels::KernelResult) (forces, energies,
/// counters, per-phase breakdown). The shared workload constructor for
/// the checker, the certification harness, and the roofline collector —
/// both backends see byte-identical inputs for a given `(n_mol, seed)`.
pub fn run_variant_with(
    backend: &AnyBackend,
    variant: Variant,
    n_mol: usize,
    seed: u64,
) -> crate::kernels::KernelResult {
    let r_cut = 0.7f32;
    let sys = water_box(n_mol, 300.0, seed);
    let params = NbParams {
        r_cut,
        ..NbParams::paper_default()
    };
    let kind = match variant {
        Variant::Rca => ListKind::Full,
        _ => ListKind::Half,
    };
    let list = PairList::build(&sys, r_cut, kind);
    let cpe = CpePairList::build(&sys, &list);
    // The native cluster kernels vectorize over the transposed layout,
    // so Rca/Ustc switch layouts there; the metered path keeps the
    // layouts the paper's figures were measured with.
    let layout = match variant {
        Variant::Rma => PackageLayout::Transposed,
        Variant::Rca | Variant::Ustc if backend.sel() == BackendSel::Native => {
            PackageLayout::Transposed
        }
        _ => PackageLayout::Interleaved,
    };
    let psys = PackedSystem::build(&sys, list.clustering.clone(), layout);
    backend.run(
        variant,
        KernelInput {
            psys: &psys,
            list: &cpe,
            params: &params,
        },
    )
}

/// [`run_variant_with`] on the metered backend (the historical default).
pub fn run_variant(variant: Variant, n_mol: usize, seed: u64) -> crate::kernels::KernelResult {
    run_variant_with(&AnyBackend::of(BackendSel::Metered), variant, n_mol, seed)
}

/// Run `variant` on `backend` under a trace capture session and return
/// the event stream plus contract.
pub fn run_traced_with(
    backend: &AnyBackend,
    variant: Variant,
    n_mol: usize,
    seed: u64,
) -> TracedRun {
    let session = trace::Session::begin();
    let result = run_variant_with(backend, variant, n_mol, seed);
    let events = session.finish();
    TracedRun {
        contract: variant.contract(),
        events,
        cycles: result.total.cycles,
        checksum: physics_checksum(&result.forces, &result.energies),
    }
}

/// Smallest box [`run_traced_step`] is worth capturing on: the update
/// splits into lane blocks from here up.
pub const STEP_MIN_MOL: usize = 400;

/// Two steps of a native [`Engine`](crate::engine::Engine) over a seeded
/// water box under a capture session: one that builds the list and one
/// that keeps it, so the stream holds the force kernel's regions and —
/// from [`STEP_MIN_MOL`] molecules up — the engine's own,
/// `update.lanes`.
pub fn run_traced_step(n_mol: usize, seed: u64) -> TracedRun {
    use crate::engine::{Engine, EngineConfig, Version};
    let config = EngineConfig {
        backend: BackendSel::Native,
        nstxout: 0,
        ..EngineConfig::paper(Version::Other)
    };
    let mut engine = Engine::new(water_box(n_mol, 300.0, seed), config);
    let session = trace::Session::begin();
    engine.run(2);
    let events = session.finish();
    TracedRun {
        contract: KernelContract {
            expects_marks: true,
            ..KernelContract::strict("step")
        },
        events,
        cycles: engine.breakdown.iter().map(|(_, c)| c.cycles).sum(),
        checksum: physics_checksum(&engine.sys.pos, &engine.energies),
    }
}

/// [`run_traced_with`] on the metered backend (the historical default).
pub fn run_traced(variant: Variant, n_mol: usize, seed: u64) -> TracedRun {
    run_traced_with(&AnyBackend::of(BackendSel::Metered), variant, n_mol, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::trace::EventKind;

    #[test]
    fn variant_names_round_trip() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Some(v));
        }
        assert_eq!(Variant::from_name("nope"), None);
    }

    #[test]
    fn contracts_encode_the_baselines() {
        assert!(Variant::GldNaive.contract().allow_gld);
        assert!(!Variant::Rma.contract().allow_gld);
        assert!(Variant::Rma.contract().expects_marks);
    }

    #[test]
    fn traced_rma_run_emits_marks_dma_and_phases() {
        let run = run_traced(Variant::Rma, 200, 3);
        assert!(run.cycles > 0);
        assert!(run
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MarkSet { .. })));
        assert!(run
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ReduceLine { .. })));
        assert!(run.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Dma {
                region: Some(REGION_POS),
                aligned: true,
                ..
            }
        )));
        // The optimized kernel never touches the gld port.
        assert!(!run
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Gld { .. })));
    }

    #[test]
    fn traced_gldnaive_run_is_gld_bound_by_contract() {
        let run = run_traced(Variant::GldNaive, 200, 3);
        assert!(run.contract.allow_gld);
        assert!(run
            .events
            .iter()
            .any(|e| e.cpe.is_some() && matches!(e.kind, EventKind::Gld { .. })));
    }
}
