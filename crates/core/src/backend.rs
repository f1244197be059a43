//! Backend dispatch and the certificate format: the seam that routes a
//! kernel variant to one of the two execution substrates, and the
//! evidence `swcheck certify` mints about each of them.
//!
//! Both substrates run their 64 lanes on one executor, the
//! [`LanePool`] of the [`CoreGroup`] a backend holds: the thread that
//! calls [`KernelBackend::run`] plus the pool's parked workers, each
//! claiming lanes from one counter. The [`MeteredBackend`] runs them
//! under the cycle meter through `CoreGroup::spawn`. Its lanes do run
//! on host threads, but no lane can see another: each meters into a
//! private per-lane context, the kernel closures are `Fn + Sync` over
//! plain shared data (no locks, no atomics), and results, counters and
//! forces are merged in lane order after the join. Cycles and physics
//! are therefore the same at any host thread count. The
//! [`NativeBackend`] (the same pool, real SIMD, no meter) gets no such
//! guarantee from a model and has to pin every ordering in its kernels:
//! the 64 lanes genuinely interleave, and any hidden ordering
//! assumption becomes a heisenbug. What stands between the two worlds
//! is a [`Certificate`]: evidence that the `swcheck` happens-before
//! engine found no races (SWC110–SWC113) on a backend's traces and that
//! schedule exploration replayed those traces under many legal
//! interleavings without the verdicts or the physics checksum moving.
//!
//! Nothing in this crate demands one: [`AnyBackend::of`] hands the
//! engine whichever backend was selected. The bar is enforced where
//! certificates are minted — `swcheck certify` exits 5 unless the
//! certificate [`covers_all_variants`](Certificate::covers_all_variants)
//! at [`MIN_SCHEDULES`], and CI runs it for both backends. The types
//! live here because `swcheck` depends on this crate.

use mdsim::nonbonded::NbParams;
use sw26010::{CoreGroup, LanePool};

use crate::check::Variant;
use crate::cpelist::CpePairList;
use crate::kernels::native_simd::LaneImpl;
use crate::kernels::{
    run_gld_naive, run_ori, run_rca, run_rca_native, run_rma, run_rma_native, run_ustc,
    run_ustc_native, KernelResult, RmaConfig, WriteStrategy,
};
use crate::package::PackedSystem;

/// Evidence that one kernel variant passed certification on a backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantCertificate {
    /// The certified variant.
    pub variant: Variant,
    /// Seeds whose traces were checked.
    pub seeds: Vec<u64>,
    /// Legal interleavings replayed per trace (schedule exploration).
    pub schedules_explored: usize,
    /// Physics checksum, identical across every replayed schedule.
    pub checksum: u64,
}

/// A backend's clean bill of health: every variant raced-checked and
/// schedule-stable. Issued by `swcheck::schedule::certify`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Certificate {
    /// Name of the backend the certificate covers.
    pub backend: &'static str,
    /// Per-variant evidence, in [`Variant::ALL`] order.
    pub variants: Vec<VariantCertificate>,
}

impl Certificate {
    /// Whether every variant in [`Variant::ALL`] is covered with at
    /// least `min_schedules` explored interleavings.
    pub fn covers_all_variants(&self, min_schedules: usize) -> bool {
        Variant::ALL.iter().all(|v| {
            self.variants
                .iter()
                .any(|c| c.variant == *v && c.schedules_explored >= min_schedules)
        })
    }
}

/// Everything a kernel variant consumes: the packed system, the lowered
/// pair list, and the interaction parameters. Borrowed per invocation
/// so backends stay stateless with respect to the physics.
#[derive(Clone, Copy)]
pub struct KernelInput<'a> {
    /// Packed particle data (layout per the variant's requirement).
    pub psys: &'a PackedSystem,
    /// Lowered cluster pair list (half or full per the variant).
    pub list: &'a CpePairList,
    /// Short-range interaction parameters.
    pub params: &'a NbParams,
}

/// The execution-substrate contract. A backend is the thing that runs a
/// spawn region's 64 lanes.
pub trait KernelBackend {
    /// Diagnostic name ("simulated", "native-threads", ...).
    fn name(&self) -> &'static str;

    /// Execute one kernel variant on this substrate.
    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult;
}

/// Minimum interleavings per variant a certificate must cover. The
/// simulator gets the same bar as the thread pool — exploration runs on
/// the traces' happens-before DAG, so the count is about model coverage,
/// not thread luck.
pub const MIN_SCHEDULES: usize = 200;

/// The in-tree simulated backend: isolated lanes merged in lane order,
/// every instruction charged to the cycle meter. This is the substrate
/// all the paper-figure experiments run on.
#[derive(Debug, Default)]
pub struct MeteredBackend {
    cg: CoreGroup,
}

impl MeteredBackend {
    /// The backend as shipped.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KernelBackend for MeteredBackend {
    fn name(&self) -> &'static str {
        "simulated"
    }

    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult {
        let cg = &self.cg;
        match variant {
            Variant::Ori => run_ori(input.psys, input.list, input.params, cg),
            Variant::GldNaive => run_gld_naive(input.psys, input.list, input.params, cg),
            Variant::Rma => run_rma(input.psys, input.list, input.params, cg, RmaConfig::MARK),
            Variant::Rca => run_rca(input.psys, input.list, input.params, cg),
            Variant::Ustc => run_ustc(input.psys, input.list, input.params, cg),
        }
    }
}

/// The native backend: the cluster kernels' 64 lanes run on the core
/// group's host threads with the 8-wide SIMD inner loop
/// (`kernels::native`, instantiated on the widest lane implementation
/// the host offers — see [`NativeBackend::lanes`]), unmetered. The `Ori`/`GldNaive` baselines have
/// no lane parallelism worth owning natively and delegate to the
/// metered path (bit-identical to [`MeteredBackend`] for those
/// variants).
#[derive(Debug, Default)]
pub struct NativeBackend {
    cg: CoreGroup,
}

impl NativeBackend {
    /// Pool sized to the host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool of exactly `n_threads` host threads, the one that calls
    /// [`KernelBackend::run`] counted; the physics is identical at every
    /// thread count (see `kernels::native`).
    pub fn with_threads(n_threads: usize) -> Self {
        Self {
            cg: CoreGroup::with_threads(n_threads),
        }
    }

    /// The lane pool (for diagnostics).
    pub fn pool(&self) -> &LanePool {
        self.cg.pool()
    }

    /// The SIMD lane implementation the cluster kernels run on on this
    /// host: `"avx2"` or `"portable"` (for diagnostics — a wall-clock
    /// number should name the path that produced it; the physics is
    /// bit-identical on both).
    pub fn lanes() -> &'static str {
        LaneImpl::detect().name()
    }
}

impl KernelBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native-threads"
    }

    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult {
        let pool = self.cg.pool();
        match variant {
            Variant::Ori => run_ori(input.psys, input.list, input.params, &self.cg),
            Variant::GldNaive => run_gld_naive(input.psys, input.list, input.params, &self.cg),
            Variant::Rma => run_rma_native(
                input.psys,
                input.list,
                input.params,
                pool,
                WriteStrategy::CopiesWithMarks,
            ),
            Variant::Rca => run_rca_native(input.psys, input.list, input.params, pool),
            Variant::Ustc => run_ustc_native(input.psys, input.list, input.params, pool),
        }
    }
}

/// Backend selector for configuration surfaces (engine config, CLI
/// flags, certify options) that must stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSel {
    /// The cycle-metered simulator ([`MeteredBackend`]).
    Metered,
    /// The thread-pool + real-SIMD backend ([`NativeBackend`]).
    Native,
}

impl BackendSel {
    /// CLI spelling ("metered" / "native").
    pub fn cli_name(self) -> &'static str {
        match self {
            BackendSel::Metered => "metered",
            BackendSel::Native => "native",
        }
    }

    /// The [`KernelBackend::name`] of the selected backend — the name
    /// certificates are minted under.
    pub fn backend_name(self) -> &'static str {
        match self {
            BackendSel::Metered => "simulated",
            BackendSel::Native => "native-threads",
        }
    }

    /// Parse either the CLI spelling or the backend name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "metered" | "simulated" => Some(BackendSel::Metered),
            "native" | "native-threads" => Some(BackendSel::Native),
            _ => None,
        }
    }
}

/// A concrete backend behind one non-generic type, so the engine and
/// the checker can hold "whichever backend was selected" without
/// turning generic themselves.
pub enum AnyBackend {
    /// The metered simulator.
    Metered(MeteredBackend),
    /// The native thread-pool backend.
    Native(NativeBackend),
}

impl AnyBackend {
    /// Instantiate the selected backend (the native pool is sized to
    /// the host).
    pub fn of(sel: BackendSel) -> Self {
        match sel {
            BackendSel::Metered => AnyBackend::Metered(MeteredBackend::new()),
            BackendSel::Native => AnyBackend::Native(NativeBackend::new()),
        }
    }

    /// The core group the backend's lanes run on. Whatever else its
    /// owner spawns belongs on it too (the engine's pair search and
    /// bonded kernel do), so that one set of host threads serves it all.
    pub fn core_group(&self) -> &CoreGroup {
        match self {
            AnyBackend::Metered(b) => &b.cg,
            AnyBackend::Native(b) => &b.cg,
        }
    }

    /// Which selector built this backend.
    pub fn sel(&self) -> BackendSel {
        match self {
            AnyBackend::Metered(_) => BackendSel::Metered,
            AnyBackend::Native(_) => BackendSel::Native,
        }
    }
}

impl KernelBackend for AnyBackend {
    fn name(&self) -> &'static str {
        match self {
            AnyBackend::Metered(b) => b.name(),
            AnyBackend::Native(b) => b.name(),
        }
    }

    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult {
        match self {
            AnyBackend::Metered(b) => b.run(variant, input),
            AnyBackend::Native(b) => b.run(variant, input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_cert(backend: &'static str, schedules: usize) -> Certificate {
        Certificate {
            backend,
            variants: Variant::ALL
                .iter()
                .map(|&variant| VariantCertificate {
                    variant,
                    seeds: vec![1, 2, 3],
                    schedules_explored: schedules,
                    checksum: 0xfeed,
                })
                .collect(),
        }
    }

    #[test]
    fn coverage_needs_every_variant_at_the_bar() {
        assert!(full_cert("simulated", 200).covers_all_variants(MIN_SCHEDULES));
        assert!(!full_cert("simulated", 10).covers_all_variants(MIN_SCHEDULES));
        let mut cert = full_cert("simulated", 200);
        cert.variants.retain(|c| c.variant != Variant::Rma);
        assert!(!cert.covers_all_variants(MIN_SCHEDULES));
    }

    #[test]
    fn backend_sel_round_trips() {
        for sel in [BackendSel::Metered, BackendSel::Native] {
            assert_eq!(BackendSel::from_name(sel.cli_name()), Some(sel));
            assert_eq!(BackendSel::from_name(sel.backend_name()), Some(sel));
            assert_eq!(AnyBackend::of(sel).sel(), sel);
        }
        assert_eq!(BackendSel::from_name("gpu"), None);
    }

    #[test]
    fn native_backend_names_itself_and_its_lanes() {
        assert_eq!(NativeBackend::with_threads(2).name(), "native-threads");
        assert!(["avx2", "portable"].contains(&NativeBackend::lanes()));
    }
}
