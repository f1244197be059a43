//! Backend certification and dispatch: the contract a kernel execution
//! substrate must satisfy before the engine will schedule physics on
//! it, and the dispatch seam that routes a kernel variant to one of the
//! two substrates.
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
//! are therefore the same at any host thread count, which is what
//! [`Concurrency::Sequential`] declares. The [`NativeBackend`] (the same
//! pool, real SIMD, no meter) gets no such guarantee from a model and
//! has to pin every ordering in its kernels:
//! the 64 lanes genuinely interleave, and any hidden ordering
//! assumption becomes a heisenbug. This module is the gate between the
//! two worlds. A backend earns the right to carry physics by producing
//! a [`Certificate`]: proof that the `swcheck` happens-before engine
//! found no races (SWC110–SWC113) on its traces and that schedule
//! exploration replayed those traces under many legal interleavings
//! without the verdicts or the physics checksum moving.
//!
//! The certifying authority lives in the `swcheck` crate (which depends
//! on this one); the *contract* lives here so the engine can demand a
//! certificate without a dependency cycle.

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

/// How a backend executes kernel lanes, as declared by the backend
/// itself. Certification requirements scale with the honesty of this
/// answer: a sequential backend's traces cannot exhibit real races, so
/// its certificate mostly guards the *model*; a concurrent backend's
/// certificate guards the *execution*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Concurrency {
    /// Lanes cannot observe one another within a region, so the outcome
    /// is that of running them one after another (the simulator: private
    /// per-lane contexts, merge in lane order — see the module doc).
    Sequential,
    /// Lanes run on real OS threads and genuinely interleave.
    Threads,
}

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
/// schedule-stable. Issued by `swcheck::schedule::certify`; consumed by
/// [`assert_certified`].
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
/// spawn region's 64 lanes; the engine only talks to certified ones.
pub trait KernelBackend {
    /// Diagnostic name ("simulated", "native-threads", ...).
    fn name(&self) -> &'static str;

    /// How this backend's lanes actually execute.
    fn concurrency(&self) -> Concurrency;

    /// Execute one kernel variant on this substrate.
    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult;
}

/// A backend that has been through certification. The supertrait bound
/// is the whole point: you cannot implement this without also deciding
/// what your concurrency story is, and you should not implement it
/// without a [`Certificate`] to back the claim — `assert_certified` is
/// the runtime teeth.
pub trait CertifiedBackend: KernelBackend {
    /// The certificate this backend was admitted under.
    fn certificate(&self) -> &Certificate;
}

/// Minimum interleavings per variant a concurrent backend must have
/// survived. Sequential backends (the simulator) get the same bar —
/// exploration runs on their traces' happens-before DAG, so the count
/// is about model coverage, not thread luck.
pub const MIN_SCHEDULES: usize = 200;

/// Gate a backend at registration time: panics with a diagnosable
/// message if its certificate does not cover every kernel variant with
/// [`MIN_SCHEDULES`] explored interleavings.
pub fn assert_certified<B: CertifiedBackend>(backend: &B) {
    let cert = backend.certificate();
    assert_eq!(
        cert.backend,
        backend.name(),
        "certificate for `{}` presented by backend `{}`",
        cert.backend,
        backend.name()
    );
    for v in Variant::ALL {
        let Some(c) = cert.variants.iter().find(|c| c.variant == v) else {
            panic!(
                "backend `{}` has no certificate for variant `{}`",
                backend.name(),
                v.name()
            );
        };
        assert!(
            c.schedules_explored >= MIN_SCHEDULES,
            "backend `{}` explored only {} schedules for `{}` (need {})",
            backend.name(),
            c.schedules_explored,
            v.name(),
            MIN_SCHEDULES
        );
    }
}

/// The in-tree simulated backend: isolated lanes merged in lane order,
/// every instruction charged to the cycle meter. This is the substrate
/// all the paper-figure experiments run on.
#[derive(Debug, Default)]
pub struct MeteredBackend {
    cg: CoreGroup,
}

impl MeteredBackend {
    /// The backend as shipped (no certificate attached yet — tests and
    /// the `swcheck certify` CLI mint one and wrap it in
    /// [`Certified`]).
    pub fn new() -> Self {
        Self::default()
    }
}

impl KernelBackend for MeteredBackend {
    fn name(&self) -> &'static str {
        "simulated"
    }

    fn concurrency(&self) -> Concurrency {
        Concurrency::Sequential
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
    /// host: `"avx2"`, `"sse2"` or `"portable"` (for diagnostics — a
    /// wall-clock number should name the path that produced it; the
    /// physics is bit-identical on all three).
    pub fn lanes() -> &'static str {
        LaneImpl::detect().name()
    }
}

impl KernelBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native-threads"
    }

    fn concurrency(&self) -> Concurrency {
        Concurrency::Threads
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

    fn concurrency(&self) -> Concurrency {
        match self {
            AnyBackend::Metered(b) => b.concurrency(),
            AnyBackend::Native(b) => b.concurrency(),
        }
    }

    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult {
        match self {
            AnyBackend::Metered(b) => b.run(variant, input),
            AnyBackend::Native(b) => b.run(variant, input),
        }
    }
}

/// Wrapper admitting any [`KernelBackend`] with a minted certificate.
/// Construction runs [`assert_certified`], so holding a `Certified<B>`
/// is proof the gate was passed.
#[derive(Debug, Clone)]
pub struct Certified<B: KernelBackend> {
    backend: B,
    certificate: Certificate,
}

impl<B: KernelBackend> Certified<B> {
    /// Admit `backend` under `certificate`, panicking if the
    /// certificate falls short of the bar.
    pub fn admit(backend: B, certificate: Certificate) -> Self {
        let admitted = Self {
            backend,
            certificate,
        };
        assert_certified(&admitted);
        admitted
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

impl<B: KernelBackend> KernelBackend for Certified<B> {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn concurrency(&self) -> Concurrency {
        self.backend.concurrency()
    }

    fn run(&self, variant: Variant, input: KernelInput<'_>) -> KernelResult {
        self.backend.run(variant, input)
    }
}

impl<B: KernelBackend> CertifiedBackend for Certified<B> {
    fn certificate(&self) -> &Certificate {
        &self.certificate
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
    fn full_certificate_admits_the_backend() {
        let c = Certified::admit(MeteredBackend::new(), full_cert("simulated", 200));
        assert_eq!(c.name(), "simulated");
        assert_eq!(c.concurrency(), Concurrency::Sequential);
        assert!(c.certificate().covers_all_variants(200));
    }

    #[test]
    #[should_panic(expected = "no certificate for variant")]
    fn missing_variant_is_rejected() {
        let mut cert = full_cert("simulated", 200);
        cert.variants.retain(|c| c.variant != Variant::Rma);
        Certified::admit(MeteredBackend::new(), cert);
    }

    #[test]
    #[should_panic(expected = "explored only 10 schedules")]
    fn underexplored_certificate_is_rejected() {
        Certified::admit(MeteredBackend::new(), full_cert("simulated", 10));
    }

    #[test]
    #[should_panic(expected = "presented by backend")]
    fn certificate_for_another_backend_is_rejected() {
        Certified::admit(MeteredBackend::new(), full_cert("native-threads", 200));
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
    fn native_backend_declares_thread_concurrency() {
        let b = NativeBackend::with_threads(2);
        assert_eq!(b.name(), "native-threads");
        assert_eq!(b.concurrency(), Concurrency::Threads);
        assert!(["avx2", "sse2", "portable"].contains(&NativeBackend::lanes()));
    }
}
