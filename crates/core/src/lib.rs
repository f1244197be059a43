//! # swgmx — the SW_GROMACS core: Sunway-optimized MD kernels
//!
//! ```
//! use mdsim::nonbonded::NbParams;
//! use mdsim::pairlist::{ListKind, PairList};
//! use sw26010::CoreGroup;
//! use swgmx::{run_rma, CpePairList, PackageLayout, PackedSystem, RmaConfig};
//!
//! // A small water box, packaged for the simulated SW26010.
//! let sys = mdsim::water::water_box(200, 300.0, 1);
//! let params = NbParams { r_cut: 0.6, ..NbParams::paper_default() };
//! let list = PairList::build(&sys, 0.6, ListKind::Half);
//! let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
//! let cpelist = CpePairList::build(&sys, &list);
//!
//! // Run the paper's fully optimized kernel; costs are simulated cycles.
//! let out = run_rma(&psys, &cpelist, &params, &CoreGroup::new(), RmaConfig::MARK);
//! assert!(out.energies.pairs_within_cutoff > 0);
//! assert!(out.total.cycles > 0);
//! assert!(out.read_miss_ratio < 0.5);
//! ```
//!
//! This crate is the paper's contribution, rebuilt on the simulated
//! SW26010 (`sw26010` crate) over the MD substrate (`mdsim` crate):
//!
//! - [`package`] — particle packages, both layouts (§3.1 Fig. 2, §3.4
//!   Fig. 6), and the step's geometry: box and cluster centers
//! - [`cpelist`] — the kernel-ready pair list, topology only: CSR +
//!   masks (each kernel derives a row's shifts from the packed centers)
//! - [`kernels`] — the force-kernel ladder (Ori/Pkg/Cache/Vec/Mark) and
//!   the RCA and USTC baselines (§3.1–3.4, Fig. 8/9)
//! - [`pairgen`] — CPE-parallel pair-list generation with the two-way
//!   associative cache (§3.5)
//! - [`engine`] — the full MD step on the simulated hardware with
//!   per-kernel timing (Table 1, Fig. 10) and the multi-CG step model
//!   (Fig. 12)
//! - [`fastio`] — buffered trajectory output with the custom float
//!   formatter (§3.7)
//! - [`recovery`] — checkpoint/rollback driver for running the engine
//!   under a `swfault` fault plan
//! - [`platforms`] — the Table 4 / Eq. 3-4 TTF cross-platform model
//!   (Fig. 11)
//! - [`check`] — traced kernel runs + per-variant invariant contracts
//!   for the `swcheck` checker
//! - [`backend`] — the two execution substrates behind one
//!   [`KernelBackend`] seam, and the race-freedom + schedule-stability
//!   [`Certificate`] that `swcheck certify` mints about each

pub mod backend;
pub mod check;
pub mod cpelist;
pub mod engine;
pub mod fastio;
pub mod kernels;
pub mod mdp;
pub mod package;
pub mod pairgen;
pub mod platforms;
pub mod recovery;

pub use backend::{
    AnyBackend, BackendSel, Certificate, KernelBackend, KernelInput, MeteredBackend, NativeBackend,
};
pub use check::{
    physics_checksum, run_traced, run_traced_with, run_variant_with, KernelContract, TracedRun,
    Variant,
};
pub use cpelist::CpePairList;
pub use kernels::{run_ori, run_rca, run_rma, run_ustc, KernelResult, RmaConfig};
pub use package::{PackageLayout, PackedSystem};
