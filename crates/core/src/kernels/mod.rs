//! Force-kernel variants on the simulated SW26010.
//!
//! All variants compute the same physics (validated against the `mdsim`
//! scalar reference) and differ only in how they move data and issue
//! instructions — which is exactly the axis the paper's Fig. 8/9 compare:
//!
//! - [`ori::run_ori`] — MPE-only serial baseline ("Ori")
//! - [`gldnaive::run_gld_naive`] — CPEs with per-element gld/gst, no
//!   data restructuring (ablation rung between Ori and Pkg)
//! - [`rma::run_rma`] — the RMA family: Pkg / Cache / Vec / Mark rungs,
//!   selected by [`rma::RmaConfig`]
//! - [`rca::run_rca`] — full-list redundant compute (SW_LAMMPS \[8\])
//! - [`ustc::run_ustc`] — MPE-applies-updates pipeline (USTC \[29\])
//! - [`bonded_cpe::run_bonded_cpe`] — bonds/angles/dihedrals distributed
//!   over CPEs by molecule (conflict-free by construction)
//!
//! The `native` module holds the wall-clock twins of `rma`/`rca`/`ustc`
//! for the thread-pool backend (same physics, real SIMD, no metering);
//! `native_simd` is their 8-wide inner loop.

pub mod bonded_cpe;
pub mod common;
pub mod gldnaive;
pub mod native;
pub mod native_simd;
pub mod ori;
pub mod rca;
pub mod rma;
pub mod ustc;

pub use bonded_cpe::run_bonded_cpe;
pub use common::{Arith, KernelResult};
pub use gldnaive::run_gld_naive;
pub use native::{run_rca_native, run_rma_native, run_ustc_native, WriteStrategy};
pub use ori::run_ori;
pub use rca::run_rca;
pub use rma::{run_rma, RmaConfig};
pub use ustc::run_ustc;
