//! # sw_gromacs — Rust reproduction of SW_GROMACS (SC '19)
//!
//! Umbrella crate re-exporting the subsystems:
//!
//! - [`sw26010`] — cycle-cost simulator of the Sunway SW26010 processor
//! - [`mdsim`] — molecular-dynamics substrate (GROMACS-like engine)
//! - [`swnet`] — TaihuLight interconnect cost model (MPI vs RDMA)
//! - [`swgmx`] — the paper's contribution: particle packages, software
//!   caches, deferred update, Bit-Map marks, vectorized kernels, CPE
//!   pair-list generation, fast I/O, platform TTF model
//! - [`swprof`] — one observability crate: the span profiler, cross-rank
//!   causal tracing and per-run flight rings (`swprof::tel`),
//!   and the serving telemetry plane (`swprof::slo`)
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use mdsim;
pub use sw26010;
pub use swgmx;
pub use swnet;
pub use swprof;
