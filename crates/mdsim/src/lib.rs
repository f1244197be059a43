//! # mdsim — molecular-dynamics substrate for the SW_GROMACS reproduction
//!
//! ```
//! use mdsim::nonbonded::{compute_forces_half, NbParams};
//! use mdsim::pairlist::{ListKind, PairList};
//!
//! // Deterministic SPC water box; Verlet cluster pair list; forces.
//! let mut sys = mdsim::water::water_box(100, 300.0, 7);
//! let params = NbParams { r_cut: 0.6, ..NbParams::paper_default() };
//! let list = PairList::build(&sys, 0.6, ListKind::Half);
//! let en = compute_forces_half(&mut sys, &list, &params);
//! assert!(en.pairs_within_cutoff > 0);
//! // The list covers every pair inside the cutoff.
//! assert_eq!(list.verify_coverage(&sys, 0.6), None);
//! ```
//!
//! A from-scratch MD engine with the same algorithmic structure as the
//! GROMACS 5.1.5 kernels the paper ports: cluster (4-particle) Verlet
//! pair lists, Lennard-Jones + Coulomb short-range interaction (Eq. 1/2
//! of the paper), PME long-range electrostatics on a hand-written FFT,
//! leapfrog integration, SHAKE-constrained rigid water, and spatial
//! domain decomposition. Everything here is the *reference* (host-side,
//! scalar) implementation; the `swgmx` crate reimplements the hot kernels
//! on the simulated SW26010 and validates against this crate.
//!
//! ## Module map
//! - [`vec3`](mod@vec3), [`pbc`], [`math`] — geometry and numerics
//! - [`topology`], [`system`] — force field and particle state
//! - [`water`] — deterministic SPC water-box workload generator (§4.1)
//! - [`grid`], [`cluster`], [`pairlist`] — cell lists, 4-particle
//!   clusters, half/full cluster pair lists (Algorithms 1 and 2)
//! - [`nonbonded`] — reference LJ + Coulomb kernels
//! - [`bonded`] — harmonic bonds/angles
//! - [`constraints`], [`integrate`] — SHAKE rigid water, leapfrog
//! - [`fft`], [`ewald`], [`pme`] — lattice-sum electrostatics
//! - [`domain`] — domain decomposition for multi-rank scaling
//! - [`ddrun`], [`durable`] — the DD force pass and the one DD driver
//!   (snapshots, step-abort rollback, crash restart, rank death)

pub mod analysis;
pub mod bonded;
pub mod checkpoint;
pub mod cluster;
pub mod constraints;
pub mod ddrun;
pub mod domain;
pub mod durable;
pub mod ewald;
pub mod fft;
pub mod grid;
mod host;
pub mod integrate;
pub mod math;
pub mod minimize;
pub mod nonbonded;
pub mod pairlist;
pub mod pairsearch;
pub mod pbc;
pub mod pme;
pub mod system;
pub mod topology;
pub mod vec3;
pub mod water;

pub use cluster::{Clustering, CLUSTER_SIZE, FILLER};
pub use nonbonded::{Coulomb, NbEnergies, NbParams};
pub use pairlist::{ListKind, PairList};
pub use pbc::PbcBox;
pub use system::System;
pub use topology::Topology;
pub use vec3::{vec3, Vec3};
