//! # sw26010 — a cycle-cost simulator of the Sunway SW26010 processor
//!
//! ```
//! use sw26010::{CoreGroup, DmaEngine, Dir};
//!
//! // Spawn a kernel on the 64 CPEs; each meters its own work.
//! let cg = CoreGroup::new();
//! let out = cg.spawn("test", |ctx| {
//!     ctx.ldm.reserve("buffer", 1024).unwrap(); // 64 KB budget enforced
//!     DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, 640, true);
//!     sw26010::simd::meter::simd_ops(&mut ctx.perf, 100);
//!     ctx.id
//! });
//! assert_eq!(out.results.len(), 64);
//! // Region wall time: max over CPEs, floored by aggregate DMA bandwidth.
//! assert!(out.region.cycles > 0);
//! ```
//!
//! This crate is the hardware substrate for the SW_GROMACS (SC '19)
//! reproduction. We have no Sunway toolchain or hardware, so the kernels
//! of the paper run *functionally* on the host while every architectural
//! interaction — DMA transfers, gld/gst accesses, LDM capacity, SIMD
//! instruction issue, CPE spawn/join — is metered against a deterministic
//! cycle model parameterized with the paper's published numbers (Table 2
//! DMA bandwidth curve, 1.45 GHz clock, 64 KB LDM, 8x8 CPE mesh).
//!
//! The model produces two things at once:
//! 1. **Correct results** — caches and SIMD types carry real data, so an
//!    optimized kernel variant can be checked bit-for-bit against its
//!    scalar reference;
//! 2. **Reproducible timing ratios** — the paper's figures report time
//!    ratios between kernel variants, which are memory-traffic ratios in
//!    disguise; a deterministic cost model driven by the same bandwidth
//!    and latency constants reproduces their shape.
//!
//! ## Module map
//! - [`params`] — architectural constants (Table 2 lives here)
//! - [`perf`] — cycle/traffic counters, sequential/parallel merges
//! - [`ldm`] — 64 KB local-memory budget enforcement
//! - [`dma`] — size-dependent DMA cost (Table 2 interpolation)
//! - [`gld`] — high-latency global load/store cost
//! - [`simd`] — `floatv4` emulation, `vshuff`, Fig. 7 transpose, metering
//! - [`cache`] — LDM software caches: read (Fig. 3), deferred-update
//!   write-back (Fig. 4), Bit-Map marks (Alg. 3), 1/2-way associativity
//! - [`bitmap`] — the §3.3 update-mark bit vector
//! - [`cg`] — core group: MPE + 64-CPE spawn/join with per-CPE metering
//! - [`trace`] — event sink feeding the `swcheck` invariant checker

pub mod bitmap;
pub mod cache;
pub mod cg;
pub mod dma;
pub mod gld;
pub mod ldm;
pub mod params;
pub mod perf;
pub mod pool;
pub mod simd;
pub mod trace;

pub use bitmap::BitMap;
pub use cache::{CacheGeometry, CacheStats, ReadCache, WriteCache};
pub use cg::{CoreGroup, CpeCtx, MpeCtx, SpawnResult};
pub use dma::{Dir, DmaEngine};
pub use ldm::{Ldm, LdmOverflow};
pub use perf::{Breakdown, PerfCounters};
pub use pool::LanePool;
pub use simd::{transpose3_to_interleaved, FloatV4};
