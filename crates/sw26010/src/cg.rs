//! Core-group execution model: one MPE plus 64 CPEs.
//!
//! The athread programming model spawns one kernel instance on each of the
//! 64 CPEs and joins them. [`CoreGroup::spawn`] reproduces that shape: the
//! closure runs once per CPE, each instance metering its own simulated
//! cycles into a [`CpeCtx`]. The region's simulated wall time is the
//! *maximum* over CPEs plus the spawn/join overhead — load imbalance
//! between CPEs is therefore visible in the model, exactly the effect the
//! paper's USTC-pipeline discussion (§2.2/§4.3) hinges on.
//!
//! The 64 instances run on the core group's [`LanePool`] — the calling
//! thread plus as many parked workers as the host offers beyond it — so
//! host wall-clock benefits too. `spawn` is the pool's lane prologue
//! plus what makes a lane a *metered* CPE: a private [`CpeCtx`], the
//! cycle meter and a profile span. Nothing simulated depends on which
//! thread ran which lane or on the thread count: a lane sees only its
//! own context, the closure is `Fn + Sync` (a kernel that shares state
//! between lanes has to synchronise it itself; none in this repository
//! does), and `results`, `per_cpe` and the region counters are merged in
//! lane order after the join.

use crate::ldm::Ldm;
use crate::params::{CPES_PER_CG, CPE_MESH_DIM, SPAWN_JOIN_CYCLES};
use crate::perf::PerfCounters;
use crate::pool::LanePool;

/// Execution context of one CPE kernel instance.
#[derive(Debug)]
pub struct CpeCtx {
    /// CPE index in 0..64.
    pub id: usize,
    /// Cycle/traffic counters for this instance.
    pub perf: PerfCounters,
    /// LDM budget ledger; reservations exceeding 64 KB fail.
    pub ldm: Ldm,
}

impl CpeCtx {
    fn new(id: usize) -> Self {
        Self {
            id,
            perf: PerfCounters::new(),
            ldm: Ldm::new(),
        }
    }

    /// Row index of this CPE in the 8x8 mesh.
    pub fn row(&self) -> usize {
        self.id / CPE_MESH_DIM
    }

    /// Column index of this CPE in the 8x8 mesh.
    pub fn col(&self) -> usize {
        self.id % CPE_MESH_DIM
    }
}

/// Execution context of the management processing element (MPE).
#[derive(Debug, Default)]
pub struct MpeCtx {
    /// Cycle/traffic counters for MPE-serial work.
    pub perf: PerfCounters,
}

impl MpeCtx {
    /// Fresh MPE context.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of a CPE parallel region.
#[derive(Debug)]
pub struct SpawnResult<R> {
    /// Per-CPE return values, indexed by CPE id.
    pub results: Vec<R>,
    /// Per-CPE counters, indexed by CPE id.
    pub per_cpe: Vec<PerfCounters>,
    /// Region-level counters: wall cycles = max over CPEs + spawn/join,
    /// traffic = sum over CPEs.
    pub region: PerfCounters,
}

impl<R> SpawnResult<R> {
    /// Ratio of slowest to mean CPE cycles (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.per_cpe.iter().map(|p| p.cycles).max().unwrap_or(0);
        let sum: u64 = self.per_cpe.iter().map(|p| p.cycles).sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * self.per_cpe.len() as f64 / sum as f64
    }
}

/// One core group: spawns CPE kernels and runs MPE-serial sections.
#[derive(Debug)]
pub struct CoreGroup {
    /// Number of CPEs used by spawn (always 64 on real hardware; smaller
    /// values support ablation experiments).
    pub n_cpes: usize,
    pool: LanePool,
}

impl Default for CoreGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl CoreGroup {
    /// A full 64-CPE core group on as many host threads as the host
    /// offers.
    pub fn new() -> Self {
        Self::with_cpes(CPES_PER_CG)
    }

    /// A core group restricted to `n` CPEs (ablation).
    pub fn with_cpes(n: usize) -> Self {
        assert!((1..=CPES_PER_CG).contains(&n));
        Self {
            n_cpes: n,
            pool: LanePool::for_lanes(n),
        }
    }

    /// A full core group on exactly `n_threads` host threads, the
    /// calling one counted. Nothing simulated depends on the number.
    pub fn with_threads(n_threads: usize) -> Self {
        Self {
            n_cpes: CPES_PER_CG,
            pool: LanePool::with_threads(n_threads),
        }
    }

    /// The host threads this core group's lanes run on. Native kernels
    /// run their lanes on it directly, unmetered.
    pub fn pool(&self) -> &LanePool {
        &self.pool
    }

    /// Run `kernel` once per CPE in parallel, as a region named `label`
    /// (e.g. `"rma.calc"`: what its per-CPE profile spans are called).
    /// The closure receives the CPE's context and must meter its own
    /// work through it.
    pub fn spawn<R, F>(&self, label: &'static str, kernel: F) -> SpawnResult<R>
    where
        R: Send,
        F: Fn(&mut CpeCtx) -> R + Sync,
    {
        // Profiling: per-CPE spans named `label`, aligned to the MPE
        // clock at spawn time so kernel spans sit under the engine stage
        // that issued them. One relaxed load when no session is active.
        let profiling = swprof::enabled();
        let prof_base = swprof::track_cursor(None);
        let lanes = self.pool.region(self.n_cpes, |id, respawn_cycles| {
            let mut ctx = CpeCtx::new(id);
            // Respawns of a hung instance move only simulated time, on
            // this CPE's timeline.
            ctx.perf.cycles += respawn_cycles;
            let r = if profiling {
                swprof::align_track(Some(id), prof_base);
                let t0 = swprof::track_cursor(Some(id));
                let _span = swprof::span(label);
                let r = kernel(&mut ctx);
                // Charge this instance's metered cycles to its timeline,
                // net of anything the kernel already ticked itself.
                let ticked = swprof::track_cursor(Some(id)).saturating_sub(t0);
                swprof::tick(ctx.perf.cycles.saturating_sub(ticked));
                r
            } else {
                kernel(&mut ctx)
            };
            // Fold injected LDM-contention stalls into this instance's
            // timeline (zero without a fault plan installed).
            ctx.perf.cycles += ctx.ldm.stall_cycles();
            (r, ctx.perf)
        });

        let (results, per_cpe): (Vec<R>, Vec<PerfCounters>) = lanes.into_iter().unzip();
        let mut region = PerfCounters::new();
        for p in &per_cpe {
            region.merge_par(p);
        }
        // Roofline: the region cannot finish faster than the CG memory
        // system can move the aggregate DMA traffic (Table 2 rate).
        region.cycles = region.cycles.max(region.dma_bw_cycles);
        region.cycles += SPAWN_JOIN_CYCLES;
        SpawnResult {
            results,
            per_cpe,
            region,
        }
    }

    /// Run an MPE-serial section, returning its value and counters.
    pub fn mpe_section<R>(&self, f: impl FnOnce(&mut MpeCtx) -> R) -> (R, PerfCounters) {
        let mut ctx = MpeCtx::new();
        let r = f(&mut ctx);
        (r, ctx.perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_runs_all_cpes_with_correct_ids() {
        let cg = CoreGroup::new();
        let out = cg.spawn("test", |ctx| ctx.id * 2);
        assert_eq!(out.results.len(), 64);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, i * 2);
        }
    }

    #[test]
    fn region_time_is_max_plus_overhead() {
        let cg = CoreGroup::new();
        let out = cg.spawn("test", |ctx| {
            // CPE 63 does the most simulated work.
            crate::simd::meter::scalar_flops(&mut ctx.perf, (ctx.id as u64 + 1) * 100);
        });
        assert_eq!(out.region.cycles, 6400 + SPAWN_JOIN_CYCLES);
        let total_flops: u64 = out.per_cpe.iter().map(|p| p.scalar_flops).sum();
        assert_eq!(total_flops, (1..=64).map(|i| i * 100).sum::<u64>());
        assert_eq!(out.region.scalar_flops, total_flops);
    }

    #[test]
    fn imbalance_metric() {
        let cg = CoreGroup::with_cpes(4);
        let balanced = cg.spawn("test", |ctx| {
            crate::simd::meter::scalar_flops(&mut ctx.perf, 100);
            ctx.id
        });
        assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
        let skewed = cg.spawn("test", |ctx| {
            let work = if ctx.id == 0 { 400 } else { 100 };
            crate::simd::meter::scalar_flops(&mut ctx.perf, work);
        });
        assert!(skewed.imbalance() > 1.5);
    }

    #[test]
    fn mesh_coordinates() {
        let cg = CoreGroup::new();
        let out = cg.spawn("test", |ctx| (ctx.row(), ctx.col()));
        assert_eq!(out.results[0], (0, 0));
        assert_eq!(out.results[9], (1, 1));
        assert_eq!(out.results[63], (7, 7));
    }

    #[test]
    fn mpe_section_meters_separately() {
        let cg = CoreGroup::new();
        let (v, perf) = cg.mpe_section(|mpe| {
            crate::simd::meter::scalar_flops(&mut mpe.perf, 42);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(perf.cycles, 42);
    }

    #[test]
    fn spawn_result_is_independent_of_host_thread_count() {
        // Uneven work and traffic per lane, so a wrong merge order or a
        // lost lane shows in `per_cpe` and in the region maximum.
        let kernel = |ctx: &mut CpeCtx| {
            crate::simd::meter::scalar_flops(&mut ctx.perf, (ctx.id as u64 * 37) % 11 * 100 + 5);
            ctx.perf.dma_bytes += 64 * (ctx.id as u64 + 1);
            ctx.perf.cycles += 11 * ctx.col() as u64;
            (ctx.id, ctx.row())
        };
        let on = |n_cpes: usize, threads: usize| CoreGroup {
            n_cpes,
            pool: LanePool::with_threads(threads),
        };
        for n in [1, 3, 64] {
            let one = on(n, 1).spawn("test", kernel);
            assert_eq!(one.results.len(), n);
            for threads in [2, 3, 5, 64] {
                let many = on(n, threads).spawn("test", kernel);
                assert_eq!(many.results, one.results, "n {n} threads {threads}");
                assert_eq!(many.per_cpe, one.per_cpe, "n {n} threads {threads}");
                assert_eq!(many.region, one.region, "n {n} threads {threads}");
            }
            let host = CoreGroup::with_cpes(n).spawn("test", kernel);
            assert_eq!(host.results, one.results);
            assert_eq!(host.per_cpe, one.per_cpe);
            assert_eq!(host.region, one.region);
        }
    }

    #[test]
    fn spawn_is_deterministic_in_simulated_time() {
        let cg = CoreGroup::new();
        let run = || {
            cg.spawn("test", |ctx| {
                crate::simd::meter::scalar_flops(&mut ctx.perf, (ctx.id as u64) % 7 * 13);
            })
            .region
            .cycles
        };
        assert_eq!(run(), run());
    }
}
