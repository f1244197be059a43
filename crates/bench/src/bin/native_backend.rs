//! Native-vs-metered wall-clock benchmark on the paper's Fig. 8 case-2
//! workload (24 K particle water box).
//!
//! The metered backend simulates the SW26010 — its *cycle* numbers are
//! the paper reproduction, but it pays real host time for the metering
//! bookkeeping (per-entry copies, LRU cache simulation, scalar f64
//! erfc). The native backend runs the same Mark kernel on the host
//! thread pool with the 8-wide SIMD loop. This regenerator measures
//! both in host wall time and reports the speedup; `--check` exits
//! nonzero unless the native path is at least 3x faster and
//! physics-equivalent (the PR 8 acceptance bar).
//!
//! ```text
//! native_backend [particles] [--check]
//! ```

use std::time::Instant;

use bench::{header, water_workload, BenchJson};
use swgmx::backend::{AnyBackend, BackendSel, KernelBackend, KernelInput, NativeBackend};
use swgmx::check::Variant;
use swgmx::kernels::KernelResult;

const METERED_REPS: usize = 5;
const NATIVE_REPS: usize = 30;
const SPEEDUP_FLOOR: f64 = 3.0;

/// Best-of-reps wall time per call. The container shares its host with
/// other tenants, so individual reps absorb one-sided scheduling jitter
/// (observed swings of 10–50%); the minimum is the standard robust
/// estimator for the machine's actual speed, applied identically to
/// both backends.
fn time_reps(backend: &AnyBackend, input: KernelInput<'_>, reps: usize) -> (f64, KernelResult) {
    let mut last = backend.run(Variant::Rma, input); // warmup (also the checked result)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // swrace: allow(SWC006) host wall clock is the measurand here;
        // it never feeds physics — the checked results come from the
        // deterministic kernels.
        let t0 = Instant::now();
        last = backend.run(Variant::Rma, input);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, last)
}

fn main() {
    let mut check = false;
    let mut particles = 24_000usize;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            particles = arg.parse().expect("particle count");
        }
    }
    header(
        "Native backend — wall-clock Mark kernel, metered vs thread pool",
        "host seconds per kernel invocation and the native speedup",
    );

    let w = water_workload(particles, 43);
    let input = KernelInput {
        psys: &w.psys,
        list: &w.half,
        params: &w.params,
    };
    let metered = AnyBackend::of(BackendSel::Metered);
    let native = AnyBackend::of(BackendSel::Native);
    let threads = match &native {
        AnyBackend::Native(b) => b.pool().n_threads(),
        AnyBackend::Metered(_) => unreachable!(),
    };

    let (t_metered, r_metered) = time_reps(&metered, input, METERED_REPS);
    let (t_native, r_native) = time_reps(&native, input, NATIVE_REPS);

    let mut json = BenchJson::new("native_backend");
    json.config_num("particles", particles as f64);
    json.config_num("threads", threads as f64);
    json.config_num("metered_reps", METERED_REPS as f64);
    json.config_num("native_reps", NATIVE_REPS as f64);

    let speedup = t_metered / t_native;
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "particles", "metered s/call", "native s/call", "speedup"
    );
    println!("{particles:>10} {t_metered:>14.4} {t_native:>14.4} {speedup:>8.1}x");
    println!(
        "  native path: {threads} threads, {} lanes",
        NativeBackend::lanes()
    );
    println!(
        "  pairs: metered {} native {}   energy: metered {:.3} native {:.3}",
        r_metered.energies.pairs_within_cutoff,
        r_native.energies.pairs_within_cutoff,
        r_metered.energies.total(),
        r_native.energies.total()
    );

    json.metric("wall_s.metered_per_call", t_metered);
    json.metric("wall_s.native_per_call", t_native);
    json.metric("speedup.native_vs_metered", speedup);
    json.metric("steps_per_s.metered", 1.0 / t_metered);
    json.write();

    if check {
        let pairs_ok =
            r_metered.energies.pairs_within_cutoff == r_native.energies.pairs_within_cutoff;
        let e_rel = (r_metered.energies.total() - r_native.energies.total()).abs()
            / r_metered.energies.total().abs();
        if !pairs_ok || e_rel >= 1e-4 {
            eprintln!(
                "CHECK FAILED: native physics diverged (pairs_ok={pairs_ok}, e_rel={e_rel:.2e})"
            );
            std::process::exit(1);
        }
        if speedup < SPEEDUP_FLOOR {
            eprintln!("CHECK FAILED: native speedup {speedup:.2}x < {SPEEDUP_FLOOR}x floor");
            std::process::exit(1);
        }
        println!("check passed: {speedup:.1}x >= {SPEEDUP_FLOOR}x, physics equivalent");
    }
}
