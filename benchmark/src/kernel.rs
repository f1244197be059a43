//! The `kernel_48k` workload: force-kernel calls on a prepared pair
//! list, nothing else. Search, packing and integration do no work here,
//! so this is the bypass for every engine-side optimisation and the
//! full-strength view of a kernel one.

use std::path::Path;
use std::time::Instant;

use bench::{water_workload, Workload};
use mdsim::nonbonded::NbEnergies;
use mdsim::pairlist::{ListKind, PairList};
use swgmx::backend::{KernelBackend, KernelInput, MeteredBackend, NativeBackend};
use swgmx::check::Variant;
use swgmx::kernels::KernelResult;

use crate::outcome::{peak_rss_mb, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::SETUP_REPS;

/// Fig. 8 / Table 1 case-1 size; 10.5 M in-cutoff pairs, a working set
/// past the 4 MiB L2.
pub const N_PARTICLES: usize = 48_000;

/// Calls made before timing: the first few calls of a process run at
/// under half speed while the pool's buffers are first touched.
const WARMUP_CALLS: usize = 6;

/// The timed loop never stops short of this.
const MIN_CALLS: usize = 30;

/// Native and metered kernels sum in different orders; their energies
/// agree to this relative difference.
const ENERGY_REL_TOL: f64 = 1e-4;

fn half_input(w: &Workload) -> KernelInput<'_> {
    KernelInput {
        psys: &w.psys,
        list: &w.half,
        params: &w.params,
    }
}

fn energy_rel_diff(a: &NbEnergies, reference: &NbEnergies) -> f64 {
    (a.total() - reference.total()).abs() / reference.total().abs()
}

/// Same pairs inside the cutoff, energy within [`ENERGY_REL_TOL`].
fn matches_reference(a: &NbEnergies, reference: &NbEnergies) -> bool {
    a.pairs_within_cutoff == reference.pairs_within_cutoff
        && energy_rel_diff(a, reference) < ENERGY_REL_TOL
}

pub fn run_untraced(n_particles: usize, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t0 = Instant::now();
        let w = water_workload(n_particles, seed);
        let native = NativeBackend::new();
        for _ in 0..WARMUP_CALLS {
            std::hint::black_box(native.run(Variant::Rma, half_input(&w)));
        }
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((w, native));
    }
    let (w, native) = ready.expect("SETUP_REPS > 0");
    out.set_median("setup_s", &setups);
    out.note(format!("host.threads {}", native.pool().n_threads()));

    let input = half_input(&w);
    let mut call_ms = Vec::new();
    let mut results = Vec::new();
    let loop_start = Instant::now();
    while call_ms.len() < MIN_CALLS || loop_start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = native.run(Variant::Rma, input);
        call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Keep what the check needs, not the 48K-particle force array.
        results.push(r.energies);
    }
    out.attempted = call_ms.len() as u64;

    // The metered simulator is the reference for every native call.
    let reference = MeteredBackend::new().run(Variant::Rma, input);
    out.failed = results
        .iter()
        .filter(|e| !matches_reference(e, &reference.energies))
        .count() as u64;

    let calls_per_s = call_ms.len() as f64 / (call_ms.iter().sum::<f64>() / 1e3);
    out.set("ops_per_s", calls_per_s);
    let p50 = out.set_median("op_ms_p50", &call_ms);
    out.note(format!(
        "kernel_mpairs_per_s {:.2} ({} pairs inside the cutoff / median call)",
        reference.energies.pairs_within_cutoff as f64 / p50 / 1e3,
        reference.energies.pairs_within_cutoff
    ));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Time `calls` invocations of `f` as spans named `span`; returns the
/// per-call milliseconds and the last result.
fn time_calls(
    tr: &mut Tracer,
    span: &'static str,
    calls: usize,
    f: impl Fn() -> KernelResult,
) -> (Vec<f64>, KernelResult) {
    let mut last = f(); // warm-up, untimed
    let mut ms = Vec::with_capacity(calls);
    for i in 0..calls {
        let (r, call_ms) = tr.timed(span, i as u64, &f);
        last = r;
        ms.push(call_ms);
    }
    (ms, last)
}

pub fn run_traced(n_particles: usize, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let calls = |base: usize| crate::scaled(base, seconds);

    let w = water_workload(n_particles, seed);
    let input = half_input(&w);
    let full_input = KernelInput {
        list: &w.full,
        ..input
    };

    // The two reference-builder lists `water_workload` made, once more
    // under a span.
    let ((), build_ms) = tr.timed("pairlist", 0, || {
        std::hint::black_box(PairList::build(&w.sys, w.params.r_cut, ListKind::Half));
        std::hint::black_box(PairList::build(&w.sys, w.params.r_cut, ListKind::Full));
    });
    out.set("pairlist.build_ms", build_ms);

    let native = NativeBackend::new();
    let threads = native.pool().n_threads();
    let native_1t = NativeBackend::with_threads(1);
    let metered = MeteredBackend::new();
    out.note(format!("host.threads {threads}"));
    for _ in 0..WARMUP_CALLS {
        std::hint::black_box(native.run(Variant::Rma, input));
    }

    let (native_ms, r_native) = time_calls(&mut tr, "native.rma", calls(40), || {
        native.run(Variant::Rma, input)
    });
    let (one_ms, r_one) = time_calls(&mut tr, "native.rma_1t", calls(12), || {
        native_1t.run(Variant::Rma, input)
    });
    let (metered_ms, r_metered) = time_calls(&mut tr, "metered.rma", calls(4), || {
        metered.run(Variant::Rma, input)
    });
    let r_ori = tr.time("metered.ori", 0, || metered.run(Variant::Ori, input));
    let (rca_ms, r_rca) = time_calls(&mut tr, "native.rca", calls(5), || {
        native.run(Variant::Rca, full_input)
    });
    let (ustc_ms, r_ustc) = time_calls(&mut tr, "native.ustc", calls(5), || {
        native.run(Variant::Ustc, input)
    });
    out.attempted =
        (native_ms.len() + one_ms.len() + metered_ms.len() + rca_ms.len() + ustc_ms.len() + 1)
            as u64;

    let pairs = r_metered.energies.pairs_within_cutoff;
    out.check(
        format!("native and metered count {pairs} pairs inside the cutoff"),
        r_native.energies.pairs_within_cutoff == pairs && pairs > 0,
    );
    out.check(
        format!(
            "native energy within {ENERGY_REL_TOL} of metered (rel. diff {:.2e})",
            energy_rel_diff(&r_native.energies, &r_metered.energies)
        ),
        matches_reference(&r_native.energies, &r_metered.energies),
    );
    out.check(
        format!("native forces bit-identical at 1 and {threads} threads"),
        r_one.forces == r_native.forces,
    );
    for (name, r) in [("Ori", &r_ori), ("Rca", &r_rca), ("Ustc", &r_ustc)] {
        out.check(
            format!(
                "{name} energy within {ENERGY_REL_TOL} of metered Rma (rel. diff {:.2e}, {} pairs)",
                energy_rel_diff(&r.energies, &r_metered.energies),
                r.energies.pairs_within_cutoff
            ),
            energy_rel_diff(&r.energies, &r_metered.energies) < ENERGY_REL_TOL,
        );
    }

    let mpairs_per_s = |p50_ms: f64| pairs as f64 / p50_ms / 1e3;
    let native_p50 = out.set_median("native.call_ms_p50", &native_ms);
    if stats::tail_percentile(native_ms.len()).is_some_and(|p| p >= 75) {
        out.set("native.call_ms_p75", stats::tail(&native_ms, 75));
    } else {
        out.set("native.call_ms_p75", native_p50);
        out.note(format!(
            "native.call_ms_p75 reports the median: {} calls leave fewer than ten beyond p75",
            native_ms.len()
        ));
    }
    out.set("native.mpairs_per_s", mpairs_per_s(native_p50));
    let one_p50 = out.set_median("native.1t_call_ms_p50", &one_ms);
    out.set("native.1t_mpairs_per_s", mpairs_per_s(one_p50));
    out.set(
        "native.thread_efficiency",
        one_p50 / (threads as f64 * native_p50),
    );
    out.set_median("native.rca_call_ms_p50", &rca_ms);
    out.set_median("native.ustc_call_ms_p50", &ustc_ms);
    out.set("native.pairs_in_cutoff", pairs as f64);

    let metered_p50 = out.set_median("metered.call_ms_p50", &metered_ms);
    out.set("native.speedup_vs_metered", metered_p50 / native_p50);
    out.set("metered.mpairs_per_s", mpairs_per_s(metered_p50));
    out.set("metered.sim_cycles", r_metered.total.cycles as f64);
    out.set("metered.sim_ori_cycles", r_ori.total.cycles as f64);
    out.set(
        "metered.sim_mark_speedup",
        r_ori.total.cycles as f64 / r_metered.total.cycles as f64,
    );
    out.set(
        "metered.host_ns_per_sim_cycle",
        metered_p50 * 1e6 / r_metered.total.cycles as f64,
    );
    // Modelled, not measured: the meter's flop count over the bytes its
    // DMA and gld models moved.
    out.set(
        "metered.flop_per_byte",
        r_metered.total.flops() as f64 / r_metered.total.moved_bytes() as f64,
    );
    out.set("trace.spans", tr.spans().len() as f64);

    if let Err(e) = tr.write(trace_path, "kernel_48k", "call") {
        out.check(format!("span file {}: {e}", trace_path.display()), false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_box_passes_every_kernel_check() {
        let dir = crate::scratch::Scratch::new("kernel-test").unwrap();
        let out = run_traced(1_500, 5, 0.5, &dir.path().join("trace.json"));
        assert!(out.correct(), "checks failed on a 1500-particle box");
        assert!(out.get("native.pairs_in_cutoff").unwrap() > 0.0);
        assert!(out.get("metered.sim_mark_speedup").unwrap() > 1.0);
        let out = run_untraced(1_500, 5, 0.05);
        assert!(out.correct() && out.attempted >= MIN_CALLS as u64);
    }
}
