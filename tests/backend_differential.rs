//! Differential testing of the two kernel execution backends.
//!
//! The metered backend is the reference: sequential, cycle-accounted,
//! validated against the scalar `mdsim` engine since PR 1. The native
//! backend reruns the same physics on a real thread pool with 8-wide
//! SIMD, so it cannot be bit-identical on the cluster kernels (FP
//! summation order moves) — but it must be *deterministically* close:
//!
//! - `Ori` / `GldNaive` delegate to the metered code paths, so their
//!   checksums must match the metered backend **bitwise**.
//! - For the cluster kernels (`rma`/`rca`/`ustc`) the cutoff decision
//!   uses the same operation association on both backends, so the pair
//!   count is **exactly** equal; energies agree to 1e-4 relative and
//!   forces to 1e-3 of the largest force (the f32 resummation bound —
//!   reductions of ~100 terms with |relative error| ≤ n·ε/2 ≈ 6e-6
//!   per term, amplified by cancellation in near-equilibrium water).
//! - The native backend is run-to-run **bit-identical**, at every
//!   thread count: lanes own fixed index ranges and all cross-lane
//!   merging happens after the join in lane order, so the OS schedule
//!   cannot reach the FP order.
//!
//! - The native inner loop exists once, generic over the lane type, and
//!   is instantiated per instruction set (portable / AVX2). The
//!   instantiations must agree with **each other** bit for bit, so a
//!   result never depends on which one the host selected.
//!
//! Finally, the native backend must actually pass the swcheck
//! happens-before certification at the bar `swcheck certify` holds
//! (every variant, `MIN_SCHEDULES` interleavings) — also while another
//! thread of the process is running kernels of its own, whose events
//! are none of the certification's business.

use sw_gromacs::mdsim::nonbonded::NbParams;
use sw_gromacs::mdsim::pairlist::{ListKind, PairList};
use sw_gromacs::mdsim::water::water_box;
use sw_gromacs::swgmx::backend::{AnyBackend, BackendSel, NativeBackend, MIN_SCHEDULES};
use sw_gromacs::swgmx::check::{physics_checksum, run_variant_with, Variant};
use sw_gromacs::swgmx::cpelist::CpePairList;
use sw_gromacs::swgmx::kernels::common::{EntryJ, RowShifts};
use sw_gromacs::swgmx::kernels::native_simd::{
    cluster_pair_wide8, for_each_lanes8, LaneImpl, Lanes8, WideFi,
};
use sw_gromacs::swgmx::package::{PackageLayout, PackedSystem, FORCE_WORDS};

const SEEDS: [u64; 3] = [1, 2, 3];
const SIZES: [usize; 3] = [40, 90, 160];

fn checksum_with(backend: &AnyBackend, variant: Variant, n_mol: usize, seed: u64) -> u64 {
    let out = run_variant_with(backend, variant, n_mol, seed);
    physics_checksum(&out.forces, &out.energies)
}

#[test]
fn delegated_variants_are_bitwise_identical_across_backends() {
    let metered = AnyBackend::of(BackendSel::Metered);
    let native = AnyBackend::of(BackendSel::Native);
    for variant in [Variant::Ori, Variant::GldNaive] {
        for n_mol in SIZES {
            for seed in SEEDS {
                assert_eq!(
                    checksum_with(&metered, variant, n_mol, seed),
                    checksum_with(&native, variant, n_mol, seed),
                    "{} n_mol={n_mol} seed={seed}",
                    variant.name()
                );
            }
        }
    }
}

#[test]
fn cluster_kernels_match_metered_within_resummation_bounds() {
    let metered = AnyBackend::of(BackendSel::Metered);
    let native = AnyBackend::of(BackendSel::Native);
    for variant in [Variant::Rma, Variant::Rca, Variant::Ustc] {
        for n_mol in SIZES {
            for seed in SEEDS {
                let m = run_variant_with(&metered, variant, n_mol, seed);
                let n = run_variant_with(&native, variant, n_mol, seed);
                let tag = format!("{} n_mol={n_mol} seed={seed}", variant.name());

                // Identical cutoff decisions: exactly the same pairs.
                assert_eq!(
                    m.energies.pairs_within_cutoff, n.energies.pairs_within_cutoff,
                    "{tag}: pair count"
                );

                let e_m = m.energies.total();
                let e_n = n.energies.total();
                assert!(
                    (e_m - e_n).abs() / e_m.abs() < 1e-4,
                    "{tag}: energy {e_m} vs {e_n}"
                );

                let fmax = m.forces.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
                let diff = sw_gromacs::mdsim::nonbonded::max_force_diff(&n.forces, &m.forces);
                assert!(diff / fmax < 1e-3, "{tag}: force diff {diff} of max {fmax}");
            }
        }
    }
}

/// Every output bit of the 8-wide kernel over a whole pair list: each
/// cluster's entries two at a time (self entries included, so `r² = 0`
/// lanes occur) with the row's shifts derived on the same lanes,
/// reactions, energies, pair counts and the folded outer forces, on
/// lane implementation `L`.
fn wide8_walk<L: Lanes8>(
    isa: L::Isa,
    walks: &mut Vec<(&'static str, Vec<u64>)>,
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
) {
    let rows = |e: usize| psys.lj_rows(list.neighbors[e] as usize);
    let mut shifts = RowShifts::default();
    let mut bits = Vec::new();
    for ci in 0..psys.n_packages() {
        shifts.derive::<L>(isa, psys, list, ci);
        let entry =
            |e: usize| EntryJ::of(list, &shifts, e, psys.package(list.neighbors[e] as usize));
        let entries: Vec<usize> = list.entries_of(ci).collect();
        let mut wfi = WideFi::<L>::zero(isa);
        for pair in entries.chunks_exact(2) {
            let mut fj0 = [0.0f32; FORCE_WORDS];
            let mut fj1 = [0.0f32; FORCE_WORDS];
            let (e_lj, e_coul, n) = cluster_pair_wide8(
                isa,
                psys.package(ci),
                entry(pair[0]),
                entry(pair[1]),
                [rows(pair[0]), rows(pair[1])],
                params,
                &mut wfi,
                &mut fj0,
                &mut fj1,
            );
            bits.extend(fj0.iter().chain(&fj1).map(|w| w.to_bits() as u64));
            bits.extend([e_lj.to_bits(), e_coul.to_bits(), n as u64]);
        }
        let mut fi = [0.0f32; FORCE_WORDS];
        wfi.fold_into(&mut fi);
        bits.extend(fi.iter().map(|w| w.to_bits() as u64));
    }
    walks.push((L::NAME, bits));
}

#[test]
fn lane_implementations_are_bitwise_identical_to_each_other() {
    for (n_mol, seed) in [(90, 2), (160, 3)] {
        let sys = water_box(n_mol, 300.0, seed);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        for kind in [ListKind::Half, ListKind::Full] {
            let list = PairList::build(&sys, params.r_cut, kind);
            let cpe = CpePairList::build(&sys, &list);
            let psys = PackedSystem::build(&sys, list.clustering, PackageLayout::Transposed);
            let mut walks = Vec::new();
            for_each_lanes8!(wide8_walk, &mut walks, &psys, &cpe, &params);
            assert_eq!(walks.len(), LaneImpl::available().len());
            let (reference, want) = &walks[0];
            assert!(want.len() > 1000, "the walk covered a real list");
            for (name, got) in &walks[1..] {
                assert!(
                    got == want,
                    "{name} lanes differ from {reference} lanes (n_mol={n_mol} seed={seed} {kind:?})"
                );
            }
        }
    }
}

#[test]
fn native_backend_is_deterministic_at_every_thread_count() {
    println!("native lanes on this host: {}", NativeBackend::lanes());
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1, 4, host] {
        let backend = AnyBackend::Native(NativeBackend::with_threads(threads));
        for round in 0..2 {
            let sums: Vec<u64> = [Variant::Rma, Variant::Rca, Variant::Ustc]
                .into_iter()
                .map(|v| checksum_with(&backend, v, 90, 7))
                .collect();
            match &reference {
                None => reference = Some(sums),
                Some(want) => assert_eq!(
                    want, &sums,
                    "native backend moved at {threads} threads (round {round})"
                ),
            }
        }
    }
}

#[test]
fn native_backend_is_admitted_by_the_certification_gate() {
    let report = swcheck::schedule::certify(&swcheck::schedule::CertifyOptions {
        n_mol: 100,
        seeds: vec![1, 2],
        schedules: MIN_SCHEDULES,
        backend: BackendSel::Native,
    });
    for o in &report.outcomes {
        assert!(
            o.problems.is_empty(),
            "{}: {:?}",
            o.variant.name(),
            o.problems
        );
    }
    let cert = report.certificate.expect("native certification failed");
    assert_eq!(cert.backend, "native-threads");
    assert!(cert.covers_all_variants(MIN_SCHEDULES));
}

#[test]
fn certification_does_not_see_kernels_another_thread_runs() {
    let opts = swcheck::schedule::CertifyOptions {
        n_mol: 60,
        seeds: vec![1],
        schedules: 20,
        backend: BackendSel::Native,
    };
    let shape = |report: &swcheck::schedule::CertifyReport| -> Vec<(u64, usize)> {
        report
            .outcomes
            .iter()
            .map(|o| (o.checksum, o.trace_len))
            .collect()
    };
    let quiet = swcheck::schedule::certify(&opts);
    assert!(quiet.certificate.is_some());

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (running, is_running) = std::sync::mpsc::channel();
    let noisy = std::thread::scope(|s| {
        s.spawn(|| {
            // Unrelated work on this thread's own backends: marks, DMA
            // and shared writes that would fail the certified traces'
            // contracts if a single one were recorded into them.
            let native = AnyBackend::of(BackendSel::Native);
            let metered = AnyBackend::of(BackendSel::Metered);
            let mut announced = false;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for variant in [Variant::Rma, Variant::Ustc] {
                    run_variant_with(&native, variant, 40, 9);
                    run_variant_with(&metered, variant, 40, 9);
                }
                if !std::mem::replace(&mut announced, true) {
                    running.send(()).expect("the certifying thread waits");
                }
            }
        });
        is_running.recv().expect("the other thread got going");
        let report = swcheck::schedule::certify(&opts);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        report
    });
    for o in &noisy.outcomes {
        assert!(
            o.problems.is_empty(),
            "{}: {:?}",
            o.variant.name(),
            o.problems
        );
    }
    assert!(noisy.certificate.is_some());
    assert_eq!(
        shape(&noisy),
        shape(&quiet),
        "the same checksums from the same number of events"
    );
}
