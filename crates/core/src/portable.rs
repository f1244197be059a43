//! §3.8 — portability of the optimizations: the update-mark strategy on
//! an ordinary multicore CPU.
//!
//! "The update mark strategy could also work in different many-core
//! processors, multi-core processors and even GPU. ... Our update mark
//! could reduce those time, and it could be widely used in many
//! different platforms."
//!
//! This module takes the claim literally: it runs the *same* cluster
//! kernel over the *same* pair list on real host threads (a
//! `std::thread::scope` per phase, the thread count being the variable) and
//! resolves the write conflict with each of the strategies the paper
//! discusses — and these are genuine wall-clock implementations, not
//! simulations, so `benches/strategies.rs` can measure the claim on any
//! machine:
//!
//! - [`WriteStrategy::Atomics`] — every force component is an atomic
//!   CAS-add (the "GPU style" conflict resolution);
//! - [`WriteStrategy::Copies`] — per-thread force copies, zero-filled
//!   and fully reduced (the Cell-processor RMA approach \[17\]);
//! - [`WriteStrategy::CopiesWithMarks`] — per-thread copies with a
//!   per-line update mark, skipping untouched lines at reduction, no
//!   zero-fill of touched bookkeeping (the paper's §3.3 on a CPU).

use std::sync::atomic::{AtomicU32, Ordering};

use mdsim::nonbonded::{pair_interaction, NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use mdsim::Vec3;
use sw26010::pool::block_range;

use crate::cpelist::CpePairList;
use crate::package::{PackedSystem, FORCE_WORDS};

/// Conflict-resolution strategy for the host-parallel kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStrategy {
    /// CAS-loop atomic adds straight into the shared force array.
    Atomics,
    /// Per-thread zero-initialized copies, full reduction.
    Copies,
    /// Per-thread copies with update marks: no initialization of
    /// untouched lines, reduction visits marked lines only.
    CopiesWithMarks,
}

impl WriteStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [WriteStrategy; 3] = [
        WriteStrategy::Atomics,
        WriteStrategy::Copies,
        WriteStrategy::CopiesWithMarks,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            WriteStrategy::Atomics => "atomics",
            WriteStrategy::Copies => "copies",
            WriteStrategy::CopiesWithMarks => "copies+marks",
        }
    }
}

/// Force packages per mark line (mirrors the SW26010 cache-line choice).
const MARK_LINE_PKGS: usize = 8;

/// Result of a host-parallel kernel run.
pub struct HostResult {
    /// Forces in original particle order.
    pub forces: Vec<Vec3>,
    /// Accumulated energies.
    pub energies: NbEnergies,
    /// Wall time of the force phase (including any init/reduction).
    pub elapsed: std::time::Duration,
}

/// Run the cluster force kernel on `n_threads` host threads with the
/// chosen write strategy. Physics identical to the simulated kernels
/// (shared `pair_interaction`).
pub fn run_host_parallel(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    n_threads: usize,
    strategy: WriteStrategy,
) -> HostResult {
    assert_eq!(list.kind, ListKind::Half);
    assert!(n_threads >= 1);
    let n_pkg = psys.n_packages();
    let copy_words = n_pkg * FORCE_WORDS;
    // swrace: allow(SWC006) host-baseline wall time is the measurement,
    // never an input to physics or trace output
    let start = std::time::Instant::now();

    let (slot_forces, energies) = match strategy {
        WriteStrategy::Atomics => run_atomics(psys, list, params, n_threads, copy_words),
        WriteStrategy::Copies => run_copies(psys, list, params, n_threads, copy_words, false),
        WriteStrategy::CopiesWithMarks => {
            run_copies(psys, list, params, n_threads, copy_words, true)
        }
    };

    HostResult {
        forces: psys.forces_to_particle_order(&slot_forces),
        energies,
        elapsed: start.elapsed(),
    }
}

/// The shared inner loop: compute one thread's cluster pairs, routing
/// force-package updates through `update`.
fn compute_thread(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    range: std::ops::Range<usize>,
    mut update: impl FnMut(usize, &[f32; FORCE_WORDS]),
) -> NbEnergies {
    let mut en = NbEnergies::default();
    let rc2 = params.r_cut * params.r_cut;
    for ci in range {
        let pkg_i = psys.package(ci);
        let mut fi = [0.0f32; FORCE_WORDS];
        for e in list.entries_of(ci) {
            let cj = list.neighbors[e] as usize;
            let pkg_j = psys.package(cj);
            let shift = list.shifts[e];
            let mask = list.masks[e];
            let mut fj = [0.0f32; FORCE_WORDS];
            for ai in 0..4 {
                let (xa, ya, za, ta, qa) = psys.read_particle(pkg_i, ai);
                for bj in 0..4 {
                    if mask >> (ai * 4 + bj) & 1 == 0 {
                        continue;
                    }
                    let (xb, yb, zb, tb, qb) = psys.read_particle(pkg_j, bj);
                    let dx = xa - (xb + shift[0]);
                    let dy = ya - (yb + shift[1]);
                    let dz = za - (zb + shift[2]);
                    let r2 = dx * dx + dy * dy + dz * dz;
                    if r2 >= rc2 || r2 == 0.0 {
                        continue;
                    }
                    let (c6, c12) = psys.lj(ta, tb);
                    let (f_over_r, elj, ecoul) = pair_interaction(r2, c6, c12, qa * qb, params);
                    let (fx, fy, fz) = (dx * f_over_r, dy * f_over_r, dz * f_over_r);
                    fi[3 * ai] += fx;
                    fi[3 * ai + 1] += fy;
                    fi[3 * ai + 2] += fz;
                    fj[3 * bj] -= fx;
                    fj[3 * bj + 1] -= fy;
                    fj[3 * bj + 2] -= fz;
                    en.lj += elj as f64;
                    en.coulomb += ecoul as f64;
                    en.pairs_within_cutoff += 1;
                }
            }
            if cj == ci {
                for k in 0..FORCE_WORDS {
                    fi[k] += fj[k];
                }
            } else {
                update(cj, &fj);
            }
        }
        update(ci, &fi);
    }
    en
}

fn run_atomics(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    n_threads: usize,
    copy_words: usize,
) -> (Vec<f32>, NbEnergies) {
    let shared: Vec<AtomicU32> = (0..copy_words).map(|_| AtomicU32::new(0)).collect();
    let n_pkg = psys.n_packages();
    let energies = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let shared = &shared;
            handles.push(s.spawn(move || {
                compute_thread(
                    psys,
                    list,
                    params,
                    block_range(n_pkg, n_threads, t),
                    |pkg, delta| {
                        let base = pkg * FORCE_WORDS;
                        for (k, &d) in delta.iter().enumerate() {
                            if d == 0.0 {
                                continue;
                            }
                            // CAS-add of an f32 stored as bits.
                            let cell = &shared[base + k];
                            let mut cur = cell.load(Ordering::Relaxed);
                            loop {
                                let new = (f32::from_bits(cur) + d).to_bits();
                                // swrace: allow(SWC009) the Atomics rung
                                // exists to demonstrate this drift; the
                                // Copies rungs are the fixed-order path
                                match cell.compare_exchange_weak(
                                    cur,
                                    new,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => break,
                                    Err(seen) => cur = seen,
                                }
                            }
                        }
                    },
                )
            }));
        }
        let mut en = NbEnergies::default();
        for h in handles {
            let part = h.join().unwrap();
            en.lj += part.lj;
            en.coulomb += part.coulomb;
            en.pairs_within_cutoff += part.pairs_within_cutoff;
        }
        en
    });
    let forces = shared
        .iter()
        .map(|a| f32::from_bits(a.load(Ordering::Relaxed)))
        .collect();
    (forces, energies)
}

fn run_copies(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    n_threads: usize,
    copy_words: usize,
    with_marks: bool,
) -> (Vec<f32>, NbEnergies) {
    let n_pkg = psys.n_packages();
    let n_lines = n_pkg.div_ceil(MARK_LINE_PKGS);
    let outputs = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_threads {
            handles.push(s.spawn(move || {
                // Copies are zero-allocated either way (Rust), but the
                // mark variant also *skips the reduction* of untouched
                // lines, which is where the measurable win is.
                let mut copy = vec![0.0f32; copy_words];
                let mut marks = vec![false; n_lines];
                let en = compute_thread(
                    psys,
                    list,
                    params,
                    block_range(n_pkg, n_threads, t),
                    |pkg, delta| {
                        let base = pkg * FORCE_WORDS;
                        for (k, &d) in delta.iter().enumerate() {
                            copy[base + k] += d;
                        }
                        marks[pkg / MARK_LINE_PKGS] = true;
                    },
                );
                (copy, marks, en)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    let mut energies = NbEnergies::default();
    for (_, _, en) in &outputs {
        energies.lj += en.lj;
        energies.coulomb += en.coulomb;
        energies.pairs_within_cutoff += en.pairs_within_cutoff;
    }
    // Reduction (parallel over lines, like the simulated Alg. 4).
    let mut out = vec![0.0f32; copy_words];
    std::thread::scope(|s| {
        let outputs = &outputs;
        let mut handles = Vec::new();
        for (t, chunk) in out
            .chunks_mut(n_lines.div_ceil(n_threads) * MARK_LINE_PKGS * FORCE_WORDS)
            .enumerate()
        {
            let line_base = t * n_lines.div_ceil(n_threads);
            handles.push(s.spawn(move || {
                for (copy, marks, _) in outputs {
                    for (li, line) in chunk.chunks_mut(MARK_LINE_PKGS * FORCE_WORDS).enumerate() {
                        let gline = line_base + li;
                        if with_marks && !marks.get(gline).copied().unwrap_or(false) {
                            continue; // Alg. 4 on the host
                        }
                        let word_base = gline * MARK_LINE_PKGS * FORCE_WORDS;
                        for (k, v) in line.iter_mut().enumerate() {
                            if let Some(&src) = copy.get(word_base + k) {
                                *v += src;
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    (out, energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageLayout;
    use mdsim::nonbonded::{compute_forces_half, max_force_diff};
    use mdsim::pairlist::PairList;
    use mdsim::water::water_box;

    fn setup() -> (mdsim::System, PackedSystem, CpePairList, NbParams) {
        let sys = water_box(600, 300.0, 51);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let cpe = CpePairList::build(&sys, &list);
        (sys, psys, cpe, params)
    }

    #[test]
    fn all_strategies_match_the_reference() {
        let (sys, psys, cpe, params) = setup();
        let mut r = sys.clone();
        r.clear_forces();
        let list = PairList::build(&r, 0.7, ListKind::Half);
        let en_ref = compute_forces_half(&mut r, &list, &params);
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        for strategy in WriteStrategy::ALL {
            for threads in [1usize, 4] {
                let out = run_host_parallel(&psys, &cpe, &params, threads, strategy);
                assert_eq!(
                    out.energies.pairs_within_cutoff,
                    en_ref.pairs_within_cutoff,
                    "{} x{threads}",
                    strategy.name()
                );
                let diff = max_force_diff(&out.forces, &r.force);
                assert!(
                    diff / fmax < 1e-3,
                    "{} x{threads}: force diff {diff}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn strategies_agree_pairwise() {
        let (_, psys, cpe, params) = setup();
        let a = run_host_parallel(&psys, &cpe, &params, 4, WriteStrategy::Copies);
        let b = run_host_parallel(&psys, &cpe, &params, 4, WriteStrategy::CopiesWithMarks);
        let diff = max_force_diff(&a.forces, &b.forces);
        assert!(diff < 1e-6, "copies vs marks diff {diff}");
    }

    #[test]
    fn parallel_runs_are_deterministic_per_strategy() {
        // Copies reduce in a fixed thread order, so repeated runs are
        // bit-identical (atomics are not, by design).
        let (_, psys, cpe, params) = setup();
        let a = run_host_parallel(&psys, &cpe, &params, 4, WriteStrategy::CopiesWithMarks);
        let b = run_host_parallel(&psys, &cpe, &params, 4, WriteStrategy::CopiesWithMarks);
        assert_eq!(a.forces.len(), b.forces.len());
        for (x, y) in a.forces.iter().zip(&b.forces) {
            assert_eq!(x.x.to_bits(), y.x.to_bits());
            assert_eq!(x.y.to_bits(), y.y.to_bits());
            assert_eq!(x.z.to_bits(), y.z.to_bits());
        }
    }
}
