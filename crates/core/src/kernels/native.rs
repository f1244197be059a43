//! Native-backend runners for the cluster kernels: the 64 CPE lanes of
//! `rma`/`rca`/`ustc` execute on the lane executor the metered kernels
//! run on ([`sw26010::LanePool`]) with the 8-wide SIMD inner loop of
//! [`super::native_simd`], and without the cycle meter.
//!
//! **Lane implementations.** Each runner's per-lane body is generic
//! over [`Lanes8`] and `#[inline(always)]` down to the lane operations;
//! [`LaneImpl::detect`] picks the instantiation once per call. The
//! AVX2 instantiation is entered through a
//! `#[target_feature(enable = "avx2")]` twin of the body, so the whole
//! inlined chain compiles to `ymm` code in a binary built for the
//! baseline target. All instantiations produce the same bits.
//!
//! **Determinism contract.** The pool schedule is nondeterministic, so
//! every source of ordering is pinned in the kernels themselves:
//!
//! 1. work partition — each logical lane owns the same [`block_range`]
//!    slice of the outer clusters (the metered kernels' split) at every
//!    thread count;
//! 2. per-lane iteration — clusters in index order, list entries in
//!    list order (self entry first, then pairs of two, then the tail);
//! 3. merging — all cross-lane accumulation (force copies, energies,
//!    MPE record application) happens after the pool join, over the
//!    per-lane outputs [`LanePool::run`] returns in lane-index order,
//!    exactly like the metered reduce.
//!
//! Together these make the physics bit-identical run to run and across
//! thread counts 1..=64 — the property `tests/backend_differential.rs`
//! pins and schedule certification (swcheck SWC110–113) admits.
//!
//! **Write strategies (§3.8).** The contract above is a property of how
//! the RMA lanes' conflicting writes are resolved, and that is a
//! parameter: [`WriteStrategy`] picks the `ReactionSink` the one RMA
//! lane body writes through. `CopiesWithMarks` is the backend's path: a
//! lane's copy holds only the lines its Bit-Map marks, in first-touch
//! order, so the lines §3.3 spares are neither zeroed, reduced nor
//! allocated; `Copies` is the same copies with every Bit-Map line
//! pre-set and zero-filled (bit-identical results, the init and full
//! reduce paid); `Atomics` CAS-adds into one shared array and is the one
//! strategy outside the contract. `examples/portability.rs` times the
//! three.
//!
//! **Trace shape.** When a capture session is active each runner emits
//! the same region/annotation vocabulary as its metered twin: a spawn
//! epoch per phase, per-lane `SharedRead`s of the positions, disjoint
//! per-lane `SharedWrite`s of the copy/force regions, and — for RMA —
//! `MarkSet`/`ReduceLine` pairs carrying the Bit-Map coverage, so the
//! happens-before engine certifies the native interleavings against the
//! identical invariants (one reduce per marked line, no unordered
//! conflicting access).

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use sw26010::cache::CacheGeometry;
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::pool::{block_range, LanePool, N_LANES};
use sw26010::{trace, BitMap};

use crate::check::{REGION_COPIES, REGION_FORCES, REGION_POS};
use crate::cpelist::CpePairList;
use crate::kernels::common::{
    add_energy, add_package, cluster_pair_simd, EntryJ, KernelResult, RowShifts,
};
use crate::kernels::native_simd::{cluster_pair_wide8, on_lanes, LaneImpl, Lanes8, WideFi};
use crate::package::{PackageLayout, PackedSystem, FORCE_WORDS};

/// Destination for inner-cluster reaction packages: the kernels
/// accumulate straight into the slot a sink hands out, so per-entry
/// stack buffers and a copy pass never exist. Slots for distinct
/// clusters must not alias; [`ReactionSink::slot2`] implementations
/// may panic on `cj0 == cj1` (the caller routes that case — absent
/// from real lists, where a cluster appears at most once per neighbor
/// row — through two single-slot calls).
trait ReactionSink {
    fn slot(&mut self, cj: usize) -> &mut [f32; FORCE_WORDS];
    fn slot2(
        &mut self,
        cj0: usize,
        cj1: usize,
    ) -> (&mut [f32; FORCE_WORDS], &mut [f32; FORCE_WORDS]);
}

/// What a lane reuses from one outer cluster to the next: the row's
/// shifts and the entries it walks two at a time.
#[derive(Default)]
struct RowScratch {
    shifts: RowShifts,
    entries: Vec<usize>,
}

/// Walk every list entry of outer cluster `ci` with the wide inner
/// loop: the row's shifts derived first, then entries two at a time
/// through the 8-lane kernel, an odd tail through the FloatV4 path.
/// `fi` accumulates the outer forces; the `sink` provides each inner
/// cluster's reaction accumulation slot (in a fixed order — pairs
/// first, tail last). With `fold_self`, self
/// entries (`cj == ci`) are processed first and their reaction folded
/// into `fi`, mirroring the metered half-list kernels; without it they
/// flow through `sink` like any other entry (the RCA convention).
/// Returns `(e_lj, e_coul, n_pairs)`.
#[inline(always)]
fn process_cluster<L: Lanes8>(
    isa: L::Isa,
    input: LaneInput<'_>,
    ci: usize,
    fold_self: bool,
    fi: &mut [f32; FORCE_WORDS],
    sink: &mut impl ReactionSink,
    scratch: &mut RowScratch,
) -> (f64, f64, u64) {
    let LaneInput {
        psys, list, params, ..
    } = input;
    scratch.shifts.derive::<L>(isa, psys, list, ci);
    let RowScratch { shifts, entries } = scratch;
    let shifts = &*shifts;
    let lj = |ta: usize, tb: usize| psys.lj(ta, tb);
    let entry_of = |e: usize| EntryJ::of(list, shifts, e, psys.package(list.neighbors[e] as usize));
    let pkg_i = psys.package(ci);
    let mut e_lj = 0.0f64;
    let mut e_coul = 0.0f64;
    let mut n = 0u64;

    entries.clear();
    for e in list.entries_of(ci) {
        if fold_self && list.neighbors[e] as usize == ci {
            let mut fj = [0.0f32; FORCE_WORDS];
            let (el, ec, m) = cluster_pair_simd(pkg_i, entry_of(e), params, &lj, fi, &mut fj);
            e_lj += el;
            e_coul += ec;
            n += m as u64;
            for k in 0..FORCE_WORDS {
                fi[k] += fj[k];
            }
        } else {
            entries.push(e);
        }
    }
    let mut wfi = WideFi::<L>::zero(isa);
    let n_wide = entries.len() / 2;
    for i in 0..n_wide {
        let pair = [entries[2 * i], entries[2 * i + 1]];
        let cj0 = list.neighbors[pair[0]] as usize;
        let cj1 = list.neighbors[pair[1]] as usize;
        if cj0 != cj1 {
            let (fj0, fj1) = sink.slot2(cj0, cj1);
            let (el, ec, m) = cluster_pair_wide8(
                isa,
                pkg_i,
                entry_of(pair[0]),
                entry_of(pair[1]),
                [psys.lj_rows(cj0), psys.lj_rows(cj1)],
                params,
                &mut wfi,
                fj0,
                fj1,
            );
            e_lj += el;
            e_coul += ec;
            n += m as u64;
        } else {
            // Duplicate neighbor rows never come out of the list
            // builder, but stay correct if one ever does: both slots
            // would alias, so take them one at a time.
            for e in pair {
                let (el, ec, m) =
                    cluster_pair_simd(pkg_i, entry_of(e), params, &lj, fi, sink.slot(cj0));
                e_lj += el;
                e_coul += ec;
                n += m as u64;
            }
        }
    }
    // One horizontal reduction for the whole pairs walk (the lane-slot
    // accumulation order is fixed, so this stays deterministic).
    wfi.fold_into(fi);
    for &e in &entries[2 * n_wide..] {
        let cj = list.neighbors[e] as usize;
        let (el, ec, m) = cluster_pair_simd(pkg_i, entry_of(e), params, &lj, fi, sink.slot(cj));
        e_lj += el;
        e_coul += ec;
        n += m as u64;
    }
    (e_lj, e_coul, n)
}

/// Zero-cycle result shell: the native backend reports wall time (the
/// bench sidecar measures it), not simulated cycles, so counters and
/// phase breakdowns are empty.
fn native_result(psys: &PackedSystem, slot_forces: &[f32], energies: NbEnergies) -> KernelResult {
    KernelResult {
        forces: psys.forces_to_particle_order(slot_forces),
        energies,
        total: PerfCounters::new(),
        phases: Breakdown::new(),
        read_miss_ratio: 0.0,
        write_miss_ratio: 0.0,
    }
}

/// RMA sink: slots point into the lane's redundant force copy, which
/// holds only the lines the lane marked, in first-touch order. First
/// touch of a cache line marks it in the Bit-Map, appends it zeroed to
/// the copy and records where in `slots` (line → slot); the reduce
/// phase consults the same Bit-Map and table, so a line no lane marked
/// is never allocated, zeroed or read.
struct CopySink<'a> {
    copy: &'a mut Vec<f32>,
    marks: &'a mut BitMap,
    slots: &'a mut [u32],
    /// log2 of the packages per line.
    line_shift: u32,
    line_words: usize,
}

impl CopySink<'_> {
    /// The word in the copy where cluster `cj`'s force package starts,
    /// its line appended first if this is the line's first touch.
    #[inline]
    fn touch(&mut self, cj: usize) -> usize {
        let line = cj >> self.line_shift;
        if !self.marks.get(line) {
            self.marks.set(line);
            self.slots[line] = (self.copy.len() / self.line_words) as u32;
            self.copy.resize(self.copy.len() + self.line_words, 0.0);
        }
        let within = cj & ((1 << self.line_shift) - 1);
        self.slots[line] as usize * self.line_words + within * FORCE_WORDS
    }
}

impl ReactionSink for CopySink<'_> {
    #[inline]
    fn slot(&mut self, cj: usize) -> &mut [f32; FORCE_WORDS] {
        let base = self.touch(cj);
        (&mut self.copy[base..base + FORCE_WORDS])
            .try_into()
            .unwrap()
    }

    #[inline]
    fn slot2(
        &mut self,
        cj0: usize,
        cj1: usize,
    ) -> (&mut [f32; FORCE_WORDS], &mut [f32; FORCE_WORDS]) {
        let b0 = self.touch(cj0);
        let b1 = self.touch(cj1);
        if b0 < b1 {
            let (lo, hi) = self.copy.split_at_mut(b1);
            (
                (&mut lo[b0..b0 + FORCE_WORDS]).try_into().unwrap(),
                (&mut hi[..FORCE_WORDS]).try_into().unwrap(),
            )
        } else {
            // cj0 == cj1 would slice past `lo` and panic — the caller
            // guarantees distinct clusters here.
            let (lo, hi) = self.copy.split_at_mut(b0);
            (
                (&mut hi[..FORCE_WORDS]).try_into().unwrap(),
                (&mut lo[b1..b1 + FORCE_WORDS]).try_into().unwrap(),
            )
        }
    }
}

/// RCA sink: Algorithm 2 discards reactions, so slots are scratch pads
/// that accumulate garbage nobody reads.
struct DiscardSink {
    a: [f32; FORCE_WORDS],
    b: [f32; FORCE_WORDS],
}

impl ReactionSink for DiscardSink {
    #[inline]
    fn slot(&mut self, _cj: usize) -> &mut [f32; FORCE_WORDS] {
        &mut self.a
    }

    #[inline]
    fn slot2(
        &mut self,
        _cj0: usize,
        _cj1: usize,
    ) -> (&mut [f32; FORCE_WORDS], &mut [f32; FORCE_WORDS]) {
        (&mut self.a, &mut self.b)
    }
}

/// USTC sink: every slot is a fresh `(cluster, forces)` record the MPE
/// applies after the join, exactly one record per list entry.
struct RecordSink {
    records: Vec<(u32, [f32; FORCE_WORDS])>,
}

impl ReactionSink for RecordSink {
    #[inline]
    fn slot(&mut self, cj: usize) -> &mut [f32; FORCE_WORDS] {
        self.records.push((cj as u32, [0.0f32; FORCE_WORDS]));
        &mut self.records.last_mut().unwrap().1
    }

    #[inline]
    fn slot2(
        &mut self,
        cj0: usize,
        cj1: usize,
    ) -> (&mut [f32; FORCE_WORDS], &mut [f32; FORCE_WORDS]) {
        self.records.push((cj0 as u32, [0.0f32; FORCE_WORDS]));
        self.records.push((cj1 as u32, [0.0f32; FORCE_WORDS]));
        let (last, rest) = self.records.split_last_mut().unwrap();
        (&mut rest.last_mut().unwrap().1, &mut last.1)
    }
}

/// How the RMA lanes' conflicting force writes are resolved — the three
/// strategies §3.8 compares, on the same lanes, list and inner loop, so
/// the claim that update marks "could be widely used in many different
/// platforms" is timed on this host (`examples/portability.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStrategy {
    /// CAS-loop atomic adds straight into one shared force array (the
    /// "GPU style" resolution). Forces depend on the interleaving.
    Atomics,
    /// Per-lane copies, zero-filled up front and reduced in full: the
    /// init and the reduction §3.3 eliminates.
    Copies,
    /// Per-lane copies with Bit-Map update marks: a line is zeroed at
    /// first touch and reduced only if marked (the paper's §3.3, and
    /// what the native backend runs).
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

/// [`WriteStrategy::Atomics`] sink: slots are two pads, CAS-added into
/// the shared force array when the next slot is asked for (and by the
/// lane's last [`AtomicSink::flush`]).
struct AtomicSink<'a> {
    shared: &'a [AtomicU32],
    pads: [[f32; FORCE_WORDS]; 2],
    /// The cluster each pad is accumulating for.
    pending: [Option<usize>; 2],
}

impl AtomicSink<'_> {
    fn flush(&mut self) {
        for (pad, cj) in self.pads.iter_mut().zip(&mut self.pending) {
            let Some(cj) = cj.take() else { continue };
            let cells = &self.shared[cj * FORCE_WORDS..(cj + 1) * FORCE_WORDS];
            for (cell, d) in cells.iter().zip(pad) {
                let delta = std::mem::take(d);
                if delta == 0.0 {
                    continue;
                }
                // CAS-add of an f32 stored as bits.
                let mut cur = cell.load(Ordering::Relaxed);
                // swrace: allow(SWC009) the Atomics strategy exists to
                // show this order dependence; the copy strategies are
                // the fixed-order path
                while let Err(seen) = cell.compare_exchange_weak(
                    cur,
                    (f32::from_bits(cur) + delta).to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    cur = seen;
                }
            }
        }
    }
}

impl ReactionSink for AtomicSink<'_> {
    #[inline]
    fn slot(&mut self, cj: usize) -> &mut [f32; FORCE_WORDS] {
        self.flush();
        self.pending[0] = Some(cj);
        &mut self.pads[0]
    }

    #[inline]
    fn slot2(
        &mut self,
        cj0: usize,
        cj1: usize,
    ) -> (&mut [f32; FORCE_WORDS], &mut [f32; FORCE_WORDS]) {
        self.flush();
        self.pending = [Some(cj0), Some(cj1)];
        let [a, b] = &mut self.pads;
        (a, b)
    }
}

/// What every lane of one native kernel call reads.
#[derive(Clone, Copy)]
struct LaneInput<'a> {
    psys: &'a PackedSystem,
    list: &'a CpePairList,
    params: &'a NbParams,
    /// The pool the lanes run on, for its recycled buffers.
    pool: &'a LanePool,
    tracing: bool,
}

impl<'a> LaneInput<'a> {
    /// The inputs of one call over a `kind` list. The kernels are
    /// SIMD-only: their loads need the transposed layout.
    fn new(
        psys: &'a PackedSystem,
        list: &'a CpePairList,
        params: &'a NbParams,
        pool: &'a LanePool,
        kind: ListKind,
    ) -> Self {
        assert_eq!(list.kind, kind, "the kernel walks a {kind:?} list");
        assert_eq!(
            psys.layout,
            PackageLayout::Transposed,
            "the native kernels are SIMD-only and need the transposed layout"
        );
        Self {
            psys,
            list,
            params,
            pool,
            tracing: trace::enabled(),
        }
    }
}

/// Per-lane calc output of the native RMA kernel: the lane's compact
/// copy, its Bit-Map, and where in the copy each marked line sits.
struct RmaLaneOut {
    copy: Vec<f32>,
    marks: BitMap,
    slots: Vec<u32>,
    cache_id: u64,
    e_lj: f64,
    e_coul: f64,
    n_pairs: u64,
}

/// Where the RMA lanes' force writes land: the strategy, the redundant
/// copies' shape (words of the force array each copy stands for and the
/// cache-line grid the Bit-Map marks), and the one shared array of
/// [`WriteStrategy::Atomics`] (empty otherwise).
#[derive(Clone, Copy)]
struct CopyShape<'a> {
    strategy: WriteStrategy,
    copy_words: usize,
    n_lines: usize,
    /// log2 of the packages per line (a power of two, which
    /// [`CacheGeometry`] asserts).
    line_shift: u32,
    line_words: usize,
    shared: &'a [AtomicU32],
}

impl<'a> CopyShape<'a> {
    /// The copies of `n_pkg` packages on the paper's write-cache line
    /// grid, under `strategy` (`shared` is the Atomics array).
    fn new(strategy: WriteStrategy, n_pkg: usize, shared: &'a [AtomicU32]) -> Self {
        let geo = CacheGeometry::paper_default(FORCE_WORDS);
        Self {
            strategy,
            copy_words: n_pkg * FORCE_WORDS,
            n_lines: n_pkg.div_ceil(geo.line_elems),
            line_shift: geo.line_elems.trailing_zeros(),
            line_words: geo.line_words(),
            shared,
        }
    }
}

/// The half-list walk of one lane's clusters: self entries folded, every
/// reaction and then the outer forces themselves landing in `sink`.
/// Returns `(e_lj, e_coul, n_pairs)`.
#[inline(always)]
fn walk_half_list<L: Lanes8>(
    isa: L::Isa,
    input: LaneInput<'_>,
    range: Range<usize>,
    sink: &mut impl ReactionSink,
) -> (f64, f64, u64) {
    let mut sums = (0.0f64, 0.0f64, 0u64);
    let mut scratch = RowScratch::default();
    for ci in range {
        let mut fi = [0.0f32; FORCE_WORDS];
        let (el, ec, n) = process_cluster::<L>(isa, input, ci, true, &mut fi, sink, &mut scratch);
        for (d, v) in sink.slot(ci).iter_mut().zip(&fi) {
            *d += v;
        }
        sums.0 += el;
        sums.1 += ec;
        sums.2 += n;
    }
    sums
}

/// Calc phase of one RMA lane: its clusters' forces and reactions into
/// a private, line-marked force copy — or, under
/// [`WriteStrategy::Atomics`], straight into the shared array.
#[inline(always)]
fn rma_lane<L: Lanes8>(
    isa: L::Isa,
    input: LaneInput<'_>,
    shape: CopyShape<'_>,
    lane: usize,
) -> RmaLaneOut {
    let LaneInput {
        psys,
        pool,
        tracing,
        ..
    } = input;
    let range = block_range(psys.n_packages(), N_LANES, lane);
    let cache_id = trace::next_id();
    let mut copy = Vec::new();
    let mut marks = BitMap::new(shape.n_lines);
    let mut slots = Vec::new();
    let (e_lj, e_coul, n_pairs) = if shape.strategy == WriteStrategy::Atomics {
        let mut sink = AtomicSink {
            shared: shape.shared,
            pads: [[0.0f32; FORCE_WORDS]; 2],
            pending: [None; 2],
        };
        let sums = walk_half_list::<L>(isa, input, range.clone(), &mut sink);
        sink.flush();
        sums
    } else {
        if shape.strategy == WriteStrategy::Copies {
            // What the marks spare: every lane zeroes a whole copy and
            // every line of it is reduced — each line marked up front,
            // in line order.
            copy = pool.take_buffer(shape.n_lines * shape.line_words);
            copy.fill(0.0);
            for line in 0..shape.n_lines {
                marks.set(line);
            }
            slots = (0..shape.n_lines as u32).collect();
        } else if !range.is_empty() {
            // Recycled capacity, no stale words: lines are appended as
            // they are first touched.
            copy = pool.take_buffer(0);
            slots = vec![0; shape.n_lines];
        }
        let mut sink = CopySink {
            copy: &mut copy,
            marks: &mut marks,
            slots: &mut slots,
            line_shift: shape.line_shift,
            line_words: shape.line_words,
        };
        walk_half_list::<L>(isa, input, range.clone(), &mut sink)
    };
    if tracing && !range.is_empty() {
        trace::shared_read(REGION_POS, 0, psys.pos.len());
    }
    if tracing && !copy.is_empty() {
        trace::shared_write(
            REGION_COPIES,
            lane * shape.copy_words,
            (lane + 1) * shape.copy_words,
        );
        for line in 0..shape.n_lines {
            if marks.get(line) {
                trace::emit_mark_set(cache_id, line);
            }
        }
    }
    RmaLaneOut {
        copy,
        marks,
        slots,
        cache_id,
        e_lj,
        e_coul,
        n_pairs,
    }
}

/// Native twin of [`super::rma::run_rma`]: the RMA lanes with their
/// write conflict resolved by `strategy` —
/// [`WriteStrategy::CopiesWithMarks`] is the `Mark` rung (per-lane
/// redundant force copies with Bit-Map marks, reduced in lane order) and
/// what the native backend runs.
pub fn run_rma_native(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    pool: &LanePool,
    strategy: WriteStrategy,
) -> KernelResult {
    run_rma_native_on(LaneImpl::detect(), psys, list, params, pool, strategy)
}

/// [`run_rma_native`] on a chosen lane implementation.
pub fn run_rma_native_on(
    lanes: LaneImpl,
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    pool: &LanePool,
    strategy: WriteStrategy,
) -> KernelResult {
    let input = LaneInput::new(psys, list, params, pool, ListKind::Half);
    let n_pkg = psys.n_packages();
    let shared: Vec<AtomicU32> = match strategy {
        WriteStrategy::Atomics => (0..n_pkg * FORCE_WORDS)
            .map(|_| AtomicU32::new(0))
            .collect(),
        _ => Vec::new(),
    };
    let shape = CopyShape::new(strategy, n_pkg, &shared);

    // ---- calculation phase ----
    let outs: Vec<RmaLaneOut> = pool.run(N_LANES, |lane| {
        on_lanes!(lanes, rma_lane, avx2::rma_lane_avx2, input, shape, lane)
    });

    let slot_forces = match strategy {
        WriteStrategy::Atomics => shared
            .iter()
            .map(|w| f32::from_bits(w.load(Ordering::Relaxed)))
            .collect(),
        _ => reduce_marked_copies(input, shape, &outs),
    };
    let mut energies = NbEnergies::default();
    for o in &outs {
        add_energy(&mut energies, o.e_lj, o.e_coul, o.n_pairs);
    }
    pool.recycle(outs.into_iter().map(|o| o.copy));
    native_result(psys, &slot_forces, energies)
}

/// Reduction phase of the copy strategies: lanes own line ranges and sum
/// the marked lines of the copies in lane order (the Bit-Map reduce,
/// Alg. 4), each line one slice add from its slot in the compact copy.
fn reduce_marked_copies(
    input: LaneInput<'_>,
    shape: CopyShape<'_>,
    outs: &[RmaLaneOut],
) -> Vec<f32> {
    let CopyShape {
        copy_words,
        n_lines,
        line_words,
        ..
    } = shape;
    let tracing = input.tracing;
    let partials: Vec<(Range<usize>, Vec<f32>)> = input.pool.run(N_LANES, |lane| {
        let line_range = block_range(n_lines, N_LANES, lane);
        let mut partial = vec![0.0f32; line_range.len() * line_words];
        let mut consumed = false;
        for (li, line) in line_range.clone().enumerate() {
            // The last line of the force array may be short.
            let n = line_words.min(copy_words - line * line_words);
            let acc = &mut partial[li * line_words..li * line_words + n];
            for o in outs {
                if !o.marks.get(line) {
                    continue; // unmarked -> skip, exactly like Alg. 4
                }
                if tracing {
                    trace::reduce_line(o.cache_id, line);
                }
                consumed = true;
                let slot = o.slots[line] as usize * line_words;
                for (d, s) in acc.iter_mut().zip(&o.copy[slot..slot + n]) {
                    *d += s;
                }
            }
        }
        if tracing && !line_range.is_empty() {
            if consumed {
                trace::shared_read(REGION_COPIES, 0, N_LANES * copy_words);
            }
            let word_lo = line_range.start * line_words;
            let word_hi = (line_range.end * line_words).min(copy_words);
            if word_lo < word_hi {
                trace::shared_write(REGION_FORCES, word_lo, word_hi);
            }
        }
        (line_range, partial)
    });

    let mut slot_forces = vec![0.0f32; copy_words];
    for (line_range, partial) in partials {
        if line_range.is_empty() {
            continue;
        }
        let word_lo = line_range.start * line_words;
        let n = partial.len().min(copy_words.saturating_sub(word_lo));
        slot_forces[word_lo..word_lo + n].copy_from_slice(&partial[..n]);
    }
    slot_forces
}

/// Per-lane output of the native RCA kernel: the lane's cluster range,
/// its force block, `e_lj`, `e_coul` and the pair count.
type RcaLaneOut = (Range<usize>, Vec<f32>, f64, f64, u64);

/// One RCA lane: its clusters against the full list, outer forces only.
#[inline(always)]
fn rca_lane<L: Lanes8>(isa: L::Isa, input: LaneInput<'_>, lane: usize) -> RcaLaneOut {
    let LaneInput { psys, tracing, .. } = input;
    let range = block_range(psys.n_packages(), N_LANES, lane);
    let mut block = vec![0.0f32; range.len() * FORCE_WORDS];
    let mut e_lj = 0.0f64;
    let mut e_coul = 0.0f64;
    let mut n_pairs = 0u64;
    let mut scratch = RowScratch::default();
    let mut sink = DiscardSink {
        a: [0.0f32; FORCE_WORDS],
        b: [0.0f32; FORCE_WORDS],
    };
    for (i, ci) in range.clone().enumerate() {
        let mut fi = [0.0f32; FORCE_WORDS];
        // Algorithm 2 updates only the outer cluster: reactions are
        // computed and discarded, self entries included.
        let (el, ec, n) =
            process_cluster::<L>(isa, input, ci, false, &mut fi, &mut sink, &mut scratch);
        block[i * FORCE_WORDS..(i + 1) * FORCE_WORDS].copy_from_slice(&fi);
        e_lj += el;
        e_coul += ec;
        n_pairs += n;
    }
    if tracing && !range.is_empty() {
        trace::shared_read(REGION_POS, 0, psys.pos.len());
        trace::shared_write(
            REGION_FORCES,
            range.start * FORCE_WORDS,
            range.end * FORCE_WORDS,
        );
    }
    (range, block, e_lj, e_coul, n_pairs)
}

/// Native twin of [`super::rca::run_rca`]: full list, redundant
/// compute, conflict-free per-lane force writes (no reduction).
pub fn run_rca_native(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    pool: &LanePool,
) -> KernelResult {
    run_rca_native_on(LaneImpl::detect(), psys, list, params, pool)
}

/// [`run_rca_native`] on a chosen lane implementation.
pub fn run_rca_native_on(
    lanes: LaneImpl,
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    pool: &LanePool,
) -> KernelResult {
    let input = LaneInput::new(psys, list, params, pool, ListKind::Full);
    let outs: Vec<RcaLaneOut> = pool.run(N_LANES, |lane| {
        on_lanes!(lanes, rca_lane, avx2::rca_lane_avx2, input, lane)
    });

    let mut slot_forces = vec![0.0f32; psys.n_packages() * FORCE_WORDS];
    let mut energies = NbEnergies::default();
    for (range, block, e_lj, e_coul, n_pairs) in outs {
        slot_forces[range.start * FORCE_WORDS..range.end * FORCE_WORDS].copy_from_slice(&block);
        // Full list counts every interaction twice; halve energies.
        energies.lj += 0.5 * e_lj;
        energies.coulomb += 0.5 * e_coul;
        energies.pairs_within_cutoff += n_pairs;
    }
    native_result(psys, &slot_forces, energies)
}

/// Per-lane output of the native USTC kernel: the `(cluster, forces)`
/// records for the MPE, `e_lj`, `e_coul` and the pair count.
type UstcLaneOut = (Vec<(u32, [f32; FORCE_WORDS])>, f64, f64, u64);

/// One USTC lane: its clusters against the half list, every force
/// update recorded instead of applied.
#[inline(always)]
fn ustc_lane<L: Lanes8>(isa: L::Isa, input: LaneInput<'_>, lane: usize) -> UstcLaneOut {
    let range = block_range(input.psys.n_packages(), N_LANES, lane);
    let mut sink = RecordSink {
        records: Vec::new(),
    };
    let (e_lj, e_coul, n_pairs) = walk_half_list::<L>(isa, input, range.clone(), &mut sink);
    if input.tracing && !range.is_empty() {
        trace::shared_read(REGION_POS, 0, input.psys.pos.len());
    }
    (sink.records, e_lj, e_coul, n_pairs)
}

/// Native twin of [`super::ustc::run_ustc`]: lanes record reaction
/// updates, the MPE (the calling thread, after the join) applies every
/// record serially in lane order.
pub fn run_ustc_native(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    pool: &LanePool,
) -> KernelResult {
    run_ustc_native_on(LaneImpl::detect(), psys, list, params, pool)
}

/// [`run_ustc_native`] on a chosen lane implementation.
pub fn run_ustc_native_on(
    lanes: LaneImpl,
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    pool: &LanePool,
) -> KernelResult {
    let input = LaneInput::new(psys, list, params, pool, ListKind::Half);
    let outs: Vec<UstcLaneOut> = pool.run(N_LANES, |lane| {
        on_lanes!(lanes, ustc_lane, avx2::ustc_lane_avx2, input, lane)
    });

    // MPE side: only this thread writes forces, in lane order.
    let mut slot_forces = vec![0.0f32; psys.n_packages() * FORCE_WORDS];
    let mut energies = NbEnergies::default();
    for (records, e_lj, e_coul, n_pairs) in outs {
        for (pkg, f) in &records {
            add_package(&mut slot_forces, *pkg as usize, f);
        }
        energies.lj += e_lj;
        energies.coulomb += e_coul;
        energies.pairs_within_cutoff += n_pairs;
    }
    native_result(psys, &slot_forces, energies)
}

/// The lane bodies compiled with AVX2 enabled: each is its generic
/// twin instantiated on [`f32x8_avx2`] inside a `#[target_feature]`
/// function, so the whole `#[inline(always)]` chain becomes `ymm` code.
/// Calling one is `unsafe` from ordinary code (the compiler cannot see
/// that the CPU has AVX2); the `Avx2` argument is what proves it.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod avx2 {
    use super::{rca_lane, rma_lane, ustc_lane};
    use super::{CopyShape, LaneInput, RcaLaneOut, RmaLaneOut, UstcLaneOut};
    use crate::kernels::native_simd::{f32x8_avx2, Avx2};

    #[target_feature(enable = "avx2")]
    pub(super) fn rma_lane_avx2(
        isa: Avx2,
        input: LaneInput<'_>,
        shape: CopyShape<'_>,
        lane: usize,
    ) -> RmaLaneOut {
        rma_lane::<f32x8_avx2>(isa, input, shape, lane)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn rca_lane_avx2(isa: Avx2, input: LaneInput<'_>, lane: usize) -> RcaLaneOut {
        rca_lane::<f32x8_avx2>(isa, input, lane)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn ustc_lane_avx2(isa: Avx2, input: LaneInput<'_>, lane: usize) -> UstcLaneOut {
        ustc_lane::<f32x8_avx2>(isa, input, lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageLayout;
    use mdsim::nonbonded::{compute_forces_half, max_force_diff, Coulomb};
    use mdsim::pairlist::PairList;
    use mdsim::water::water_box;

    fn setup(
        n_mol: usize,
        seed: u64,
        kind: ListKind,
    ) -> (mdsim::System, PackedSystem, CpePairList, NbParams) {
        let sys = water_box(n_mol, 300.0, seed);
        let list = PairList::build(&sys, 0.7, kind);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        (sys, psys, cpe, params)
    }

    fn reference(sys: &mdsim::System, params: &NbParams) -> (Vec<mdsim::Vec3>, f64, u64) {
        let mut r = sys.clone();
        r.clear_forces();
        let half = PairList::build(&r, 0.7, ListKind::Half);
        let en = compute_forces_half(&mut r, &half, params);
        (r.force, en.total(), en.pairs_within_cutoff)
    }

    #[test]
    fn native_rma_matches_reference() {
        let (sys, psys, cpe, params) = setup(800, 71, ListKind::Half);
        let pool = LanePool::with_threads(4);
        let out = run_rma_native(&psys, &cpe, &params, &pool, WriteStrategy::CopiesWithMarks);
        let (f_ref, e_ref, pairs_ref) = reference(&sys, &params);
        assert_eq!(out.energies.pairs_within_cutoff, pairs_ref);
        let rel = (out.energies.total() - e_ref).abs() / e_ref.abs();
        assert!(rel < 1e-5, "energy {} vs {e_ref}", out.energies.total());
        let fmax = f_ref.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        let diff = max_force_diff(&out.forces, &f_ref);
        assert!(diff / fmax < 1e-3, "force diff {diff} (fmax {fmax})");
    }

    #[test]
    fn native_rca_matches_reference() {
        let (sys, psys, cpe, params) = setup(800, 91, ListKind::Full);
        let pool = LanePool::with_threads(4);
        let out = run_rca_native(&psys, &cpe, &params, &pool);
        let (f_ref, e_ref, pairs_ref) = reference(&sys, &params);
        // RCA evaluates each pair twice.
        assert_eq!(out.energies.pairs_within_cutoff, 2 * pairs_ref);
        let rel = (out.energies.total() - e_ref).abs() / e_ref.abs();
        assert!(rel < 1e-5, "energy {} vs {e_ref}", out.energies.total());
        let fmax = f_ref.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&out.forces, &f_ref) / fmax < 1e-3);
    }

    #[test]
    fn native_ustc_matches_reference() {
        let (sys, psys, cpe, params) = setup(800, 95, ListKind::Half);
        let pool = LanePool::with_threads(4);
        let out = run_ustc_native(&psys, &cpe, &params, &pool);
        let (f_ref, e_ref, pairs_ref) = reference(&sys, &params);
        assert_eq!(out.energies.pairs_within_cutoff, pairs_ref);
        let rel = (out.energies.total() - e_ref).abs() / e_ref.abs();
        assert!(rel < 1e-5, "energy {} vs {e_ref}", out.energies.total());
        let fmax = f_ref.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&out.forces, &f_ref) / fmax < 1e-3);
    }

    fn force_bits(out: &KernelResult) -> Vec<[u32; 3]> {
        let bits = |f: &mdsim::Vec3| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()];
        out.forces.iter().map(bits).collect()
    }

    #[test]
    fn copies_equal_marked_copies_bit_for_bit() {
        // A line no lane touched adds +0.0 to a sum that started at
        // +0.0: the full reduce changes no bit at any thread count.
        let (_sys, psys, cpe, params) = setup(800, 71, ListKind::Half);
        for threads in [1, 2, 4] {
            let pool = LanePool::with_threads(threads);
            let run = |strategy| run_rma_native(&psys, &cpe, &params, &pool, strategy);
            let marks = run(WriteStrategy::CopiesWithMarks);
            let copies = run(WriteStrategy::Copies);
            assert_eq!(force_bits(&copies), force_bits(&marks), "{threads} threads");
            assert_eq!(
                copies.energies.lj.to_bits(),
                marks.energies.lj.to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                copies.energies.coulomb.to_bits(),
                marks.energies.coulomb.to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                copies.energies.pairs_within_cutoff,
                marks.energies.pairs_within_cutoff
            );
        }
    }

    #[test]
    fn each_lane_copy_holds_exactly_its_marked_lines() {
        // A 4 002-particle box at the paper's 1.0 nm list radius.
        let sys = water_box(1334, 300.0, 7);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams::paper_default();
        let pool = LanePool::with_threads(1);
        let input = LaneInput::new(&psys, &cpe, &params, &pool, ListKind::Half);
        let shape = CopyShape::new(WriteStrategy::CopiesWithMarks, psys.n_packages(), &[]);
        let mut marked = 0;
        for lane in 0..N_LANES {
            let out = rma_lane::<crate::kernels::native_simd::f32x8>((), input, shape, lane);
            let lines = out.marks.count_ones();
            assert_eq!(out.copy.len(), lines * shape.line_words, "lane {lane}");
            // Every marked line has its own slot, in first-touch order.
            let mut slots: Vec<u32> = out.marks.iter_ones().map(|l| out.slots[l]).collect();
            slots.sort_unstable();
            assert!(slots.iter().copied().eq(0..lines as u32), "lane {lane}");
            marked += lines;
        }
        let total = N_LANES * shape.n_lines;
        assert!(
            marked > 0 && 2 * marked < total,
            "{marked} of {total} lines marked"
        );
        // And the compact copies reduce to the full copies' bits.
        for threads in [1, 2] {
            let pool = LanePool::with_threads(threads);
            let run = |strategy| run_rma_native(&psys, &cpe, &params, &pool, strategy);
            let (marks, copies) = (
                run(WriteStrategy::CopiesWithMarks),
                run(WriteStrategy::Copies),
            );
            assert_eq!(force_bits(&copies), force_bits(&marks), "{threads} threads");
            assert_eq!(
                crate::check::physics_checksum(&copies.forces, &copies.energies),
                crate::check::physics_checksum(&marks.forces, &marks.energies)
            );
        }
    }

    #[test]
    fn atomics_match_the_reference_and_repeat_on_one_thread() {
        let (sys, psys, cpe, params) = setup(800, 71, ListKind::Half);
        let (f_ref, _, pairs_ref) = reference(&sys, &params);
        let fmax = f_ref.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        for threads in [1, 4] {
            let pool = LanePool::with_threads(threads);
            let out = run_rma_native(&psys, &cpe, &params, &pool, WriteStrategy::Atomics);
            assert_eq!(out.energies.pairs_within_cutoff, pairs_ref);
            let diff = max_force_diff(&out.forces, &f_ref);
            assert!(diff / fmax < 1e-3, "{threads} threads: force diff {diff}");
        }
        // One thread claims the lanes in index order, so even the CAS
        // adds land in one order.
        let pool = LanePool::with_threads(1);
        let run = || run_rma_native(&psys, &cpe, &params, &pool, WriteStrategy::Atomics);
        assert_eq!(force_bits(&run()), force_bits(&run()));
    }

    /// `(physics_checksum, lj bits, coulomb bits, pairs_within_cutoff)`.
    type Pinned = (u64, u64, u64, u64);

    /// The three kernels on `water_box(800, 300.0, 71)` at `rlist` 0.7,
    /// recorded from the commit before the lane types became registers
    /// (array lanes, one instantiation).
    const PARENT_RMA: Pinned = (
        0x9354c5b36f933a50,
        0x40caeaf7568d8400,
        0xc0551246d9d80000,
        192_369,
    );
    const PARENT_RCA: Pinned = (
        0x3d9c89499c466199,
        0x40caeaf752d92600,
        0xc05512556efc0000,
        384_738,
    );
    const PARENT_USTC: Pinned = (
        0xda99d85e4e5d7eb0,
        0x40caeaf7568d8400,
        0xc0551246d9d80000,
        192_369,
    );

    /// The same three kernels and inputs under the other Coulomb forms
    /// (rma, rca, ustc), recorded from the commit before the lane body
    /// moved to `mdsim::nonbonded`.
    const PARENT_NON_EWALD: [(Coulomb, [Pinned; 3]); 3] = [
        (
            Coulomb::None,
            [
                (0x19e294c5548fb026, 0x40caeaf74e61f800, 0, 192_369),
                (0x87572489f40e16cd, 0x40caeaf749e2dc00, 0, 384_738),
                (0x5624a68efe1a780d, 0x40caeaf74e61f800, 0, 192_369),
            ],
        ),
        (
            Coulomb::Cutoff,
            [
                (
                    0x7099e859c627bbdf,
                    0x40caeaf74e61f800,
                    0x41036d271e360000,
                    192_369,
                ),
                (
                    0xe39c2ac1d9af525a,
                    0x40caeaf749e2dc00,
                    0x41036d271cf30000,
                    384_738,
                ),
                (
                    0xb69f824d3126c596,
                    0x40caeaf74e61f800,
                    0x41036d271e360000,
                    192_369,
                ),
            ],
        ),
        (
            Coulomb::ReactionField { eps_rf: 78.0 },
            [
                (
                    0x20751d77e9424db6,
                    0x40caeaf74e61f800,
                    0xc0a0dfc2006a1cfc,
                    192_369,
                ),
                (
                    0xc41fd09c2835da4e,
                    0x40caeaf749e2dc00,
                    0xc0a0dfc22d46bee6,
                    384_738,
                ),
                (
                    0x0694cd5c4f0ca9b4,
                    0x40caeaf74e61f800,
                    0xc0a0dfc2006a1cfc,
                    192_369,
                ),
            ],
        ),
    ];

    type RunOn = fn(LaneImpl, &PackedSystem, &CpePairList, &NbParams, &LanePool) -> KernelResult;

    #[test]
    fn every_lane_implementation_reproduces_the_parent_commit_bits() {
        let kernels: [(&str, ListKind, RunOn, Pinned); 3] = [
            (
                "rma",
                ListKind::Half,
                |l, p, c, q, pool| {
                    run_rma_native_on(l, p, c, q, pool, WriteStrategy::CopiesWithMarks)
                },
                PARENT_RMA,
            ),
            ("rca", ListKind::Full, run_rca_native_on, PARENT_RCA),
            ("ustc", ListKind::Half, run_ustc_native_on, PARENT_USTC),
        ];
        for (k, (name, kind, run_on, ewald)) in kernels.into_iter().enumerate() {
            let (_sys, psys, cpe, ewald_params) = setup(800, 71, kind);
            let others = PARENT_NON_EWALD.map(|(coulomb, pins)| {
                let params = NbParams {
                    coulomb,
                    ..ewald_params
                };
                (params, pins[k])
            });
            for (params, want) in [(ewald_params, ewald)].into_iter().chain(others) {
                for lanes in LaneImpl::available() {
                    for threads in [1, 2, 4] {
                        let pool = LanePool::with_threads(threads);
                        let out = run_on(lanes, &psys, &cpe, &params, &pool);
                        let got = (
                            crate::check::physics_checksum(&out.forces, &out.energies),
                            out.energies.lj.to_bits(),
                            out.energies.coulomb.to_bits(),
                            out.energies.pairs_within_cutoff,
                        );
                        assert_eq!(
                            got,
                            want,
                            "{name} {:?} on {} lanes, {threads} threads",
                            params.coulomb,
                            lanes.name()
                        );
                    }
                }
            }
        }
    }
}
