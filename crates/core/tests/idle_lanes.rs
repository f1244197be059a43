//! Host allocations of a metered region follow the work, not the CPE
//! count: a simulated CPE that owns no cluster builds no cache lines, no
//! Bit-Map words and no force copy (paper §3.3's point, on the host).
//!
//! A counting global allocator tallies the allocations of the thread
//! that makes them; every region here runs on a one-thread core group,
//! so all 64 lanes run on the test's own thread and nothing another
//! test does is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdsim::nonbonded::NbParams;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::water::water_box;
use sw26010::cache::{CacheGeometry, ReadCache, WriteCache};
use sw26010::CoreGroup;
use swgmx::package::{FORCE_WORDS, PKG_WORDS};
use swgmx::pairgen::generate_pairlist;
use swgmx::{run_rma, CpePairList, PackageLayout, PackedSystem, RmaConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// count is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread, after one warm-up call (the
/// first region of a session fills lazily-built thread state).
fn allocations<R>(mut f: impl FnMut() -> R) -> u64 {
    f();
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A served job's box: 8 waters, 8 clusters for 64 CPEs, at the cutoff
/// the engine clamps such a box to.
fn eight_waters() -> (mdsim::System, f32) {
    let sys = water_box(8, 300.0, 1);
    let l = sys.pbc.lengths();
    let rlist = 0.3 * l.x.min(l.y).min(l.z);
    (sys, rlist)
}

#[test]
fn a_mark_call_allocates_per_cluster_not_per_cpe() {
    let (sys, rlist) = eight_waters();
    let list = PairList::build(&sys, rlist, ListKind::Half);
    let cpe = CpePairList::build(&sys, &list);
    let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
    assert_eq!(psys.n_packages(), 8);
    let params = NbParams {
        r_cut: rlist,
        ..NbParams::paper_default()
    };
    let cg = CoreGroup::with_threads(1);
    let n = allocations(|| run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK));
    assert!(n < 4 * 64, "{n} allocations for 8 clusters");
}

#[test]
fn pair_generation_allocates_per_cluster_not_per_cpe() {
    let (sys, rlist) = eight_waters();
    let cg = CoreGroup::with_threads(1);
    let n = allocations(|| generate_pairlist(&sys, rlist, ListKind::Half, &cg, 2));
    assert!(n < 4 * 64, "{n} allocations for 8 clusters");
}

#[test]
fn caches_that_are_never_touched_allocate_nothing() {
    let pkg_geo = CacheGeometry::paper_default(PKG_WORDS);
    let force_geo = CacheGeometry::paper_default(FORCE_WORDS);
    let cg = CoreGroup::with_threads(1);
    let built = allocations(|| {
        cg.spawn("test", |ctx| {
            let _read = ReadCache::new(pkg_geo);
            let mut write = WriteCache::with_marks(force_geo, 64);
            write.flush(&mut ctx.perf, &mut []);
        })
    });
    let bare = allocations(|| cg.spawn("test", |_| ()));
    assert_eq!(built, bare);
}
