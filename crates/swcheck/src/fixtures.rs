//! Seeded-violation fixtures: eight event streams, each produced by
//! driving the *real* substrate primitives into a known invariant
//! violation, so `swcheck --fixtures` verifies the whole detection
//! chain — instrumentation hooks, event plumbing, and both passes —
//! not just the pass logic over hand-written events.
//!
//! The fixtures capture their streams in turn under one live
//! [`trace::Session`], exactly like a traced kernel run (so the session
//! numbers their regions 1, 2, … across the set), and each names the
//! one invariant id the checker must report for it.

use sw26010::cache::{CacheGeometry, WriteCache};
use sw26010::dma::{Dir, DmaEngine};
use sw26010::ldm::Ldm;
use sw26010::perf::PerfCounters;
use sw26010::pool::LanePool;
use sw26010::trace::{self, Event};
use swgmx::check::KernelContract;
use swprof::scope::Who;

/// One seeded violation: a captured event stream plus the invariant id
/// the checker is expected to report for it.
pub struct Fixture {
    /// Fixture name, shown in the self-test report.
    pub name: &'static str,
    /// Invariant id that must appear in the checker's findings.
    pub expected: &'static str,
    /// Contract the stream should be checked under.
    pub contract: KernelContract,
    /// The captured events.
    pub events: Vec<Event>,
}

/// Build all eight fixtures.
pub fn all() -> Vec<Fixture> {
    let session = trace::Session::begin();
    let build: [fn(&trace::Session) -> Fixture; 8] = [
        cross_cpe_write_race,
        unflushed_dirty_line,
        bitmap_reduction_mismatch,
        misaligned_dma,
        ldm_over_budget,
        unclean_abort,
        unsynchronized_reduce,
        reduce_of_an_unmarked_line,
    ];
    build.iter().map(|fixture| fixture(&session)).collect()
}

/// Run `f` as CPE `cpe` of the region the thread is in.
fn on_cpe<R>(cpe: usize, f: impl FnOnce() -> R) -> R {
    let _lane = Who::enter_lane(Some(cpe));
    f()
}

/// Two lanes of one region DMA-put overlapping bytes of one region with
/// nothing ordering them — the write conflict the redundant-copy scheme
/// exists to prevent. The region is wider than a core group (the lane
/// executor runs any number of lanes, as the fault plane counts service
/// workers and DD ranks past the 64 CPEs), and the racing lanes are 64
/// and 70: the race rule must see lanes past the core group like any
/// other.
fn cross_cpe_write_race(session: &trace::Session) -> Fixture {
    LanePool::with_threads(1).run(71, |lane| {
        // Bytes [32, 96) overlap lane 64's [0, 64).
        let byte_off = match lane {
            64 => 0,
            70 => 32,
            _ => return,
        };
        DmaEngine::transfer_shared_at(&mut PerfCounters::new(), Dir::Put, 9, byte_off, 64)
    });
    Fixture {
        name: "cross-CPE write race",
        expected: "SWC110",
        contract: KernelContract::strict("fixture:race"),
        events: session.take(),
    }
}

/// A deferred-update write cache is dropped with an accumulated line
/// that was never flushed — the force contribution silently vanishes.
fn unflushed_dirty_line(session: &trace::Session) -> Fixture {
    let geo = CacheGeometry::paper_default(12);
    let mut copy = vec![0.0f32; 64 * 12];
    let mut perf = PerfCounters::new();
    {
        let mut wc = WriteCache::new(geo);
        wc.update(&mut perf, &mut copy, 3, &[1.0; 12]);
        // No flush: dropping here leaks the dirty line.
    }
    Fixture {
        name: "unflushed dirty write-cache line",
        expected: "SWC102",
        contract: KernelContract::strict("fixture:unflushed"),
        events: session.take(),
    }
}

/// Bit-Map marks two lines but the reduction only consumes one — the
/// Alg. 3/4 contract is broken and the skipped line's forces are lost.
fn bitmap_reduction_mismatch(session: &trace::Session) -> Fixture {
    let geo = CacheGeometry::paper_default(12);
    let mut copy = vec![0.0f32; 64 * 12];
    let mut perf = PerfCounters::new();
    let mut wc = WriteCache::with_marks(geo, 64);
    wc.update(&mut perf, &mut copy, 0, &[1.0; 12]); // marks line 0
    wc.update(&mut perf, &mut copy, 8, &[1.0; 12]); // marks line 1
    wc.flush(&mut perf, &mut copy);
    // A buggy reduction that consumes line 0 and forgets line 1.
    trace::reduce_line(wc.trace_id(), 0);
    Fixture {
        name: "Bit-Map / reduction mismatch",
        expected: "SWC103",
        contract: KernelContract::strict("fixture:marks"),
        events: session.take(),
    }
}

/// A region-tagged DMA transfer from a main-memory address that breaks
/// the §3.7 128-bit alignment rule.
fn misaligned_dma(session: &trace::Session) -> Fixture {
    let mut perf = PerfCounters::new();
    // Byte offset 4 is not 16-byte aligned.
    DmaEngine::transfer_shared_at(&mut perf, Dir::Get, 7, 4, 80);
    Fixture {
        name: "misaligned region-tagged DMA",
        expected: "SWC001",
        contract: KernelContract::strict("fixture:align"),
        events: session.take(),
    }
}

/// An LDM reservation plan that exceeds the 64 KB budget.
fn ldm_over_budget(session: &trace::Session) -> Fixture {
    let mut ldm = Ldm::new();
    ldm.reserve("caches", 60 * 1024).expect("fits");
    // 60 KB + 8 KB > 64 KB: the ledger rejects it and the event records it.
    let _ = ldm.reserve("spill buffer", 8 * 1024);
    Fixture {
        name: "LDM over budget",
        expected: "SWC003",
        contract: KernelContract::strict("fixture:ldm"),
        events: session.take(),
    }
}

/// A CPE attempt marks a Bit-Map line and is then aborted (the fault
/// recovery path respawns it) without the line ever being reduced — the
/// replay would re-accumulate into a line the reduction no longer knows
/// about.
fn unclean_abort(session: &trace::Session) -> Fixture {
    let geo = CacheGeometry::paper_default(12);
    let mut copy = vec![0.0f32; 64 * 12];
    let mut perf = PerfCounters::new();
    let region = trace::begin_region(1);
    on_cpe(3, || {
        let mut wc = WriteCache::with_marks(geo, 64);
        // Marks a line; the attempt dies right after, so the cache is
        // dropped dirty and the mark is never reduced.
        wc.update(&mut perf, &mut copy, 5, &[1.0; 12]);
        drop(wc);
        trace::emit_abort("cpe-hang");
    });
    trace::end_region(region);
    Fixture {
        name: "unclean abort",
        expected: "SWC105",
        contract: KernelContract::strict("fixture:abort"),
        events: session.take(),
    }
}

/// A CPE marks a Bit-Map line and a *different* CPE reduces it inside
/// the same spawn epoch: the simulator happens to run them in order,
/// but no synchronization edge orders them, so a native backend could
/// reduce a line whose marks are still being written (SWC111). The
/// happens-before evidence carries both sites.
fn unsynchronized_reduce(session: &trace::Session) -> Fixture {
    let geo = CacheGeometry::paper_default(12);
    let mut copy = vec![0.0f32; 64 * 12];
    let mut perf = PerfCounters::new();
    let region = trace::begin_region(2);
    let wc = on_cpe(0, || {
        let mut wc = WriteCache::with_marks(geo, 64);
        wc.update(&mut perf, &mut copy, 0, &[1.0; 12]); // marks line 0
        wc.flush(&mut perf, &mut copy);
        wc
    });
    // CPE 1 consumes the line without waiting for the epoch to join.
    on_cpe(1, || trace::reduce_line(wc.trace_id(), 0));
    trace::end_region(region);
    Fixture {
        name: "unsynchronized Bit-Map reduce",
        expected: "SWC111",
        contract: KernelContract::strict("fixture:unsynced-reduce"),
        events: session.take(),
    }
}

/// A marking cache whose reduction consumes one line it marked and one
/// it never marked: with marks skipping initialization, the unmarked
/// line holds garbage that the reduction adds into the forces.
fn reduce_of_an_unmarked_line(session: &trace::Session) -> Fixture {
    let geo = CacheGeometry::paper_default(12);
    let mut copy = vec![0.0f32; 64 * 12];
    let mut perf = PerfCounters::new();
    let mut wc = WriteCache::with_marks(geo, 64);
    wc.update(&mut perf, &mut copy, 0, &[1.0; 12]); // marks line 0
    wc.flush(&mut perf, &mut copy);
    // A buggy reduction that consumes line 0 and line 3, never marked.
    trace::reduce_line(wc.trace_id(), 0);
    trace::reduce_line(wc.trace_id(), 3);
    Fixture {
        name: "reduction of an unmarked line",
        expected: "SWC104",
        contract: KernelContract::strict("fixture:unmarked"),
        events: session.take(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_events, error_count};

    #[test]
    fn every_fixture_is_detected_with_its_expected_id() {
        for f in all() {
            let v = check_events(&f.contract, &f.events);
            assert!(
                v.iter().any(|v| v.id == f.expected),
                "fixture `{}` not detected: expected {}, got {:?}",
                f.name,
                f.expected,
                v.iter().map(|v| v.id).collect::<Vec<_>>()
            );
            assert!(
                error_count(&v) > 0,
                "fixture `{}` produced no errors",
                f.name
            );
        }
    }

    #[test]
    fn fixture_streams_are_nonempty_and_distinctly_seeded() {
        let fixtures = all();
        assert_eq!(fixtures.len(), 8);
        let mut expected: Vec<_> = fixtures.iter().map(|f| f.expected).collect();
        expected.sort();
        expected.dedup();
        assert_eq!(expected.len(), 8, "each fixture seeds a distinct invariant");
        for f in &fixtures {
            assert!(
                !f.events.is_empty(),
                "fixture `{}` captured nothing",
                f.name
            );
        }
    }
}
