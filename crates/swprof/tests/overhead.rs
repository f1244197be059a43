//! Overhead budgets for the instrumentation, as assertions rather than
//! numbers to eyeball:
//!
//! - **Disabled profiling and tracing**: every emit, span and send site
//!   in the stack guards on one thread-local flag read, so with no
//!   session active an instrumented kernel must run at the speed it had
//!   before the instrumentation existed.
//! - **Flight recorder**: `tel::flight::record` runs inside production
//!   paths (fault decisions, store commits, stage charges). With no
//!   ring entered it is a flag read like the disabled paths; inside a
//!   ring its mutex + array-store cost is bounded here so it can never
//!   quietly grow an allocation or O(n) walk.
//!
//! A mutex or an allocation on a disabled path costs 20–100 ns a call
//! in a release build and more in a debug one; the budget is a hard
//! microsecond, so it holds in both and on a loaded box, and fails by
//! orders of magnitude on the day a path grows either.

use std::hint::black_box;
use std::time::Instant;

use swprof::tel;

/// Time a million rounds of `calls` calls each and hold the mean to
/// the budget, printing it for `--nocapture` readers.
fn hold_under_a_microsecond(what: &str, calls: u64, mut round: impl FnMut(u64)) {
    let t0 = Instant::now();
    for i in 0..1_000_000u64 {
        round(i);
    }
    let per_call = t0.elapsed().as_nanos() as f64 / (calls * 1_000_000) as f64;
    println!("# {what}: {per_call:.2} ns/call");
    assert!(per_call < 1_000.0, "{what} costs {per_call:.0} ns/call");
}

#[test]
fn a_disabled_emit_call_stays_under_a_microsecond() {
    assert!(!swprof::enabled(), "no session on this thread");
    hold_under_a_microsecond("disabled emit path", 2, |i| {
        swprof::metrics::counter_add("bench.noop", black_box(i));
        swprof::tick(black_box(1));
    });
}

#[test]
fn a_disabled_tracing_call_stays_under_a_microsecond() {
    assert!(!tel::enabled(), "no session on this thread");
    hold_under_a_microsecond("disabled tracing path", 2, |i| {
        drop(tel::span(black_box("step")));
        tel::tick(black_box(i & 7));
    });
}

#[test]
fn a_flight_record_with_no_ring_stays_under_a_microsecond() {
    assert!(
        tel::flight::handle().into_state().is_none(),
        "no ring on this thread"
    );
    hold_under_a_microsecond("flight record, no ring", 1, |i| {
        tel::flight::record("stage", "force", black_box(i), 0);
    });
}

#[test]
fn a_flight_record_stays_under_a_microsecond() {
    let ring = tel::flight::Ring::new();
    let _armed = ring.enter();
    hold_under_a_microsecond("flight recorder", 1, |i| {
        tel::flight::record("stage", "force", black_box(i), 0);
    });
    assert_eq!(ring.recorded(), 1_000_000);
}
