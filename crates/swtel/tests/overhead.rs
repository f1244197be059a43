//! Overhead budgets for the swtel layer, as assertions rather than
//! numbers to eyeball:
//!
//! - **Disabled tracing**: every span/send site in `swnet`/`mdsim`/
//!   `swgmx` guards on one thread-local flag read, so with no session
//!   active the instrumentation must cost nanoseconds, like swprof's.
//! - **Always-on flight recorder**: `flight::record` has no off
//!   switch — it runs inside production paths (fault decisions, store
//!   commits, stage charges) unconditionally. Its mutex + array-store
//!   cost is bounded here so it can never quietly grow an allocation
//!   or O(n) walk.
//!
//! The budget is a hard microsecond per call: a release build sits two
//! to three orders of magnitude under it, a debug build on a loaded box
//! still one.

use std::hint::black_box;
use std::time::Instant;

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
fn a_disabled_tracing_call_stays_under_a_microsecond() {
    assert!(!swtel::enabled(), "no session on this thread");
    hold_under_a_microsecond("disabled tracing path", 2, |i| {
        drop(swtel::span(black_box("step")));
        swtel::tick(black_box(i & 7));
    });
}

#[test]
fn a_flight_record_stays_under_a_microsecond() {
    hold_under_a_microsecond("flight recorder", 1, |i| {
        swtel::flight::record("stage", "force", black_box(i), 0);
    });
}
