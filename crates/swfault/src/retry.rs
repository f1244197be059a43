//! Deterministic bounded retry with exponential backoff and jitter.
//!
//! Recovery paths across the stack (DMA re-issue, message retransmit,
//! checkpoint rewrite) share these helpers so backoff schedules are
//! consistent and — critically — deterministic: the jitter term derives
//! from the fault's payload word, never from a wall clock, so a faulted
//! run replays cycle-identically under the same [`FaultPlan`].
//!
//! [`FaultPlan`]: crate::FaultPlan

use std::io;

/// Default attempt cap shared by the bounded-retry loops. After this
/// many consecutive failures a site gives up, emits an
/// `fault.retries.exhausted` metric, and falls through to its
/// degraded path (proceed-anyway for DMA, error for I/O).
pub const MAX_ATTEMPTS: u32 = 8;

/// Run `attempt` until it stops failing with
/// [`io::ErrorKind::Interrupted`] — what an injected I/O fault returns —
/// at most [`MAX_ATTEMPTS`] retries, calling `on_retry` with each
/// retry's number (from 1): the value and the retries it took. Any
/// other error, or the last `Interrupted` one, is returned as is.
pub fn interrupted<T>(
    mut attempt: impl FnMut() -> io::Result<T>,
    mut on_retry: impl FnMut(u32),
) -> io::Result<(T, u32)> {
    let mut retries = 0;
    loop {
        match attempt() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && retries < MAX_ATTEMPTS => {
                retries += 1;
                on_retry(retries);
            }
            done => return done.map(|value| (value, retries)),
        }
    }
}

/// Simulated cycles to wait before retry number `attempt` (zero-based),
/// with a base penalty of `base` cycles: exponential backoff capped at
/// `base << 16`, plus payload-derived jitter in `[0, base)`.
pub fn backoff_cycles(attempt: u32, base: u64, payload: u64) -> u64 {
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let jitter = payload.wrapping_add(attempt as u64) % base.max(1);
    exp.saturating_add(jitter)
}

/// Simulated nanoseconds to wait before retry number `attempt`
/// (zero-based) with a base penalty of `base_ns`: exponential backoff
/// plus payload-derived jitter in `[0, base_ns)`.
pub fn backoff_ns(attempt: u32, base_ns: f64, payload: u64) -> f64 {
    let exp = base_ns * (1u64 << attempt.min(16)) as f64;
    exp + crate::unit(payload.wrapping_add(attempt as u64)) * base_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_cycles_grows_exponentially_and_is_deterministic() {
        let a0 = backoff_cycles(0, 100, 7);
        let a3 = backoff_cycles(3, 100, 7);
        assert!((100..200).contains(&a0), "base + jitter<base: {a0}");
        assert!((800..900).contains(&a3), "8*base + jitter<base: {a3}");
        assert_eq!(a3, backoff_cycles(3, 100, 7));
        assert_ne!(backoff_cycles(3, 100, 8), 0);
    }

    #[test]
    fn backoff_cycles_saturates_instead_of_overflowing() {
        let huge = backoff_cycles(u32::MAX, u64::MAX / 2, 1);
        assert_eq!(huge, u64::MAX);
        assert_eq!(backoff_cycles(0, 0, 5), 0);
    }

    #[test]
    fn interrupted_retries_only_interruptions_and_only_so_often() {
        let fails = |n: u32, kind: io::ErrorKind| {
            let mut calls = 0;
            let mut seen = Vec::new();
            let out = interrupted(
                || {
                    calls += 1;
                    if calls <= n {
                        Err(io::Error::from(kind))
                    } else {
                        Ok(calls)
                    }
                },
                |retry| seen.push(retry),
            );
            (out.map_err(|e| e.kind()), seen)
        };
        use io::ErrorKind::{Interrupted, Other};
        assert_eq!(fails(0, Interrupted), (Ok((1, 0)), vec![]));
        assert_eq!(fails(3, Interrupted), (Ok((4, 3)), vec![1, 2, 3]));
        let all: Vec<u32> = (1..=MAX_ATTEMPTS).collect();
        let last = (Ok((MAX_ATTEMPTS + 1, MAX_ATTEMPTS)), all.clone());
        assert_eq!(fails(MAX_ATTEMPTS, Interrupted), last);
        assert_eq!(
            fails(MAX_ATTEMPTS + 1, Interrupted),
            (Err(Interrupted), all)
        );
        assert_eq!(fails(2, Other), (Err(Other), vec![]));
    }

    #[test]
    fn backoff_ns_grows_and_bounds_jitter() {
        let b0 = backoff_ns(0, 50.0, 123);
        let b2 = backoff_ns(2, 50.0, 123);
        assert!((50.0..100.0).contains(&b0));
        assert!((200.0..250.0).contains(&b2));
        assert_eq!(b2, backoff_ns(2, 50.0, 123));
    }
}
