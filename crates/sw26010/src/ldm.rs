//! Local Device Memory (LDM) budget tracking.
//!
//! Each CPE has only 64 KB of LDM (paper §1), and fitting the software
//! caches, update buffers, and SIMD staging areas into it is one of the
//! central constraints the paper works around. The simulator does not
//! emulate LDM addressing — kernel data lives in ordinary Rust values —
//! but every kernel must *reserve* its LDM footprint through [`Ldm`],
//! which enforces the 64 KB capacity and makes over-budget kernel
//! configurations a hard error instead of a silent fiction.

use crate::params::LDM_BYTES;

/// Error returned when a reservation would exceed LDM capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdmOverflow {
    /// Bytes requested by the failing reservation.
    pub requested: usize,
    /// Bytes already reserved.
    pub in_use: usize,
    /// Total capacity (64 KB).
    pub capacity: usize,
    /// Label of the failing reservation, for diagnostics.
    pub label: &'static str,
}

impl std::fmt::Display for LdmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LDM overflow reserving {} B for `{}`: {} B already in use of {} B",
            self.requested, self.label, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for LdmOverflow {}

/// A labelled LDM reservation ledger for one CPE kernel instance.
#[derive(Debug, Clone)]
pub struct Ldm {
    in_use: usize,
    reservations: Vec<(&'static str, usize)>,
    stall_cycles: u64,
    /// Trace id threading this instance's reserve/release events
    /// together. LDM is core-private hardware, so the happens-before
    /// checker (SWC113) demands that one ledger's events stay on one
    /// lane unless a release→acquire edge hands it over.
    trace_id: u64,
}

impl Default for Ldm {
    fn default() -> Self {
        Self::new()
    }
}

impl Ldm {
    /// A fresh ledger with the architectural 64 KB capacity.
    pub fn new() -> Self {
        Self {
            in_use: 0,
            reservations: Vec::new(),
            stall_cycles: 0,
            trace_id: crate::trace::next_id(),
        }
    }

    /// Reserve `bytes` of LDM under `label`. Fails if capacity is exceeded.
    pub fn reserve(&mut self, label: &'static str, bytes: usize) -> Result<(), LdmOverflow> {
        if swfault::enabled() {
            // Transient allocator contention: the reservation eventually
            // succeeds (capacity is a static property of the kernel, not
            // of the fault), but each injected failure stalls the CPE by
            // a deterministic backoff. Only simulated time is perturbed.
            let mut attempt = 0u32;
            while attempt < swfault::retry::MAX_ATTEMPTS {
                let Some(payload) = swfault::decide(swfault::Site::LdmFail) else {
                    break;
                };
                self.stall_cycles += swfault::retry::backoff_cycles(
                    attempt,
                    crate::params::LDM_RETRY_BASE_CYCLES,
                    payload,
                );
                swprof::metrics::counter_add("fault.retries.ldm", 1);
                attempt += 1;
            }
        }
        if self.in_use + bytes > LDM_BYTES {
            swprof::metrics::counter_add("ldm.overflows", 1);
            crate::trace::emit_ldm(self.trace_id, label, bytes, self.in_use, LDM_BYTES, false);
            return Err(LdmOverflow {
                requested: bytes,
                in_use: self.in_use,
                capacity: LDM_BYTES,
                label,
            });
        }
        self.in_use += bytes;
        self.reservations.push((label, bytes));
        swprof::metrics::gauge_max("ldm.high_water_bytes", self.in_use as u64);
        crate::trace::emit_ldm(self.trace_id, label, bytes, self.in_use, LDM_BYTES, true);
        Ok(())
    }

    /// Release the most recent reservation made under `label`, returning
    /// the bytes freed (`None` if no such reservation is held). Release
    /// followed by a re-acquire of the same label on the same ledger is
    /// an acquire/release edge in the happens-before model — the pattern
    /// double-buffered kernels use to recycle staging space.
    pub fn release(&mut self, label: &'static str) -> Option<usize> {
        let idx = self.reservations.iter().rposition(|&(l, _)| l == label)?;
        let (_, bytes) = self.reservations.remove(idx);
        self.in_use -= bytes;
        crate::trace::emit_ldm_release(self.trace_id, label, bytes);
        Some(bytes)
    }

    /// Trace id threading this instance's events together.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Reserve space for `n` values of type `T`.
    pub fn reserve_array<T>(&mut self, label: &'static str, n: usize) -> Result<(), LdmOverflow> {
        self.reserve(label, n * std::mem::size_of::<T>())
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Bytes still free.
    pub fn free(&self) -> usize {
        LDM_BYTES - self.in_use
    }

    /// The labelled reservations made so far, in order.
    pub fn reservations(&self) -> &[(&'static str, usize)] {
        &self.reservations
    }

    /// Cycles this instance stalled on injected reservation contention
    /// (zero unless a fault plan is active). `CoreGroup::spawn` folds
    /// this into the instance's cycle counter after the kernel returns.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_within_capacity() {
        let mut ldm = Ldm::new();
        ldm.reserve("cache", 32 * 1024).unwrap();
        ldm.reserve("buffer", 16 * 1024).unwrap();
        assert_eq!(ldm.in_use(), 48 * 1024);
        assert_eq!(ldm.free(), 16 * 1024);
    }

    #[test]
    fn overflow_is_rejected_and_state_unchanged() {
        let mut ldm = Ldm::new();
        ldm.reserve("a", 60 * 1024).unwrap();
        let err = ldm.reserve("b", 8 * 1024).unwrap_err();
        assert_eq!(err.label, "b");
        assert_eq!(err.in_use, 60 * 1024);
        assert_eq!(ldm.in_use(), 60 * 1024);
        // Exactly filling remaining space still works.
        ldm.reserve("c", 4 * 1024).unwrap();
        assert_eq!(ldm.free(), 0);
    }

    #[test]
    fn reserve_array_uses_type_size() {
        let mut ldm = Ldm::new();
        ldm.reserve_array::<f32>("floats", 1024).unwrap();
        assert_eq!(ldm.in_use(), 4096);
    }

    #[test]
    fn display_mentions_label() {
        let mut ldm = Ldm::new();
        let err = ldm.reserve("big", LDM_BYTES + 1).unwrap_err();
        assert!(err.to_string().contains("big"));
    }

    #[test]
    fn release_frees_most_recent_matching_reservation() {
        let mut ldm = Ldm::new();
        ldm.reserve("buf", 1024).unwrap();
        ldm.reserve("other", 512).unwrap();
        ldm.reserve("buf", 2048).unwrap();
        assert_eq!(ldm.release("buf"), Some(2048));
        assert_eq!(ldm.in_use(), 1024 + 512);
        assert_eq!(ldm.release("buf"), Some(1024));
        assert_eq!(ldm.release("buf"), None);
        assert_eq!(ldm.in_use(), 512);
    }

    #[test]
    fn reserve_and_release_share_the_instance_trace_id() {
        use crate::trace::{self, EventKind};
        let s = trace::Session::begin();
        let mut ldm = Ldm::new();
        let id = ldm.trace_id();
        ldm.reserve("buf", 64).unwrap();
        ldm.release("buf").unwrap();
        let ev = s.finish();
        assert!(matches!(ev[0].kind, EventKind::LdmReserve { ldm, .. } if ldm == id));
        assert!(matches!(ev[1].kind, EventKind::LdmRelease { ldm, .. } if ldm == id));
        // Distinct instances get distinct ids.
        assert_ne!(Ldm::new().trace_id(), id);
    }
}
