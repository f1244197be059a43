//! # swcheck — invariant checker + CPE race detector
//!
//! The kernels in this workspace are *simulations* of SW26010 CPE code:
//! they run functionally on the host while metering DMA, LDM, and
//! gld/gst costs. That means an entire class of Sunway porting bugs —
//! misaligned DMA, LDM overdraft, cross-CPE write races, forgotten
//! write-cache flushes, Bit-Map/reduction drift — would *not* crash the
//! simulation; they would silently produce a kernel that could never run
//! on the real chip (or would corrupt forces if it did).
//!
//! `swcheck` closes that gap with three passes — two over the event
//! stream a traced kernel run emits ([`sw26010::trace`]), one over the
//! workspace source itself:
//!
//! - **[`lint`]** — a static replay of the metered DMA/LDM/gld events
//!   enforcing the paper's transfer discipline: 128-bit DMA alignment
//!   (§3.7), package-granularity transfers (§3.1: no sub-32 B region
//!   traffic), the 64 KB LDM budget with headroom reporting, and no
//!   gld/gst on CPE hot paths that have cache equivalents.
//! - **[`hb`]** — a vector-clock happens-before engine over every lane
//!   of the stream (MPE + CPEs), deriving synchronization edges from
//!   spawn epochs, LDM reservation handoffs, Bit-Map mark/reduce pairs,
//!   barriers, and swnet seqno channels, then reporting every pair of
//!   conflicting accesses no edge orders — with dual-access evidence
//!   naming both sites. The same walk checks the coherence of the
//!   deferred-update machinery: write caches dropped with unflushed
//!   dirty lines, Bit-Map marks that disagree with the reduction's
//!   consumed-line set (Alg. 3/4), and the fault-recovery contract — an
//!   aborted attempt (`swfault` respawn) must leave no dirty or
//!   marked-but-unreduced state behind.
//! - **[`srclint`]** — determinism lints over the workspace source:
//!   wall clocks, unseeded RNG, hash-iteration order, and undocumented
//!   CAS float reductions anywhere physics or trace output could see.
//!
//! On top of the HB engine, [`schedule`] replays a trace under many
//! seeded HB-respecting linearizations (DPOR-lite) and certifies that
//! verdicts and physics checksums are interleaving-invariant — the
//! certificate ([`swgmx::backend`]) a native backend must present.
//!
//! Each finding is a [`Violation`] carrying a stable invariant id:
//!
//! | id     | pass    | meaning                                        |
//! |--------|---------|------------------------------------------------|
//! | SWC001 | lint    | region-tagged DMA breaks 128-bit alignment     |
//! | SWC002 | lint    | sub-package (< 32 B) region-tagged DMA         |
//! | SWC003 | lint    | LDM reservation over the 64 KB budget          |
//! | SWC004 | lint    | LDM peak above 95% capacity (warning)          |
//! | SWC005 | lint    | gld/gst on a CPE hot path with a cache path    |
//! | SWC102 | hb      | write cache dropped with dirty lines           |
//! | SWC103 | hb      | marked line never consumed by the reduction    |
//! | SWC104 | hb      | reduction consumed an unmarked line            |
//! | SWC105 | hb      | aborted attempt left dirty/marked state behind |
//! | SWC106 | recovery | orphaned / double-owned domain cells after recovery |
//! | SWC107 | recovery | gap or off-cadence epoch in the durable generation chain |
//! | SWC006 | srclint | wall-clock read reachable from physics/trace   |
//! | SWC007 | srclint | unseeded RNG                                   |
//! | SWC008 | srclint | HashMap/HashSet where iteration order can leak |
//! | SWC009 | srclint | CAS float reduction without a documented order |
//! | SWC010 | srclint | process-wide mutable `static` (state with no owner) |
//! | SWC011 | srclint | thread started outside the lane executor       |
//! | SWC110 | hb      | conflicting accesses with no happens-before edge |
//! | SWC111 | hb      | Bit-Map reduce not ordered after its mark      |
//! | SWC113 | hb      | cross-lane LDM aliasing without a release/acquire handoff |
//!
//! The `swcheck` binary runs every kernel variant of the ladder under
//! the trace passes and exits nonzero on violations (exit 3 static,
//! 4 coherence/recovery SWC102–107, 5 happens-before SWC110+);
//! `swcheck --fixtures` replays eight seeded-violation [`fixtures`] and
//! verifies each one is caught — the checker checking itself; `swcheck certify` mints the backend
//! certificate; `swcheck srclint` runs the determinism lints.

pub mod fixtures;
pub mod hb;
pub mod lint;
pub mod recovery;
pub mod schedule;
pub mod srclint;

use sw26010::trace::Event;
use swgmx::check::KernelContract;

pub use hb::{AccessSite, DualAccess};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not disqualifying (reported, does not fail the run).
    Warning,
    /// The kernel could not run correctly on the real chip.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One invariant violation found in a traced kernel run.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant id (`SWC0xx` lint/srclint, `SWC1xx` HB walk and
    /// recovery audit).
    pub id: &'static str,
    /// Name of the kernel (from its [`KernelContract`]).
    pub kernel: String,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable description with aggregate counts.
    pub message: String,
    /// Dual-access evidence for happens-before findings (SWC110, SWC111,
    /// SWC113):
    /// both sites, both lanes, both stream positions.
    pub evidence: Option<DualAccess>,
}

impl Violation {
    fn new(id: &'static str, kernel: &str, severity: Severity, message: String) -> Self {
        Self {
            id,
            kernel: kernel.to_string(),
            severity,
            message,
            evidence: None,
        }
    }

    fn with_evidence(mut self, evidence: DualAccess) -> Self {
        self.evidence = Some(evidence);
        self
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.id, self.severity, self.kernel, self.message
        )
    }
}

/// Run both trace passes over one traced run's events, errors first.
pub fn check_events(contract: &KernelContract, events: &[Event]) -> Vec<Violation> {
    let mut v = lint::lint(contract, events);
    v.extend(hb::detect(contract, events));
    v.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.id.cmp(b.id)));
    v
}

/// Number of error-severity violations in a finding list.
pub fn error_count(violations: &[Violation]) -> usize {
    violations
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_grep_friendly() {
        let v = Violation::new("SWC001", "rma", Severity::Error, "2 misaligned".into());
        assert_eq!(v.to_string(), "SWC001 [error] rma: 2 misaligned");
    }

    #[test]
    fn errors_sort_before_warnings() {
        let contract = KernelContract::strict("t");
        // An empty stream is clean; ordering is exercised by pass output
        // elsewhere — here just pin the severity ordering itself.
        assert!(Severity::Error > Severity::Warning);
        assert!(check_events(&contract, &[]).is_empty());
    }
}
