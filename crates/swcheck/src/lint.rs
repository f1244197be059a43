//! Static lint pass: replay the metered DMA/LDM/gld event stream and
//! enforce the paper's transfer discipline (SWC001–SWC005).
//!
//! "Static" here means stateless with respect to shared memory: each
//! event is judged on its own against the variant's [`KernelContract`],
//! so the pass is a linear scan. Findings of the same invariant are
//! aggregated into one [`Violation`] carrying the occurrence count and
//! the first offending instance, so a kernel that issues the same bad
//! transfer a million times reports once, not a million times.

use sw26010::trace::{Event, EventKind};
use swgmx::check::KernelContract;

use crate::{Severity, Violation};

/// Smallest acceptable region-tagged transfer: one force package (48 B)
/// rounds down to this floor; anything under it is per-particle traffic
/// the particle-package scheme (§3.1) exists to eliminate.
pub const MIN_PACKAGE_BYTES: usize = 32;

/// LDM peak utilization above which SWC004 warns: headroom below 5% of
/// the 64 KB budget leaves no room for stack growth or larger systems.
pub const LDM_HEADROOM_WARN: f64 = 0.95;

/// Peak LDM pressure observed in a run, for headroom reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdmReport {
    /// Highest `in_use` the ledger reached after a successful reserve.
    pub peak_bytes: usize,
    /// Ledger capacity (64 KB unless an ablation shrank it).
    pub capacity_bytes: usize,
}

impl LdmReport {
    /// Bytes left free at the pressure peak.
    pub fn headroom_bytes(&self) -> usize {
        self.capacity_bytes.saturating_sub(self.peak_bytes)
    }

    /// Peak utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            return 0.0;
        }
        self.peak_bytes as f64 / self.capacity_bytes as f64
    }
}

/// Peak LDM pressure across all reservation events (`None` if the run
/// never touched the ledger).
pub fn ldm_report(events: &[Event]) -> Option<LdmReport> {
    let mut report: Option<LdmReport> = None;
    for e in events {
        if let EventKind::LdmReserve {
            in_use_after,
            capacity,
            ok: true,
            ..
        } = &e.kind
        {
            let r = report.get_or_insert(LdmReport {
                peak_bytes: 0,
                capacity_bytes: *capacity,
            });
            r.peak_bytes = r.peak_bytes.max(*in_use_after);
            r.capacity_bytes = r.capacity_bytes.max(*capacity);
        }
    }
    report
}

/// Run the lint pass over one traced run.
pub fn lint(contract: &KernelContract, events: &[Event]) -> Vec<Violation> {
    let mut out = Vec::new();

    // SWC001: region-tagged DMA must satisfy the 128-bit rule (§3.7).
    let misaligned: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Dma {
                region: Some(r),
                byte_off,
                bytes,
                aligned: false,
                ..
            } => Some((*r, *byte_off, *bytes)),
            _ => None,
        })
        .collect();
    if let Some(&(r, off, bytes)) = misaligned.first() {
        out.push(Violation::new(
            "SWC001",
            contract.name,
            Severity::Error,
            format!(
                "{} region-tagged DMA transfer(s) break 128-bit alignment \
                 (first: region {r}, byte offset {off}, {bytes} B)",
                misaligned.len()
            ),
        ));
    }

    // SWC002: region-tagged DMA below package granularity (§3.1).
    if !contract.allow_subpackage_dma {
        let tiny: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Dma {
                    region: Some(r),
                    bytes,
                    ..
                } if *bytes < MIN_PACKAGE_BYTES => Some((*r, *bytes)),
                _ => None,
            })
            .collect();
        if let Some(&(r, bytes)) = tiny.first() {
            out.push(Violation::new(
                "SWC002",
                contract.name,
                Severity::Error,
                format!(
                    "{} region-tagged DMA transfer(s) below package \
                     granularity of {MIN_PACKAGE_BYTES} B \
                     (first: region {r}, {bytes} B)",
                    tiny.len()
                ),
            ));
        }
    }

    // SWC003: LDM reservations that blew the 64 KB budget.
    for e in events {
        if let EventKind::LdmReserve {
            label,
            bytes,
            in_use_after,
            capacity,
            ok: false,
            ..
        } = &e.kind
        {
            out.push(Violation::new(
                "SWC003",
                contract.name,
                Severity::Error,
                format!(
                    "LDM over budget: reserving {bytes} B for `{label}` \
                     with {in_use_after} B already in use of {capacity} B"
                ),
            ));
        }
    }

    // SWC004: peak LDM usage leaves less than 5% headroom (warning).
    if let Some(r) = ldm_report(events) {
        if r.utilization() > LDM_HEADROOM_WARN {
            out.push(Violation::new(
                "SWC004",
                contract.name,
                Severity::Warning,
                format!(
                    "LDM peak {} B of {} B ({:.1}% utilized, {} B headroom)",
                    r.peak_bytes,
                    r.capacity_bytes,
                    100.0 * r.utilization(),
                    r.headroom_bytes()
                ),
            ));
        }
    }

    // SWC005: gld/gst on a CPE hot path when the contract forbids it
    // (the optimized kernels have read/write cache equivalents).
    if !contract.allow_gld {
        let ops: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gld { ops } if e.cpe.is_some() => Some(ops),
                _ => None,
            })
            .sum();
        if ops > 0 {
            out.push(Violation::new(
                "SWC005",
                contract.name,
                Severity::Error,
                format!(
                    "{ops} gld/gst operation(s) issued from CPEs; this \
                     variant has cache equivalents for all hot-path accesses"
                ),
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::dma::Dir;

    fn strict() -> KernelContract {
        KernelContract::strict("test")
    }

    fn dma(region: Option<u32>, byte_off: usize, bytes: usize, aligned: bool) -> Event {
        Event {
            cpe: Some(0),
            epoch: 1,
            kind: EventKind::Dma {
                dir: Dir::Get,
                region,
                byte_off,
                bytes,
                aligned,
            },
        }
    }

    #[test]
    fn misaligned_region_dma_is_swc001() {
        let v = lint(&strict(), &[dma(Some(1), 4, 128, false)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC001");
        assert_eq!(v[0].severity, Severity::Error);
    }

    #[test]
    fn regionless_dma_is_not_linted_for_alignment() {
        // Size-only metering (no address) can't be judged for alignment.
        assert!(lint(&strict(), &[dma(None, 0, 52, false)]).is_empty());
    }

    #[test]
    fn subpackage_dma_is_swc002_unless_allowed() {
        let ev = [dma(Some(2), 16, 12, true)];
        let v = lint(&strict(), &ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC002");
        let mut lax = strict();
        lax.allow_subpackage_dma = true;
        assert!(lint(&lax, &ev).is_empty());
    }

    #[test]
    fn cpe_gld_is_swc005_unless_allowed() {
        let ev = [Event {
            cpe: Some(3),
            epoch: 1,
            kind: EventKind::Gld { ops: 7 },
        }];
        let v = lint(&strict(), &ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC005");
        assert!(v[0].message.contains('7'));
        let mut lax = strict();
        lax.allow_gld = true;
        assert!(lint(&lax, &ev).is_empty());
        // MPE-side gld is the host's business, not the checker's.
        let mpe = [Event {
            cpe: None,
            epoch: 0,
            kind: EventKind::Gld { ops: 7 },
        }];
        assert!(lint(&strict(), &mpe).is_empty());
    }

    fn reserve(in_use_after: usize, capacity: usize, ok: bool) -> Event {
        Event {
            cpe: Some(0),
            epoch: 1,
            kind: EventKind::LdmReserve {
                ldm: 1,
                label: "buf",
                bytes: 1024,
                in_use_after,
                capacity,
                ok,
            },
        }
    }

    #[test]
    fn failed_reserve_is_swc003() {
        let v = lint(&strict(), &[reserve(63 * 1024, 64 * 1024, false)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC003");
    }

    #[test]
    fn near_full_ldm_is_swc004_warning() {
        let v = lint(&strict(), &[reserve(63 * 1024, 64 * 1024, true)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC004");
        assert_eq!(v[0].severity, Severity::Warning);
        // Comfortable headroom: silent.
        assert!(lint(&strict(), &[reserve(32 * 1024, 64 * 1024, true)]).is_empty());
    }

    #[test]
    fn ldm_report_tracks_peak() {
        let ev = [
            reserve(10_000, 65_536, true),
            reserve(40_000, 65_536, true),
            reserve(20_000, 65_536, true),
        ];
        let r = ldm_report(&ev).unwrap();
        assert_eq!(r.peak_bytes, 40_000);
        assert_eq!(r.headroom_bytes(), 65_536 - 40_000);
        assert!(ldm_report(&[]).is_none());
    }
}
