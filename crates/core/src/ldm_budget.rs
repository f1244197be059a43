//! LDM budget accounting for each kernel configuration.
//!
//! Fitting the caches into 64 KB is the central constraint the paper
//! designs around ("the LDM is too small, only 64 KB, to keep the data
//! of all the particles", §3). This module states each kernel's budget
//! explicitly and verifies it against the architectural capacity; the
//! tests below check that each CPE of a kernel's region reserves
//! exactly its budget through its `ldm.reserve` calls.

use sw26010::cache::CacheGeometry;
use sw26010::params::LDM_BYTES;

use crate::kernels::RmaConfig;
use crate::package::{FORCE_WORDS, PKG_WORDS};

/// One labelled LDM reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetItem {
    /// What the space holds.
    pub label: &'static str,
    /// Bytes reserved.
    pub bytes: usize,
}

/// A kernel's complete LDM budget.
#[derive(Debug, Clone)]
pub struct LdmBudget {
    /// Kernel name.
    pub kernel: &'static str,
    /// Reservations in allocation order.
    pub items: Vec<BudgetItem>,
}

impl LdmBudget {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.items.iter().map(|i| i.bytes).sum()
    }

    /// Bytes left of the 64 KB LDM.
    pub fn headroom(&self) -> isize {
        LDM_BYTES as isize - self.total() as isize
    }

    /// True if the budget fits the architectural LDM.
    pub fn fits(&self) -> bool {
        self.total() <= LDM_BYTES
    }
}

/// The RMA-family kernel's budget for a given configuration and backing
/// copy size (`n_pkg` packages).
pub fn rma_budget(cfg: RmaConfig, n_pkg: usize) -> LdmBudget {
    let mut items = Vec::new();
    if cfg.read_cache {
        items.push(BudgetItem {
            label: "read cache (32 x 8 packages)",
            bytes: CacheGeometry::paper_default(PKG_WORDS).ldm_bytes(),
        });
    }
    if cfg.write_cache {
        items.push(BudgetItem {
            label: "write cache (32 x 8 force packages)",
            bytes: CacheGeometry::paper_default(FORCE_WORDS).ldm_bytes(),
        });
    }
    if cfg.marks {
        items.push(BudgetItem {
            label: "Bit-Map marks (1 bit per copy line)",
            bytes: n_pkg.div_ceil(8).div_ceil(64) * 8,
        });
    }
    items.push(BudgetItem {
        label: "pair-list stream buffer",
        bytes: 2048,
    });
    items.push(BudgetItem {
        label: "force accumulators (fi, fj)",
        bytes: 2 * FORCE_WORDS * 4,
    });
    LdmBudget {
        kernel: cfg.name(),
        items,
    }
}

/// The §3.5 pair-list generation kernel's budget.
pub fn pairgen_budget(ways: usize) -> LdmBudget {
    LdmBudget {
        kernel: "pair-list generation",
        items: vec![
            BudgetItem {
                label: "center cache",
                bytes: CacheGeometry::new(16, ways, 8, 4).ldm_bytes(),
            },
            BudgetItem {
                label: "member-position cache",
                bytes: CacheGeometry::new(16, ways, 8, 12).ldm_bytes(),
            },
            BudgetItem {
                label: "neighbor staging",
                bytes: 4096,
            },
        ],
    }
}

/// Pretty-print a budget table.
pub fn format_budget(b: &LdmBudget) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{} kernel LDM budget:", b.kernel);
    for item in &b.items {
        let _ = writeln!(out, "  {:<40} {:>8} B", item.label, item.bytes);
    }
    let _ = writeln!(
        out,
        "  {:<40} {:>8} B  ({} B headroom of {} KiB)",
        "TOTAL",
        b.total(),
        b.headroom(),
        LDM_BYTES / 1024
    );
    out
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use mdsim::nonbonded::NbParams;
    use mdsim::pairlist::{ListKind, PairList};
    use mdsim::water::water_box;
    use sw26010::cg::CoreGroup;
    use sw26010::trace::{self, EventKind};

    use super::*;
    use crate::cpelist::CpePairList;
    use crate::kernels::rma::run_rma;
    use crate::package::{PackageLayout, PackedSystem};
    use crate::pairgen::generate_pairlist;

    #[test]
    fn every_published_configuration_fits_the_ldm() {
        // Copy sizes up to the paper's 96 K-particle case 1 workload.
        for n_pkg in [4_000usize, 16_000, 40_000] {
            for cfg in [
                RmaConfig::PKG,
                RmaConfig::CACHE,
                RmaConfig::VEC,
                RmaConfig::MARK,
            ] {
                let b = rma_budget(cfg, n_pkg);
                assert!(
                    b.fits(),
                    "{} at {n_pkg} packages: {} B",
                    cfg.name(),
                    b.total()
                );
            }
        }
        for ways in [1usize, 2] {
            assert!(pairgen_budget(ways).fits());
        }
    }

    #[test]
    fn mark_bookkeeping_is_tiny() {
        // The Bit-Map's whole point: marks for a 3M-particle copy cost
        // only a few KB of LDM (Fig. 5's 256-particles-per-byte).
        let full = rma_budget(RmaConfig::MARK, 1_000_000);
        let marks = full
            .items
            .iter()
            .find(|i| i.label.starts_with("Bit-Map"))
            .unwrap();
        assert!(marks.bytes < 16 * 1024, "marks {} B", marks.bytes);
        assert!(full.fits());
    }

    #[test]
    fn caches_dominate_the_budget() {
        let b = rma_budget(RmaConfig::MARK, 16_000);
        let caches: usize = b
            .items
            .iter()
            .filter(|i| i.label.contains("cache"))
            .map(|i| i.bytes)
            .sum();
        assert!(
            caches * 10 > b.total() * 8,
            "caches {} of {}",
            caches,
            b.total()
        );
    }

    /// Bytes each CPE reserved in the regions that make a `marker`
    /// reservation, one entry per (region, CPE).
    fn reserved_per_cpe(events: &[trace::Event], marker: &str) -> Vec<usize> {
        let reserve = |e: &trace::Event| match e.kind {
            EventKind::LdmReserve {
                label,
                bytes,
                ok: true,
                ..
            } => Some((label, bytes)),
            _ => None,
        };
        let epochs: BTreeSet<u64> = events
            .iter()
            .filter(|e| reserve(e).is_some_and(|(label, _)| label == marker))
            .map(|e| e.epoch)
            .collect();
        let mut per_cpe: BTreeMap<(u64, Option<usize>), usize> = BTreeMap::new();
        for e in events.iter().filter(|e| epochs.contains(&e.epoch)) {
            if let Some((_, bytes)) = reserve(e) {
                *per_cpe.entry((e.epoch, e.cpe)).or_default() += bytes;
            }
        }
        per_cpe.into_values().collect()
    }

    #[test]
    fn every_cpe_reserves_exactly_its_kernel_budget() {
        let sys = water_box(200, 300.0, 5);
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let cg = CoreGroup::new();
        for cfg in [
            RmaConfig::PKG,
            RmaConfig::CACHE,
            RmaConfig::VEC,
            RmaConfig::MARK,
        ] {
            let session = trace::Session::begin();
            run_rma(&psys, &cpe, &params, &cg, cfg);
            let reserved = reserved_per_cpe(&session.finish(), "list buffer");
            let budget = rma_budget(cfg, psys.n_packages()).total();
            assert!(!reserved.is_empty(), "{}: no calc region", cfg.name());
            assert!(
                reserved.iter().all(|&b| b == budget),
                "{}: budget {budget} B, CPEs reserved {reserved:?}",
                cfg.name()
            );
        }
        for ways in [1usize, 2] {
            let session = trace::Session::begin();
            generate_pairlist(&sys, 0.7, ListKind::Half, &cg, ways);
            let reserved = reserved_per_cpe(&session.finish(), "center cache");
            let budget = pairgen_budget(ways).total();
            assert!(!reserved.is_empty(), "{ways}-way: no search region");
            assert!(
                reserved.iter().all(|&b| b == budget),
                "{ways}-way: budget {budget} B, CPEs reserved {reserved:?}"
            );
        }
    }

    #[test]
    fn format_is_readable() {
        let text = format_budget(&rma_budget(RmaConfig::MARK, 16_000));
        assert!(text.contains("Mark kernel LDM budget"));
        assert!(text.contains("TOTAL"));
    }
}
