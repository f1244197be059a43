//! Shared harness utilities for the per-table/per-figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: it builds the paper's workload, runs the relevant simulated
//! kernels, and prints the same rows/series the paper reports, side by
//! side with the paper's published values. Absolute numbers come from a
//! simulator, not the authors' machine — the claim being reproduced is
//! the *shape* (who wins, by what factor, where crossovers fall).
//! [`roofline`] places the same kernels on the SW26010 roofline (the
//! `swlens` bin), and [`ldm_by_region`] reads what a traced kernel run's
//! CPEs reserved of their LDM (the `ldm_report` bin).

use std::collections::BTreeMap;
use std::io;

use mdsim::nonbonded::NbParams;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::system::System;
use sw26010::trace::{Event, EventKind};
use swgmx::cpelist::CpePairList;
use swgmx::package::{PackageLayout, PackedSystem};

pub mod roofline;

/// A fully prepared single-CG kernel workload.
pub struct Workload {
    /// The system (equilibrated water box).
    pub sys: System,
    /// Packed positions (transposed layout, SIMD-ready).
    pub psys: PackedSystem,
    /// Half list in kernel form.
    pub half: CpePairList,
    /// Full list in kernel form (for RCA).
    pub full: CpePairList,
    /// Kernel parameters.
    pub params: NbParams,
}

/// Build the paper's water workload of `n_particles` (Table 3 settings:
/// rlist = 1.0, PME short-range electrostatics).
pub fn water_workload(n_particles: usize, seed: u64) -> Workload {
    let n_mol = n_particles / 3;
    let sys = mdsim::water::water_box(n_mol, 300.0, seed);
    let params = NbParams::paper_default();
    let rlist = params.r_cut.min(0.45 * sys.pbc.lengths().x);
    let params = NbParams {
        r_cut: rlist,
        ..params
    };
    let half_list = PairList::build(&sys, rlist, ListKind::Half);
    let full_list = PairList::build(&sys, rlist, ListKind::Full);
    let psys = PackedSystem::build(
        &sys,
        half_list.clustering.clone(),
        PackageLayout::Transposed,
    );
    let half = CpePairList::build(&sys, &half_list);
    let full = CpePairList::build(&sys, &full_list);
    Workload {
        sys,
        psys,
        half,
        full,
        params,
    }
}

/// Machine-readable sidecar emitted by every regenerator binary: one
/// `BENCH_<name>.json` per run with the schema
/// `{name, config, metrics, wall_cycles}`, so CI and plotting scripts
/// can consume the measured numbers without scraping stdout.
///
/// The document is a pure function of what the run computed:
/// `wall_cycles` is the *simulated* total, and no field reads the host
/// clock, so two runs of a regenerator write the same bytes and a
/// committed baseline is checked by its exact bytes. Host time is
/// swbench's to measure (`benchmark/`).
///
/// The output directory is `$BENCH_OUT_DIR` when set, `results/`
/// otherwise (created on demand).
#[derive(Debug, Clone)]
pub struct BenchJson {
    name: String,
    config: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
    wall_cycles: u64,
}

impl BenchJson {
    /// Start a sidecar for the regenerator `name` (e.g. `"fig8_ladder"`).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            config: Vec::new(),
            metrics: Vec::new(),
            wall_cycles: 0,
        }
    }

    /// Record a numeric configuration knob (particle count, steps, ...).
    pub fn config_num(&mut self, key: &str, v: f64) -> &mut Self {
        self.config.push((key.to_string(), swprof::json::number(v)));
        self
    }

    /// Record a string configuration knob (version name, transport, ...).
    pub fn config_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.config
            .push((key.to_string(), swprof::json::escaped(v)));
        self
    }

    /// Record one measured value. Keys are dotted paths; repeated series
    /// entries encode the index in the key (`"speedup.mark.12000"`).
    pub fn metric(&mut self, key: &str, v: f64) -> &mut Self {
        self.metrics.push((key.to_string(), v));
        self
    }

    /// Record the total simulated cycles the run accounted for.
    pub fn wall_cycles(&mut self, cycles: u64) -> &mut Self {
        self.wall_cycles = cycles;
        self
    }

    /// Serialize to the sidecar schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"name\": ");
        out.push_str(&swprof::json::escaped(&self.name));
        out.push_str(",\n  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&swprof::json::escaped(k));
            out.push_str(": ");
            out.push_str(v);
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&swprof::json::escaped(k));
            out.push_str(": ");
            out.push_str(&swprof::json::number(*v));
        }
        out.push_str("\n  },\n  \"wall_cycles\": ");
        out.push_str(&self.wall_cycles.to_string());
        out.push_str("\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` into `$BENCH_OUT_DIR` (or `results/`)
    /// and report where it went. A sidecar that cannot be written is an
    /// error naming its path: a regenerator that carried on would leave
    /// the previous bytes in place for the baseline check to pass on.
    pub fn write(&self) -> io::Result<()> {
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "results".to_string());
        let dir = std::path::Path::new(&dir);
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        println!("[bench-json] wrote {}", path.display());
        Ok(())
    }
}

/// What one parallel region's fullest CPE reserved of its LDM, read
/// from the `LdmReserve` events of a traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionLdm {
    /// The region's epoch in its trace session.
    pub epoch: u64,
    /// The CPE whose reservations sum highest (the lowest id on a tie).
    pub cpe: usize,
    /// Its reservations that fit, in order: label and bytes.
    pub items: Vec<(&'static str, usize)>,
}

impl RegionLdm {
    /// Bytes reserved in all.
    pub fn total(&self) -> usize {
        self.items.iter().map(|&(_, bytes)| bytes).sum()
    }
}

/// The fullest CPE of each region of `events` that reserves LDM, in
/// epoch order.
pub fn ldm_by_region(events: &[Event]) -> Vec<RegionLdm> {
    let mut per_cpe: BTreeMap<(u64, usize), Vec<(&'static str, usize)>> = BTreeMap::new();
    for e in events {
        if let (
            Some(cpe),
            EventKind::LdmReserve {
                label,
                bytes,
                ok: true,
                ..
            },
        ) = (e.cpe, &e.kind)
        {
            per_cpe
                .entry((e.epoch, cpe))
                .or_default()
                .push((label, *bytes));
        }
    }
    let mut regions: Vec<RegionLdm> = Vec::new();
    for ((epoch, cpe), items) in per_cpe {
        let this = RegionLdm { epoch, cpe, items };
        match regions.last_mut() {
            Some(last) if last.epoch == epoch => {
                if this.total() > last.total() {
                    *last = this;
                }
            }
            _ => regions.push(this),
        }
    }
    regions
}

/// Print a standard report header.
pub fn header(title: &str, what: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("{what}");
    println!("==============================================================");
}

/// Print one `name | paper | measured` row with a ratio note.
pub fn row(name: &str, paper: f64, measured: f64) {
    let rel = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    println!("{name:<28} paper {paper:>9.2}   measured {measured:>9.2}   (x{rel:>5.2} of paper)");
}

/// Simple text bar for quick visual comparison.
pub fn bar(label: &str, value: f64, scale: f64) {
    let n = ((value * scale).round() as usize).min(70);
    println!("{label:<24} {value:>8.2} |{}", "#".repeat(n));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_valid_and_round_trips() {
        let mut b = BenchJson::new("fig0_test");
        b.config_num("particles", 12_000.0)
            .config_str("version", "Mark \"quoted\"")
            .metric("speedup.mark", 61.5)
            .metric("speedup.cache", 23.0)
            .wall_cycles(123_456);
        let v = swprof::json::parse(&b.to_json()).expect("valid JSON");
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "fig0_test");
        assert_eq!(v.get("wall_cycles").unwrap().as_num().unwrap(), 123_456.0);
        let cfg = v.get("config").unwrap();
        assert_eq!(cfg.get("particles").unwrap().as_num().unwrap(), 12_000.0);
        assert_eq!(
            cfg.get("version").unwrap().as_str().unwrap(),
            "Mark \"quoted\""
        );
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("speedup.mark").unwrap().as_num().unwrap(), 61.5);
    }

    #[test]
    fn bench_json_is_byte_deterministic() {
        let mut b = BenchJson::new("fig0_bytes");
        b.config_num("particles", 3000.0)
            .metric("speedup.mark", 61.5)
            .wall_cycles(1000);
        let first = b.to_json();
        assert_eq!(first, b.to_json());
        for host_field in ["wall_ns", "steps_per_s", "ns_per_day"] {
            assert!(!first.contains(host_field), "{host_field} in {first}");
        }
    }

    #[test]
    fn workload_is_consistent() {
        let w = water_workload(1200, 1);
        assert_eq!(w.sys.n(), 1200);
        assert_eq!(w.half.n_clusters(), w.psys.n_packages());
        assert!(w.full.n_entries() > w.half.n_entries());
    }
}
