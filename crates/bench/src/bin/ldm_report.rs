//! Print what every kernel configuration's CPEs reserve of their 64 KB
//! LDM — the constraint the paper designs around (§3) — read from the
//! ledger of a traced run of each kernel, region by region.
//!
//! A reservation that does not fit panics inside the kernel, so every
//! number printed here is one the kernel made and the ledger accepted.

use bench::{header, ldm_by_region, water_workload, BenchJson, RegionLdm};
use mdsim::pairlist::ListKind;
use sw26010::cg::CoreGroup;
use sw26010::params::LDM_BYTES;
use sw26010::trace;
use swgmx::kernels::{run_rma, RmaConfig};
use swgmx::pairgen::generate_pairlist;

/// Trace `run` and print the fullest CPE of each region that reserves
/// LDM; returns the largest of those totals.
fn report(kernel: &str, run: impl FnOnce()) -> usize {
    let session = trace::Session::begin();
    run();
    let regions = ldm_by_region(&session.finish());
    println!("{kernel}: LDM of each region's fullest CPE");
    for r in &regions {
        println!("  region {} (CPE {}):", r.epoch, r.cpe);
        for (label, bytes) in &r.items {
            println!("    {label:<38} {bytes:>8} B");
        }
        println!(
            "    {:<38} {:>8} B  ({} B headroom of {} KiB)",
            "TOTAL",
            r.total(),
            LDM_BYTES - r.total(),
            LDM_BYTES / 1024
        );
    }
    println!();
    regions.iter().map(RegionLdm::total).max().unwrap_or(0)
}

fn main() -> std::io::Result<()> {
    header(
        "LDM reservations — fitting the kernels into 64 KB per CPE",
        "what each kernel's CPEs reserve, read from the LDM ledger",
    );
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("particle count"))
        .unwrap_or(48_000);
    let w = water_workload(n, 1);
    let n_pkg = w.psys.n_packages();
    println!("({n} particles, {n_pkg} packages)\n");
    let mut json = BenchJson::new("ldm_report");
    json.config_num("particles", n as f64)
        .config_num("packages", n_pkg as f64);
    let cg = CoreGroup::new();
    for cfg in [
        RmaConfig::PKG,
        RmaConfig::CACHE,
        RmaConfig::VEC,
        RmaConfig::MARK,
    ] {
        let fullest = report(cfg.name(), || {
            run_rma(&w.psys, &w.half, &w.params, &cg, cfg);
        });
        json.metric(
            &format!("bytes.{}", cfg.name().to_lowercase()),
            fullest as f64,
        );
    }
    for ways in [1usize, 2] {
        let fullest = report(&format!("pair-list generation, {ways}-way"), || {
            generate_pairlist(&w.sys, w.params.r_cut, ListKind::Half, &cg, ways);
        });
        json.metric(&format!("bytes.pairgen_{ways}way"), fullest as f64);
    }
    json.write()
}
