//! Print the LDM budget tables for every kernel configuration — the
//! 64 KB constraint the paper designs around, stated explicitly.

use bench::{header, BenchJson};
use swgmx::kernels::RmaConfig;
use swgmx::ldm_budget::{format_budget, pairgen_budget, rma_budget};

fn main() -> std::io::Result<()> {
    header(
        "LDM budgets — fitting the kernels into 64 KB per CPE",
        "every reservation the kernels make, against the architectural cap",
    );
    let n_pkg: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("package count"))
        .unwrap_or(16_000);
    println!("(backing copy sized for {n_pkg} packages)\n");
    let mut json = BenchJson::new("ldm_report");
    json.config_num("packages", n_pkg as f64);
    for cfg in [
        RmaConfig::PKG,
        RmaConfig::CACHE,
        RmaConfig::VEC,
        RmaConfig::MARK,
    ] {
        let b = rma_budget(cfg, n_pkg);
        print!("{}", format_budget(&b));
        println!();
        json.metric(
            &format!("bytes.{}", cfg.name().to_lowercase()),
            b.total() as f64,
        );
    }
    for ways in [1usize, 2] {
        let b = pairgen_budget(ways);
        print!("{}", format_budget(&b));
        println!("  ({}-way associative)\n", ways);
        json.metric(&format!("bytes.pairgen_{ways}way"), b.total() as f64);
    }
    json.write()
}
