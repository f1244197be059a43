//! One global timeline from a multi-rank run: cross-rank causal
//! tracing with `swprof::tel`.
//!
//! ```sh
//! cargo run --release --example global_trace
//! ```
//!
//! A 4-rank domain-decomposed water run executes under a tracing
//! session. Every halo message carries a `(trace_id, parent_span_id,
//! seqno)` context, so the per-rank span tracks stitch into a single
//! Chrome timeline with flow arrows from each send to its receive —
//! load `target/global-trace/global.json` in `chrome://tracing` or
//! Perfetto to see the lanes. The per-rank files are also merged back
//! into `merged.json`, one process per input file. The same telemetry
//! feeds the straggler detector (EWMA + MAD over virtual per-rank
//! clocks; no wall time anywhere).

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::ddrun::run_dd_md;
use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
use sw_gromacs::mdsim::water::{theta_hoh, water_box, D_OH};
use sw_gromacs::swprof::tel;

const N_RANKS: usize = 4;
const N_STEPS: u64 = 8;

fn main() {
    let out = std::path::Path::new("target/global-trace");
    std::fs::create_dir_all(out).expect("create output dir");

    // Trace a 4-rank run end to end.
    let session = tel::Session::begin(0x90ac5);
    let mut sys = water_box(60, 300.0, 41);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let p = NbParams {
        r_cut: 0.7,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    };
    run_dd_md(&mut sys, N_RANKS, &p, &cs, 0.002, N_STEPS, 4).expect("run");
    let tel = session.finish();

    tel.check_causal().expect("timeline is causal");
    println!(
        "traced {} ranks: {} span events, {} flow events, 0 undelivered",
        tel.n_ranks,
        tel.spans.len(),
        tel.flows.len()
    );
    assert_eq!(tel.undelivered_flows(), 0);

    // The global timeline, one file per rank (what a real job would
    // write from separate processes), and those files merged back into
    // one timeline the way a post-mortem would stitch them.
    std::fs::write(out.join("global.json"), tel.to_chrome_trace()).expect("write global");
    let mut docs = Vec::new();
    for rank in 0..N_RANKS {
        let path = out.join(format!("rank{rank}.json"));
        std::fs::write(&path, tel.rank_trace(rank)).expect("write rank trace");
        docs.push(std::fs::read_to_string(&path).expect("read rank trace"));
    }
    let merged = tel::merge::merge_documents(&docs).expect("merge rank traces");
    std::fs::write(out.join("merged.json"), merged).expect("write merged");
    println!(
        "wrote {}/global.json, per-rank traces and merged.json",
        out.display()
    );

    // Straggler scan over the same telemetry. A healthy fleet is quiet.
    let flags = tel::straggler::detect_spans(&tel, "step", Default::default());
    if flags.is_empty() {
        println!("straggler scan: fleet is even");
    } else {
        for f in &flags {
            println!(
                "straggler: rank {} ewma {:.0} ns vs fleet median {:.0} ns",
                f.rank, f.ewma_ns, f.median_ns
            );
        }
    }

    // Per-rank step durations, from the virtual clocks.
    for (rank, steps) in tel.span_durations("step").iter().enumerate() {
        let total: u64 = steps.iter().sum();
        println!(
            "rank {rank}: {} steps, {} virtual ns total",
            steps.len(),
            total
        );
    }
}
