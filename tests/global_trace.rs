//! Acceptance tests for cross-rank causal tracing (`swprof::tel`): a
//! 4-rank `run_dd_md_durable` traced end to end must merge into one *valid*
//! global Chrome timeline — per-track spans well nested, every flow
//! pairing exactly one send with one receive, and the receive never
//! before the send.
//!
//! A tracing session belongs to the thread that opened it, so the tests
//! here trace side by side.

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::durable::{run_dd_md_durable, DurableConfig};
use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
use sw_gromacs::mdsim::water::{theta_hoh, water_box, D_OH};
use swprof::json::{parse, Value};
use swprof::scope::Who;
use swprof::tel;

fn params() -> NbParams {
    NbParams {
        r_cut: 0.7,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    }
}

/// Run a traced 4-rank DD-MD and return the telemetry.
fn traced_dd_run(trace_id: u64) -> tel::Telemetry {
    // A fresh store: a leftover one would make the run resume.
    let dir = std::env::temp_dir().join(format!("global-trace-{trace_id}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = tel::Session::begin(trace_id);
    let mut sys = water_box(60, 300.0, 41);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let cfg = DurableConfig::new(4, 6, 3);
    run_dd_md_durable(&mut sys, &dir, &cfg, &params(), &cs).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    session.finish()
}

#[test]
fn four_rank_dd_run_produces_causal_telemetry() {
    let tel = traced_dd_run(42);
    tel.check_causal().expect("merged timeline is causal");
    assert_eq!(tel.n_ranks, 4);
    // Every rank ran 6 "step" spans.
    let durations = tel.span_durations("step");
    assert_eq!(durations.len(), 4);
    for (rank, d) in durations.iter().enumerate() {
        assert_eq!(d.len(), 6, "rank {rank} step spans");
    }
    // Halo force flows were exchanged and every one was delivered.
    assert!(!tel.flows.is_empty());
    assert_eq!(tel.undelivered_flows(), 0);
}

/// Walk a parsed Chrome trace document and validate its structure the
/// way a viewer would: metadata sane, B/E stack discipline per process
/// track, and flow ids pairing exactly one "s" with one "f".
fn validate_chrome_doc(doc: &Value, expect_ranks: usize) {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let mut stacks: std::collections::HashMap<i64, Vec<String>> = Default::default();
    let mut flow_sends: std::collections::HashMap<i64, (f64, u32)> = Default::default();
    let mut flow_recvs: std::collections::HashMap<i64, (f64, u32)> = Default::default();
    let mut pids_seen = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let pid = ev.get("pid").and_then(Value::as_num).expect("pid") as i64;
        let ts = ev.get("ts").and_then(Value::as_num).expect("ts");
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        pids_seen.insert(pid);
        match ph {
            "B" => stacks.entry(pid).or_default().push(name.to_string()),
            "E" => {
                let top = stacks
                    .entry(pid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E \"{name}\" with empty stack on pid {pid}"));
                assert_eq!(top, name, "spans on pid {pid} are not well nested");
            }
            "s" | "f" => {
                let id = ev.get("id").and_then(Value::as_num).expect("flow id") as i64;
                let slot = if ph == "s" {
                    &mut flow_sends
                } else {
                    &mut flow_recvs
                };
                let e = slot.entry(id).or_insert((ts, 0));
                e.0 = ts;
                e.1 += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (pid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on pid {pid}: {stack:?}");
    }
    assert_eq!(pids_seen.len(), expect_ranks, "one track per rank");
    // Every flow pairs exactly one send with one receive, in order.
    assert_eq!(flow_sends.len(), flow_recvs.len());
    for (id, (send_ts, n_sends)) in &flow_sends {
        assert_eq!(*n_sends, 1, "flow {id} emitted more than once");
        let (recv_ts, n_recvs) = flow_recvs
            .get(id)
            .unwrap_or_else(|| panic!("flow {id} has a send but no receive"));
        assert_eq!(*n_recvs, 1, "flow {id} received more than once");
        assert!(
            recv_ts >= send_ts,
            "flow {id}: receive at {recv_ts} before send at {send_ts}"
        );
    }
}

#[test]
fn merged_global_chrome_trace_validates() {
    let tel = traced_dd_run(43);
    let doc = parse(&tel.to_chrome_trace()).expect("valid JSON");
    validate_chrome_doc(&doc, 4);
}

#[test]
fn per_rank_traces_merge_into_the_same_global_timeline() {
    let tel = traced_dd_run(44);
    // Export each rank separately (what a real job would write from
    // four processes), then merge them as `examples/global_trace.rs` does.
    let docs: Vec<String> = (0..4).map(|r| tel.rank_trace(r)).collect();
    let merged = tel::merge::merge_documents(&docs).expect("merge");
    let doc = parse(&merged).expect("merged doc is valid JSON");
    validate_chrome_doc(&doc, 4);
}

#[test]
fn straggler_detector_flags_an_injected_slow_rank() {
    let session = tel::Session::begin(45);
    for _step in 0..8 {
        for rank in 0..4 {
            let _rank = Who {
                rank: Some(rank),
                ..Who::current()
            }
            .enter();
            let span = tel::span("step");
            tel::tick(if rank == 2 { 5_000 } else { 1_000 });
            drop(span);
        }
    }
    let tel = session.finish();
    let flags = tel::straggler::detect_spans(&tel, "step", Default::default());
    assert_eq!(flags.len(), 1, "exactly the slow rank flags: {flags:?}");
    assert_eq!(flags[0].rank, 2);
}
