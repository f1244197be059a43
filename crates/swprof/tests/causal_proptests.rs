//! Property tests for the causal-ordering contract: *any* interleaving
//! of spans, clock ticks, and message sends — including out-of-order
//! (deferred) deliveries — must produce telemetry that passes
//! `check_causal`, and the emitted Chrome document must never show a
//! flow receive at an earlier timestamp than its send.
//!
//! Schedules are decoded from random `u64` words (the proptest shim has
//! no string strategies); every word drives one operation on one rank.

use proptest::prelude::*;
use swprof::json::{parse, Value};
use swprof::tel;

const LABELS: [&str; 3] = ["step", "halo.x", "pme.crossover"];

/// One decoded schedule operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    OpenSpan {
        rank: usize,
        label: &'static str,
    },
    CloseSpan {
        rank: usize,
    },
    Tick {
        rank: usize,
        ns: u64,
    },
    SendNow {
        src: usize,
        dst: usize,
        label: &'static str,
        wire: u64,
    },
    SendDeferred {
        src: usize,
        dst: usize,
        label: &'static str,
        wire: u64,
    },
}

fn decode(word: u64, n_ranks: usize) -> Op {
    let rank = (word % n_ranks as u64) as usize;
    let label = LABELS[((word >> 16) % 3) as usize];
    let wire = (word >> 24) % 10_000;
    let dst = (rank + 1 + ((word >> 4) % (n_ranks as u64 - 1)) as usize) % n_ranks;
    match (word >> 8) % 5 {
        0 => Op::OpenSpan { rank, label },
        1 => Op::CloseSpan { rank },
        2 => Op::Tick {
            rank,
            ns: (word >> 24) % 5_000,
        },
        3 => Op::SendNow {
            src: rank,
            dst,
            label,
            wire,
        },
        _ => Op::SendDeferred {
            src: rank,
            dst,
            label,
            wire,
        },
    }
}

/// Run one decoded schedule under a session and return the telemetry.
fn run_schedule(words: &[u64], n_ranks: usize, trace_id: u64) -> tel::Telemetry {
    let session = tel::Session::begin(trace_id);
    let mut stacks: Vec<Vec<swprof::Span>> = (0..n_ranks).map(|_| Vec::new()).collect();
    let mut deferred: Vec<(tel::TraceContext, u64)> = Vec::new();
    for &w in words {
        match decode(w, n_ranks) {
            Op::OpenSpan { rank, label } => stacks[rank].push(tel::span_on(rank, label)),
            Op::CloseSpan { rank } => drop(stacks[rank].pop()),
            Op::Tick { rank, ns } => tel::tick_on(rank, ns),
            Op::SendNow {
                src,
                dst,
                label,
                wire,
            } => {
                if let Some(ctx) = tel::send_from(label, src, dst) {
                    tel::deliver(&ctx, wire);
                }
            }
            Op::SendDeferred {
                src,
                dst,
                label,
                wire,
            } => {
                if let Some(ctx) = tel::send_from(label, src, dst) {
                    deferred.push((ctx, wire));
                }
            }
        }
    }
    // Deliver the deferred sends last — and in *reverse* send order, so
    // the schedule exercises genuinely out-of-order arrival.
    for (ctx, wire) in deferred.iter().rev() {
        tel::deliver(ctx, *wire);
    }
    for stack in &mut stacks {
        while stack.pop().is_some() {}
    }
    session.finish()
}

proptest! {
    /// Any schedule yields causal telemetry with no orphan flows.
    #[test]
    fn random_schedules_are_causal(
        words in proptest::collection::vec(any::<u64>(), 1..200),
        n_seed in any::<u64>(),
    ) {
        let n_ranks = 2 + (n_seed % 4) as usize; // 2..=5 ranks
        let tel = run_schedule(&words, n_ranks, 0xCA5A);
        if let Err(e) = tel.check_causal() {
            return Err(format!("not causal: {e}"));
        }
        prop_assert_eq!(tel.undelivered_flows(), 0, "every send was delivered");
        // One send + one receive per logical message.
        prop_assert_eq!(tel.flows.len() % 2, 0);
    }

    /// The emitted Chrome document never shows a receive ("f") at an
    /// earlier timestamp than its send ("s"), for any schedule.
    #[test]
    fn merged_trace_never_shows_recv_before_send(
        words in proptest::collection::vec(any::<u64>(), 1..120),
        n_seed in any::<u64>(),
    ) {
        let n_ranks = 2 + (n_seed % 4) as usize;
        let tel = run_schedule(&words, n_ranks, 0xD0C5);
        let doc = parse(&tel.to_chrome_trace()).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let mut sends = std::collections::HashMap::new();
        let mut recvs = std::collections::HashMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            if ph != "s" && ph != "f" {
                continue;
            }
            let id = ev.get("id").and_then(Value::as_num).unwrap() as u64;
            let ts = ev.get("ts").and_then(Value::as_num).unwrap();
            let seen = if ph == "s" { &mut sends } else { &mut recvs };
            prop_assert!(seen.insert(id, ts).is_none(), "flow {} repeated phase {}", id, ph);
        }
        prop_assert_eq!(sends.len(), recvs.len());
        for (id, send_ts) in &sends {
            let recv_ts = recvs.get(id).expect("flow has a receive");
            prop_assert!(
                recv_ts >= send_ts,
                "flow {}: recv ts {} before send ts {}", id, recv_ts, send_ts
            );
        }
    }
}
