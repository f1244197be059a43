//! Always-on flight recorder: a fixed-capacity, allocation-free ring
//! of recent events, dumped as a black-box file on aborts.
//!
//! Unlike the tracing session, the recorder has no enable switch and no
//! owner — a black box that has to be armed, or that only the thread
//! that armed it writes to, is useless. The ring is the one piece of
//! telemetry state that stays process-wide: it gates no behaviour and
//! nothing simulated reads it (per-owner rings belong to the roadmap's
//! telemetry-pipeline item). Cost per record is one mutex lock and a
//! few word stores into a const-initialized array of `Copy` structs
//! (`&'static str` labels, no allocation ever); `tests/overhead.rs`
//! bounds it at a microsecond.
//!
//! Producers:
//! - `swfault::decide` — every fired fault decision (`kind: "fault"`)
//! - `swgmx::engine` — stage charges and kernel-fault absorption
//! - `swstore` — generation commits and fsync retries (`kind: "store"`)
//! - `mdsim::ddrun`/`durable` + `swgmx::recovery` — rollbacks and rank
//!   deaths (`kind: "abort"`), which also trigger [`dump_to`].
//!
//! The dump is a self-contained JSON file written next to the swstore
//! generation chain so a post-mortem can line the last ~[`CAPACITY`]
//! events up against the generations on disk.

use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::json;

/// Ring capacity: the black box holds the last 256 events.
pub const CAPACITY: usize = 256;

/// One flight-recorder entry. `a`/`b` are event-specific payload words
/// (e.g. cycles + aux counter for a stage, epoch + frame count for a
/// store commit, rank + step for an abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (total events ever recorded when this
    /// entry was written; never resets while the process lives).
    pub seq: u64,
    /// Coarse event class: `"stage"`, `"fault"`, `"store"`, `"abort"`.
    pub kind: &'static str,
    /// Event label within the class.
    pub label: &'static str,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

const EMPTY: FlightEvent = FlightEvent {
    seq: 0,
    kind: "",
    label: "",
    a: 0,
    b: 0,
};

struct Ring {
    events: [FlightEvent; CAPACITY],
    recorded: u64,
}

// swrace: allow(SWC010) the always-on black box: no session to own it, gates no behaviour
static RING: Mutex<Ring> = Mutex::new(Ring {
    events: [EMPTY; CAPACITY],
    recorded: 0,
});

/// Record an event. Always on; allocation-free.
pub fn record(kind: &'static str, label: &'static str, a: u64, b: u64) {
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let seq = ring.recorded;
    ring.events[(seq % CAPACITY as u64) as usize] = FlightEvent {
        seq,
        kind,
        label,
        a,
        b,
    };
    ring.recorded = seq + 1;
}

/// Total events ever recorded (not capped at [`CAPACITY`]).
pub fn recorded() -> u64 {
    RING.lock().unwrap_or_else(|e| e.into_inner()).recorded
}

/// The surviving events, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    snapshot_with_count().0
}

/// The surviving events and the total ever recorded, read under one
/// lock so the count is the last event's `seq + 1` whoever else is
/// recording.
fn snapshot_with_count() -> (Vec<FlightEvent>, u64) {
    let ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let n = ring.recorded.min(CAPACITY as u64);
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        let seq = ring.recorded - n + i;
        out.push(ring.events[(seq % CAPACITY as u64) as usize]);
    }
    (out, ring.recorded)
}

/// Serialize the current ring as a self-contained JSON document.
fn dump_json() -> String {
    let (events, recorded) = snapshot_with_count();
    let mut out = String::with_capacity(64 + events.len() * 80);
    out.push_str("{\"capacity\":");
    out.push_str(&CAPACITY.to_string());
    out.push_str(",\"recorded\":");
    out.push_str(&recorded.to_string());
    out.push_str(",\"events\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"seq\":");
        out.push_str(&ev.seq.to_string());
        out.push_str(",\"kind\":");
        out.push_str(&json::escaped(ev.kind));
        out.push_str(",\"label\":");
        out.push_str(&json::escaped(ev.label));
        out.push_str(",\"a\":");
        out.push_str(&ev.a.to_string());
        out.push_str(",\"b\":");
        out.push_str(&ev.b.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Write the black-box dump to `path` (parent directories created).
pub fn dump_to(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, dump_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Unit tests share the process-global ring with every other test
    // in this binary: each judges only its own records, the ones past
    // `recorded()` as it was before they were made. This lock keeps the
    // flood of the tearing test from evicting another's records.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let from = recorded();
        for i in 0..(CAPACITY as u64 + 10) {
            record("stage", "ring_test", i, 0);
        }
        let snap = snapshot();
        assert_eq!(snap.len(), CAPACITY);
        assert!(snap.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        // The ten oldest of this test's records are evicted; what is left
        // of them is an unbroken run ending at the newest.
        let kept: Vec<FlightEvent> = snap
            .into_iter()
            .filter(|e| e.seq >= from && e.label == "ring_test")
            .collect();
        assert!(kept.first().unwrap().a >= 10);
        assert_eq!(kept.last().unwrap().a, CAPACITY as u64 + 9);
        assert!(kept.windows(2).all(|w| w[1].a == w[0].a + 1));
    }

    #[test]
    fn dump_is_valid_json_and_ordered() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let from = recorded();
        record("abort", "dump_test_kill", 2, 17);
        record("store", "dump_test_commit", 20, 1);
        let doc = dump_json();
        let parsed = json::parse(&doc).expect("dump parses");
        let events = parsed.get("events").and_then(|v| v.as_arr()).unwrap();
        let field = |e: &json::Value, k: &str| e.get(k).and_then(|v| v.as_str()).map(String::from);
        let mine: Vec<(String, String)> = events
            .iter()
            .filter(|e| e.get("seq").and_then(|v| v.as_num()).unwrap() >= from as f64)
            .filter_map(|e| Some((field(e, "kind")?, field(e, "label")?)))
            .filter(|(_, label)| label.starts_with("dump_test_"))
            .collect();
        let pair = |k: &str, l: &str| (k.to_string(), l.to_string());
        assert_eq!(
            mine,
            [
                pair("abort", "dump_test_kill"),
                pair("store", "dump_test_commit")
            ]
        );
    }

    #[test]
    fn a_dump_taken_while_others_record_is_not_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let stop = AtomicBool::new(false);
        let started = Barrier::new(3);
        // Dumps are judged after the recorders are told to stop: a
        // panic inside the scope would wait for them forever.
        let dumps: Vec<String> = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    record("stage", "force", 0, 0);
                    started.wait();
                    while !stop.load(Ordering::Relaxed) {
                        record("stage", "force", 0, 0);
                    }
                });
            }
            started.wait();
            let dumps = (0..500).map(|_| dump_json()).collect();
            stop.store(true, Ordering::Relaxed);
            dumps
        });
        for dump in dumps {
            let parsed = json::parse(&dump).expect("dump parses");
            let recorded = parsed.get("recorded").and_then(|v| v.as_num()).unwrap();
            let events = parsed.get("events").and_then(|v| v.as_arr()).unwrap();
            let last = events.last().unwrap().get("seq").unwrap();
            assert_eq!(recorded, last.as_num().unwrap() + 1.0);
        }
    }
}
