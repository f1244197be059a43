//! Flight recorder: a fixed-capacity, allocation-free ring of recent
//! events, dumped as a black-box file on aborts.
//!
//! A ring belongs to the run whose aborts it explains, like the state
//! of every other plane ([`crate::scope`]): the code that writes a dump
//! owns one [`Ring`] and enters it ([`Ring::enter`]) while it runs, and
//! the lanes of the regions it runs enter it with the other planes'
//! handles. [`record`] writes into the calling thread's ring; a ring
//! entered inside another shadows it until its guard drops, so a dump
//! holds its own run's history and nobody else's. On a thread with no
//! ring a record is one thread-local flag read and lands nowhere. With
//! a ring it is one mutex lock and a few word stores into the ring's
//! array of `Copy` structs (`&'static str` labels, no allocation);
//! `tests/overhead.rs` bounds both at a microsecond.
//!
//! Producers:
//! - `swfault::decide` — every fired fault decision (`kind: "fault"`)
//! - `swgmx::engine` — stage charges and kernel-fault absorption
//! - `swstore` — generation commits and fsync retries (`kind: "store"`)
//! - `mdsim::ddrun`/`durable` + `swgmx::recovery` — rollbacks and rank
//!   deaths (`kind: "abort"`); the last two own rings and [`Ring::dump_to`]
//!   them.
//!
//! The dump is a self-contained JSON file written next to the swstore
//! generation chain so a post-mortem can line the last ~[`CAPACITY`]
//! events up against the generations on disk.

use std::cell::{Cell, RefCell};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json;
use crate::scope::{lock, Entered, Handle, Plane, Slot};

/// Ring capacity: the black box holds the last 256 events.
pub const CAPACITY: usize = 256;

/// One flight-recorder entry. `a`/`b` are event-specific payload words
/// (e.g. cycles + aux counter for a stage, epoch + frame count for a
/// store commit, rank + step for an abort).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (events its ring had recorded when this
    /// entry was written).
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

/// One owner's black box: the last [`CAPACITY`] events recorded by the
/// threads that entered it, and how many there were.
pub struct Ring(Mutex<Events>);

struct Events {
    events: [FlightEvent; CAPACITY],
    recorded: u64,
}

thread_local! {
    static FLIGHT_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static FLIGHT_SLOT: Slot<Ring> = const { RefCell::new(None) };
}
const FLIGHT: Plane<Ring> = Plane::new(&FLIGHT_ACTIVE, &FLIGHT_SLOT);

/// The calling thread's handle on the ring it records into: what the
/// lane executor's lanes enter to record there too.
pub fn handle() -> Handle<Ring> {
    FLIGHT.handle()
}

/// Record an event into the calling thread's ring, if any; allocation-free.
#[inline]
pub fn record(kind: &'static str, label: &'static str, a: u64, b: u64) {
    FLIGHT.with(|ring| {
        let mut ring = lock(&ring.0);
        let seq = ring.recorded;
        ring.events[(seq % CAPACITY as u64) as usize] = FlightEvent {
            seq,
            kind,
            label,
            a,
            b,
        };
        ring.recorded = seq + 1;
    });
}

impl Ring {
    /// An empty ring, allocated once with its owner.
    pub fn new() -> Arc<Self> {
        Arc::new(Self(Mutex::new(Events {
            events: [FlightEvent::default(); CAPACITY],
            recorded: 0,
        })))
    }

    /// Make the calling thread record into this ring until the guard drops.
    pub fn enter(self: &Arc<Self>) -> Entered<Ring> {
        FLIGHT.enter(self)
    }

    /// Total events ever recorded here (not capped at [`CAPACITY`]).
    pub fn recorded(&self) -> u64 {
        lock(&self.0).recorded
    }

    /// The surviving events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.snapshot_with_count().0
    }

    /// The surviving events and the total ever recorded, read under one
    /// lock so the count is the last event's `seq + 1` whoever else is
    /// recording.
    fn snapshot_with_count(&self) -> (Vec<FlightEvent>, u64) {
        let ring = lock(&self.0);
        let n = ring.recorded.min(CAPACITY as u64);
        let mut out = Vec::with_capacity(n as usize);
        for i in 0..n {
            let seq = ring.recorded - n + i;
            out.push(ring.events[(seq % CAPACITY as u64) as usize]);
        }
        (out, ring.recorded)
    }

    /// Serialize the ring as a self-contained JSON document.
    fn dump_json(&self) -> String {
        let (events, recorded) = self.snapshot_with_count();
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
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.dump_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let ring = Ring::new();
        let _armed = ring.enter();
        for i in 0..(CAPACITY as u64 + 10) {
            record("stage", "ring_test", i, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), CAPACITY);
        assert_eq!(ring.recorded(), CAPACITY as u64 + 10);
        // The ten oldest are evicted; the rest is an unbroken run
        // ending at the newest.
        assert!(snap.iter().all(|e| e.seq == e.a && e.label == "ring_test"));
        assert_eq!(snap.first().unwrap().a, 10);
        assert_eq!(snap.last().unwrap().a, CAPACITY as u64 + 9);
        assert!(snap.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    }

    #[test]
    fn dump_is_valid_json_and_ordered() {
        let ring = Ring::new();
        let _armed = ring.enter();
        record("abort", "dump_test_kill", 2, 17);
        record("store", "dump_test_commit", 20, 1);
        let doc = ring.dump_json();
        let parsed = json::parse(&doc).expect("dump parses");
        let events = parsed.get("events").and_then(|v| v.as_arr()).unwrap();
        let field = |e: &json::Value, k: &str| e.get(k).and_then(|v| v.as_str()).map(String::from);
        let records: Vec<(String, String)> = events
            .iter()
            .filter_map(|e| Some((field(e, "kind")?, field(e, "label")?)))
            .collect();
        let pair = |k: &str, l: &str| (k.to_string(), l.to_string());
        assert_eq!(
            records,
            [
                pair("abort", "dump_test_kill"),
                pair("store", "dump_test_commit")
            ]
        );
        assert_eq!(parsed.get("recorded").and_then(|v| v.as_num()), Some(2.0));
    }

    #[test]
    fn a_record_lands_in_the_innermost_ring_of_its_own_thread() {
        record("stage", "nowhere", 0, 0); // no ring: dropped
        let outer = Ring::new();
        let _outer = outer.enter();
        record("stage", "outer", 0, 0);
        {
            let inner = Ring::new();
            let _inner = inner.enter();
            record("stage", "inner", 0, 0);
            std::thread::scope(|s| {
                s.spawn(|| record("stage", "other thread", 0, 0));
            });
            let labels: Vec<_> = inner.snapshot().iter().map(|e| e.label).collect();
            assert_eq!(labels, ["inner"]);
        }
        record("stage", "outer again", 0, 0);
        let labels: Vec<_> = outer.snapshot().iter().map(|e| e.label).collect();
        assert_eq!(labels, ["outer", "outer again"]);
    }

    #[test]
    fn a_dump_taken_while_others_record_is_not_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        let ring = Ring::new();
        let stop = AtomicBool::new(false);
        let started = Barrier::new(3);
        // Dumps are judged after the recorders are told to stop: a
        // panic inside the scope would wait for them forever.
        let dumps: Vec<String> = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _armed = ring.enter();
                    record("stage", "force", 0, 0);
                    started.wait();
                    while !stop.load(Ordering::Relaxed) {
                        record("stage", "force", 0, 0);
                    }
                });
            }
            started.wait();
            let dumps = (0..500).map(|_| ring.dump_json()).collect();
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
