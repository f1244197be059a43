//! Cross-rank causal tracing and flight recording for the simulated
//! Sunway substrate.
//!
//! The span profiler at the crate root sees one rank at a time: every
//! span and metric lands on a per-process timeline and there is no way
//! to express "rank 2's halo receive *happened because of* rank 1's
//! send". This module adds the cross-rank layer:
//!
//! - **Causal tracing** ([`Session`], [`span`], [`send_from`], [`deliver`]):
//!   a session has one `trace_id` and a virtual-nanosecond clock per
//!   rank. Messages carry a [`TraceContext`] `(trace_id,
//!   parent_span_id, seqno)` injected at the send site; delivery
//!   advances the destination clock to
//!   `max(dst_clock, send_ns + wire_ns)`, so the merged timeline is
//!   causal *by construction* — no wall clock is ever read.
//! - **Flight recorder** ([`flight`]): a fixed-capacity, allocation-free
//!   ring of recent events, owned by the run that dumps it as a
//!   black-box file when `swfault` kills a rank or a step rolls back.
//! - **Straggler detection** ([`straggler`]): EWMA-smoothed per-rank
//!   step latency vs. the fleet median, flagged at a MAD threshold.
//! - **Trace merge** ([`merge`], [`Telemetry::to_chrome_trace`]):
//!   per-rank Chrome traces combined into one global timeline with
//!   flow events (`ph: "s"` / `"f"`) linking each send to its receive.
//!
//! A tracing session is a profiler [`Recording`] opened on this plane:
//! rank spans are [`SpanEvent`]s opened through [`Span`], and flows sit
//! in the same ordered record, whose order is the export's. The planes
//! stay apart so a traced serving run does not also record every CPE
//! span of the jobs it runs. A session is scoped to the thread that
//! opened it and the lanes of the regions it runs ([`crate::scope`]);
//! everything is gated on one thread-local read ([`enabled`]).
//! On a thread with no session the instrumentation in
//! `swnet`/`mdsim`/`swgmx` is a handful of no-op calls, held to the
//! same microsecond budget as the profiler's (`tests/overhead.rs`). A
//! flight ring is a plane of its own, scoped the same way: its owner is
//! the run that dumps it, not a tracing session — see [`flight`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use crate::scope::{lock, Handle, Plane, Scope, Slot, Who};
use crate::{Entry, Recording, Span, SpanEvent};

pub mod flight;
pub mod merge;
pub mod straggler;

/// Fast check: does the calling thread work for a tracing session? One
/// thread-local read.
#[inline(always)]
pub fn enabled() -> bool {
    TEL.active()
}

thread_local! {
    static TEL_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TEL_SLOT: Slot<Recording> = const { RefCell::new(None) };
}
const TEL: Plane<Recording> = Plane::new(&TEL_ACTIVE, &TEL_SLOT);

/// The calling thread's handle on the tracing session it works for:
/// what the lane executor's lanes enter to record there too.
pub fn handle() -> Handle<Recording> {
    TEL.handle()
}

/// Which side of a message a [`FlowEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Context injected at the send site.
    Send,
    /// Context extracted at delivery.
    Recv,
}

/// One endpoint of a cross-rank message flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowEvent {
    /// Send or Recv.
    pub phase: FlowPhase,
    /// Session-unique flow id shared by the send and its receive.
    pub flow_id: u64,
    /// Trace id of the owning session.
    pub trace_id: u64,
    /// Span open at the send site when the context was injected
    /// (0 = no enclosing span).
    pub parent_span_id: u64,
    /// Channel sequence number carried by the message.
    pub seqno: u64,
    /// Rank on whose timeline this endpoint sits.
    pub rank: usize,
    /// The other endpoint's rank.
    pub peer: usize,
    /// Virtual nanoseconds on `rank`'s clock.
    pub ns: u64,
    /// Static message label (e.g. `"halo.f"`, `"barrier"`).
    pub label: &'static str,
}

/// The causal context injected into a message at its send site and
/// extracted (via [`deliver`]) at the receiver.
#[derive(Debug, Clone, Copy)]
pub struct TraceContext {
    /// Trace id of the owning session.
    pub trace_id: u64,
    /// Span open at the send site (0 = none).
    pub parent_span_id: u64,
    /// Channel sequence number.
    pub seqno: u64,
    /// Flow id pairing this send with its eventual receive.
    pub flow_id: u64,
    /// Sending rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Send timestamp (virtual ns on `src`'s clock).
    pub send_ns: u64,
    /// Message label.
    pub label: &'static str,
}

impl FlowEvent {
    /// `ctx`'s endpoint on the `phase` side, at `ns` on its rank.
    fn of(phase: FlowPhase, ctx: &TraceContext, ns: u64) -> Self {
        let (rank, peer) = match phase {
            FlowPhase::Send => (ctx.src, ctx.dst),
            FlowPhase::Recv => (ctx.dst, ctx.src),
        };
        Self {
            phase,
            flow_id: ctx.flow_id,
            trace_id: ctx.trace_id,
            parent_span_id: ctx.parent_span_id,
            seqno: ctx.seqno,
            rank,
            peer,
            ns,
            label: ctx.label,
        }
    }
}

/// A telemetry session: a [`Recording`] on the tracing plane, scoped to
/// the thread that opened it. Begin one, run the traced workload, then
/// [`finish`](Session::finish) it into a [`Telemetry`].
pub struct Session {
    scope: Scope<Recording>,
}

impl Session {
    /// Start a session with the given trace id on the calling thread,
    /// enabling the instrumentation hooks for it. Never blocks: sessions
    /// on other threads are independent.
    pub fn begin(trace_id: u64) -> Self {
        Session {
            scope: TEL.open(Recording::new(trace_id)),
        }
    }

    /// Stop the session and return the captured telemetry.
    pub fn finish(self) -> Telemetry {
        let recording = self.scope.state();
        let entries = std::mem::take(&mut lock(&recording.log).entries);
        let mut tel = Telemetry {
            trace_id: recording.trace_id,
            n_ranks: recording.touched.load(Ordering::Relaxed),
            spans: Vec::new(),
            flows: Vec::new(),
            order: Vec::with_capacity(entries.len()),
        };
        for entry in entries {
            tel.order.push(matches!(entry, Entry::Flow(_)));
            match entry {
                Entry::Span(span) => tel.spans.push(span),
                Entry::Flow(flow) => tel.flows.push(flow),
            }
        }
        tel
    }
}

/// Open a span on the calling thread's bound rank. Records nothing when
/// the thread has no session or no rank is bound.
pub fn span(label: &'static str) -> Span {
    match Who::current().rank {
        Some(rank) => span_on(rank, label),
        None => Span::open(None, None, label.into()),
    }
}

/// Open a span on an explicit rank's timeline.
pub fn span_on(rank: usize, label: &'static str) -> Span {
    Span::open(TEL.handle().into_state(), Some(rank), label.into())
}

/// Advance the bound rank's virtual clock by `ns` nanoseconds.
pub fn tick(ns: u64) {
    if let Some(rank) = Who::current().rank {
        tick_on(rank, ns);
    }
}

/// Advance `rank`'s virtual clock by `ns` nanoseconds.
pub fn tick_on(rank: usize, ns: u64) {
    TEL.with(|r| {
        r.touch(Some(rank));
        r.cursor(Some(rank), |c| c.fetch_add(ns, Ordering::Relaxed));
    });
}

/// Current virtual-ns position of `rank`'s clock.
pub fn cursor(rank: usize) -> u64 {
    TEL.with(|r| r.now(Some(rank))).unwrap_or(0)
}

/// Advance `rank`'s clock to at least `ns` (clocks never move back).
pub fn align(rank: usize, ns: u64) {
    TEL.with(|r| {
        r.touch(Some(rank));
        r.cursor(Some(rank), |c| c.fetch_max(ns, Ordering::Relaxed));
    });
}

/// Inject a send context from an explicit `src` rank, with an
/// auto-assigned per-`(src, dst, label)` seqno.
pub fn send_from(label: &'static str, src: usize, dst: usize) -> Option<TraceContext> {
    let seqno = TEL.with(|r| {
        let mut log = lock(&r.log);
        let seq = log.seqnos.entry((src, dst, label)).or_insert(0);
        *seq += 1;
        *seq - 1
    })?;
    send_seq(label, src, dst, seqno)
}

/// Inject a send context carrying an explicit channel seqno (used by
/// `swnet::SeqChannel`, whose high-water marks own the numbering).
pub fn send_seq(label: &'static str, src: usize, dst: usize, seqno: u64) -> Option<TraceContext> {
    TEL.with(|r| {
        r.touch(Some(src));
        r.touch(Some(dst));
        let mut log = lock(&r.log);
        log.sent += 1;
        let parent = log.open.get(&Some(src)).and_then(|open| open.last());
        let ctx = TraceContext {
            trace_id: r.trace_id,
            parent_span_id: parent.copied().unwrap_or(0),
            seqno,
            flow_id: log.sent,
            src,
            dst,
            send_ns: r.now(Some(src)),
            label,
        };
        let send = FlowEvent::of(FlowPhase::Send, &ctx, ctx.send_ns);
        log.entries.push(Entry::Flow(send));
        ctx
    })
}

/// Extract a context at the destination: advances the destination
/// clock to `max(dst_clock, send_ns + wire_ns)` and records the
/// receive endpoint. This is what makes the merged timeline causal —
/// a receive can never be stamped before its send.
pub fn deliver(ctx: &TraceContext, wire_ns: u64) {
    TEL.with(|r| {
        if r.trace_id != ctx.trace_id {
            return; // context escaped from another session
        }
        r.touch(Some(ctx.dst));
        let mut log = lock(&r.log);
        let arrive = ctx.send_ns.saturating_add(wire_ns);
        let ns = r.cursor(Some(ctx.dst), |c| {
            c.fetch_max(arrive, Ordering::Relaxed).max(arrive)
        });
        let recv = FlowEvent::of(FlowPhase::Recv, ctx, ns);
        log.entries.push(Entry::Flow(recv));
    });
}

/// Everything one session captured: per-rank span streams plus the
/// cross-rank flow endpoints, on one shared virtual-ns timebase. A
/// rank span is a [`SpanEvent`] on track `Some(rank)` with its clock in
/// `ts`; its span id numbers its Begin among all Begins, from 1.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The session's trace id (stamped into every flow event).
    pub trace_id: u64,
    /// Number of rank timelines touched.
    pub n_ranks: usize,
    /// Span Begin/End events, in record order.
    pub spans: Vec<SpanEvent>,
    /// Flow send/recv endpoints, in record order.
    pub flows: Vec<FlowEvent>,
    /// The record's interleaving of the two: per event, whether it is
    /// the next flow (else the next span).
    order: Vec<bool>,
}

impl Telemetry {
    /// Validate causal structure:
    ///
    /// - per rank, span events are balanced and well nested
    ///   ([`crate::closed_spans`]) with non-decreasing timestamps in
    ///   record order;
    /// - every flow id has exactly one Send and at most one Recv, a
    ///   Recv is never earlier than its Send, and the endpoint
    ///   rank/peer/label/seqno fields agree.
    pub fn check_causal(&self) -> Result<(), String> {
        let mut last_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for ev in &self.spans {
            let rank = rank_of(ev);
            let prev = last_ns.entry(rank).or_insert(0);
            if ev.ts < *prev {
                return Err(format!(
                    "rank {rank} clock moved backwards: {} after {prev} (span `{}`)",
                    ev.ts, ev.label
                ));
            }
            *prev = ev.ts;
        }
        crate::closed_spans(&self.spans)?;

        let mut by_flow: BTreeMap<u64, (Option<&FlowEvent>, Option<&FlowEvent>)> = BTreeMap::new();
        for ev in &self.flows {
            if ev.trace_id != self.trace_id {
                return Err(format!(
                    "flow {} carries trace_id {:#x}, session is {:#x}",
                    ev.flow_id, ev.trace_id, self.trace_id
                ));
            }
            let (send, recv) = by_flow.entry(ev.flow_id).or_insert((None, None));
            let end = match ev.phase {
                FlowPhase::Send => send,
                FlowPhase::Recv => recv,
            };
            if end.replace(ev).is_some() {
                return Err(format!("flow {}: duplicate {:?}", ev.flow_id, ev.phase));
            }
        }
        for (id, (send, recv)) in &by_flow {
            let send = send.ok_or_else(|| format!("flow {id}: receive with no send"))?;
            let Some(recv) = recv else {
                continue; // in-flight at session end: allowed
            };
            if recv.ns < send.ns {
                return Err(format!(
                    "flow {id} (`{}`): receive at {} precedes send at {}",
                    send.label, recv.ns, send.ns
                ));
            }
            if send.peer != recv.rank || recv.peer != send.rank {
                return Err(format!(
                    "flow {id}: endpoints disagree ({} -> {} vs {} <- {})",
                    send.rank, send.peer, recv.rank, recv.peer
                ));
            }
            if send.label != recv.label || send.seqno != recv.seqno {
                return Err(format!(
                    "flow {id}: label/seqno mismatch ({}#{} vs {}#{})",
                    send.label, send.seqno, recv.label, recv.seqno
                ));
            }
        }
        Ok(())
    }

    /// Per-rank durations (ns) of every closed span named `label`,
    /// indexed by rank, in the order they closed; none from an
    /// unbalanced stream. Feed `detect` in [`straggler`] with these.
    pub fn span_durations(&self, label: &str) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); self.n_ranks];
        for span in crate::closed_spans(&self.spans).unwrap_or_default() {
            if span.label == label {
                out[span.track.unwrap_or_default()].push(span.cycles());
            }
        }
        out
    }

    /// Count of flow sends that were never delivered (in flight at
    /// session end). Duplicate-discard tests assert this stays 0.
    pub fn undelivered_flows(&self) -> usize {
        let mut sends: BTreeMap<u64, bool> = BTreeMap::new();
        for ev in &self.flows {
            match ev.phase {
                FlowPhase::Send => {
                    sends.entry(ev.flow_id).or_insert(false);
                }
                FlowPhase::Recv => {
                    sends.insert(ev.flow_id, true);
                }
            }
        }
        sends.values().filter(|&&delivered| !delivered).count()
    }
}

/// The rank whose timeline a span event is on.
fn rank_of(ev: &SpanEvent) -> usize {
    ev.track.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_captures_causal_spans_and_flows() {
        let session = Session::begin(0xfeed);
        let _rank0 = Who {
            rank: Some(0),
            ..Who::current()
        }
        .enter();
        {
            let _outer = span("step");
            tick(100);
            let ctx = send_from("halo.f", 0, 1).expect("enabled");
            assert_eq!(ctx.trace_id, 0xfeed);
            assert_eq!(ctx.send_ns, 100);
            tick(20);
            deliver(&ctx, 50);
        }
        let tel = session.finish();
        assert_eq!(tel.n_ranks, 2);
        tel.check_causal().expect("causal");
        // recv lands at send_ns + wire = 150 on rank 1's fresh clock.
        let recv = tel
            .flows
            .iter()
            .find(|f| f.phase == FlowPhase::Recv)
            .unwrap();
        assert_eq!(recv.ns, 150);
        assert_eq!(recv.rank, 1);
        assert_eq!(recv.peer, 0);
        assert_eq!(tel.undelivered_flows(), 0);
    }

    #[test]
    fn deliver_never_rewinds_a_busy_destination_clock() {
        let session = Session::begin(7);
        let _rank0 = Who {
            rank: Some(0),
            ..Who::current()
        }
        .enter();
        let ctx = send_from("m", 0, 1).unwrap();
        tick_on(1, 10_000); // rank 1 is already far ahead
        deliver(&ctx, 10);
        let tel = session.finish();
        let recv = tel
            .flows
            .iter()
            .find(|f| f.phase == FlowPhase::Recv)
            .unwrap();
        assert_eq!(recv.ns, 10_000, "recv stamped at the busy clock");
        tel.check_causal().unwrap();
    }

    #[test]
    fn disabled_hooks_are_inert() {
        assert!(!enabled());
        assert!(send_from("m", 0, 1).is_none());
        let s = span_on(0, "x");
        assert!(s.open.is_none());
        tick_on(0, 5);
        assert_eq!(cursor(0), 0);
    }

    #[test]
    fn unclosed_span_is_reported() {
        let session = Session::begin(1);
        let s = span_on(0, "leak");
        assert!(s.open.is_some());
        std::mem::forget(s);
        let tel = session.finish();
        let err = tel.check_causal().unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn auto_seq_increments_per_channel() {
        let session = Session::begin(2);
        let a = send_from("halo.f", 0, 1).unwrap();
        let b = send_from("halo.f", 0, 1).unwrap();
        let c = send_from("halo.f", 1, 0).unwrap();
        assert_eq!((a.seqno, b.seqno, c.seqno), (0, 1, 0));
        deliver(&a, 1);
        deliver(&b, 1);
        deliver(&c, 1);
        session.finish().check_causal().unwrap();
    }

    /// What one thread's session captures of a fixed little exchange.
    fn capture(trace_id: u64) -> Telemetry {
        let session = Session::begin(trace_id);
        let _rank0 = Who {
            rank: Some(0),
            ..Who::current()
        }
        .enter();
        for i in 0..200 {
            let _step = span("step");
            tick(trace_id + i);
            let ctx = send_from("halo.f", 0, 1).expect("this thread's session");
            deliver(&ctx, 50);
            align(2, cursor(1));
        }
        session.finish()
    }

    #[test]
    fn concurrent_sessions_equal_their_solo_captures() {
        let key = |t: &Telemetry| format!("{t:?}");
        let solo = [capture(1), capture(1000)];
        let start = std::sync::Barrier::new(3);
        let together = std::thread::scope(|s| {
            let a = s.spawn(|| (start.wait(), capture(1)).1);
            let b = s.spawn(|| (start.wait(), capture(1000)).1);
            start.wait();
            // A bystander with no session of its own touches neither.
            for _ in 0..200 {
                assert!(!enabled());
                tick_on(0, 5);
                assert!(send_from("halo.f", 0, 1).is_none());
                assert!(span_on(0, "step").open.is_none());
            }
            [a.join().unwrap(), b.join().unwrap()]
        });
        for (alone, beside) in solo.iter().zip(&together) {
            alone.check_causal().unwrap();
            assert_eq!(key(alone), key(beside));
        }
    }

    #[test]
    fn a_span_ends_in_the_session_it_was_opened_in() {
        let a = Session::begin(1);
        let outlives_a = span_on(0, "opened_in_a");
        drop(a.finish());
        let b = Session::begin(2);
        drop(outlives_a);
        let tel = b.finish();
        assert!(tel.spans.is_empty(), "{:?}", tel.spans);
    }

    #[test]
    fn reading_a_clock_touches_no_rank() {
        let session = Session::begin(3);
        assert_eq!(cursor(5), 0);
        assert_eq!(session.finish().n_ranks, 0);
        let session = Session::begin(3);
        align(2, 0);
        assert_eq!(session.finish().n_ranks, 3);
    }

    #[test]
    fn a_profile_and_a_trace_on_one_thread_stay_apart() {
        let profile = crate::Session::begin();
        let session = Session::begin(9);
        {
            let _profiled = crate::span("profiled");
            crate::tick(5);
            let _traced = span_on(0, "traced");
            tick_on(0, 7);
            deliver(&send_from("m", 0, 1).unwrap(), 1);
        }
        let tel = session.finish();
        let profile = profile.finish();
        let labels = |spans: &[SpanEvent]| {
            spans
                .iter()
                .map(|e| e.label.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(&profile.spans), ["profiled", "profiled"]);
        assert_eq!(profile.span_totals()["profiled"], 5);
        assert_eq!(labels(&tel.spans), ["traced", "traced"]);
        assert_eq!(tel.span_durations("traced"), [vec![7], vec![]]);
        assert_eq!(tel.flows.len(), 2);
    }
}
