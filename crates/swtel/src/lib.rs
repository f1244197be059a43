//! swtel — cross-rank causal tracing and flight recording for the
//! simulated Sunway substrate.
//!
//! `swprof` (PR 2) sees one rank at a time: every span and metric lands
//! on a per-process timeline and there is no way to express "rank 2's
//! halo receive *happened because of* rank 1's send". This crate adds
//! the cross-rank layer:
//!
//! - **Causal tracing** ([`Session`], [`span`], [`send`], [`deliver`]):
//!   a session owns one `trace_id` and a virtual-nanosecond clock per
//!   rank. Messages carry a [`TraceContext`] `(trace_id,
//!   parent_span_id, seqno)` injected at the send site; delivery
//!   advances the destination clock to
//!   `max(dst_clock, send_ns + wire_ns)`, so the merged timeline is
//!   causal *by construction* — no wall clock is ever read.
//! - **Flight recorder** ([`flight`]): an always-on, fixed-capacity,
//!   allocation-free ring of recent events, dumped as a black-box file
//!   when `swfault` kills a rank or a step rolls back.
//! - **Straggler detection** ([`straggler`]): EWMA-smoothed per-rank
//!   step latency vs. the fleet median, flagged at a MAD threshold.
//! - **Trace merge** ([`merge`], [`Telemetry::to_chrome_trace`]):
//!   per-rank Chrome traces combined into one global timeline with
//!   flow events (`ph: "s"` / `"f"`) linking each send to its receive.
//!
//! A tracing session owns its telemetry state and is scoped to the
//! thread that opened it (`swprof::scope`, the mechanism every plane
//! shares); everything is gated on one thread-local read ([`enabled`]).
//! On a thread with no session the instrumentation in
//! `swnet`/`mdsim`/`swgmx` is a handful of no-op calls, held to the
//! same microsecond budget as `swprof`'s (`tests/overhead.rs`). The
//! flight recorder is the one part with no session — see [`flight`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use swprof::scope::{lock, Plane, Scope, Slot};

pub mod flight;
pub mod merge;
pub mod straggler;

/// Canonical span/flow labels for the request-serving plane
/// (`swserve`), so one merged timeline reads the same in every tool:
/// a request is `submit → admit → schedule → run → deliver`, with the
/// `job.*` flows stitching client, scheduler, and worker ranks.
///
/// Span labels are `&'static str` by the [`span_on`] contract; keeping
/// them here (instead of scattered string literals in the service)
/// makes the taxonomy greppable and collision-free.
pub mod service {
    /// Client-side span around one submit attempt.
    pub const SPAN_SUBMIT: &str = "swserve.submit";
    /// Scheduler-side span around one admission decision.
    pub const SPAN_ADMIT: &str = "swserve.admit";
    /// Scheduler-side span around one dispatch decision.
    pub const SPAN_SCHEDULE: &str = "swserve.schedule";
    /// Worker-side span around one execution quantum.
    pub const SPAN_RUN: &str = "swserve.run";
    /// Scheduler-side span around trajectory delivery.
    pub const SPAN_DELIVER: &str = "swserve.deliver";
    /// Flow: client submit reaching the scheduler.
    pub const FLOW_SUBMIT: &str = "job.submit";
    /// Flow: scheduler dispatching a job to a worker.
    pub const FLOW_DISPATCH: &str = "job.dispatch";
    /// Flow: worker reporting completion to the scheduler.
    pub const FLOW_RESULT: &str = "job.result";
    /// Flow: scheduler delivering the trajectory to the client.
    pub const FLOW_DELIVER: &str = "job.deliver";
}

/// Canonical labels for the telemetry plane's alert events
/// (`swscope`). Every alert lands in the flight recorder with
/// `kind: "scope"` and one of these labels; when a tracing session is
/// active the same label also appears as a zero-length span on the
/// scheduler rank, so burn-rate alerts line up against the causal
/// timeline they indict.
pub mod scope {
    /// Fast-burn SLO alert (page-severity): short-window budget burn.
    pub const ALERT_FAST_BURN: &str = "swscope.alert.fast_burn";
    /// Slow-burn SLO alert (ticket-severity): long-window budget burn.
    pub const ALERT_SLOW_BURN: &str = "swscope.alert.slow_burn";
    /// Worker anomaly flag (straggler EWMA+MAD on quantum durations).
    pub const ALERT_ANOMALY: &str = "swscope.alert.anomaly";
    /// A previously-active alert condition fell back below threshold.
    pub const ALERT_CLEAR: &str = "swscope.alert.clear";
}

/// Fast check: does the calling thread work for a tracing session? One
/// thread-local read.
#[inline(always)]
pub fn enabled() -> bool {
    STATE.active()
}

thread_local! {
    static STATE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE_SLOT: Slot<Mutex<TelState>> = const { RefCell::new(None) };
    static CURRENT_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}
const STATE: Plane<Mutex<TelState>> = Plane::new(&STATE_ACTIVE, &STATE_SLOT);

/// Run `f` on the state of the session the calling thread works for.
fn with_state<R>(f: impl FnOnce(&mut TelState) -> R) -> Option<R> {
    STATE.with(|state| f(&mut lock(state)))
}

/// Bind the calling thread to `rank` (or unbind with `None`). Spans,
/// ticks and sends without an explicit rank use this binding.
pub fn set_rank(rank: Option<usize>) {
    CURRENT_RANK.with(|r| r.set(rank));
}

/// The calling thread's rank binding, if any.
fn current_rank() -> Option<usize> {
    CURRENT_RANK.with(|r| r.get())
}

/// Which side of a span a [`SpanEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One half of a span on a rank's virtual-ns timeline.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Rank whose timeline this event belongs to.
    pub rank: usize,
    /// Static span label.
    pub label: &'static str,
    /// Begin or End.
    pub phase: SpanPhase,
    /// Virtual nanoseconds on `rank`'s clock.
    pub ns: u64,
    /// Session-unique span id; Begin/End of one span share it.
    pub span_id: u64,
    /// Global ordinal: total order in which events were recorded.
    pub ord: u64,
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
    /// Static message label (e.g. `"halo.f"`, `"pme.crossover"`).
    pub label: &'static str,
    /// Global ordinal.
    pub ord: u64,
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

struct TelState {
    trace_id: u64,
    next_span_id: u64,
    next_flow_id: u64,
    next_ord: u64,
    clocks: Vec<u64>,
    stacks: Vec<Vec<(u64, &'static str)>>,
    spans: Vec<SpanEvent>,
    flows: Vec<FlowEvent>,
    auto_seq: BTreeMap<(usize, usize, &'static str), u64>,
}

impl TelState {
    fn new(trace_id: u64) -> Self {
        Self {
            trace_id,
            next_span_id: 1,
            next_flow_id: 1,
            next_ord: 0,
            clocks: Vec::new(),
            stacks: Vec::new(),
            spans: Vec::new(),
            flows: Vec::new(),
            auto_seq: BTreeMap::new(),
        }
    }

    fn ensure_rank(&mut self, rank: usize) {
        if rank >= self.clocks.len() {
            self.clocks.resize(rank + 1, 0);
            self.stacks.resize(rank + 1, Vec::new());
        }
    }

    fn ord(&mut self) -> u64 {
        let o = self.next_ord;
        self.next_ord += 1;
        o
    }

    /// Record one endpoint of `ctx`'s flow, at the current time of the
    /// rank it sits on.
    fn flow_event(&mut self, phase: FlowPhase, ctx: &TraceContext) {
        let (rank, peer) = match phase {
            FlowPhase::Send => (ctx.src, ctx.dst),
            FlowPhase::Recv => (ctx.dst, ctx.src),
        };
        let (ns, ord) = (self.clocks[rank], self.ord());
        self.flows.push(FlowEvent {
            phase,
            flow_id: ctx.flow_id,
            trace_id: ctx.trace_id,
            parent_span_id: ctx.parent_span_id,
            seqno: ctx.seqno,
            rank,
            peer,
            ns,
            label: ctx.label,
            ord,
        });
    }

    /// Record one half of span `span_id` at `rank`'s current time.
    fn span_event(&mut self, rank: usize, label: &'static str, phase: SpanPhase, span_id: u64) {
        let (ns, ord) = (self.clocks[rank], self.ord());
        self.spans.push(SpanEvent {
            rank,
            label,
            phase,
            ns,
            span_id,
            ord,
        });
    }
}

/// A telemetry session, owning its state and scoped to the thread that
/// opened it. Begin one, run the traced workload, then
/// [`finish`](Session::finish) it into a [`Telemetry`].
pub struct Session {
    scope: Scope<Mutex<TelState>>,
}

impl Session {
    /// Start a session with the given trace id on the calling thread,
    /// enabling the instrumentation hooks for it. Never blocks: sessions
    /// on other threads are independent.
    pub fn begin(trace_id: u64) -> Self {
        Session {
            scope: STATE.open(Mutex::new(TelState::new(trace_id))),
        }
    }

    /// Stop the session and return the captured telemetry.
    pub fn finish(self) -> Telemetry {
        let mut state = lock(self.scope.state());
        Telemetry {
            trace_id: state.trace_id,
            n_ranks: state.clocks.len(),
            spans: std::mem::take(&mut state.spans),
            flows: std::mem::take(&mut state.flows),
        }
    }
}

/// RAII span on a rank's virtual timeline. Created by [`span`] /
/// [`span_on`]; records its End event, into the session it was opened
/// in, on drop.
pub struct Span {
    /// `None`: a span that records nothing.
    session: Option<Arc<Mutex<TelState>>>,
    rank: usize,
    span_id: u64,
    label: &'static str,
}

impl Span {
    /// A span that records nothing (no session / no rank bound).
    pub fn disarmed() -> Self {
        Span {
            session: None,
            rank: 0,
            span_id: 0,
            label: "",
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(session) = self.session.take() else {
            return;
        };
        let mut st = lock(&session);
        st.ensure_rank(self.rank);
        // Pop the matching stack entry; tolerate (but record) an
        // out-of-order close so check_causal can report it.
        if let Some(pos) = st.stacks[self.rank]
            .iter()
            .rposition(|&(id, _)| id == self.span_id)
        {
            st.stacks[self.rank].truncate(pos);
        }
        st.span_event(self.rank, self.label, SpanPhase::End, self.span_id);
    }
}

/// Open a span on the calling thread's bound rank. Disarmed when the
/// thread has no session or no rank is bound.
pub fn span(label: &'static str) -> Span {
    match current_rank() {
        Some(rank) => span_on(rank, label),
        None => Span::disarmed(),
    }
}

/// Open a span on an explicit rank's timeline.
pub fn span_on(rank: usize, label: &'static str) -> Span {
    let Some(session) = STATE.handle().into_state() else {
        return Span::disarmed();
    };
    let mut st = lock(&session);
    st.ensure_rank(rank);
    let span_id = st.next_span_id;
    st.next_span_id += 1;
    st.stacks[rank].push((span_id, label));
    st.span_event(rank, label, SpanPhase::Begin, span_id);
    drop(st);
    Span {
        session: Some(session),
        rank,
        span_id,
        label,
    }
}

/// Advance the bound rank's virtual clock by `ns` nanoseconds.
pub fn tick(ns: u64) {
    if let Some(rank) = current_rank() {
        tick_on(rank, ns);
    }
}

/// Advance `rank`'s virtual clock by `ns` nanoseconds.
pub fn tick_on(rank: usize, ns: u64) {
    with_state(|st| {
        st.ensure_rank(rank);
        st.clocks[rank] += ns;
    });
}

/// Current virtual-ns position of `rank`'s clock.
pub fn cursor(rank: usize) -> u64 {
    with_state(|st| {
        st.ensure_rank(rank);
        st.clocks[rank]
    })
    .unwrap_or(0)
}

/// Advance `rank`'s clock to at least `ns` (clocks never move back).
pub fn align(rank: usize, ns: u64) {
    with_state(|st| {
        st.ensure_rank(rank);
        st.clocks[rank] = st.clocks[rank].max(ns);
    });
}

/// Inject a send context from the calling thread's bound rank to
/// `dst`, with an auto-assigned per-`(src, dst, label)` seqno.
pub fn send(label: &'static str, dst: usize) -> Option<TraceContext> {
    let src = current_rank()?;
    send_from(label, src, dst)
}

/// Inject a send context from an explicit `src` rank, with an
/// auto-assigned per-`(src, dst, label)` seqno.
pub fn send_from(label: &'static str, src: usize, dst: usize) -> Option<TraceContext> {
    let seqno = with_state(|st| {
        let seq = st.auto_seq.entry((src, dst, label)).or_insert(0);
        *seq += 1;
        *seq - 1
    })?;
    send_seq(label, src, dst, seqno)
}

/// Inject a send context carrying an explicit channel seqno (used by
/// `swnet::SeqChannel`, whose high-water marks own the numbering).
pub fn send_seq(label: &'static str, src: usize, dst: usize, seqno: u64) -> Option<TraceContext> {
    with_state(|st| {
        st.ensure_rank(src);
        st.ensure_rank(dst);
        let flow_id = st.next_flow_id;
        st.next_flow_id += 1;
        let ctx = TraceContext {
            trace_id: st.trace_id,
            parent_span_id: st.stacks[src].last().map(|&(id, _)| id).unwrap_or(0),
            seqno,
            flow_id,
            src,
            dst,
            send_ns: st.clocks[src],
            label,
        };
        st.flow_event(FlowPhase::Send, &ctx);
        ctx
    })
}

/// Extract a context at the destination: advances the destination
/// clock to `max(dst_clock, send_ns + wire_ns)` and records the
/// receive endpoint. This is what makes the merged timeline causal —
/// a receive can never be stamped before its send.
pub fn deliver(ctx: &TraceContext, wire_ns: u64) {
    with_state(|st| {
        if st.trace_id != ctx.trace_id {
            return; // context escaped from another session
        }
        st.ensure_rank(ctx.dst);
        let arrive = ctx.send_ns.saturating_add(wire_ns);
        st.clocks[ctx.dst] = st.clocks[ctx.dst].max(arrive);
        st.flow_event(FlowPhase::Recv, ctx);
    });
}

/// Everything one session captured: per-rank span streams plus the
/// cross-rank flow endpoints, on one shared virtual-ns timebase.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The session's trace id (stamped into every flow event).
    pub trace_id: u64,
    /// Number of rank timelines touched.
    pub n_ranks: usize,
    /// Span Begin/End events, in global record order.
    pub spans: Vec<SpanEvent>,
    /// Flow send/recv endpoints, in global record order.
    pub flows: Vec<FlowEvent>,
}

impl Telemetry {
    /// Validate causal structure:
    ///
    /// - per rank, span events are balanced and well nested (every End
    ///   matches the innermost open Begin) with non-decreasing
    ///   timestamps in record order;
    /// - every flow id has exactly one Send and at most one Recv, a
    ///   Recv is never earlier than its Send, and the endpoint
    ///   rank/peer/label/seqno fields agree.
    pub fn check_causal(&self) -> Result<(), String> {
        let mut stacks: BTreeMap<usize, Vec<(u64, &'static str)>> = BTreeMap::new();
        let mut last_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for ev in &self.spans {
            let prev = last_ns.entry(ev.rank).or_insert(0);
            if ev.ns < *prev {
                return Err(format!(
                    "rank {} clock moved backwards: {} after {} (span `{}`)",
                    ev.rank, ev.ns, prev, ev.label
                ));
            }
            *prev = ev.ns;
            let stack = stacks.entry(ev.rank).or_default();
            match ev.phase {
                SpanPhase::Begin => stack.push((ev.span_id, ev.label)),
                SpanPhase::End => match stack.pop() {
                    Some((id, label)) if id == ev.span_id && label == ev.label => {}
                    Some((id, label)) => {
                        return Err(format!(
                            "rank {}: span `{}` (id {}) closed while `{}` (id {}) was innermost",
                            ev.rank, ev.label, ev.span_id, label, id
                        ));
                    }
                    None => {
                        return Err(format!(
                            "rank {}: End for span `{}` (id {}) with no open span",
                            ev.rank, ev.label, ev.span_id
                        ));
                    }
                },
            }
        }
        for (rank, stack) in &stacks {
            if let Some((id, label)) = stack.last() {
                return Err(format!(
                    "rank {rank}: span `{label}` (id {id}) never closed"
                ));
            }
        }

        let mut by_flow: BTreeMap<u64, (Option<&FlowEvent>, Option<&FlowEvent>)> = BTreeMap::new();
        for ev in &self.flows {
            if ev.trace_id != self.trace_id {
                return Err(format!(
                    "flow {} carries trace_id {:#x}, session is {:#x}",
                    ev.flow_id, ev.trace_id, self.trace_id
                ));
            }
            let slot = by_flow.entry(ev.flow_id).or_insert((None, None));
            match ev.phase {
                FlowPhase::Send => {
                    if slot.0.is_some() {
                        return Err(format!("flow {}: duplicate send", ev.flow_id));
                    }
                    slot.0 = Some(ev);
                }
                FlowPhase::Recv => {
                    if slot.1.is_some() {
                        return Err(format!("flow {}: duplicate receive", ev.flow_id));
                    }
                    slot.1 = Some(ev);
                }
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
    /// indexed by rank. Feed `detect` in [`straggler`] with these.
    pub fn span_durations(&self, label: &str) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); self.n_ranks];
        let mut open: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &self.spans {
            if ev.label != label {
                continue;
            }
            match ev.phase {
                SpanPhase::Begin => {
                    open.insert(ev.span_id, ev.ns);
                }
                SpanPhase::End => {
                    if let Some(begin) = open.remove(&ev.span_id) {
                        if ev.rank < out.len() {
                            out[ev.rank].push(ev.ns.saturating_sub(begin));
                        }
                    }
                }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_captures_causal_spans_and_flows() {
        let session = Session::begin(0xfeed);
        set_rank(Some(0));
        {
            let _outer = span("step");
            tick(100);
            let ctx = send("halo.f", 1).expect("enabled");
            assert_eq!(ctx.trace_id, 0xfeed);
            assert_eq!(ctx.send_ns, 100);
            tick(20);
            deliver(&ctx, 50);
        }
        set_rank(None);
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
        set_rank(Some(0));
        let ctx = send("m", 1).unwrap();
        tick_on(1, 10_000); // rank 1 is already far ahead
        deliver(&ctx, 10);
        set_rank(None);
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
        assert!(s.session.is_none());
        tick_on(0, 5);
        assert_eq!(cursor(0), 0);
    }

    #[test]
    fn unclosed_span_is_reported() {
        let session = Session::begin(1);
        let s = span_on(0, "leak");
        assert!(s.session.is_some());
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
        set_rank(Some(0));
        for i in 0..200 {
            let _step = span("step");
            tick(trace_id + i);
            let ctx = send("halo.f", 1).expect("this thread's session");
            deliver(&ctx, 50);
            align(2, cursor(1));
        }
        set_rank(None);
        session.finish()
    }

    #[test]
    fn concurrent_sessions_equal_their_solo_captures() {
        let key = |t: &Telemetry| (t.n_ranks, format!("{:?}{:?}", t.spans, t.flows));
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
                assert!(span_on(0, "step").session.is_none());
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
}
