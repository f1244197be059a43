//! # swprof — observability for the whole simulated stack
//!
//! One accounting of where simulated time goes, zero-cost when disabled,
//! in five parts:
//!
//! 1. **Hierarchical span profiler** — [`span!`] opens an RAII guard on
//!    the calling core's timeline (MPE or one of the 64 CPEs); nested
//!    spans nest strictly, and [`tick`] advances the timeline by
//!    simulated cycles. Timelines are *virtual*: they are built from the
//!    cost model's cycle charges, not host wall time, so two identical
//!    runs produce identical profiles.
//! 2. **Metrics registry** ([`metrics`]) — named counters, gauges, and
//!    fixed-log2-bucket histograms fed by the substrate (DMA traffic,
//!    cache hit/miss, LDM occupancy, Bit-Map touch ratios, message
//!    sizes) behind one snapshot API.
//! 3. **Exporters** ([`export`]) — Chrome `trace_event` JSON (spans on
//!    per-CPE tracks, loadable in `chrome://tracing` / Perfetto), a flat
//!    JSON-lines metrics dump, and a human report table reproducing the
//!    paper's Table 1 breakdown from live spans.
//! 4. **Cross-rank causal tracing** ([`tel`]) — the same record on a
//!    plane of its own, tracks being ranks on virtual-ns clocks, plus
//!    message flows, trace merge, stragglers and the flight recorder.
//! 5. **Serving telemetry plane** ([`slo`]) — windowed quantile
//!    sketches, SLIs, error budgets, burn-rate alerts with trace
//!    exemplars, and the `swscope.dashboard.v1` dashboard.
//!
//! Everything a session records — spans (and a trace's flows), metrics,
//! track clocks, the region epoch — is one [`Recording`] owned by its
//! [`Session`] and reached through the session scope ([`scope`], which
//! `swfault`, [`tel`] and `sw26010::trace` are built on too): the thread
//! that opened the session and the lanes of the regions it runs record
//! into it, no other thread does, and every emit site guards on one
//! thread-local read ([`enabled`]) — an instrumented binary with no
//! [`Session`] pays a single predictable branch per site.
//!
//! This crate sits *below* the hardware substrate in the dependency
//! graph (it depends on nothing; `sw26010`, `swnet`, `mdsim`, and
//! `swgmx` all emit into it). Core identity therefore uses plain
//! numbers: a **track** is `None` for the MPE or `Some(cpe_id)` for a
//! CPE — a span or tick without one lands on the calling thread's
//! lane ([`scope::Who`]) — and the **epoch** counts the parallel regions
//! the session has opened (`sw26010::trace::begin_region` calls
//! [`next_epoch`]), so two identical runs number their regions
//! identically whatever else the process is doing.
//!
//! ```
//! let session = swprof::Session::begin();
//! {
//!     let _step = swprof::span!("step");
//!     {
//!         let _f = swprof::span!("force");
//!         swprof::tick(1_000); // simulated cycles
//!     }
//!     swprof::tick(50);
//! }
//! swprof::metrics::counter_add("dma.bytes", 4096);
//! let profile = session.finish();
//! assert_eq!(profile.span_totals()["step"], 1_050);
//! let json = swprof::export::chrome_trace(&profile, 1.0);
//! assert!(swprof::json::parse(&json).is_ok());
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod scope;
pub mod slo;
pub mod tel;

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use scope::lock;

/// A timeline: `None` is the MPE, `Some(i)` is CPE `i`.
pub type Track = Option<usize>;

/// Tracks with a lock-free clock: one MPE + the 64 CPEs of a core group.
/// A lane past them keeps its clock under a lock.
pub const MAX_TRACKS: usize = 65;

/// B/E phase of a raw span event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One raw span-stream event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Timeline the event belongs to.
    pub track: Track,
    /// Span label.
    pub label: Cow<'static, str>,
    /// Begin or end.
    pub phase: Phase,
    /// Track-local virtual timestamp in simulated cycles.
    pub ts: u64,
    /// Spawn epoch current at emit time (mirrors `sw26010::trace`).
    pub epoch: u64,
}

/// A span reconstructed from a matched Begin/End pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedSpan {
    /// Timeline the span ran on.
    pub track: Track,
    /// Span label.
    pub label: String,
    /// Virtual start time (cycles).
    pub start: u64,
    /// Virtual end time (cycles).
    pub end: u64,
    /// Nesting depth on its track (0 = top level).
    pub depth: usize,
    /// Spawn epoch at begin time.
    pub epoch: u64,
}

impl ClosedSpan {
    /// Span duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// One entry of a record: a span half or, on [`tel`]'s plane, a flow end.
#[derive(Debug)]
enum Entry {
    Span(SpanEvent),
    Flow(tel::FlowEvent),
}

/// The ordered part of a [`Recording`], behind one lock.
#[derive(Default)]
struct Log {
    /// Spans and flows in the order they were recorded.
    entries: Vec<Entry>,
    /// Per track, the ids of its open spans, innermost last: what a
    /// send reads for its `parent_span_id`.
    open: BTreeMap<Track, Vec<u64>>,
    /// Spans begun so far: span ids count Begins from 1.
    begun: u64,
    /// Sends so far: flow ids count sends from 1.
    sent: u64,
    /// The next seqno of each `(src, dst, label)` channel of
    /// [`tel::send_from`].
    seqnos: BTreeMap<(usize, usize, &'static str), u64>,
}

/// Everything one session records, on either plane: the profiler's
/// (tracks are the MPE and the CPEs, clocks count cycles) or [`tel`]'s
/// (track `Some(r)` is rank `r`, clocks count virtual ns). Opaque:
/// owned by its session, reached by the threads working for it through
/// [`scope`].
pub struct Recording {
    log: Mutex<Log>,
    metrics: Mutex<BTreeMap<&'static str, metrics::Metric>>,
    cursors: [AtomicU64; MAX_TRACKS],
    /// The clocks of lanes past the 64 CPEs.
    far_cursors: Mutex<BTreeMap<usize, AtomicU64>>,
    /// Parallel regions opened so far (see [`next_epoch`]).
    epoch: AtomicU64,
    /// Tracks `Some(0..touched)` are the ones a span or [`tel`] call
    /// touched: a trace's ranks.
    touched: AtomicUsize,
    /// The [`tel`] session's trace id (0 for a profile).
    trace_id: u64,
}

impl Recording {
    fn new(trace_id: u64) -> Self {
        Self {
            log: Mutex::default(),
            metrics: Mutex::default(),
            cursors: [const { AtomicU64::new(0) }; MAX_TRACKS],
            far_cursors: Mutex::default(),
            epoch: AtomicU64::new(0),
            touched: AtomicUsize::new(0),
            trace_id,
        }
    }

    /// Record one half of a span at `track`'s current time. The clock is
    /// read under the log's lock, so each track's timestamps never go
    /// back in record order.
    fn push(&self, track: Track, label: Cow<'static, str>, phase: Phase) {
        self.touch(track);
        let mut guard = lock(&self.log);
        let log = &mut *guard;
        let ts = self.now(track);
        let open = log.open.entry(track).or_default();
        if phase == Phase::Begin {
            log.begun += 1;
            open.push(log.begun);
        } else {
            open.pop();
        }
        log.entries.push(Entry::Span(SpanEvent {
            track,
            label,
            phase,
            ts,
            epoch: self.epoch.load(Ordering::Relaxed),
        }));
    }

    /// Count `track`'s rank as touched.
    fn touch(&self, track: Track) {
        if let Some(rank) = track {
            self.touched.fetch_max(rank + 1, Ordering::Relaxed);
        }
    }

    /// Current time of `track`'s clock.
    fn now(&self, track: Track) -> u64 {
        self.cursor(track, |c| c.load(Ordering::Relaxed))
    }

    /// Run `f` on `track`'s clock.
    fn cursor<R>(&self, track: Track, f: impl FnOnce(&AtomicU64) -> R) -> R {
        match track {
            None => f(&self.cursors[0]),
            Some(cpe) if cpe < MAX_TRACKS - 1 => f(&self.cursors[1 + cpe]),
            Some(cpe) => f(lock(&self.far_cursors).entry(cpe).or_default()),
        }
    }
}

thread_local! {
    static RECORDING_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDING_SLOT: scope::Slot<Recording> = const { RefCell::new(None) };
}
const RECORDING: scope::Plane<Recording> = scope::Plane::new(&RECORDING_ACTIVE, &RECORDING_SLOT);

/// The calling thread's handle on the session it works for: what a
/// thread started by hand enters ([`scope::Handle::enter`]) to record
/// there too, as the lane executor's lanes do.
pub fn handle() -> scope::Handle<Recording> {
    RECORDING.handle()
}

/// Whether the calling thread works for a profiling session. One
/// thread-local read — this is the whole disabled-path cost of every
/// emit site.
#[inline]
pub fn enabled() -> bool {
    RECORDING.active()
}

/// Open the session's next parallel-region epoch, so span events carry
/// a region numbering that starts at 1 with the session's first region.
/// Called by `sw26010::trace::begin_region`.
pub fn next_epoch() {
    RECORDING.with(|r| r.epoch.fetch_add(1, Ordering::Relaxed));
}

/// Current virtual time of `track`, in cycles.
pub fn track_cursor(track: Track) -> u64 {
    RECORDING.with(|r| r.now(track)).unwrap_or(0)
}

/// Advance `track`'s virtual clock to at least `ts` (used to align CPE
/// timelines with the MPE stage that spawned them).
pub fn align_track(track: Track, ts: u64) {
    RECORDING.with(|r| r.cursor(track, |c| c.fetch_max(ts, Ordering::Relaxed)));
}

/// Advance the calling thread's track by `cycles` of simulated time,
/// attributing them to every span currently open on that track.
#[inline]
pub fn tick(cycles: u64) {
    RECORDING.with(|r| {
        let track = scope::Who::current().lane;
        r.cursor(track, |c| c.fetch_add(cycles, Ordering::Relaxed))
    });
}

/// RAII span guard: emits a Begin event on creation and the matching End
/// on drop — including during panic unwinding, so span streams stay
/// strictly nested even when a kernel dies mid-flight. Both land in the
/// session the span was opened in, whatever the dropping thread works
/// for by then; a span opened with no session records nothing.
#[must_use = "a span closes when dropped; binding it to _ closes it immediately"]
pub struct Span {
    track: Track,
    /// `Some` while a Begin awaits its End: where it went, and its label.
    open: Option<(Arc<Recording>, Cow<'static, str>)>,
}

impl Span {
    /// Open a span on `track` of `recording`, or one that records
    /// nothing.
    fn open(recording: Option<Arc<Recording>>, track: Track, label: Cow<'static, str>) -> Self {
        let open = recording.map(|recording| {
            recording.push(track, label.clone(), Phase::Begin);
            (recording, label)
        });
        Span { track, open }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((recording, label)) = self.open.take() {
            recording.push(self.track, label, Phase::End);
        }
    }
}

/// Open a span on the calling thread's track: the lane it runs
/// ([`scope::Who`]), the MPE's on no lane.
pub fn span(label: impl Into<Cow<'static, str>>) -> Span {
    span_on(scope::Who::current().lane, label)
}

/// Open a span on an explicit track (used when the issuing thread is not
/// tagged, e.g. emitting a CPE-attributed span from the MPE).
pub fn span_on(track: Track, label: impl Into<Cow<'static, str>>) -> Span {
    Span::open(handle().into_state(), track, label.into())
}

/// Record a completed stage of known simulated cost: a span of exactly
/// `cycles` at the current track cursor. This is the engine's idiom for
/// stages whose cost is known only after they ran.
pub fn stage(label: impl Into<Cow<'static, str>>, cycles: u64) {
    let s = span(label);
    tick(cycles);
    drop(s);
}

/// Open a hierarchical span.
///
/// `span!("label")` opens it on the calling thread's track;
/// `span!("label", cpe)` opens it on CPE `cpe`'s track explicitly.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::span($label)
    };
    ($label:expr, $cpe:expr) => {
        $crate::span_on(Some($cpe), $label)
    };
}

/// Everything captured by a finished [`Session`].
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Raw span stream, in global emit order (per-track order is exact).
    pub spans: Vec<SpanEvent>,
    /// Metrics registry snapshot, sorted by name.
    pub metrics: metrics::Snapshot,
}

impl Profile {
    /// Tracks that emitted at least one event, MPE first.
    pub fn tracks(&self) -> Vec<Track> {
        let seen: std::collections::BTreeSet<Track> = self.spans.iter().map(|e| e.track).collect();
        seen.into_iter().collect()
    }

    /// Events of one track in emit order.
    pub fn track_events(&self, track: Track) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter().filter(move |e| e.track == track)
    }

    /// Match Begin/End pairs per track into closed spans
    /// ([`closed_spans`]).
    pub fn closed_spans(&self) -> Result<Vec<ClosedSpan>, String> {
        closed_spans(&self.spans)
    }

    /// Total cycles per span label, summed over all tracks and
    /// occurrences. Nested spans each contribute their own duration
    /// (so a label used at one depth reads exactly like a `Breakdown`
    /// row). An unbalanced stream contributes nothing.
    pub fn span_totals(&self) -> BTreeMap<String, u64> {
        self.totals(|_| true)
    }

    /// Like [`Self::span_totals`] but restricted to one track.
    pub fn span_totals_on(&self, track: Track) -> BTreeMap<String, u64> {
        self.totals(|s| s.track == track)
    }

    fn totals(&self, keep: impl Fn(&ClosedSpan) -> bool) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for s in self
            .closed_spans()
            .unwrap_or_default()
            .iter()
            .filter(|s| keep(s))
        {
            *totals.entry(s.label.clone()).or_insert(0) += s.cycles();
        }
        totals
    }
}

/// Match Begin/End pairs per track into closed spans, per track in the
/// order they close.
///
/// Returns an error naming the offending track if any stream is not
/// strictly nested (an End without a Begin, a label mismatch, or an
/// unclosed Begin).
pub fn closed_spans(events: &[SpanEvent]) -> Result<Vec<ClosedSpan>, String> {
    let tracks: std::collections::BTreeSet<Track> = events.iter().map(|e| e.track).collect();
    let mut out = Vec::new();
    for track in tracks {
        let mut stack: Vec<&SpanEvent> = Vec::new();
        for ev in events.iter().filter(|e| e.track == track) {
            match ev.phase {
                Phase::Begin => stack.push(ev),
                Phase::End => {
                    let open = stack.pop().ok_or_else(|| {
                        format!("track {track:?}: End `{}` without Begin", ev.label)
                    })?;
                    if open.label != ev.label {
                        return Err(format!(
                            "track {track:?}: End `{}` closes Begin `{}`",
                            ev.label, open.label
                        ));
                    }
                    out.push(ClosedSpan {
                        track,
                        label: open.label.clone().into_owned(),
                        start: open.ts,
                        end: ev.ts,
                        depth: stack.len(),
                        epoch: open.epoch,
                    });
                }
            }
        }
        if let Some(open) = stack.last() {
            return Err(format!(
                "track {track:?}: Begin `{}` never closed",
                open.label
            ));
        }
    }
    Ok(out)
}

/// An active profiling session, owning its [`Recording`]. Capture is
/// scoped to the thread that opened it and the lanes of the regions that
/// thread runs; sessions on other threads are independent. Dropping it
/// stops capture.
pub struct Session {
    scope: scope::Scope<Recording>,
}

impl Session {
    /// Start profiling on the calling thread: an empty span sink and
    /// metrics registry, every track clock at zero.
    pub fn begin() -> Self {
        Self {
            scope: RECORDING.open(Recording::new(0)),
        }
    }

    /// Stop profiling and return everything captured since `begin`.
    pub fn finish(self) -> Profile {
        let recording = self.scope.state();
        let entries = std::mem::take(&mut lock(&recording.log).entries);
        Profile {
            spans: entries
                .into_iter()
                .filter_map(|e| match e {
                    Entry::Span(span) => Some(span),
                    Entry::Flow(_) => None,
                })
                .collect(),
            metrics: metrics::snapshot_of(&lock(&recording.metrics)),
        }
    }
}

/// Human-readable track name ("MPE", "CPE 7") used by exporters.
pub fn track_name(track: Track) -> String {
    match track {
        None => "MPE".to_string(),
        Some(cpe) => format!("CPE {cpe}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        assert!(!enabled());
        let s = span!("dead");
        tick(100);
        drop(s);
        stage("dead2", 50);
        let session = Session::begin();
        let p = session.finish();
        assert!(p.spans.is_empty());
    }

    #[test]
    fn nested_spans_nest_and_total() {
        let session = Session::begin();
        {
            let _outer = span!("outer");
            tick(10);
            {
                let _inner = span!("inner");
                tick(30);
            }
            tick(5);
        }
        let p = session.finish();
        let spans = p.closed_spans().unwrap();
        assert_eq!(spans.len(), 2);
        let totals = p.span_totals();
        assert_eq!(totals["outer"], 45);
        assert_eq!(totals["inner"], 30);
        let outer = spans.iter().find(|s| s.label == "outer").unwrap();
        let inner = spans.iter().find(|s| s.label == "inner").unwrap();
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
    }

    #[test]
    fn stage_is_a_complete_span() {
        let session = Session::begin();
        stage("force", 1_000);
        stage("force", 234);
        stage("update", 6);
        let p = session.finish();
        let totals = p.span_totals();
        assert_eq!(totals["force"], 1_234);
        assert_eq!(totals["update"], 6);
    }

    #[test]
    fn explicit_cpe_track() {
        let session = Session::begin();
        {
            let _s = span!("kernel", 7);
            align_track(Some(7), 99);
        }
        let p = session.finish();
        assert_eq!(p.tracks(), vec![Some(7)]);
        assert_eq!(p.span_totals_on(Some(7))["kernel"], 99);
    }

    #[test]
    fn panic_still_closes_span() {
        let session = Session::begin();
        let result = std::panic::catch_unwind(|| {
            let _s = span!("doomed");
            tick(40);
            panic!("kernel died");
        });
        assert!(result.is_err());
        let p = session.finish();
        let spans = p.closed_spans().expect("stream balanced after panic");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].cycles(), 40);
    }

    #[test]
    fn a_lane_past_the_core_group_has_its_own_track_and_clock() {
        let session = Session::begin();
        for (lane, label, cycles) in [(3, "near", 7), (70, "far", 5)] {
            let _lane = scope::Who::enter_lane(Some(lane));
            let _s = span(label);
            tick(cycles);
        }
        assert_eq!((track_cursor(Some(63)), track_cursor(Some(70))), (0, 5));
        let p = session.finish();
        assert_eq!(p.tracks(), [Some(3), Some(70)]);
        let totals = p.span_totals();
        assert_eq!((totals["near"], totals["far"]), (7, 5));
        assert_eq!(p.span_totals_on(Some(70))["far"], 5);
    }

    #[test]
    fn align_track_only_moves_forward() {
        let session = Session::begin();
        align_track(Some(3), 500);
        align_track(Some(3), 100);
        assert_eq!(track_cursor(Some(3)), 500);
        drop(session.finish());
    }

    #[test]
    fn threads_have_independent_tracks() {
        let session = Session::begin();
        let lane = handle();
        let h = std::thread::spawn(move || {
            // A thread started by hand works for no session until it is
            // handed one, and for none again afterwards.
            stage("nobodys", 1);
            {
                let _lane = lane.enter();
                let _cpe = scope::Who::enter_lane(Some(2));
                let _s = span!("cpe_work");
                tick(64);
            }
            stage("nobodys", 1);
        });
        h.join().unwrap();
        {
            let _s = span!("mpe_work");
            tick(8);
        }
        let p = session.finish();
        assert_eq!(p.span_totals_on(Some(2))["cpe_work"], 64);
        assert_eq!(p.span_totals_on(None)["mpe_work"], 8);
        assert_eq!(p.spans.len(), 4);
    }

    #[test]
    fn a_span_records_into_the_session_it_was_opened_in_or_nowhere() {
        let a = Session::begin();
        let outlives_a = span!("opened_in_a");
        let unsessioned = {
            drop(a.finish());
            span!("opened_in_none")
        };
        let b = Session::begin();
        drop(outlives_a);
        drop(unsessioned);
        stage("in_b", 3);
        let p = b.finish();
        let labels: Vec<&str> = p.spans.iter().map(|e| &*e.label).collect();
        assert_eq!(labels, ["in_b", "in_b"]);
    }

    /// What one thread's session captures of a fixed little workload.
    fn capture(salt: u64) -> Profile {
        let session = Session::begin();
        for i in 0..200 {
            next_epoch();
            let _s = span("kernel");
            tick(salt + i);
            metrics::counter_add("work", salt);
            metrics::histogram_record("sizes", i);
        }
        session.finish()
    }

    #[test]
    fn concurrent_sessions_equal_their_solo_captures() {
        // Two sessions at once, each with a bystander thread that has no
        // session and must leave no trace in either.
        let solo = [capture(1), capture(1000)];
        let start = std::sync::Barrier::new(3);
        let together = std::thread::scope(|s| {
            let a = s.spawn(|| (start.wait(), capture(1)).1);
            let b = s.spawn(|| (start.wait(), capture(1000)).1);
            start.wait();
            for _ in 0..200 {
                assert!(!enabled());
                stage("bystander", 7);
                metrics::counter_add("work", 7);
            }
            [a.join().unwrap(), b.join().unwrap()]
        });
        for (alone, beside) in solo.iter().zip(&together) {
            assert_eq!(alone.spans, beside.spans);
            assert_eq!(alone.metrics, beside.metrics);
        }
        assert_eq!(solo[0].spans.last().unwrap().epoch, 200);
    }
}
