//! Live SLI/SLO telemetry plane for the serving stack.
//!
//! `swserve`'s load harness computes its SLO table once, after the run;
//! nothing there watches the service *while* it runs. This module is
//! the streaming side: a [`Scope`] consumes scheduler/worker events
//! over virtual ns and maintains
//!
//! - a **windowed time-series store** ([`window`]): fleet-wide and
//!   per-tenant rings of fixed windows, each holding event counters, a
//!   mergeable log-bucket quantile sketch ([`sketch::QSketch`], with a
//!   proven relative-error bound), and trace exemplars;
//! - **SLI derivation and SLO tracking** ([`burn`]): availability and
//!   latency SLIs, cumulative error-budget accounting, and
//!   multi-window burn-rate alerts (5-window fast burn + 60-window
//!   slow burn, Google-SRE style) with rising-edge hysteresis;
//! - **exemplars** ([`window::Exemplar`]): each window retains the
//!   [`crate::tel`] flow ids of its worst-latency and failed jobs, so a
//!   p99 point or an alert resolves to a concrete span chain in the
//!   merged Chrome trace and, for kills, the flight record (in the
//!   service loop's ring: `swserve loadgen`'s `blackbox-serve.json`);
//! - **worker anomaly flags**: the [`crate::tel::straggler`] EWMA+MAD
//!   math re-applied to per-worker quantum durations.
//!
//! Every alert is emitted into the causal-tracing timeline — a
//! flight record (`kind: "scope"`, label [`burn::AlertKind::label`])
//! into the calling thread's ring, plus a zero-length span on a
//! bound rank when a tracing session is active — so the alert stream
//! lines up against the causal trace it indicts. All state is integer or
//! IEEE-754 basic arithmetic over a deterministic event stream, so two
//! replays of the same loadgen seed produce byte-identical dashboards
//! ([`dash`]).

pub mod burn;
pub mod dash;
pub mod sketch;
pub mod window;

use std::collections::BTreeMap;

use crate::tel::{self, straggler};
use burn::{Alert, AlertScope, Engine, SliKind};
use window::{Exemplar, Series, WinStats};

/// Window width in virtual ns. All series share boundaries at multiples
/// of this: ~88 windows across the chaos loadgen's ~17.6 ms makespan,
/// enough resolution for a 5-window fast burn to catch a kill burst,
/// small enough that the 60-window slow burn still fits the run.
pub const WINDOW_NS: u64 = 200_000;

/// Closed windows retained per series ring.
pub const RING_WINDOWS: usize = 256;

/// Straggler tuning for worker anomaly flags: less touchy than the
/// MD-step default, because quantum durations vary ~3× with job size
/// alone, so a worker needs to sit well clear of the fleet before it
/// reads as anomalous.
const STRAGGLER: straggler::StragglerConfig = straggler::StragglerConfig {
    alpha: 0.3,
    k: 6.0,
    min_ratio: 1.5,
};

/// What happened, attributed to one virtual-ns instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Submission accepted into the queue.
    Admit,
    /// Job handed to a worker.
    Dispatch,
    /// Trajectory delivered; `latency_ns` is submit→deliver.
    Complete {
        /// End-to-end latency in virtual ns.
        latency_ns: u64,
    },
    /// Queued job evicted under priority pressure.
    Shed,
    /// Submission rejected (quota / retries exhausted).
    Reject,
    /// Enqueue-path drop.
    Drop,
    /// Backpressure retry scheduled.
    Retry,
    /// Job readmitted off a dead worker.
    Readmit,
    /// Worker process killed.
    Kill,
    /// One execution quantum ran for `dur_ns` on `worker`.
    Quantum {
        /// Quantum duration in virtual ns.
        dur_ns: u64,
    },
}

/// One telemetry event from the scheduler/worker hooks.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Virtual-ns timestamp (scheduler clock). Must be nondecreasing.
    pub at_ns: u64,
    /// Owning tenant, when the event has one (kills may not).
    pub tenant: Option<u32>,
    /// Worker index, when the event has one.
    pub worker: Option<usize>,
    /// Job id in the service registry (0 = none).
    pub job: u64,
    /// Causal-trace flow id tying this event to the merged Chrome trace
    /// (0 = tracing off / no flow).
    pub trace: u64,
    /// Event class.
    pub kind: Kind,
}

/// The live telemetry plane: feed it [`Event`]s in virtual-time order,
/// it maintains windows, SLIs, budgets, alerts, and exemplars.
#[derive(Debug)]
pub struct Scope {
    /// Fleet-wide series.
    fleet: Series,
    /// Per-tenant series (every tenant ever seen).
    tenants: BTreeMap<u32, Series>,
    /// Per-worker quantum-duration history for anomaly detection.
    worker_quanta: Vec<Vec<u64>>,
    /// Per-worker kill counts.
    worker_kills: Vec<u64>,
    /// End of the oldest unclosed window.
    next_close_ns: u64,
    /// All alert events, in firing order.
    alerts: Vec<Alert>,
    /// Burn-rate engine: active-alert hysteresis + cumulative budgets.
    engine: Engine,
    /// Rank for zero-length alert spans when tracing is active.
    alert_rank: Option<usize>,
    sealed: bool,
}

impl Default for Scope {
    fn default() -> Self {
        Self::new()
    }
}

impl Scope {
    /// A fresh plane; windows start at virtual t = 0.
    pub fn new() -> Self {
        Scope {
            fleet: Series::default(),
            tenants: BTreeMap::new(),
            worker_quanta: Vec::new(),
            worker_kills: Vec::new(),
            next_close_ns: WINDOW_NS,
            alerts: Vec::new(),
            engine: Engine::default(),
            alert_rank: None,
            sealed: false,
        }
    }

    /// Bind the rank that alert spans land on when a tracing session is
    /// active (typically the scheduler rank).
    pub fn bind_rank(&mut self, rank: usize) {
        self.alert_rank = Some(rank);
    }

    /// Close every window that ends at or before `now_ns`, evaluating
    /// alerts at each boundary. Idempotent; called implicitly by
    /// [`Scope::on_event`].
    pub fn advance(&mut self, now_ns: u64) {
        while self.next_close_ns <= now_ns {
            let end = self.next_close_ns;
            self.close_window(end - WINDOW_NS, end);
            self.next_close_ns = end + WINDOW_NS;
        }
    }

    /// Consume one event. Events must arrive in nondecreasing `at_ns`
    /// order (the discrete-event loop guarantees this).
    pub fn on_event(&mut self, ev: Event) {
        assert!(!self.sealed, "scope already sealed");
        self.advance(ev.at_ns);
        let (start, end) = self.window_of(ev.at_ns);
        let threshold = burn::LATENCY_THRESHOLD_NS;
        let ex = Exemplar {
            job: ev.job,
            trace: ev.trace,
            latency_ns: match ev.kind {
                Kind::Complete { latency_ns } => latency_ns,
                _ => 0,
            },
        };
        apply(self.fleet.current_mut(start, end), ev.kind, ex, threshold);
        if let Some(t) = ev.tenant {
            let series = self.tenants.entry(t).or_default();
            apply(series.current_mut(start, end), ev.kind, ex, threshold);
        }
        if let Some(w) = ev.worker {
            if self.worker_quanta.len() <= w {
                self.worker_quanta.resize_with(w + 1, Vec::new);
                self.worker_kills.resize(w + 1, 0);
            }
            match ev.kind {
                Kind::Quantum { dur_ns } => self.worker_quanta[w].push(dur_ns),
                Kind::Kill => self.worker_kills[w] += 1,
                _ => {}
            }
        }
    }

    /// Close the final (possibly partial) window at end-of-run and run
    /// one last alert evaluation. After sealing, only queries are
    /// allowed.
    pub fn seal(&mut self, end_ns: u64) {
        if self.sealed {
            return;
        }
        self.advance(end_ns);
        let start = self.next_close_ns - WINDOW_NS;
        if end_ns > start {
            // The run ended inside this window; close it short so the
            // tail of the stream is still visible to the dashboard.
            let end = self.next_close_ns;
            self.close_window(start, end);
            self.next_close_ns = end + WINDOW_NS;
        }
        self.sealed = true;
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts with `at_ns <= at`.
    pub fn alerts_at(&self, at: u64) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().take_while(move |a| a.at_ns <= at)
    }

    /// The fleet-wide series.
    pub fn fleet(&self) -> &Series {
        &self.fleet
    }

    /// Per-tenant series, keyed by tenant id (sorted).
    pub fn tenants(&self) -> &BTreeMap<u32, Series> {
        &self.tenants
    }

    /// Per-worker quantum-duration histories.
    pub fn worker_quanta(&self) -> &[Vec<u64>] {
        &self.worker_quanta
    }

    /// Per-worker kill counts.
    pub fn worker_kills(&self) -> &[u64] {
        &self.worker_kills
    }

    /// Workers currently flagged anomalous (active, not yet cleared).
    pub fn anomalous_workers(&self) -> Vec<usize> {
        self.engine.active_anomalies()
    }

    /// Cumulative error-budget state for a scope/SLI pair, if any
    /// window has closed for it.
    pub fn budget(&self, scope: AlertScope, sli: SliKind) -> Option<burn::Budget> {
        self.engine.budget(scope, sli)
    }

    fn window_of(&self, at_ns: u64) -> (u64, u64) {
        let start = at_ns / WINDOW_NS * WINDOW_NS;
        (start, start + WINDOW_NS)
    }

    fn close_window(&mut self, start: u64, end: u64) {
        let cap = RING_WINDOWS;
        self.fleet.close(start, end, cap);
        for series in self.tenants.values_mut() {
            series.close(start, end, cap);
        }
        // Evaluate burn rates at this boundary: fleet first, then
        // tenants in id order — a fixed order so the alert stream is
        // deterministic.
        let mut fired = Vec::new();
        self.engine
            .evaluate(AlertScope::Fleet, &self.fleet, end, &mut fired);
        for (&t, series) in &self.tenants {
            self.engine
                .evaluate(AlertScope::Tenant(t), series, end, &mut fired);
        }
        // Worker anomaly flags off the quantum-duration EWMAs.
        let flags = straggler::detect(&self.worker_quanta, STRAGGLER);
        self.engine.evaluate_anomalies(&flags, end, &mut fired);
        for alert in fired {
            self.emit(alert);
        }
    }

    fn emit(&mut self, alert: Alert) {
        let label = alert.kind.label();
        // Into the caller's black box: (scope key, window end) payload.
        tel::flight::record("scope", label, alert.scope.key(), alert.at_ns);
        // And onto the causal timeline when a session is active: a
        // zero-length span on the bound rank at its current clock.
        if tel::enabled() {
            if let Some(rank) = self.alert_rank {
                let _span = tel::span_on(rank, label);
            }
        }
        self.alerts.push(alert);
    }
}

/// Attribute one event to a window's counters.
fn apply(w: &mut WinStats, kind: Kind, ex: Exemplar, latency_threshold_ns: u64) {
    match kind {
        Kind::Admit => w.admitted += 1,
        Kind::Dispatch => w.dispatches += 1,
        Kind::Complete { latency_ns } => {
            w.complete(ex, latency_ns <= latency_threshold_ns);
        }
        Kind::Shed => {
            w.shed += 1;
            w.failure(ex);
        }
        Kind::Reject => {
            w.rejected += 1;
            w.failure(ex);
        }
        Kind::Drop => {
            w.drops += 1;
            w.failure(ex);
        }
        Kind::Retry => w.retries += 1,
        Kind::Readmit => w.readmits += 1,
        Kind::Kill => {
            w.kills += 1;
            w.failure(ex);
        }
        Kind::Quantum { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burn::AlertKind;

    fn ev(at_ns: u64, tenant: u32, kind: Kind) -> Event {
        Event {
            at_ns,
            tenant: Some(tenant),
            worker: None,
            job: 1,
            trace: 0,
            kind,
        }
    }

    /// One hundredth of a window: the tests' time unit.
    const T: u64 = WINDOW_NS / 100;

    #[test]
    fn windows_roll_and_attribute() {
        let mut s = Scope::new();
        s.on_event(ev(10 * T, 0, Kind::Admit));
        s.on_event(ev(
            150 * T,
            0,
            Kind::Complete {
                latency_ns: 140 * T,
            },
        ));
        s.seal(160 * T);
        let fleet: Vec<_> = s.fleet().closed().collect();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].admitted, 1);
        assert_eq!(fleet[1].completed, 1);
        assert_eq!(s.tenants().len(), 1);
    }

    #[test]
    fn fast_burn_fires_on_total_outage_and_clears() {
        let mut s = Scope::new();
        // Five windows of pure sheds: availability 0, burn >> fast
        // threshold.
        for w in 0..5u64 {
            for i in 0..4u64 {
                s.on_event(ev((w * 100 + i) * T, 7, Kind::Shed));
            }
        }
        // Then five healthy windows to clear.
        for w in 5..10u64 {
            for i in 0..4u64 {
                s.on_event(ev((w * 100 + i) * T, 7, Kind::Complete { latency_ns: 1 }));
            }
        }
        s.seal(1_000 * T);
        let fired: Vec<_> = s
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::FastBurn)
            .collect();
        assert!(
            !fired.is_empty(),
            "total outage must trip the fast burn: {:?}",
            s.alerts()
        );
        assert!(
            s.alerts().iter().any(|a| a.kind == AlertKind::Clear),
            "recovery must clear: {:?}",
            s.alerts()
        );
        // Rising edge only: no scope/sli pair fires FastBurn twice
        // without an intervening Clear.
        for pair in fired.windows(2) {
            assert!(
                !(pair[0].scope == pair[1].scope && pair[0].sli == pair[1].sli)
                    || s.alerts()
                        .iter()
                        .any(|a| a.kind == AlertKind::Clear && a.at_ns > pair[0].at_ns),
                "hysteresis violated"
            );
        }
    }

    #[test]
    fn seal_is_idempotent_and_closes_partial_window() {
        let mut s = Scope::new();
        s.on_event(ev(250 * T, 1, Kind::Admit));
        s.seal(260 * T);
        s.seal(260 * T);
        assert_eq!(s.fleet().closed().count(), 3);
        let last = s.fleet().closed().last().unwrap();
        assert_eq!(last.admitted, 1);
    }

    #[test]
    fn replay_determinism_same_stream_same_alerts() {
        let run = |seed: u64| {
            let mut s = Scope::new();
            for i in 0..400u64 {
                let t = (i * 7919 + seed) % 5;
                let kind = if i % 11 == 3 {
                    Kind::Shed
                } else {
                    Kind::Complete {
                        latency_ns: (i * 131) % 9_000,
                    }
                };
                s.on_event(ev(i * 17 * T, t as u32, kind));
            }
            s.seal(400 * 17 * T);
            (s.alerts().to_vec(), dash::snapshot_json(&s, u64::MAX))
        };
        let (a1, j1) = run(3);
        let (a2, j2) = run(3);
        assert_eq!(a1, a2);
        assert_eq!(j1, j2, "snapshots must be byte-identical");
    }
}
