//! SLI derivation, error budgets, and multi-window burn-rate alerts.
//!
//! Two SLIs per scope (fleet or tenant):
//!
//! - **availability** — `completed / (completed + shed + rejected)`:
//!   the fraction of terminal outcomes a client saw that were
//!   deliveries;
//! - **latency** — `good_latency / completed`: the fraction of
//!   deliveries at or under [`LATENCY_THRESHOLD_NS`].
//!
//! The burn rate of an SLI over a set of windows is
//! `(1 - sli) / (1 - target)` — 1.0 means the error budget is being
//! consumed exactly at the sustainable rate, N means N× too fast. The
//! alert policy is the standard multi-window pair (Google SRE
//! workbook, ch. 5):
//!
//! - **fast burn**: trailing [`FAST_WINDOWS`] burn ≥ [`FAST_BURN`]
//!   *and* the last single window also burns
//!   ≥ that threshold (the short window stops a stale spike from
//!   re-firing after recovery);
//! - **slow burn**: trailing [`SLOW_WINDOWS`] burn ≥ [`SLOW_BURN`]
//!   *and* the trailing fast-window burn
//!   also ≥ that threshold.
//!
//! Alerts are edge-triggered with an active set for hysteresis: a
//! condition fires once when it becomes true and emits a matching
//! [`AlertKind::Clear`] when it falls back. Windows with fewer than
//! [`MIN_EVENTS`] relevant events are skipped entirely —
//! they neither fire nor clear — so a quiet tail cannot flap.
//!
//! Worker anomalies reuse [`crate::tel::straggler`] (EWMA + MAD over
//! quantum durations) through the same edge-triggered path.

use std::collections::{BTreeMap, BTreeSet};

use super::window::{Exemplar, Series, WinStats};
use crate::tel::straggler::StragglerFlag;

/// A delivery at or under this latency is "good". Calibrated against
/// the committed chaos loadgen baseline (seed 11, 240 jobs, 4 workers):
/// p50 ≈ 1.3 ms, p90 ≈ 10.1 ms — a 4 ms threshold puts kill-retry
/// convoys over the line while the healthy half of the run stays under.
pub const LATENCY_THRESHOLD_NS: u64 = 4_000_000;
/// Latency SLO target (fraction of good deliveries).
pub const LATENCY_TARGET: f64 = 0.90;
/// Availability SLO target.
pub const AVAIL_TARGET: f64 = 0.99;
/// Short trailing window count for the fast-burn alert.
pub const FAST_WINDOWS: usize = 5;
/// Fast-burn threshold (budget consumed this many × too fast).
pub const FAST_BURN: f64 = 6.0;
/// Long trailing window count for the slow-burn alert.
pub const SLOW_WINDOWS: usize = 60;
/// Slow-burn threshold.
pub const SLOW_BURN: f64 = 2.0;
/// Minimum relevant events in the trailing set to evaluate at all.
pub const MIN_EVENTS: u64 = 4;

/// Alert class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Fast-burn SLO alert (page-severity).
    FastBurn,
    /// Slow-burn SLO alert (ticket-severity).
    SlowBurn,
    /// Worker anomaly flag (straggler EWMA+MAD).
    Anomaly,
    /// A previously-active condition fell back below threshold.
    Clear,
}

impl AlertKind {
    /// Stable lowercase name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::FastBurn => "fast_burn",
            AlertKind::SlowBurn => "slow_burn",
            AlertKind::Anomaly => "anomaly",
            AlertKind::Clear => "clear",
        }
    }

    /// Span and flight-record label. Every alert is flight-recorded
    /// with `kind: "scope"` and this label (into the ring of the thread
    /// running the service loop: `swserve loadgen`'s
    /// `blackbox-serve.json`); when a tracing
    /// session is active the same label also appears as a zero-length
    /// span on the scheduler rank, so burn-rate alerts line up against
    /// the causal timeline they indict.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::FastBurn => "swscope.alert.fast_burn",
            AlertKind::SlowBurn => "swscope.alert.slow_burn",
            AlertKind::Anomaly => "swscope.alert.anomaly",
            AlertKind::Clear => "swscope.alert.clear",
        }
    }
}

/// Which SLI an alert is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SliKind {
    /// Terminal-outcome availability.
    Availability,
    /// Good-latency fraction of deliveries.
    Latency,
    /// Worker quantum-duration drift (anomaly alerts only).
    WorkerDrift,
}

impl SliKind {
    /// Stable lowercase name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            SliKind::Availability => "availability",
            SliKind::Latency => "latency",
            SliKind::WorkerDrift => "worker_drift",
        }
    }
}

/// What an alert is scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertScope {
    /// The whole fleet.
    Fleet,
    /// One tenant.
    Tenant(u32),
    /// One worker (anomaly alerts).
    Worker(usize),
}

impl AlertScope {
    /// Encode for the flight-recorder payload word: fleet is
    /// `u64::MAX`, tenants are their id, workers are offset into the
    /// top half so the two id spaces cannot collide.
    pub fn key(self) -> u64 {
        match self {
            AlertScope::Fleet => u64::MAX,
            AlertScope::Tenant(t) => t as u64,
            AlertScope::Worker(w) => (1u64 << 32) + w as u64,
        }
    }

    /// Stable display name (`fleet`, `tenant/3`, `worker/1`).
    pub fn name(self) -> String {
        match self {
            AlertScope::Fleet => "fleet".to_string(),
            AlertScope::Tenant(t) => format!("tenant/{t}"),
            AlertScope::Worker(w) => format!("worker/{w}"),
        }
    }
}

/// One deterministic alert event on the telemetry timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Window boundary (virtual ns) at which the condition was
    /// evaluated.
    pub at_ns: u64,
    /// Fire / clear / anomaly class.
    pub kind: AlertKind,
    /// Which SLI tripped.
    pub sli: SliKind,
    /// Fleet, tenant, or worker.
    pub scope: AlertScope,
    /// Burn rate over the triggering trailing set (for anomalies: the
    /// EWMA / fleet-median ratio).
    pub burn: f64,
    /// Fraction of the cumulative error budget still unspent at fire
    /// time (can go negative when overspent; 1.0 for anomalies).
    pub budget_remaining: f64,
    /// Evidence: worst-latency or failed job of the last closed
    /// window, when one exists.
    pub exemplar: Option<Exemplar>,
}

/// Cumulative error-budget state for one scope/SLI pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Relevant events so far (availability: terminal outcomes;
    /// latency: deliveries).
    pub total: u64,
    /// Events that consumed budget.
    pub bad: u64,
    /// `1 - (bad/total)/(1-target)`: 1.0 = untouched, 0 = exhausted,
    /// negative = overspent. 1.0 when `total` is 0.
    pub remaining: f64,
}

/// Sum of one counter pair over a trailing window set.
fn sum_over<'a>(
    wins: impl Iterator<Item = &'a WinStats>,
    good_bad: impl Fn(&WinStats) -> (u64, u64),
) -> (u64, u64) {
    let mut good = 0;
    let mut total = 0;
    for w in wins {
        let (g, t) = good_bad(w);
        good += g;
        total += t;
    }
    (good, total)
}

/// Burn rate of `(good, total)` against `target`; 0.0 when `total` is
/// 0 (no signal reads as no burn).
fn burn_rate(good: u64, total: u64, target: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let sli = good as f64 / total as f64;
    (1.0 - sli) / (1.0 - target)
}

fn avail_counts(w: &WinStats) -> (u64, u64) {
    (w.avail_good(), w.avail_total())
}

fn latency_counts(w: &WinStats) -> (u64, u64) {
    (w.good_latency, w.completed)
}

/// Edge-triggered burn-rate engine: the active-alert set plus
/// cumulative budget counters per scope/SLI.
#[derive(Debug, Default)]
pub struct Engine {
    /// Active (kind, sli, scope-key) conditions.
    active: BTreeSet<(u8, u8, u64)>,
    /// Cumulative (bad, total) per (sli, scope-key).
    cum: BTreeMap<(u8, u64), (u64, u64)>,
}

fn kind_code(kind: AlertKind) -> u8 {
    match kind {
        AlertKind::FastBurn => 0,
        AlertKind::SlowBurn => 1,
        AlertKind::Anomaly => 2,
        AlertKind::Clear => 3,
    }
}

fn sli_code(sli: SliKind) -> u8 {
    match sli {
        SliKind::Availability => 0,
        SliKind::Latency => 1,
        SliKind::WorkerDrift => 2,
    }
}

impl Engine {
    /// Evaluate both SLIs for one series at a window boundary,
    /// appending fired/cleared alerts to `out`. The newest closed
    /// window of `series` must end at `end_ns`.
    pub fn evaluate(
        &mut self,
        scope: AlertScope,
        series: &Series,
        end_ns: u64,
        out: &mut Vec<Alert>,
    ) {
        let last = series.closed().last();
        let exemplar = last.and_then(|w| w.failures.first().copied().or(w.worst));
        // Budgets accumulate from the window that just closed.
        if let Some(w) = last {
            if w.end_ns == end_ns {
                let (ag, at) = avail_counts(w);
                let a = self
                    .cum
                    .entry((sli_code(SliKind::Availability), scope.key()))
                    .or_insert((0, 0));
                a.0 += at - ag;
                a.1 += at;
                let (lg, lt) = latency_counts(w);
                let l = self
                    .cum
                    .entry((sli_code(SliKind::Latency), scope.key()))
                    .or_insert((0, 0));
                l.0 += lt - lg;
                l.1 += lt;
            }
        }
        for (sli, target, counts) in [
            (
                SliKind::Availability,
                AVAIL_TARGET,
                avail_counts as fn(&WinStats) -> (u64, u64),
            ),
            (SliKind::Latency, LATENCY_TARGET, latency_counts),
        ] {
            let (fast_good, fast_total) = sum_over(series.trailing(end_ns, FAST_WINDOWS), counts);
            if fast_total < MIN_EVENTS {
                continue; // not enough signal: neither fire nor clear
            }
            let fast = burn_rate(fast_good, fast_total, target);
            let (g1, t1) = sum_over(series.trailing(end_ns, 1), counts);
            let one = burn_rate(g1, t1, target);
            let (slow_good, slow_total) = sum_over(series.trailing(end_ns, SLOW_WINDOWS), counts);
            let slow = burn_rate(slow_good, slow_total, target);

            let budget = self.budget(scope, sli).map_or(1.0, |b| b.remaining);
            for (kind, cond, burn) in [
                (
                    AlertKind::FastBurn,
                    fast >= FAST_BURN && one >= FAST_BURN,
                    fast,
                ),
                (
                    AlertKind::SlowBurn,
                    slow >= SLOW_BURN && fast >= SLOW_BURN,
                    slow,
                ),
            ] {
                self.edge(
                    kind,
                    sli,
                    scope,
                    cond,
                    Alert {
                        at_ns: end_ns,
                        kind,
                        sli,
                        scope,
                        burn,
                        budget_remaining: budget,
                        exemplar,
                    },
                    out,
                );
            }
        }
    }

    /// Edge-trigger anomaly alerts for the currently-flagged workers.
    pub fn evaluate_anomalies(
        &mut self,
        flags: &[StragglerFlag],
        end_ns: u64,
        out: &mut Vec<Alert>,
    ) {
        let flagged: BTreeMap<usize, &StragglerFlag> = flags.iter().map(|f| (f.rank, f)).collect();
        // Workers to consider: currently flagged plus currently active
        // (so recoveries clear).
        let mut workers: BTreeSet<usize> = flagged.keys().copied().collect();
        workers.extend(self.active_anomalies());
        for w in workers {
            let (cond, burn) = match flagged.get(&w) {
                Some(f) => (true, f.ewma_ns / f.median_ns.max(1.0)),
                None => (false, 0.0),
            };
            self.edge(
                AlertKind::Anomaly,
                SliKind::WorkerDrift,
                AlertScope::Worker(w),
                cond,
                Alert {
                    at_ns: end_ns,
                    kind: AlertKind::Anomaly,
                    sli: SliKind::WorkerDrift,
                    scope: AlertScope::Worker(w),
                    burn,
                    budget_remaining: 1.0,
                    exemplar: None,
                },
                out,
            );
        }
    }

    /// Cumulative budget for a scope/SLI pair, if it ever saw a
    /// closed window.
    pub fn budget(&self, scope: AlertScope, sli: SliKind) -> Option<Budget> {
        let &(bad, total) = self.cum.get(&(sli_code(sli), scope.key()))?;
        let target = match sli {
            SliKind::Availability => AVAIL_TARGET,
            SliKind::Latency => LATENCY_TARGET,
            SliKind::WorkerDrift => return None,
        };
        let remaining = if total == 0 {
            1.0
        } else {
            1.0 - (bad as f64 / total as f64) / (1.0 - target)
        };
        Some(Budget {
            total,
            bad,
            remaining,
        })
    }

    /// Workers with an active (unfired-clear) anomaly condition.
    pub fn active_anomalies(&self) -> Vec<usize> {
        let anomaly = kind_code(AlertKind::Anomaly);
        self.active
            .iter()
            .filter(|(k, _, key)| *k == anomaly && *key >= (1u64 << 32))
            .map(|(_, _, key)| (key - (1u64 << 32)) as usize)
            .collect()
    }

    /// Rising-edge fire / falling-edge clear for one condition.
    fn edge(
        &mut self,
        kind: AlertKind,
        sli: SliKind,
        scope: AlertScope,
        cond: bool,
        alert: Alert,
        out: &mut Vec<Alert>,
    ) {
        let key = (kind_code(kind), sli_code(sli), scope.key());
        if cond {
            if self.active.insert(key) {
                out.push(alert);
            }
        } else if self.active.remove(&key) {
            out.push(Alert {
                kind: AlertKind::Clear,
                ..alert
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage_window(start: u64, end: u64, shed: u64) -> WinStats {
        WinStats {
            start_ns: start,
            end_ns: end,
            shed,
            ..WinStats::default()
        }
    }

    fn series_of(windows: Vec<WinStats>) -> Series {
        let mut s = Series::default();
        for w in windows {
            let (start, end) = (w.start_ns, w.end_ns);
            *s.current_mut(start, end) = w;
            s.close(start, end, 1024);
        }
        s
    }

    #[test]
    fn burn_rate_math() {
        // 90% SLI against a 99% target burns 10× the budget.
        assert!((burn_rate(90, 100, 0.99) - 10.0).abs() < 1e-9);
        assert_eq!(burn_rate(0, 0, 0.99), 0.0);
        assert!((burn_rate(100, 100, 0.99)).abs() < 1e-12);
    }

    #[test]
    fn outage_fires_fast_burn_once_then_clears() {
        let mut eng = Engine::default();
        let mut out = Vec::new();
        // Build the series incrementally, evaluating at each close the
        // way Scope does.
        let mut s = Series::default();
        for i in 0..8u64 {
            let (start, end) = (i * 100, (i + 1) * 100);
            let w = if i < 4 {
                outage_window(start, end, 5)
            } else {
                WinStats {
                    start_ns: start,
                    end_ns: end,
                    completed: 5,
                    good_latency: 5,
                    ..WinStats::default()
                }
            };
            *s.current_mut(start, end) = w;
            s.close(start, end, 1024);
            eng.evaluate(AlertScope::Fleet, &s, end, &mut out);
        }
        let fires: Vec<_> = out
            .iter()
            .filter(|a| a.kind == AlertKind::FastBurn)
            .collect();
        assert_eq!(fires.len(), 1, "{out:?}");
        assert_eq!(fires[0].sli, SliKind::Availability);
        assert_eq!(fires[0].at_ns, 100, "fires at the first closed window");
        assert!(
            out.iter()
                .any(|a| a.kind == AlertKind::Clear && a.sli == SliKind::Availability),
            "{out:?}"
        );
    }

    #[test]
    fn quiet_windows_do_not_flap() {
        let mut eng = Engine::default();
        let mut out = Vec::new();
        let mut s = Series::default();
        // Outage, then silence: the alert stays active (skip, not
        // clear) because empty windows carry no signal.
        for i in 0..3u64 {
            let (start, end) = (i * 100, (i + 1) * 100);
            *s.current_mut(start, end) = outage_window(start, end, 4);
            s.close(start, end, 1024);
            eng.evaluate(AlertScope::Fleet, &s, end, &mut out);
        }
        assert!(!out.is_empty());
        // The empty short window clears the page as soon as the
        // outage ages out of it (by design); after that, the quiet
        // tail carries no signal, so nothing may fire or clear again.
        for i in 3..10u64 {
            let (start, end) = (i * 100, (i + 1) * 100);
            s.close(start, end, 1024);
            eng.evaluate(AlertScope::Fleet, &s, end, &mut out);
        }
        let settled = out.len();
        for i in 10..40u64 {
            let (start, end) = (i * 100, (i + 1) * 100);
            s.close(start, end, 1024);
            eng.evaluate(AlertScope::Fleet, &s, end, &mut out);
        }
        assert_eq!(
            out.len(),
            settled,
            "quiet tail must neither fire nor clear: {out:?}"
        );
        assert!(
            out.iter()
                .all(|a| a.kind != AlertKind::FastBurn || a.at_ns <= 300),
            "no re-fires without new signal: {out:?}"
        );
    }

    #[test]
    fn budget_accounting_accumulates() {
        let mut eng = Engine::default();
        let mut out = Vec::new();
        let s = series_of(vec![WinStats {
            start_ns: 0,
            end_ns: 100,
            completed: 98,
            good_latency: 98,
            shed: 2,
            ..WinStats::default()
        }]);
        eng.evaluate(AlertScope::Fleet, &s, 100, &mut out);
        let b = eng
            .budget(AlertScope::Fleet, SliKind::Availability)
            .unwrap();
        assert_eq!((b.bad, b.total), (2, 100));
        // 2% bad against a 1% budget: overspent 2×, remaining = -1.
        assert!((b.remaining + 1.0).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn anomaly_flags_edge_trigger() {
        let mut eng = Engine::default();
        let mut out = Vec::new();
        let flag = StragglerFlag {
            rank: 2,
            ewma_ns: 900.0,
            median_ns: 300.0,
            mad_ns: 10.0,
        };
        eng.evaluate_anomalies(&[flag], 100, &mut out);
        eng.evaluate_anomalies(&[flag], 200, &mut out);
        eng.evaluate_anomalies(&[], 300, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].kind, AlertKind::Anomaly);
        assert_eq!(out[0].scope, AlertScope::Worker(2));
        assert!((out[0].burn - 3.0).abs() < 1e-9);
        assert_eq!(out[1].kind, AlertKind::Clear);
        assert_eq!(out[1].at_ns, 300);
    }
}
