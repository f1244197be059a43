//! Dashboard rendering: bit-deterministic JSON snapshots and an ASCII
//! view of the same state.
//!
//! Both renderers derive *everything* from closed windows with
//! `end_ns <= at_ns` and alerts with `at_ns <= at`, so a snapshot "at
//! virtual timestamp T" is a pure function of the event stream prefix
//! — two replays of the same loadgen seed produce byte-identical
//! output, which CI asserts with `cmp`. Floats are quantized to six
//! decimals before formatting and rendered with
//! [`crate::json::number`]; everything else is integer.
//!
//! The worker panel (quantum counts, kill totals, anomaly flags) is
//! not windowed — it reflects the full stream the [`Scope`] has
//! consumed. Callers that need a pure prefix view of the workers too
//! can simply stop feeding events at T; the series and alert panels
//! honor `at_ns` either way.

use super::burn::{self, SliKind};
use super::sketch::QSketch;
use super::window::{Exemplar, Series, WinStats};
use super::{Scope, WINDOW_NS};
use crate::json::{escaped, number};

/// Quantize to six decimals so float rendering is stable and short.
fn q6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Counter sums + merged sketch over a trailing window set.
#[derive(Debug, Default)]
struct Rollup {
    windows: u64,
    admitted: u64,
    completed: u64,
    good_latency: u64,
    shed: u64,
    rejected: u64,
    kills: u64,
    drops: u64,
    retries: u64,
    readmits: u64,
    dispatches: u64,
    sketch: QSketch,
    worst: Option<Exemplar>,
}

impl Rollup {
    fn over(series: &Series, at_ns: u64) -> Rollup {
        let mut r = Rollup::default();
        for w in series.trailing(at_ns, usize::MAX) {
            r.windows += 1;
            r.admitted += w.admitted;
            r.completed += w.completed;
            r.good_latency += w.good_latency;
            r.shed += w.shed;
            r.rejected += w.rejected;
            r.kills += w.kills;
            r.drops += w.drops;
            r.retries += w.retries;
            r.readmits += w.readmits;
            r.dispatches += w.dispatches;
            r.sketch.merge(&w.sketch);
            if let Some(ex) = w.worst {
                if r.worst.is_none_or(|cur| ex.latency_ns > cur.latency_ns) {
                    r.worst = Some(ex);
                }
            }
        }
        r
    }

    fn avail_sli(&self) -> Option<f64> {
        let total = self.completed + self.shed + self.rejected;
        (total > 0).then(|| self.completed as f64 / total as f64)
    }

    fn latency_sli(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.good_latency as f64 / self.completed as f64)
    }

    /// `1 - (bad/total)/(1-target)` over this rollup's windows.
    fn budget(&self, sli: SliKind, target: f64) -> Option<f64> {
        let (bad, total) = match sli {
            SliKind::Availability => (
                self.shed + self.rejected,
                self.completed + self.shed + self.rejected,
            ),
            SliKind::Latency => (self.completed - self.good_latency, self.completed),
            SliKind::WorkerDrift => return None,
        };
        (total > 0).then(|| 1.0 - (bad as f64 / total as f64) / (1.0 - target))
    }
}

fn push_opt_num(out: &mut String, key: &str, v: Option<f64>) {
    out.push_str(&format!("\"{key}\":"));
    match v {
        Some(x) => out.push_str(&number(q6(x))),
        None => out.push_str("null"),
    }
}

fn exemplar_json(ex: Option<Exemplar>) -> String {
    match ex {
        None => "null".to_string(),
        Some(e) => format!(
            "{{\"job\":{},\"latency_ns\":{},\"trace\":{}}}",
            e.job, e.latency_ns, e.trace
        ),
    }
}

fn series_json(series: &Series, at_ns: u64) -> String {
    let r = Rollup::over(series, at_ns);
    let mut o = String::new();
    o.push('{');
    o.push_str(&format!(
        "\"windows\":{},\"counters\":{{\"admitted\":{},\"completed\":{},\"dispatches\":{},\"drops\":{},\"good_latency\":{},\"kills\":{},\"readmits\":{},\"rejected\":{},\"retries\":{},\"shed\":{}}}",
        r.windows,
        r.admitted,
        r.completed,
        r.dispatches,
        r.drops,
        r.good_latency,
        r.kills,
        r.readmits,
        r.rejected,
        r.retries,
        r.shed
    ));
    o.push_str(",\"sli\":{");
    push_opt_num(&mut o, "availability", r.avail_sli());
    o.push(',');
    push_opt_num(&mut o, "latency", r.latency_sli());
    o.push_str("},\"budget\":{");
    push_opt_num(
        &mut o,
        "availability",
        r.budget(SliKind::Availability, burn::AVAIL_TARGET),
    );
    o.push(',');
    push_opt_num(
        &mut o,
        "latency",
        r.budget(SliKind::Latency, burn::LATENCY_TARGET),
    );
    o.push_str("},\"latency_ns\":{");
    o.push_str(&format!(
        "\"max\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"samples\":{}",
        r.sketch.max(),
        r.sketch.min(),
        r.sketch.quantile_pct(50),
        r.sketch.quantile_pct(90),
        r.sketch.quantile_pct(99),
        r.sketch.count()
    ));
    o.push_str("},\"worst\":");
    o.push_str(&exemplar_json(r.worst));
    o.push('}');
    o
}

fn alerts_json(scope: &Scope, at_ns: u64) -> String {
    let mut o = String::from("[");
    for (i, a) in scope.alerts_at(at_ns).enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"at_ns\":{},\"budget_remaining\":{},\"burn\":{},\"exemplar\":{},\"kind\":{},\"scope\":{},\"sli\":{}}}",
            a.at_ns,
            number(q6(a.budget_remaining)),
            number(q6(a.burn)),
            exemplar_json(a.exemplar),
            escaped(a.kind.name()),
            escaped(&a.scope.name()),
            escaped(a.sli.name()),
        ));
    }
    o.push(']');
    o
}

/// The dashboard as one deterministic JSON document.
pub fn snapshot_json(scope: &Scope, at_ns: u64) -> String {
    let mut o = String::new();
    o.push('{');
    o.push_str("\"schema\":\"swscope.dashboard.v1\"");
    o.push_str(&format!(",\"at_ns\":{at_ns}"));
    o.push_str(&format!(
        ",\"config\":{{\"avail_target\":{},\"fast_burn\":{},\"fast_windows\":{},\"latency_target\":{},\"latency_threshold_ns\":{},\"min_events\":{},\"slow_burn\":{},\"slow_windows\":{},\"window_ns\":{}}}",
        number(q6(burn::AVAIL_TARGET)),
        number(q6(burn::FAST_BURN)),
        burn::FAST_WINDOWS,
        number(q6(burn::LATENCY_TARGET)),
        burn::LATENCY_THRESHOLD_NS,
        burn::MIN_EVENTS,
        number(q6(burn::SLOW_BURN)),
        burn::SLOW_WINDOWS,
        WINDOW_NS
    ));
    o.push_str(",\"fleet\":");
    o.push_str(&series_json(scope.fleet(), at_ns));
    o.push_str(",\"tenants\":[");
    for (i, (&t, series)) in scope.tenants().iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"series\":{},\"tenant\":{t}}}",
            series_json(series, at_ns)
        ));
    }
    o.push_str("],\"workers\":[");
    let anomalous = scope.anomalous_workers();
    for (w, quanta) in scope.worker_quanta().iter().enumerate() {
        if w > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"anomalous\":{},\"kills\":{},\"quanta\":{},\"worker\":{w}}}",
            anomalous.contains(&w),
            scope.worker_kills().get(w).copied().unwrap_or(0),
            quanta.len()
        ));
    }
    o.push_str("],\"alerts\":");
    o.push_str(&alerts_json(scope, at_ns));
    o.push('}');
    o
}

/// One sparkline glyph per completion count, scaled to the window max.
const SPARK: &[u8] = b" .:-=+*#%@";

fn sparkline(windows: &[&WinStats]) -> String {
    let peak = windows
        .iter()
        .map(|w| w.completed)
        .max()
        .unwrap_or(0)
        .max(1);
    windows
        .iter()
        .map(|w| {
            let idx = (w.completed * (SPARK.len() as u64 - 1)).div_ceil(peak) as usize;
            SPARK[idx.min(SPARK.len() - 1)] as char
        })
        .collect()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.4}", x),
        None => "   -  ".to_string(),
    }
}

/// The dashboard as a fixed-width ASCII panel (same data as the JSON).
pub fn ascii(scope: &Scope, at_ns: u64) -> String {
    let mut o = String::new();
    let fleet: Vec<&WinStats> = scope.fleet().trailing(at_ns, usize::MAX).collect();
    let r = Rollup::over(scope.fleet(), at_ns);
    o.push_str(&format!(
        "swscope dashboard @ {at_ns} ns  (window {WINDOW_NS} ns, {} closed)\n",
        fleet.len()
    ));
    o.push_str(&format!(
        "fleet  avail {}  latency {}  p50 {}  p99 {}  max {}\n",
        fmt_opt(r.avail_sli()),
        fmt_opt(r.latency_sli()),
        fmt_ms(r.sketch.quantile_pct(50)),
        fmt_ms(r.sketch.quantile_pct(99)),
        fmt_ms(r.sketch.max()),
    ));
    o.push_str(&format!(
        "budget avail {}  latency {}   (targets {:.2}/{:.2}, threshold {})\n",
        fmt_opt(r.budget(SliKind::Availability, burn::AVAIL_TARGET)),
        fmt_opt(r.budget(SliKind::Latency, burn::LATENCY_TARGET)),
        burn::AVAIL_TARGET,
        burn::LATENCY_TARGET,
        fmt_ms(burn::LATENCY_THRESHOLD_NS),
    ));
    o.push_str(&format!("completions/window |{}|\n", sparkline(&fleet)));

    o.push_str(&format!("\nalerts ({}):\n", scope.alerts_at(at_ns).count()));
    for a in scope.alerts_at(at_ns) {
        let ex = match a.exemplar {
            Some(e) => format!("  job={} trace={}", e.job, e.trace),
            None => String::new(),
        };
        o.push_str(&format!(
            "  t={:<10} {:<9} {:<12} {:<9} burn={:<8.2} budget={:.2}{}\n",
            a.at_ns,
            a.kind.name(),
            a.sli.name(),
            a.scope.name(),
            a.burn,
            a.budget_remaining,
            ex
        ));
    }

    o.push_str("\ntenants:\n");
    o.push_str("  id  admit  comp  shed  rej  avail   lat_sli  p50       p99\n");
    for (&t, series) in scope.tenants() {
        let tr = Rollup::over(series, at_ns);
        o.push_str(&format!(
            "  {:<3} {:<6} {:<5} {:<5} {:<4} {:<7} {:<8} {:<9} {}\n",
            t,
            tr.admitted,
            tr.completed,
            tr.shed,
            tr.rejected,
            fmt_opt(tr.avail_sli()),
            fmt_opt(tr.latency_sli()),
            fmt_ms(tr.sketch.quantile_pct(50)),
            fmt_ms(tr.sketch.quantile_pct(99)),
        ));
    }

    o.push_str("\nworkers:\n");
    let anomalous = scope.anomalous_workers();
    for (w, quanta) in scope.worker_quanta().iter().enumerate() {
        o.push_str(&format!(
            "  {w}: quanta={} kills={} anomalous={}\n",
            quanta.len(),
            scope.worker_kills().get(w).copied().unwrap_or(0),
            if anomalous.contains(&w) { "yes" } else { "no" }
        ));
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{Event, Kind, WINDOW_NS};

    /// One hundredth of a window: the tests' time unit.
    const T: u64 = WINDOW_NS / 100;

    fn seeded_scope() -> Scope {
        let mut s = Scope::new();
        for i in 0..60u64 {
            let kind = if i % 13 == 5 {
                Kind::Shed
            } else {
                Kind::Complete {
                    latency_ns: 50 + i * 997 % 8_000,
                }
            };
            s.on_event(Event {
                at_ns: i * 29 * T,
                tenant: Some((i % 3) as u32),
                worker: Some((i % 2) as usize),
                job: i,
                trace: i * 10,
                kind,
            });
        }
        s.seal(60 * 29 * T);
        s
    }

    #[test]
    fn snapshot_is_valid_json_and_deterministic() {
        let s = seeded_scope();
        let j1 = snapshot_json(&s, u64::MAX);
        let j2 = snapshot_json(&s, u64::MAX);
        assert_eq!(j1, j2);
        let v = crate::json::parse(&j1).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("swscope.dashboard.v1")
        );
        assert_eq!(v.get("tenants").and_then(|t| t.as_arr()).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_respects_at_ns() {
        let s = seeded_scope();
        let early = snapshot_json(&s, 200 * T);
        let late = snapshot_json(&s, u64::MAX);
        assert_ne!(early, late);
        let v = crate::json::parse(&early).unwrap();
        let wins = v
            .get("fleet")
            .and_then(|f| f.get("windows"))
            .and_then(|w| w.as_num())
            .unwrap();
        assert_eq!(wins, 2.0, "only windows ending at or before 200 T");
    }

    #[test]
    fn config_object_is_the_recorded_slo_policy() {
        // Recorded at 2a9b9f3. No committed baseline holds these
        // values, so a mistyped policy constant shows here first.
        let config = r#","config":{"avail_target":0.99,"fast_burn":6,"fast_windows":5,"latency_target":0.9,"latency_threshold_ns":4000000,"min_events":4,"slow_burn":2,"slow_windows":60,"window_ns":200000},"#;
        let j = snapshot_json(&Scope::new(), 0);
        assert!(j.contains(config), "{j}");
    }

    #[test]
    fn ascii_renders_all_panels() {
        let s = seeded_scope();
        let a = ascii(&s, u64::MAX);
        for needle in [
            "swscope dashboard",
            "fleet ",
            "alerts (",
            "tenants:",
            "workers:",
        ] {
            assert!(a.contains(needle), "missing {needle:?} in:\n{a}");
        }
    }
}
