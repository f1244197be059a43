//! Perf-regression sentinel: compare fresh `BENCH_*.json` sidecars
//! against committed baselines with per-metric tolerances.
//!
//! Every bench binary writes a sidecar `{name, config, metrics,
//! wall_cycles}` (see `bench::BenchJson`). The gate walks the
//! baseline directory, pairs each file with its fresh counterpart by
//! filename, and checks every metric with a direction-aware rule:
//!
//! - *higher-better* metrics (speedup, bandwidth, throughput, ...)
//!   regress when `fresh < baseline * (1 - tol)`;
//! - *lower-better* metrics (cycles, ns, latency, ...) regress when
//!   `fresh > baseline * (1 + tol)`;
//! - everything else (e.g. the `pct.*` Table-1 shares) is two-sided
//!   drift: `|fresh - baseline| / |baseline| > tol`.
//!
//! Tolerances come from an optional `tolerances.json` next to the
//! baselines (`{"default": 0.1, "rules": {"speedup": 0.15}}`; rules
//! are substring matches, longest substring wins). A baseline metric
//! missing from the fresh run is always a regression — silent metric
//! loss is how perf gates rot. The verdict is machine-readable JSON;
//! [`GateReport::passed`] drives the process exit code.

use std::path::Path;

use swprof::json::{self, Value};

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (speedup, bandwidth): gate the downside.
    HigherBetter,
    /// Smaller is better (cycles, latency): gate the upside.
    LowerBetter,
    /// Shares/shapes: gate drift in either direction.
    TwoSided,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::HigherBetter => "higher_better",
            Direction::LowerBetter => "lower_better",
            Direction::TwoSided => "two_sided",
        }
    }
}

/// Classify a metric name by its dotted/underscored tokens.
fn direction_for(metric: &str) -> Direction {
    let lower = metric.to_ascii_lowercase();
    // One whole-name rule: `steps_per_s` is a rate (higher is better)
    // though none of its tokens says so. A dotted label after the name
    // (`steps_per_s.metered`) does not change what is measured.
    if lower.split('.').next() == Some("steps_per_s") {
        return Direction::HigherBetter;
    }
    for token in lower.split(['.', '_', '/', '-']) {
        match token {
            "speedup" | "bandwidth" | "throughput" | "ratio" | "gflops" | "gbps" | "rate" => {
                return Direction::HigherBetter;
            }
            "cycles" | "ns" | "us" | "ms" | "time" | "latency" | "seconds" | "overhead" => {
                return Direction::LowerBetter;
            }
            _ => {}
        }
    }
    Direction::TwoSided
}

/// Tolerance table: a default plus substring-matched overrides.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Relative tolerance when no rule matches.
    pub default: f64,
    /// `(substring, tolerance)` overrides; longest match wins.
    pub rules: Vec<(String, f64)>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            default: 0.10,
            rules: Vec::new(),
        }
    }
}

impl Tolerances {
    /// The tolerance applying to `metric`.
    fn for_metric(&self, metric: &str) -> f64 {
        self.rules
            .iter()
            .filter(|(sub, _)| metric.contains(sub.as_str()))
            .max_by_key(|(sub, _)| sub.len())
            .map(|&(_, tol)| tol)
            .unwrap_or(self.default)
    }

    /// Parse a `tolerances.json` document.
    pub fn parse(doc: &str) -> Result<Self, String> {
        let v = json::parse(doc).map_err(|e| e.to_string())?;
        let mut out = Tolerances::default();
        if let Some(d) = v.get("default").and_then(|d| d.as_num()) {
            out.default = d;
        }
        if let Some(Value::Obj(rules)) = v.get("rules") {
            for (k, tol) in rules {
                let tol = tol
                    .as_num()
                    .ok_or_else(|| format!("rule `{k}`: tolerance must be a number"))?;
                out.rules.push((k.clone(), tol));
            }
        }
        Ok(out)
    }
}

/// One metric comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// Metric name (`wall_cycles` for the sidecar total).
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Fresh value, `None` when the fresh sidecar dropped the metric.
    pub fresh: Option<f64>,
    /// Signed relative change `(fresh - baseline) / |baseline|`.
    pub rel: f64,
    /// Tolerance applied.
    pub tol: f64,
    /// Direction rule applied.
    pub direction: Direction,
    /// Did this check fail the gate?
    pub regression: bool,
}

/// All checks for one `BENCH_*.json` pair.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Sidecar filename (e.g. `BENCH_fig8_ladder.json`).
    pub name: String,
    /// The fresh run never produced this sidecar.
    pub missing_fresh: bool,
    /// The fresh run produced this sidecar but no baseline is
    /// committed: a *new* bench that would silently escape gating.
    pub missing_baseline: bool,
    /// Per-metric results.
    pub checks: Vec<Check>,
}

/// The gate verdict across every baseline sidecar.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Per-file results.
    pub files: Vec<FileReport>,
}

impl GateReport {
    /// True when nothing regressed and nothing went missing — on
    /// either side: a fresh sidecar without a committed baseline is as
    /// hard a failure as a baseline without a fresh counterpart.
    pub fn passed(&self) -> bool {
        self.files.iter().all(|f| {
            !f.missing_fresh && !f.missing_baseline && f.checks.iter().all(|c| !c.regression)
        })
    }

    /// Count of failing checks (missing sidecars, either side, count
    /// once each).
    fn regressions(&self) -> usize {
        self.files
            .iter()
            .map(|f| {
                if f.missing_fresh || f.missing_baseline {
                    1
                } else {
                    f.checks.iter().filter(|c| c.regression).count()
                }
            })
            .sum()
    }

    /// Machine-readable verdict document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"pass\":");
        out.push_str(if self.passed() { "true" } else { "false" });
        out.push_str(",\"regressions\":");
        out.push_str(&self.regressions().to_string());
        out.push_str(",\"files\":[");
        for (i, f) in self.files.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            out.push_str(&json::escaped(&f.name));
            out.push_str(",\"missing_fresh\":");
            out.push_str(if f.missing_fresh { "true" } else { "false" });
            out.push_str(",\"missing_baseline\":");
            out.push_str(if f.missing_baseline { "true" } else { "false" });
            out.push_str(",\"checks\":[");
            for (j, c) in f.checks.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"metric\":");
                out.push_str(&json::escaped(&c.metric));
                out.push_str(",\"baseline\":");
                out.push_str(&json::number(c.baseline));
                out.push_str(",\"fresh\":");
                match c.fresh {
                    Some(v) => out.push_str(&json::number(v)),
                    None => out.push_str("null"),
                }
                out.push_str(",\"rel\":");
                out.push_str(&json::number(c.rel));
                out.push_str(",\"tol\":");
                out.push_str(&json::number(c.tol));
                out.push_str(",\"direction\":\"");
                out.push_str(c.direction.name());
                out.push_str("\",\"regression\":");
                out.push_str(if c.regression { "true" } else { "false" });
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable one-line-per-failure summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            if f.missing_fresh {
                out.push_str(&format!("FAIL {}: fresh sidecar missing\n", f.name));
                continue;
            }
            if f.missing_baseline {
                out.push_str(&format!(
                    "FAIL {n}: new sidecar has no committed baseline — \
                     copy the fresh {n} into the baselines directory \
                     (and add tolerance rules if needed) so this bench is gated\n",
                    n = f.name
                ));
                continue;
            }
            for c in &f.checks {
                if c.regression {
                    let fresh = match c.fresh {
                        Some(v) => json::number(v),
                        None => "missing".to_string(),
                    };
                    out.push_str(&format!(
                        "FAIL {} {}: baseline {} fresh {} ({:+.1}%, tol {:.1}%, {})\n",
                        f.name,
                        c.metric,
                        json::number(c.baseline),
                        fresh,
                        100.0 * c.rel,
                        100.0 * c.tol,
                        c.direction.name()
                    ));
                }
            }
        }
        if out.is_empty() {
            out.push_str(&format!(
                "PASS: {} sidecar(s), no regressions\n",
                self.files.len()
            ));
        }
        out
    }
}

/// The one sidecar field that lives beside `metrics` at the top level
/// yet gates like an ordinary metric: the simulated total.
const WALL_CYCLES: &str = "wall_cycles";

pub(crate) fn metrics_of(doc: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(Value::Obj(m)) = doc.get("metrics") {
        for (k, v) in m {
            if let Some(n) = v.as_num() {
                out.push((k.clone(), n));
            }
        }
    }
    if let Some(n) = doc.get(WALL_CYCLES).and_then(|v| v.as_num()) {
        out.push((WALL_CYCLES.to_string(), n));
    }
    out
}

pub(crate) fn lookup(doc: &Value, metric: &str) -> Option<f64> {
    if metric == WALL_CYCLES {
        doc.get(metric).and_then(|v| v.as_num())
    } else {
        doc.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|v| v.as_num())
    }
}

/// Compare one baseline sidecar against its fresh counterpart.
pub fn compare_docs(
    name: &str,
    baseline: &str,
    fresh: &str,
    tol: &Tolerances,
) -> Result<FileReport, String> {
    let base = json::parse(baseline).map_err(|e| format!("{name} (baseline): {e}"))?;
    let fresh = json::parse(fresh).map_err(|e| format!("{name} (fresh): {e}"))?;
    let mut checks = Vec::new();
    for (metric, base_v) in metrics_of(&base) {
        let fresh_v = lookup(&fresh, &metric);
        let tol_v = tol.for_metric(&metric);
        let direction = direction_for(&metric);
        let denom = base_v.abs().max(1e-12);
        let (rel, regression) = match fresh_v {
            None => (0.0, true),
            Some(f) => {
                let rel = (f - base_v) / denom;
                let bad = match direction {
                    Direction::HigherBetter => rel < -tol_v,
                    Direction::LowerBetter => rel > tol_v,
                    Direction::TwoSided => rel.abs() > tol_v,
                };
                (rel, bad)
            }
        };
        checks.push(Check {
            metric,
            baseline: base_v,
            fresh: fresh_v,
            rel,
            tol: tol_v,
            direction,
            regression,
        });
    }
    Ok(FileReport {
        name: name.to_string(),
        missing_fresh: false,
        missing_baseline: false,
        checks,
    })
}

/// Run the gate over directories: every `BENCH_*.json` under
/// `baselines` must have a non-regressing counterpart in `fresh`.
/// Reads `tolerances.json` from `baselines` when present.
pub fn compare_dirs(baselines: &Path, fresh: &Path) -> Result<GateReport, String> {
    let tol = match std::fs::read_to_string(baselines.join("tolerances.json")) {
        Ok(doc) => Tolerances::parse(&doc)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Tolerances::default(),
        Err(e) => return Err(format!("tolerances.json: {e}")),
    };
    let mut names: Vec<String> = std::fs::read_dir(baselines)
        .map_err(|e| format!("{}: {e}", baselines.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "{}: no BENCH_*.json baselines found",
            baselines.display()
        ));
    }
    let mut report = GateReport::default();
    for name in names {
        let base_doc = std::fs::read_to_string(baselines.join(&name))
            .map_err(|e| format!("{name} (baseline): {e}"))?;
        match std::fs::read_to_string(fresh.join(&name)) {
            Ok(fresh_doc) => report
                .files
                .push(compare_docs(&name, &base_doc, &fresh_doc, &tol)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => report.files.push(FileReport {
                name,
                missing_fresh: true,
                missing_baseline: false,
                checks: Vec::new(),
            }),
            Err(e) => return Err(format!("{name} (fresh): {e}")),
        }
    }
    // The reverse sweep: a fresh sidecar with no committed baseline is
    // a *new* bench that would otherwise silently skip gating. An
    // unreadable fresh dir is not an error here — every baseline is
    // already reported missing_fresh above.
    if let Ok(entries) = std::fs::read_dir(fresh) {
        let mut extra: Vec<String> = entries
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                (name.starts_with("BENCH_")
                    && name.ends_with(".json")
                    && !report.files.iter().any(|f| f.name == name))
                .then_some(name)
            })
            .collect();
        extra.sort();
        for name in extra {
            report.files.push(FileReport {
                name,
                missing_fresh: false,
                missing_baseline: true,
                checks: Vec::new(),
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"name":"demo","config":{"sizes":"[3000]"},
        "metrics":{"speedup.gld.3000":2.5,"case1.pct.force":96.8,"halo.ns":1200.0},
        "wall_cycles":1000000}"#;

    #[test]
    fn parity_passes() {
        let tol = Tolerances::default();
        let rep = compare_docs("BENCH_demo.json", BASE, BASE, &tol).unwrap();
        assert!(rep.checks.iter().all(|c| !c.regression));
        assert_eq!(rep.checks.len(), 4);
    }

    #[test]
    fn wall_cycles_is_the_only_top_level_field_gated() {
        // Host time is not the sidecar's to report: a document written
        // before the wall fields left the schema pairs with one written
        // after, whichever side is the baseline, and nothing is checked
        // but `metrics` and `wall_cycles`.
        let tol = Tolerances::default();
        let with_wall = BASE.replace(
            "\"wall_cycles\":1000000",
            "\"wall_cycles\":1000000,\"wall_ns\":5,\"steps_per_s\":2.0,\"ns_per_day\":9.0",
        );
        for (base, fresh) in [(BASE, with_wall.as_str()), (with_wall.as_str(), BASE)] {
            let rep = compare_docs("BENCH_demo.json", base, fresh, &tol).unwrap();
            assert!(rep.checks.iter().all(|c| !c.regression));
            assert_eq!(rep.checks.len(), 4);
            assert_eq!(rep.checks[3].metric, "wall_cycles");
        }
    }

    #[test]
    fn direction_rules_cut_both_ways() {
        let tol = Tolerances::default();
        // Slower wall clock + lower speedup: both must fail.
        let slowed = r#"{"name":"demo","metrics":
            {"speedup.gld.3000":1.2,"case1.pct.force":96.8,"halo.ns":1200.0},
            "wall_cycles":1500000}"#;
        let rep = compare_docs("BENCH_demo.json", BASE, slowed, &tol).unwrap();
        let failing: Vec<&str> = rep
            .checks
            .iter()
            .filter(|c| c.regression)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(failing, vec!["speedup.gld.3000", "wall_cycles"]);
        // A *faster* run passes everything: improvement is never a
        // regression for directional metrics.
        let faster = r#"{"name":"demo","metrics":
            {"speedup.gld.3000":9.9,"case1.pct.force":96.8,"halo.ns":10.0},
            "wall_cycles":500}"#;
        let rep = compare_docs("BENCH_demo.json", BASE, faster, &tol).unwrap();
        assert!(rep.checks.iter().all(|c| !c.regression));
    }

    #[test]
    fn two_sided_drift_catches_shape_changes() {
        let tol = Tolerances::default();
        let drifted = r#"{"name":"demo","metrics":
            {"speedup.gld.3000":2.5,"case1.pct.force":50.0,"halo.ns":1200.0},
            "wall_cycles":1000000}"#;
        let rep = compare_docs("BENCH_demo.json", BASE, drifted, &tol).unwrap();
        let bad: Vec<&str> = rep
            .checks
            .iter()
            .filter(|c| c.regression)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(bad, vec!["case1.pct.force"]);
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let tol = Tolerances::default();
        let dropped = r#"{"name":"demo","metrics":
            {"speedup.gld.3000":2.5,"case1.pct.force":96.8},
            "wall_cycles":1000000}"#;
        let rep = compare_docs("BENCH_demo.json", BASE, dropped, &tol).unwrap();
        let c = rep.checks.iter().find(|c| c.metric == "halo.ns").unwrap();
        assert!(c.regression && c.fresh.is_none());
    }

    #[test]
    fn tolerance_rules_override_the_default() {
        let tol =
            Tolerances::parse(r#"{"default":0.05,"rules":{"speedup":0.5,"speedup.gld":0.9}}"#)
                .unwrap();
        assert_eq!(tol.for_metric("wall_cycles"), 0.05);
        assert_eq!(tol.for_metric("speedup.pkg.3000"), 0.5);
        // Longest matching substring wins.
        assert_eq!(tol.for_metric("speedup.gld.3000"), 0.9);
    }

    #[test]
    fn verdict_json_parses_and_carries_the_verdict() {
        let tol = Tolerances::default();
        let rep = GateReport {
            files: vec![compare_docs("BENCH_demo.json", BASE, BASE, &tol).unwrap()],
        };
        let v = json::parse(&rep.to_json()).unwrap();
        assert_eq!(v.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(v.get("regressions").and_then(|r| r.as_num()), Some(0.0));
        assert!(rep.summary().starts_with("PASS"));
    }

    #[test]
    fn new_fresh_sidecar_without_baseline_is_a_hard_error() {
        let root = std::env::temp_dir().join(format!("swtel-gate-newfresh-{}", std::process::id()));
        let baselines = root.join("baselines");
        let fresh = root.join("fresh");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        std::fs::write(baselines.join("BENCH_demo.json"), BASE).unwrap();
        std::fs::write(fresh.join("BENCH_demo.json"), BASE).unwrap();
        std::fs::write(fresh.join("BENCH_new.json"), BASE).unwrap();
        let rep = compare_dirs(&baselines, &fresh).unwrap();
        assert!(!rep.passed(), "an ungated new bench must fail the gate");
        assert_eq!(rep.regressions(), 1);
        let f = rep
            .files
            .iter()
            .find(|f| f.name == "BENCH_new.json")
            .unwrap();
        assert!(f.missing_baseline && !f.missing_fresh && f.checks.is_empty());
        let summary = rep.summary();
        assert!(
            summary.contains("no committed baseline"),
            "message must say what to do: {summary}"
        );
        let v = json::parse(&rep.to_json()).unwrap();
        assert_eq!(v.get("pass"), Some(&Value::Bool(false)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn directions_classified_by_token() {
        assert_eq!(direction_for("speedup.mark.3000"), Direction::HigherBetter);
        assert_eq!(direction_for("wall_cycles"), Direction::LowerBetter);
        assert_eq!(direction_for("halo.ns"), Direction::LowerBetter);
        assert_eq!(
            direction_for("steps_per_s.metered"),
            Direction::HigherBetter
        );
        assert_eq!(
            direction_for("case2.pct.comm__energies"),
            Direction::TwoSided
        );
    }
}
