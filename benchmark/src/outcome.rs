//! What one run of one workload reports, and the result line the
//! driver reads: `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::BTreeMap;

use swprof::json::{self, Value};

use crate::spec::MetricDef;
use crate::stats::Summary;

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part (steps, calls, jobs).
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.metrics.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// Record a wall-clock metric as the median of `samples`, and its
    /// quartiles and count for the printed report.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) -> f64 {
        let s = Summary::of(samples);
        self.set(name, s.p50);
        self.notes
            .push(format!("{name}: q1 {:.4} q3 {:.4} n {}", s.q1, s.q3, s.n));
        s.p50
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Record one output check; a failed check makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The report for people: every metric by name with its unit, the
    /// spread notes and the output checks.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            if let Some(v) = self.metrics.get(d.name.as_str()) {
                println!("{:<32} {:>16} {}", d.name, json::number(*v), d.unit);
            }
        }
        for n in &self.notes {
            println!("  note   {n}");
        }
        for (what, ok) in &self.checks {
            println!("  check  {what}: {}", if *ok { "ok" } else { "FAILED" });
        }
        println!(
            "  ops    attempted {} failed {} fail_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
    }

    /// The result line. Every metric in `defs` appears: a layer the
    /// workload never enters reads 0 when `absent_is_zero`, otherwise a
    /// missing metric is a harness bug, as is a metric `defs` lacks.
    pub fn result_line(&self, defs: &[MetricDef], absent_is_zero: bool) -> Result<String, String> {
        if let Some(stray) = self
            .metrics
            .keys()
            .find(|k| !defs.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric `{stray}` is not in BENCHMARK.json"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let value = match self.metrics.get(d.name.as_str()) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric `{}` is {v}", d.name)),
                None if absent_is_zero => 0.0,
                None => return Err(format!("metric `{}` was not measured", d.name)),
            };
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escaped(&d.name),
                json::number(value),
                json::escaped(&d.unit)
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A result line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name -> (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl ResultLine {
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("result line: `{key}` is not a number"))
        };
        let Some(Value::Bool(correct)) = doc.get("correct") else {
            return Err("result line: `correct` is not a boolean".into());
        };
        let Some(Value::Obj(raw)) = doc.get("metrics") else {
            return Err("result line: `metrics` is not an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in raw {
            let value = m.get("value").and_then(Value::as_num);
            let unit = m.get("unit").and_then(Value::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("result line: metric `{name}` lacks value or unit"));
            };
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(Self {
            correct: *correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs() -> Vec<MetricDef> {
        ["latency_ms", "cache.hits"]
            .iter()
            .map(|n| MetricDef {
                name: n.to_string(),
                unit: if n.ends_with("ms") { "ms" } else { "count" }.to_string(),
                higher_is_better: false,
                bound: None,
            })
            .collect()
    }

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        o.set("latency_ms", 1.203_456_789_012_3);
        o.check("pairs match", true);
        let line = o.result_line(&defs(), true).unwrap();
        assert!(!line.contains('\n'));
        let back = ResultLine::parse(&line).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (true, 1000, 0));
        assert_eq!(
            back.metrics["latency_ms"],
            (1.203_456_789_012_3, "ms".to_string())
        );
        // A layer the workload never entered reads zero.
        assert_eq!(back.metrics["cache.hits"], (0.0, "count".to_string()));
        assert_eq!(back.metrics.len(), 2);
    }

    #[test]
    fn missing_stray_and_failed_are_reported() {
        let mut o = Outcome::default();
        o.set("latency_ms", 2.0);
        assert!(o
            .result_line(&defs(), false)
            .unwrap_err()
            .contains("cache.hits"));
        o.set("not_declared", 1.0);
        assert!(o
            .result_line(&defs(), true)
            .unwrap_err()
            .contains("not_declared"));

        let mut o = Outcome::default();
        o.set("latency_ms", f64::NAN);
        assert!(o.result_line(&defs(), true).is_err());

        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("latency_ms", 2.0);
        assert!(o.correct());
        o.check("checksum", false);
        assert!(!o.correct());
        let back = ResultLine::parse(&o.result_line(&defs(), true).unwrap()).unwrap();
        assert!(!back.correct);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
