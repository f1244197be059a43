//! `swbench compare A.json B.json`: one row per workload and metric,
//! B against A, judged by the bounds in `BENCHMARK.json`.

use crate::spec::{MetricDef, Spec};
use crate::stats::Summary;
use crate::suite::{ResultSet, Series};

/// Quartiles mean little below this many runs per set.
const MIN_RUNS_FOR_SPREAD: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, same values in both sets.
    Identical,
    /// Exact metric, values differ (within the bound, if it has one).
    Differs,
    /// Median within the bound, and the spread resolves it.
    Unchanged,
    /// Every run of B reads better than every run of A.
    Improved,
    /// Median within the bound, but the run-to-run spread is wider than
    /// the bound (or unknown): no claim either way.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
    /// Per-layer wall metric: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "",
        }
    }
}

pub struct Row {
    pub a: Summary,
    pub b: Summary,
    /// Relative change of the median, positive = worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let change = if sa.p50 == sb.p50 {
        0.0
    } else {
        (sb.p50 - sa.p50) / sa.p50.abs()
    };
    let worse_by = if def.higher_is_better {
        -change
    } else {
        change
    };
    let regressed = def.bound.is_some_and(|bound| worse_by > bound);

    let verdict = if def.is_exact() {
        let (mut va, mut vb) = (a.to_vec(), b.to_vec());
        va.sort_by(f64::total_cmp);
        vb.sort_by(f64::total_cmp);
        if va == vb {
            Verdict::Identical
        } else if regressed {
            Verdict::Regressed
        } else {
            Verdict::Differs
        }
    } else if regressed {
        Verdict::Regressed
    } else if let Some(bound) = def.bound {
        let better = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
        let all_better = b.iter().all(|x| a.iter().all(|y| better(*x, *y)));
        let spread_known = sa.n >= MIN_RUNS_FOR_SPREAD && sb.n >= MIN_RUNS_FOR_SPREAD;
        if all_better && spread_known {
            Verdict::Improved
        } else if !spread_known || sa.spread().max(sb.spread()) > bound {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    } else {
        Verdict::Info
    };
    Row {
        a: sa,
        b: sb,
        worse_by,
        verdict,
    }
}

/// Print the comparison; returns whether every end-to-end metric of
/// every workload stayed within its bound.
pub fn compare(spec: &Spec, a: &ResultSet, b: &ResultSet) -> Result<bool, String> {
    if a.host_threads != b.host_threads {
        println!(
            "note: host.threads differs ({} vs {}); thread-dependent metrics are not comparable",
            a.host_threads, b.host_threads
        );
    }
    if a.seeds != b.seeds || a.seconds != b.seconds {
        println!("note: the sets ran different seeds or run lengths; exact metrics may differ for that reason alone");
    }
    println!(
        "{:<14} {:<30} {:<11} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "unit", "A median", "B median", "worse by", "bound"
    );
    let mut within_bounds = true;
    for workload in &spec.workloads {
        let (wa, wb) = match (a.workloads.get(workload), b.workloads.get(workload)) {
            (Some(wa), Some(wb)) => (wa, wb),
            _ => {
                return Err(format!(
                    "workload `{workload}` is missing from a result set"
                ))
            }
        };
        for (w, which) in [(wa, "A"), (wb, "B")] {
            if !w.correct {
                println!("{workload:<14} set {which} failed its output checks");
                within_bounds = false;
            }
        }
        let groups = [
            (&spec.end_to_end, &wa.end_to_end, &wb.end_to_end),
            (&spec.per_layer, &wa.per_layer, &wb.per_layer),
        ];
        for (defs, ma, mb) in groups {
            for def in defs {
                let values = |m: &std::collections::BTreeMap<String, Series>| {
                    m.get(&def.name)
                        .map(|s| s.values.clone())
                        .filter(|v| !v.is_empty())
                        .ok_or_else(|| {
                            format!("{workload}: `{}` is missing from a result set", def.name)
                        })
                };
                let (va, vb) = (values(ma)?, values(mb)?);
                if def.bound.is_none() && va.iter().chain(&vb).all(|v| *v == 0.0) {
                    continue; // a layer this workload never enters
                }
                let row = judge(def, &va, &vb);
                within_bounds &= row.verdict != Verdict::Regressed;
                println!(
                    "{:<14} {:<30} {:<11} {:>14.6} {:>14.6} {:>+8.2}% {:>7}  {}{}",
                    workload,
                    def.name,
                    def.unit,
                    row.a.p50,
                    row.b.p50,
                    row.worse_by * 100.0,
                    def.bound
                        .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                    row.verdict.label(),
                    if row.verdict == Verdict::Unresolved {
                        format!(
                            " (spread A {:.1}% B {:.1}%, n {}/{})",
                            row.a.spread() * 100.0,
                            row.b.spread() * 100.0,
                            row.a.n,
                            row.b.n
                        )
                    } else {
                        String::new()
                    }
                );
            }
        }
    }
    println!(
        "{}",
        if within_bounds {
            "every end-to-end metric is within its bound"
        } else {
            "OUT OF BOUNDS: at least one end-to-end metric regressed or a set failed its checks"
        }
    );
    Ok(within_bounds)
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&Spec::load(), &load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, unit: &str, higher: bool, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: unit.into(),
            higher_is_better: higher,
            bound,
        }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn wall_metrics_are_judged_against_bound_and_spread() {
        let lat = def("op_ms_p50", "ms", false, Some(0.10));
        // Tight sets, 2% apart: unchanged.
        let row = judge(&lat, &around(100.0, 0.2), &around(102.0, 0.2));
        assert_eq!(row.verdict, Verdict::Unchanged);
        assert!((row.worse_by - 0.02).abs() < 1e-9);
        // 20% slower: regressed, however wide the spread.
        assert_eq!(
            judge(&lat, &around(100.0, 0.2), &around(120.0, 0.2)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lat, &around(100.0, 8.0), &around(125.0, 8.0)).verdict,
            Verdict::Regressed
        );
        // Within the bound but the sets are wider than the bound: never "unchanged".
        assert_eq!(
            judge(&lat, &around(100.0, 4.0), &around(103.0, 4.0)).verdict,
            Verdict::Unresolved
        );
        // Too few runs to know the spread.
        assert_eq!(judge(&lat, &[100.0], &[101.0]).verdict, Verdict::Unresolved);
        // Every run of B beats every run of A.
        assert_eq!(
            judge(&lat, &around(100.0, 0.2), &around(90.0, 0.2)).verdict,
            Verdict::Improved
        );

        // Direction: for a throughput, lower is worse.
        let thr = def("ops_per_s", "1/s", true, Some(0.10));
        assert_eq!(
            judge(&thr, &around(50.0, 0.1), &around(40.0, 0.1)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&thr, &around(50.0, 0.1), &around(60.0, 0.1)).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_are_identical_or_differ() {
        let sim = def("sim_ms_per_op", "virtual_ms", false, Some(0.05));
        assert_eq!(
            judge(&sim, &[1.5, 1.6], &[1.6, 1.5]).verdict,
            Verdict::Identical
        );
        assert_eq!(
            judge(&sim, &[1.5, 1.6], &[1.5, 1.61]).verdict,
            Verdict::Differs
        );
        assert_eq!(judge(&sim, &[1.5], &[1.7]).verdict, Verdict::Regressed);
        let count = def("cpelist.entries", "count", false, None);
        assert_eq!(judge(&count, &[10.0], &[10.0]).verdict, Verdict::Identical);
        assert_eq!(judge(&count, &[10.0], &[99.0]).verdict, Verdict::Differs);
        // Per-layer wall metrics are reported, not judged.
        let layer = def("cpelist.ms_per_step", "ms", false, None);
        assert_eq!(judge(&layer, &[1.0], &[5.0]).verdict, Verdict::Info);
    }
}
