//! `swbench run`: every workload, each run in its own child process,
//! collected into one result set.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use swprof::json::{self, Value};

use crate::outcome::ResultLine;
use crate::scratch;
use crate::spec::Spec;

/// Threads the program will start for itself (`NativePool::new`).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One metric over the runs of a set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

/// One workload over the runs of a set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadRuns {
    /// Every run passed every output check with no failed operation.
    pub correct: bool,
    pub attempted: Vec<u64>,
    pub failed: Vec<u64>,
    /// One value per seed, tracing off.
    pub end_to_end: BTreeMap<String, Series>,
    /// From the traced run on the first seed.
    pub per_layer: BTreeMap<String, Series>,
}

/// What `swbench run` writes and `swbench compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub host_threads: usize,
    pub seconds: f64,
    pub seeds: Vec<u64>,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

fn join<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(", ")
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let series = |m: &BTreeMap<String, Series>| {
            join(m, |(name, s)| {
                format!(
                    "\n        {}: {{\"unit\": {}, \"values\": [{}]}}",
                    json::escaped(name),
                    json::escaped(&s.unit),
                    join(&s.values, |v| json::number(*v))
                )
            })
        };
        let workloads = join(&self.workloads, |(name, w)| {
            format!(
                "\n    {}: {{\n      \"correct\": {},\n      \"attempted\": [{}],\n      \"failed\": [{}],\n      \"end_to_end\": {{{}\n      }},\n      \"per_layer\": {{{}\n      }}\n    }}",
                json::escaped(name),
                w.correct,
                join(&w.attempted, u64::to_string),
                join(&w.failed, u64::to_string),
                series(&w.end_to_end),
                series(&w.per_layer)
            )
        });
        format!(
            "{{\n  \"host\": {{\"threads\": {}}},\n  \"seconds\": {},\n  \"seeds\": [{}],\n  \"workloads\": {{{}\n  }}\n}}\n",
            self.host_threads,
            json::number(self.seconds),
            join(&self.seeds, u64::to_string),
            workloads
        )
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
            v.get(key)
                .ok_or_else(|| format!("result set: `{key}` is missing"))
        }
        fn num(v: &Value, key: &str) -> Result<f64, String> {
            field(v, key)?
                .as_num()
                .ok_or_else(|| format!("result set: `{key}` is not a number"))
        }
        fn nums(v: &Value, key: &str) -> Result<Vec<f64>, String> {
            field(v, key)?
                .as_arr()
                .and_then(|a| a.iter().map(Value::as_num).collect())
                .ok_or_else(|| format!("result set: `{key}` is not a list of numbers"))
        }
        fn counts(v: &Value, key: &str) -> Result<Vec<u64>, String> {
            Ok(nums(v, key)?.into_iter().map(|x| x as u64).collect())
        }
        fn object<'a>(v: &'a Value, key: &str) -> Result<&'a BTreeMap<String, Value>, String> {
            match field(v, key)? {
                Value::Obj(map) => Ok(map),
                _ => Err(format!("result set: `{key}` is not an object")),
            }
        }
        fn series(v: &Value, key: &str) -> Result<BTreeMap<String, Series>, String> {
            object(v, key)?
                .iter()
                .map(|(name, s)| {
                    let unit = field(s, "unit")?
                        .as_str()
                        .ok_or_else(|| format!("result set: `{name}` has no unit"))?;
                    let series = Series {
                        unit: unit.to_string(),
                        values: nums(s, "values")?,
                    };
                    Ok((name.clone(), series))
                })
                .collect()
        }

        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let mut workloads = BTreeMap::new();
        for (name, w) in object(&doc, "workloads")? {
            workloads.insert(
                name.clone(),
                WorkloadRuns {
                    correct: field(w, "correct")? == &Value::Bool(true),
                    attempted: counts(w, "attempted")?,
                    failed: counts(w, "failed")?,
                    end_to_end: series(w, "end_to_end")?,
                    per_layer: series(w, "per_layer")?,
                },
            );
        }
        Ok(Self {
            host_threads: num(field(&doc, "host")?, "threads")? as usize,
            seconds: num(&doc, "seconds")?,
            seeds: counts(&doc, "seeds")?,
            workloads,
        })
    }
}

/// Run this binary once on one workload; echo its report, return its
/// result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut proc = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &json::number(seconds)])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = proc.stdout.take().expect("piped stdout");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("{workload}: {e}"))?;
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| format!("{workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {status}",
            trace as u8
        ));
    }
    ResultLine::parse(&last)
}

fn append(into: &mut BTreeMap<String, Series>, line: &ResultLine) {
    for (name, (value, unit)) in &line.metrics {
        let s = into.entry(name.clone()).or_default();
        s.unit.clone_from(unit);
        s.values.push(*value);
    }
}

/// `swbench run`: returns whether every run was correct.
pub fn run(args: &[String], default_seed: u64) -> Result<bool, String> {
    let spec = Spec::load();
    let (mut seed, mut runs, mut seconds, mut out_path) =
        (default_seed, 1u64, spec.run_seconds, None);
    for (key, value) in crate::flags(args)? {
        match key {
            "seed" => seed = crate::parsed(key, value)?,
            "runs" => runs = crate::parsed(key, value)?,
            "seconds" => seconds = crate::parsed(key, value)?,
            "out" => out_path = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let seeds: Vec<u64> = (seed..seed + runs).collect();
    let out_path =
        out_path.unwrap_or_else(|| scratch::out_dir().join(format!("result-{seed}.json")));

    let mut set = ResultSet {
        host_threads: host_threads(),
        seconds,
        seeds: seeds.clone(),
        workloads: BTreeMap::new(),
    };
    for name in &spec.workloads {
        let w = set.workloads.entry(name.clone()).or_default();
        w.correct = true;
        for &s in &seeds {
            let line = child(name, s, seconds, false)?;
            w.correct &= line.correct;
            w.attempted.push(line.attempted);
            w.failed.push(line.failed);
            append(&mut w.end_to_end, &line);
        }
        let traced = child(name, seed, seconds, true)?;
        w.correct &= traced.correct;
        append(&mut w.per_layer, &traced);
    }

    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, set.to_json()).map_err(|e| format!("{}: {e}", out_path.display()))?;

    let all_correct = set.workloads.values().all(|w| w.correct);
    println!();
    for (name, w) in &set.workloads {
        let failed: u64 = w.failed.iter().sum();
        let attempted: u64 = w.attempted.iter().sum();
        println!(
            "{name:<16} {}  fail_share {} ({failed}/{attempted})",
            if w.correct { "ok    " } else { "FAILED" },
            failed as f64 / attempted.max(1) as f64
        );
    }
    println!(
        "result set {} (span files beside it: trace-<workload>.json); host.threads {}",
        out_path.display(),
        set.host_threads
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_round_trips() {
        let mut set = ResultSet {
            host_threads: 2,
            seconds: 8.0,
            seeds: vec![2026, 2027],
            workloads: BTreeMap::new(),
        };
        let w = set.workloads.entry("md_native_4k".into()).or_default();
        w.correct = true;
        w.attempted = vec![360, 370];
        w.failed = vec![0, 0];
        w.end_to_end.insert(
            "ops_per_s".into(),
            Series {
                unit: "1/s".into(),
                values: vec![45.123_456_789, 44.9],
            },
        );
        w.per_layer.insert(
            "pairgen.sim_cycles".into(),
            Series {
                unit: "count".into(),
                values: vec![123_456_789.0],
            },
        );
        set.workloads
            .entry("serve_chaos".into())
            .or_default()
            .failed = vec![3];
        let back = ResultSet::parse(&set.to_json()).unwrap();
        assert_eq!(back, set);
        assert!(ResultSet::parse("{\"host\": {}}").is_err());
    }
}
