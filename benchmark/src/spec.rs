//! The benchmark's contract, read from the `BENCHMARK.json` this binary
//! was built beside: workload names, metric names, units, directions and
//! bounds have that one source.

use swprof::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// Counts and anything on the virtual SW26010 clock (`sim_` names)
    /// repeat exactly for one seed; everything else is a wall-clock
    /// measurement with run-to-run noise.
    pub fn is_exact(&self) -> bool {
        self.unit == "count" || self.name.starts_with("sim_") || self.name.contains(".sim_")
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Self {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: entry without `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Value::as_num),
                })
                .collect()
        };
        Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_num)
                .expect("BENCHMARK.json: `run_seconds` is a number"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics one run reports: end-to-end with tracing off,
    /// per-layer with tracing on.
    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let spec = Spec::load();
        let mut seen = std::collections::BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "name {name:?} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        assert!((2..=8).contains(&spec.workloads.len()));
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "`why` of {} chars",
                why.len()
            );
        }
        assert!((1..=60).contains(&(spec.run_seconds as u32)));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn exactness_follows_the_naming_rule() {
        let spec = Spec::load();
        let exact = |name: &str| {
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .find(|m| m.name == name)
                .unwrap()
                .is_exact()
        };
        assert!(
            exact("engine.sim_ms_per_step")
                && exact("pairgen.sim_cycles")
                && exact("cpelist.entries")
        );
        assert!(
            !exact("ops_per_s") && !exact("engine.ns_per_day") && !exact("swstore.commit_ms_p50")
        );
    }
}
