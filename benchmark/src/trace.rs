//! In-memory spans around the calls into each layer.
//!
//! The harness records a span at every layer boundary it crosses — the
//! program itself is not instrumented — keeps them in memory, and writes
//! them out once when the traced run ends. A layer's *self time* is its
//! spans' duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// The MD step or serve job the span belongs to.
    pub seq: u64,
}

/// Handle returned by [`Tracer::open`]; closing it out of order is a bug.
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Total self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub ns: u64,
    pub count: u64,
}

impl SelfTime {
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, seq: u64) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            seq,
        });
        self.stack.push(idx);
        // Stamp last, so the recorder's own bookkeeping stays outside.
        self.spans[idx].start_ns = self.now_ns();
        Open(idx)
    }

    /// Close the innermost span; returns its duration in ns.
    pub fn close(&mut self, open: Open) -> u64 {
        let end = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Time one call as a span; returns its result and its milliseconds.
    pub fn timed<R>(&mut self, name: &'static str, seq: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, seq);
        let r = f();
        let ns = self.close(open);
        (r, ns as f64 / 1e6)
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, seq: u64, f: impl FnOnce() -> R) -> R {
        self.timed(name, seq, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name over the spans `keep` accepts.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans, keep)
    }

    /// Write `{workload, seq_kind, spans: [{name, start_ns, end_ns,
    /// parent, workload, <seq_kind>}]}`; `seq_kind` is `"step"` or `"job"`.
    pub fn write(&self, path: &Path, workload: &str, seq_kind: &str) -> io::Result<()> {
        use swprof::json::escaped;
        let mut out = format!(
            "{{\"workload\": {}, \"seq_kind\": {}, \"spans\": [",
            escaped(workload),
            escaped(seq_kind)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"workload\": {}, {}: {}}}",
                escaped(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                escaped(workload),
                escaped(seq_kind),
                s.seq
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        if keep(s) {
            let e = out.entry(s.name).or_default();
            e.ns += (s.end_ns - s.start_ns) - covered;
            e.count += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, seq: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            seq,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // step [0,100) { force [10,60) { reduce [20,30) } update [60,90) }
        // step [100,150) { force [100,140) }
        let spans = vec![
            span("step", 0, 100, None, 0),
            span("force", 10, 60, Some(0), 0),
            span("reduce", 20, 30, Some(1), 0),
            span("update", 60, 90, Some(0), 0),
            span("step", 100, 150, None, 1),
            span("force", 100, 140, Some(4), 1),
        ];
        let t = self_times(&spans, |_| true);
        assert_eq!(
            t["step"],
            SelfTime {
                ns: 20 + 10,
                count: 2
            }
        );
        assert_eq!(
            t["force"],
            SelfTime {
                ns: 40 + 40,
                count: 2
            }
        );
        assert_eq!(t["reduce"], SelfTime { ns: 10, count: 1 });
        assert_eq!(t["update"], SelfTime { ns: 30, count: 1 });
        // Self times add up to the root spans' wall time.
        assert_eq!(t.values().map(|s| s.ns).sum::<u64>(), 150);
        // Filtering by step keeps the subtraction per span.
        let t1 = self_times(&spans, |s| s.seq == 1);
        assert_eq!(t1["step"], SelfTime { ns: 10, count: 1 });
        assert!(!t1.contains_key("update"));
    }

    #[test]
    fn recorder_nests_by_open_order_and_writes_valid_json() {
        let mut tr = Tracer::new();
        let outer = tr.open("outer", 3);
        tr.time("inner", 3, || std::hint::black_box(1 + 1));
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let dir = crate::scratch::Scratch::new("trace-test").unwrap();
        let path = dir.path().join("trace.json");
        tr.write(&path, "unit", "step").unwrap();
        let doc = swprof::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let arr = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(arr[1].get("parent").unwrap().as_num(), Some(0.0));
        assert_eq!(arr[1].get("step").unwrap().as_num(), Some(3.0));
        assert_eq!(arr[0].get("workload").unwrap().as_str(), Some("unit"));
    }
}
