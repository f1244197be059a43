//! Chrome-trace export and cross-document merge.
//!
//! A finished [`Telemetry`] exports either one rank's view
//! ([`Telemetry::rank_trace`]) or the whole fleet
//! ([`Telemetry::to_chrome_trace`]) as Chrome `trace_event` JSON:
//! `pid` = rank, `tid` = 0, `ts` in microseconds off the shared
//! virtual-ns timebase. Cross-rank messages appear as flow events —
//! `ph: "s"` at the send, `ph: "f"` (with `bp: "e"`) at the receive,
//! sharing the flow id — which Perfetto draws as arrows between the
//! rank tracks.
//!
//! [`merge_documents`] combines separately-written per-rank trace
//! files into one global timeline: each input document becomes one
//! process (its `pid`s are reassigned to the document index), and the
//! flow events keep their ids, so arrows survive the merge as long as
//! the inputs came from the same session.

use std::collections::BTreeMap;

use super::{rank_of, FlowPhase, Telemetry};
use crate::json::{self, Value};
use crate::Phase;

fn push_common(out: &mut String, name: &str, ph: &str, pid: usize, ns: u64) {
    out.push_str("{\"name\":");
    json::write_escaped(out, name);
    out.push_str(",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":0,\"ts\":");
    out.push_str(&json::number(ns as f64 / 1000.0));
}

impl Telemetry {
    /// The record in its order, one rank's events or all. Span ids are
    /// numbered the way the record numbered them: Begins from 1, an End
    /// closing the innermost open Begin of its rank, as
    /// [`crate::closed_spans`] pairs them.
    fn emit(&self, only_rank: Option<usize>) -> String {
        let mut out = String::with_capacity(256 + self.order.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        for rank in 0..self.n_ranks {
            if only_rank.is_some_and(|r| r != rank) {
                continue;
            }
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ));
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"sort_index\":{rank}}}}}"
            ));
        }
        let (mut spans, mut flows) = (self.spans.iter(), self.flows.iter());
        let mut open: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut begun = 0;
        for &is_flow in &self.order {
            if !is_flow {
                let Some(s) = spans.next() else { break };
                let rank = rank_of(s);
                let stack = open.entry(rank).or_default();
                let (ph, span_id) = match s.phase {
                    Phase::Begin => {
                        begun += 1;
                        stack.push(begun);
                        ("B", begun)
                    }
                    Phase::End => ("E", stack.pop().unwrap_or(0)),
                };
                if only_rank.is_none_or(|r| r == rank) {
                    sep(&mut out);
                    push_common(&mut out, &s.label, ph, rank, s.ts);
                    out.push_str(",\"args\":{\"span_id\":");
                    out.push_str(&span_id.to_string());
                    out.push_str("}}");
                }
                continue;
            }
            let Some(f) = flows.next() else { break };
            if only_rank.is_some_and(|r| r != f.rank) {
                continue;
            }
            sep(&mut out);
            let ph = match f.phase {
                FlowPhase::Send => "s",
                FlowPhase::Recv => "f",
            };
            push_common(&mut out, f.label, ph, f.rank, f.ns);
            out.push_str(",\"cat\":\"net\",\"id\":");
            out.push_str(&f.flow_id.to_string());
            if matches!(f.phase, FlowPhase::Recv) {
                out.push_str(",\"bp\":\"e\"");
            }
            out.push_str(",\"args\":{\"trace_id\":");
            out.push_str(&f.trace_id.to_string());
            out.push_str(",\"parent_span_id\":");
            out.push_str(&f.parent_span_id.to_string());
            out.push_str(",\"seqno\":");
            out.push_str(&f.seqno.to_string());
            out.push_str(",\"peer\":");
            out.push_str(&f.peer.to_string());
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{\"trace_id\":");
        out.push_str(&self.trace_id.to_string());
        out.push_str("}}");
        out
    }

    /// The whole fleet as one Chrome trace: one process per rank, flow
    /// arrows linking each send to its receive.
    pub fn to_chrome_trace(&self) -> String {
        self.emit(None)
    }

    /// A single rank's view (its spans plus its ends of each flow).
    pub fn rank_trace(&self, rank: usize) -> String {
        self.emit(Some(rank))
    }
}

/// Merge separately-written Chrome trace documents into one global
/// timeline. Document `i`'s events get `pid` = `i`, so each input
/// becomes one process track group; everything else (including flow
/// ids) passes through untouched.
pub fn merge_documents(docs: &[String]) -> Result<String, String> {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (i, doc) in docs.iter().enumerate() {
        let parsed = json::parse(doc).map_err(|e| format!("input {i}: {e}"))?;
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("input {i}: no traceEvents array"))?;
        for ev in events {
            let Value::Obj(fields) = ev else {
                return Err(format!("input {i}: non-object trace event"));
            };
            let mut fields = fields.clone();
            fields.insert("pid".to_string(), Value::Num(i as f64));
            if !first {
                out.push(',');
            }
            first = false;
            json::write_value(&mut out, &Value::Obj(fields));
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tel::{deliver, send_from, span_on, tick_on, Session};

    fn sample() -> Telemetry {
        let session = Session::begin(0xabc);
        {
            let _s = span_on(0, "step");
            tick_on(0, 500);
            let ctx = send_from("halo.f", 0, 1).unwrap();
            {
                let _r = span_on(1, "step");
                tick_on(1, 100);
                deliver(&ctx, 250);
            }
        }
        session.finish()
    }

    #[test]
    fn global_trace_has_flows_and_nested_spans() {
        let tel = sample();
        tel.check_causal().unwrap();
        let doc = tel.to_chrome_trace();
        let v = json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|x| x.as_arr()).unwrap();
        let mut sends = 0;
        let mut finishes = 0;
        let mut depth = std::collections::BTreeMap::new();
        for e in events {
            match e.get("ph").and_then(|p| p.as_str()).unwrap() {
                "s" => sends += 1,
                "f" => {
                    finishes += 1;
                    assert_eq!(e.get("bp").and_then(|b| b.as_str()), Some("e"));
                }
                "B" => {
                    let pid = e.get("pid").and_then(|p| p.as_num()).unwrap() as i64;
                    *depth.entry(pid).or_insert(0i64) += 1;
                }
                "E" => {
                    let pid = e.get("pid").and_then(|p| p.as_num()).unwrap() as i64;
                    let d = depth.entry(pid).or_insert(0i64);
                    *d -= 1;
                    assert!(*d >= 0);
                }
                _ => {}
            }
        }
        assert_eq!((sends, finishes), (1, 1));
        assert!(depth.values().all(|&d| d == 0));
    }

    #[test]
    fn the_export_lists_spans_and_flows_in_record_order() {
        let session = Session::begin(0xd0);
        let a = span_on(0, "a");
        tick_on(0, 10);
        let b = span_on(1, "b");
        let m1 = send_from("m1", 1, 2).unwrap();
        let c = span_on(0, "c");
        let m2 = send_from("m2", 0, 1).unwrap();
        deliver(&m1, 5);
        drop(c);
        let m3 = send_from("m3", 0, 2).unwrap();
        let d = span_on(2, "d");
        deliver(&m2, 5);
        drop(b);
        deliver(&m3, 5);
        drop((d, a));
        let tel = session.finish();
        tel.check_causal().unwrap();
        // (ph, pid, name, span id of a span half / parent span of a flow
        // endpoint), metadata left out.
        let listed = |doc: String| -> Vec<(String, usize, String, u64)> {
            let doc = json::parse(&doc).unwrap();
            let events = doc.get("traceEvents").and_then(|x| x.as_arr()).unwrap();
            let text = |e: &Value, k: &str| e.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            let num = |e: &Value, k: &str| e.get(k).and_then(|v| v.as_num()).unwrap();
            events
                .iter()
                .filter(|e| text(e, "ph") != "M")
                .map(|e| {
                    let args = e.get("args").unwrap();
                    let id = ["span_id", "parent_span_id"]
                        .iter()
                        .find_map(|k| args.get(k));
                    let id = id.and_then(|v| v.as_num()).unwrap() as u64;
                    (text(e, "ph"), num(e, "pid") as usize, text(e, "name"), id)
                })
                .collect()
        };
        let recorded: Vec<(String, usize, String, u64)> = [
            ("B", 0, "a", 1),
            ("B", 1, "b", 2),
            ("s", 1, "m1", 2),
            ("B", 0, "c", 3),
            ("s", 0, "m2", 3),
            ("f", 2, "m1", 2),
            ("E", 0, "c", 3),
            ("s", 0, "m3", 1),
            ("B", 2, "d", 4),
            ("f", 1, "m2", 3),
            ("E", 1, "b", 2),
            ("f", 2, "m3", 1),
            ("E", 2, "d", 4),
            ("E", 0, "a", 1),
        ]
        .iter()
        .map(|&(ph, pid, name, id)| (ph.to_string(), pid, name.to_string(), id))
        .collect();
        assert_eq!(listed(tel.to_chrome_trace()), recorded);
        for rank in 0..3 {
            let own: Vec<_> = recorded.iter().filter(|e| e.1 == rank).cloned().collect();
            assert_eq!(listed(tel.rank_trace(rank)), own, "rank {rank}");
        }
    }

    #[test]
    fn rank_trace_filters_to_one_pid() {
        let tel = sample();
        let doc = tel.rank_trace(1);
        let v = json::parse(&doc).unwrap();
        for e in v.get("traceEvents").and_then(|x| x.as_arr()).unwrap() {
            assert_eq!(e.get("pid").and_then(|p| p.as_num()), Some(1.0));
        }
    }

    #[test]
    fn merge_reassigns_pids_per_document() {
        let tel = sample();
        let docs = vec![tel.rank_trace(0), tel.rank_trace(1)];
        let merged = merge_documents(&docs).unwrap();
        let v = json::parse(&merged).unwrap();
        let events = v.get("traceEvents").and_then(|x| x.as_arr()).unwrap();
        let pids: std::collections::BTreeSet<i64> = events
            .iter()
            .map(|e| e.get("pid").and_then(|p| p.as_num()).unwrap() as i64)
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        // Flow ids pass through: the send in doc 0 still pairs with
        // the receive in doc 1.
        let flow_ids: Vec<i64> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(|p| p.as_str()), Some("s") | Some("f")))
            .map(|e| e.get("id").and_then(|p| p.as_num()).unwrap() as i64)
            .collect();
        assert_eq!(flow_ids.len(), 2);
        assert_eq!(flow_ids[0], flow_ids[1]);
    }

    #[test]
    fn merge_rejects_garbage() {
        assert!(merge_documents(&["not json".to_string()]).is_err());
        assert!(merge_documents(&["{\"a\":1}".to_string()]).is_err());
        // A hostile file nests past the parser's cap: an error naming
        // the input, not a stack overflow.
        let err = merge_documents(&[sample().rank_trace(0), "[".repeat(1_000_000)]).unwrap_err();
        assert!(
            err.starts_with("input 1: ") && err.ends_with("nesting too deep"),
            "{err}"
        );
    }
}
