//! Property-based tests over random span trees: whatever interleaving
//! of opens, closes, and clock ticks a workload produces — across any
//! mix of MPE and CPE tracks — the profile must close cleanly and the
//! Chrome-trace export must be valid JSON whose B/E events are strictly
//! nested with monotone timestamps on every track. And over the JSON
//! module itself: the writer and the parser are inverses, and hostile
//! input is an error, never a panic.

use proptest::prelude::*;
use swprof::json::{parse, write_value, Value};
use swprof::tel::{self, merge::merge_documents};

/// One random operation against the profiler.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Open a span on track `t` with label index `l`.
    Open { t: usize, l: usize },
    /// Close the innermost open span on track `t` (no-op when empty).
    Close { t: usize },
    /// Advance track `t`'s virtual clock.
    Tick { t: usize, cycles: u64 },
}

const LABELS: [&str; 5] = ["force", "neighbor", "pme", "reduce", "io"];
/// Track pool: MPE plus three CPEs.
const TRACKS: [Option<usize>; 4] = [None, Some(0), Some(1), Some(63)];

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0usize..3,
        0usize..TRACKS.len(),
        0usize..LABELS.len(),
        1u64..5_000,
    )
        .prop_map(|(kind, t, l, cycles)| match kind {
            0 => Op::Open { t, l },
            1 => Op::Close { t },
            _ => Op::Tick { t, cycles },
        })
}

proptest! {
    /// Replay a random op sequence, then check every structural
    /// guarantee the exporters rely on.
    #[test]
    fn random_span_trees_export_valid_nested_traces(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let session = swprof::Session::begin();
        // Per-track stacks of live guards; closes pop LIFO so nesting
        // holds by construction — the property checks the *export*
        // preserves it.
        let mut stacks: Vec<Vec<swprof::Span>> = TRACKS.iter().map(|_| Vec::new()).collect();
        let mut opened = 0usize;
        for op in &ops {
            match *op {
                Op::Open { t, l } => {
                    stacks[t].push(swprof::span_on(TRACKS[t], LABELS[l]));
                    opened += 1;
                }
                Op::Close { t } => {
                    drop(stacks[t].pop());
                }
                Op::Tick { t, cycles } => {
                    let _on = swprof::scope::Who::enter_lane(TRACKS[t]);
                    swprof::tick(cycles);
                }
            }
        }
        for stack in &mut stacks {
            while let Some(span) = stack.pop() {
                drop(span);
            }
        }
        let profile = session.finish();

        // Every open produced a closed span.
        let spans = profile.closed_spans().expect("balanced stream");
        prop_assert_eq!(spans.len(), opened);
        for s in &spans {
            prop_assert!(s.end >= s.start);
        }

        // The Chrome trace parses, and B/E pairs are strictly nested
        // with monotone timestamps per track.
        let doc = swprof::export::chrome_trace(&profile, 0.8);
        let v = swprof::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let mut depth = std::collections::BTreeMap::new();
        let mut last_ts = std::collections::BTreeMap::new();
        let mut begins = 0usize;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let tid = e.get("tid").unwrap().as_num().unwrap() as i64;
            let ts = e.get("ts").unwrap().as_num().unwrap();
            let d = depth.entry(tid).or_insert(0i64);
            match ph {
                "B" => {
                    *d += 1;
                    begins += 1;
                }
                "E" => {
                    *d -= 1;
                    prop_assert!(*d >= 0, "unmatched E on tid {}", tid);
                }
                other => prop_assert!(false, "unexpected phase {}", other),
            }
            let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
            prop_assert!(ts >= *prev, "timestamps regress on tid {}", tid);
            *prev = ts;
        }
        prop_assert_eq!(begins, opened);
        for (tid, d) in depth {
            prop_assert_eq!(d, 0, "tid {} ends with open spans", tid);
        }

        // The other exporters accept the same profile.
        for line in swprof::export::metrics_jsonl(&profile.metrics).lines() {
            swprof::json::parse(line).expect("valid JSONL line");
        }
        let _ = swprof::export::report(&profile, 0.8);
    }

    /// Span totals are conserved: for any single-track tree, the sum of
    /// top-level span durations never exceeds the track clock, and every
    /// label total equals the sum of its spans' cycles.
    #[test]
    fn span_totals_are_consistent_with_the_track_clock(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let session = swprof::Session::begin();
        let mut stack: Vec<swprof::Span> = Vec::new();
        for op in &ops {
            // Project everything onto the MPE track: depth-only tree.
            match *op {
                Op::Open { l, .. } => stack.push(swprof::span_on(None, LABELS[l])),
                Op::Close { .. } => drop(stack.pop()),
                Op::Tick { cycles, .. } => swprof::tick(cycles),
            }
        }
        while let Some(span) = stack.pop() {
            drop(span);
        }
        let clock = swprof::track_cursor(None);
        let profile = session.finish();
        let spans = profile.closed_spans().expect("balanced stream");
        let top_level: u64 = spans
            .iter()
            .filter(|s| s.depth == 0 && s.track.is_none())
            .map(|s| s.cycles())
            .sum();
        prop_assert!(top_level <= clock, "{} > {}", top_level, clock);
        let totals = profile.span_totals_on(None);
        for (label, total) in &totals {
            let by_hand: u64 = spans
                .iter()
                .filter(|s| s.track.is_none() && s.label == *label)
                .map(|s| s.cycles())
                .sum();
            prop_assert_eq!(*total, by_hand, "label {}", label);
        }
    }
}

/// One character from a random word, biased toward the classes the
/// escaper has to handle: C0 controls, printable ASCII, DEL/C1/Latin-1,
/// the whole BMP (including the surrogate gap, mapped to U+FFFD), and
/// astral scalars that need surrogate pairs.
fn char_of(w: u64) -> char {
    let payload = (w >> 3) as u32;
    let cp = match w % 5 {
        0 => payload % 0x20,
        1 => 0x20 + payload % 0x5f,
        2 => 0x7f + payload % 0x81,
        3 => payload % 0x1_0000,
        _ => 0x1_0000 + payload % 0x10_0000,
    };
    char::from_u32(cp).unwrap_or('\u{fffd}')
}

/// Arbitrary label strings. (The shim's `any` has no String impl, so
/// the strategy is built from raw words.)
fn label_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u64>(), 0..24)
        .prop_map(|words| words.iter().map(|&w| char_of(w)).collect())
}

/// A JSON value decoded from random words, front to back: each word
/// picks a variant and its payload, and a container takes its length
/// from its word and decodes its members from the words after it, at
/// most `depth` levels down. Numbers are any finite bit pattern.
fn value_from(words: &mut std::slice::Iter<'_, u64>, depth: u32) -> Value {
    let Some(&w) = words.next() else {
        return Value::Null;
    };
    let text = |w: u64| {
        (0..w % 4)
            .map(|i| char_of(w.rotate_left(16 * i as u32)))
            .collect()
    };
    let len = (w >> 8) % 5;
    match w % if depth == 0 { 4 } else { 6 } {
        0 => Value::Null,
        1 => Value::Bool(w & 8 != 0),
        2 => {
            let x = f64::from_bits(w.rotate_left(13));
            Value::Num(if x.is_finite() { x } else { (w >> 40) as f64 })
        }
        3 => Value::Str(text(w >> 3)),
        4 => Value::Arr((0..len).map(|_| value_from(words, depth - 1)).collect()),
        _ => Value::Obj(
            (0..len)
                .map(|i| {
                    (
                        text(w.rotate_left(7 * i as u32)),
                        value_from(words, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// A small but real Chrome trace: two ranks, nested spans, one flow.
fn sample_trace() -> String {
    let session = tel::Session::begin(0x7e1);
    {
        let _step = tel::span_on(0, "step");
        tel::tick_on(0, 1_500);
        let ctx = tel::send_from("halo.f", 0, 1).expect("session is open");
        let _recv = tel::span_on(1, "recv \"quoted\" \u{1F680}");
        tel::deliver(&ctx, 250);
    }
    session.finish().to_chrome_trace()
}

/// Neither the parser nor trace merge may panic on `doc`.
fn survives(doc: &str) {
    let _ = parse(doc);
    let _ = merge_documents(&[doc.to_string()]);
}

proptest! {
    /// Any label string survives emit -> parse unchanged, and the
    /// emitted form is pure ASCII (so downstream tools never see raw
    /// control bytes or mojibake).
    #[test]
    fn arbitrary_labels_round_trip_through_json(s in label_strategy()) {
        let doc = swprof::json::escaped(&s);
        prop_assert!(doc.is_ascii(), "non-ASCII leaked into {doc:?}");
        match swprof::json::parse(&doc) {
            Ok(swprof::json::Value::Str(back)) => prop_assert_eq!(&back, &s),
            other => prop_assert!(false, "parse of {:?} gave {:?}", doc, other),
        }
        // The same string embedded as an object key and value.
        let obj = format!("{{{}:{}}}", swprof::json::escaped(&s), doc);
        let v = swprof::json::parse(&obj).expect("object parses");
        prop_assert_eq!(v.get(&s).and_then(|x| x.as_str()), Some(s.as_str()));
    }

    /// The writer and the parser are inverses: any value of finite
    /// numbers reads back equal to itself.
    #[test]
    fn written_values_parse_back_equal(
        words in prop::collection::vec(any::<u64>(), 0..80),
    ) {
        let v = value_from(&mut words.iter(), 5);
        let mut doc = String::new();
        write_value(&mut doc, &v);
        prop_assert!(doc.is_ascii(), "non-ASCII leaked into {doc:?}");
        prop_assert_eq!(parse(&doc), Ok(v));
    }

    /// Arbitrary bytes, a trace cut short, or a trace with one flipped
    /// bit: trace files come from disk, so none may panic the parser or
    /// trace merge, and a cut-short trace is an error for both.
    #[test]
    fn hostile_trace_files_never_panic_parse_or_merge(
        body in prop::collection::vec(any::<u8>(), 0..300),
        cut_pick in any::<u64>(),
        bit_pick in any::<u64>(),
    ) {
        survives(&String::from_utf8_lossy(&body));
        let trace = sample_trace();
        let short = &trace[..cut_pick as usize % trace.len()];
        prop_assert!(parse(short).is_err());
        prop_assert!(merge_documents(&[trace.clone(), short.to_string()]).is_err());
        let mut flipped = trace.into_bytes();
        let bit = bit_pick as usize % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        survives(&String::from_utf8_lossy(&flipped));
    }
}
