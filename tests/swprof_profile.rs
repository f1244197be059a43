//! Integration tests for the swprof observability layer: agreement with
//! the engine's Table-1 breakdown, bit-for-bit determinism of profiles
//! across identical runs, and compatibility with the swcheck invariant
//! checker.
//!
//! A swprof session records the thread that opened it and the lanes of
//! the regions it runs, so the tests here profile side by side and each
//! profile — epochs included — is that of its own run.

use sw_gromacs::mdsim::water::water_box_equilibrated;
use sw_gromacs::sw26010::params::cycles_to_ns;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};

fn profiled_run(
    version: Version,
    steps: usize,
) -> (swprof::Profile, sw_gromacs::sw26010::Breakdown) {
    let sys = water_box_equilibrated(400, 300.0, 42);
    let session = swprof::Session::begin();
    let mut engine = Engine::new(sys, EngineConfig::paper(version));
    for _ in 0..steps {
        engine.step();
    }
    let breakdown = engine.breakdown.clone();
    drop(engine); // caches drop inside the session -> metrics flushed
    (session.finish(), breakdown)
}

/// The acceptance test of the profiler: per-stage cycle totals on
/// the MPE timeline agree with the `Breakdown` (Table 1) within 1% for
/// every engine version. By construction they agree exactly — `charge`
/// books the same cycles into both sinks — so any drift means a span
/// was left open or double-ticked.
#[test]
fn span_totals_match_breakdown_within_one_percent() {
    for version in Version::ALL {
        let (profile, breakdown) = profiled_run(version, 2);
        let totals = profile.span_totals_on(None);
        let mut checked = 0;
        for (label, perf) in breakdown.iter() {
            if perf.cycles == 0 {
                continue;
            }
            let spanned = totals.get(label).copied().unwrap_or(0) as f64;
            let rel = (perf.cycles as f64 - spanned).abs() / perf.cycles as f64;
            assert!(
                rel <= 0.01,
                "{}: stage `{label}` books {} cycles, spans total {spanned} ({rel:.4} off)",
                version.name(),
                perf.cycles,
            );
            checked += 1;
        }
        assert!(checked >= 4, "{}: only {checked} stages", version.name());
    }
}

/// Two identical runs must produce identical profiles: the span clocks
/// are virtual (driven by the cost model, not wall time), so the Chrome
/// trace and the metrics snapshot are deterministic artifacts.
#[test]
fn profiles_are_deterministic_across_identical_runs() {
    let (a, _) = profiled_run(Version::Other, 2);
    let (b, _) = profiled_run(Version::Other, 2);
    assert_eq!(a.metrics, b.metrics, "metrics snapshots differ");
    let ns = cycles_to_ns(1);
    assert_eq!(
        swprof::export::chrome_trace(&a, ns),
        swprof::export::chrome_trace(&b, ns),
        "chrome traces differ"
    );
    assert_eq!(
        swprof::export::report(&a, ns),
        swprof::export::report(&b, ns),
        "reports differ"
    );
}

/// The exported Chrome trace is valid JSON with balanced B/E pairs and
/// non-decreasing timestamps on every track.
#[test]
fn chrome_trace_is_well_formed_for_a_full_engine_run() {
    let (profile, _) = profiled_run(Version::List, 2);
    profile.closed_spans().expect("balanced span stream");
    let doc = swprof::export::chrome_trace(&profile, cycles_to_ns(1));
    let v = swprof::json::parse(&doc).expect("valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let mut depth = std::collections::BTreeMap::new();
    let mut last_ts = std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            continue;
        }
        let tid = e.get("tid").unwrap().as_num().unwrap() as i64;
        let ts = e.get("ts").unwrap().as_num().unwrap();
        let d = depth.entry(tid).or_insert(0i64);
        match ph {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "unmatched E on tid {tid}");
            }
            other => panic!("unexpected phase {other}"),
        }
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "timestamps regress on tid {tid}");
        *prev = ts;
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "tid {tid} ends with open spans");
    }
    // Per-CPE kernel spans made it into the trace under their region
    // labels.
    assert!(doc.contains("rma.calc"), "kernel spans missing");
    assert!(doc.contains("pairgen.search"), "pairgen spans missing");
}

/// Profiling must not perturb the traced invariants: the swcheck passes
/// still report zero errors when a swprof session is live, for every
/// kernel variant (the checker and the profiler share the substrate's
/// emit sites, so interference would show up here).
#[test]
fn swcheck_passes_with_profiling_enabled() {
    use sw_gromacs::swgmx::check::{run_traced, Variant};
    use swcheck::{check_events, error_count};

    let session = swprof::Session::begin();
    for variant in [Variant::Rma, Variant::Rca, Variant::Ustc] {
        let run = run_traced(variant, 60, 7);
        let violations = check_events(&run.contract, &run.events);
        assert_eq!(
            error_count(&violations),
            0,
            "{}: {violations:?}",
            run.contract.name
        );
    }
    let profile = session.finish();
    // The profiler captured the kernels it rode along with.
    let totals = profile.span_totals();
    assert!(totals.contains_key("rma.calc"), "{totals:?}");
    assert!(totals.contains_key("rca.calc"), "{totals:?}");
    assert!(totals.contains_key("ustc.calc"), "{totals:?}");
}

/// Metrics land in the registry during an engine run: DMA traffic,
/// cache statistics, Bit-Map coverage, and the LDM high-water mark all
/// have live emit sites on the Mark-version force path.
#[test]
fn engine_run_populates_the_metrics_registry() {
    let (profile, _) = profiled_run(Version::Other, 1);
    let get = |name: &str| swprof::metrics::get(&profile.metrics, name);
    for required in [
        "dma.transactions",
        "dma.bytes",
        "cache.read.hits",
        "cache.write.writebacks",
        "bitmap.lines_touched",
        "bitmap.lines_total",
        "ldm.high_water_bytes",
    ] {
        assert!(
            get(required).is_some_and(|m| m.value() > 0),
            "metric {required} missing or zero: {:?}",
            profile.metrics
        );
    }
    // Touched lines can never exceed the total.
    let touched = get("bitmap.lines_touched").unwrap().value();
    let total = get("bitmap.lines_total").unwrap().value();
    assert!(touched <= total, "{touched} > {total}");
}
