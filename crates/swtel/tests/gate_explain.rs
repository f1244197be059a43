//! The acceptance scenario for the regression explainer: a seeded
//! synthetic regression must fail the gate *with* an explanation whose
//! attributed contributions sum to the observed delta and finger the
//! perturbed stage.

use std::path::Path;

use swtel::explain::{explain_report, render_json, render_text};
use swtel::gate::compare_dirs;

/// A sidecar in the BenchJson schema whose `wall_cycles.case1.*`
/// children sum exactly to `wall_cycles`.
fn sidecar(force: u64, update: u64, comm: u64) -> String {
    format!(
        r#"{{"name":"t1","config":{{}},"metrics":{{
            "wall_cycles.case1.force":{force},
            "wall_cycles.case1.update":{update},
            "wall_cycles.case1.comm":{comm},
            "case1.pct.force":{pct}
        }},"wall_cycles":{total}}}"#,
        pct = 100.0 * force as f64 / (force + update + comm) as f64,
        total = force + update + comm,
    )
}

fn write_dir(dir: &Path, doc: &str) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("BENCH_t1.json"), doc).unwrap();
}

#[test]
fn seeded_regression_fails_with_a_conserving_explanation() {
    let tmp = std::env::temp_dir().join(format!("swtel-gate-explain-{}", std::process::id()));
    let baselines = tmp.join("baselines");
    let fresh = tmp.join("fresh");
    // Baseline: 800k force, 150k update, 50k comm. Fresh: force
    // regressed by 400k cycles (+50%), everything else untouched.
    write_dir(&baselines, &sidecar(800_000, 150_000, 50_000));
    write_dir(&fresh, &sidecar(1_200_000, 150_000, 50_000));

    let report = compare_dirs(&baselines, &fresh).unwrap();
    assert!(
        !report.passed(),
        "the synthetic regression must trip the gate"
    );

    let explanations = explain_report(&report, &baselines, &fresh).unwrap();
    let total = explanations
        .iter()
        .find(|e| e.metric == "wall_cycles")
        .expect("wall_cycles must be explained");

    // The observed delta is attributed, conserves, and blames force.
    assert_eq!(total.delta, 400_000.0);
    assert!(total.conserved());
    assert!(total.unexplained.abs() < 1e-6);
    assert_eq!(total.contributions[0].metric, "wall_cycles.case1.force");
    assert_eq!(total.contributions[0].delta, 400_000.0);
    let sum: f64 = total.contributions.iter().map(|c| c.delta).sum();
    assert_eq!(sum, total.delta);

    // Renderings are deterministic and machine-parseable.
    assert_eq!(render_text(&explanations, 5), render_text(&explanations, 5));
    let doc = swprof::json::parse(&render_json(&explanations)).unwrap();
    assert!(!doc
        .get("explanations")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn clean_run_passes_and_needs_no_explanation() {
    let tmp = std::env::temp_dir().join(format!("swtel-gate-clean-{}", std::process::id()));
    let baselines = tmp.join("baselines");
    let fresh = tmp.join("fresh");
    write_dir(&baselines, &sidecar(800_000, 150_000, 50_000));
    write_dir(&fresh, &sidecar(800_000, 150_000, 50_000));

    let report = compare_dirs(&baselines, &fresh).unwrap();
    assert!(report.passed());
    let explanations = explain_report(&report, &baselines, &fresh).unwrap();
    assert!(explanations.is_empty());
    assert!(swtel::explain::render_text(&explanations, 5).contains("no failing metrics"));

    std::fs::remove_dir_all(&tmp).ok();
}
