//! The committed `results/baselines/BENCH_*.json` hold what a run
//! computed, never how long the host took to compute it: host time is
//! swbench's to measure (`benchmark/`), in interleaved pairs with a
//! spread, and a number recorded once on one box gates nothing.

use std::path::Path;

#[test]
fn no_committed_sidecar_has_a_top_level_host_time_field() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/baselines");
    let mut sidecars = 0;
    for entry in std::fs::read_dir(&dir).expect("results/baselines exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        sidecars += 1;
        let doc = swprof::json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(doc.get("wall_cycles").is_some(), "{name}: no wall_cycles");
        for field in ["wall_ns", "steps_per_s", "ns_per_day"] {
            assert!(doc.get(field).is_none(), "{name}: top-level `{field}`");
        }
    }
    assert!(sidecars > 0, "no BENCH_*.json under {}", dir.display());
}
