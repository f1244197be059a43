//! A regenerator whose sidecar cannot be written fails: CI checks the
//! baselines by regenerating them in place, so a run that only warned
//! would leave the committed bytes there and pass on them.

use std::process::Command;

#[test]
fn a_sidecar_that_cannot_be_written_fails_the_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let not_a_dir = dir.join("sidecar-write-not-a-dir");
    std::fs::write(&not_a_dir, b"a regular file").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_ldm_report"))
        .env("BENCH_OUT_DIR", &not_a_dir)
        .output()
        .unwrap();
    std::fs::remove_file(&not_a_dir).unwrap();
    assert!(!output.status.success(), "ldm_report exited 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("BENCH_ldm_report.json"),
        "the error names the sidecar: {stderr}"
    );
}
