//! The certification bar is enforced where certificates are minted: the
//! `swcheck certify` CLI.

use std::process::Command;

#[test]
fn a_clean_run_under_the_schedule_bar_does_not_certify() {
    let out = Command::new(env!("CARGO_BIN_EXE_swcheck"))
        .args([
            "certify",
            "--schedules",
            "3",
            "--n-mol",
            "40",
            "--seeds",
            "1",
        ])
        .output()
        .expect("swcheck runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(5), "{stdout}{stderr}");
    // Clean, but three schedules certify nothing.
    assert!(!stdout.contains("FAIL"), "{stdout}");
    assert!(stderr.contains("the bar is 200"), "{stderr}");
}
