//! A run leaves the repository as it found it: everything it writes lives
//! under the target directory, temp stores are gone when it exits, and
//! `results/` (baselines, tolerances) is untouched.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

/// Size and mtime of every file under `root`, outside build output and
/// git metadata.
fn snapshot(root: &Path) -> BTreeMap<PathBuf, (u64, SystemTime)> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name();
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                if !["target", ".bench_build", ".git"]
                    .iter()
                    .any(|skip| name == *skip)
                {
                    dirs.push(entry.path());
                }
            } else {
                files.insert(entry.path(), (meta.len(), meta.modified().unwrap()));
            }
        }
    }
    files
}

/// Run the benchmark binary from the repository root, as the driver does,
/// with its output under this test's own target directory.
fn swbench(repo: &Path, out: &Path, workload: &str, seconds: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_swbench"))
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", out)
        .args(["--workload", workload, "--seed", "11"])
        .args(["--seconds", seconds, "--trace", trace])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap().to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: last line is {last}"
    );
    last
}

#[test]
fn a_run_changes_nothing_outside_the_target_directory() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hygiene");
    let _ = std::fs::remove_dir_all(&out);
    let before = snapshot(repo);
    assert!(
        before.contains_key(&repo.join("results/baselines/tolerances.json")),
        "the snapshot covers the committed baselines"
    );

    // serve_chaos opens per-job stores and dumps flight recordings beside
    // them; traced, it also writes the span file.
    let untraced = swbench(repo, &out, "serve_small", "0.5", "0");
    let traced = swbench(repo, &out, "serve_chaos", "1", "1");
    assert!(untraced.contains("\"setup_s\"") && !untraced.contains("\"service.run_s\""));
    assert!(traced.contains("\"service.run_s\"") && !traced.contains("\"setup_s\""));

    assert_eq!(
        snapshot(repo),
        before,
        "the run changed the repository tree"
    );
    let left: Vec<_> = std::fs::read_dir(out.join("swbench"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(
        left,
        ["trace-serve_chaos.json"],
        "only the span file outlives the run; per-process temp directories are removed"
    );
    std::fs::remove_dir_all(&out).unwrap();
}
