//! The one run command: `swgmx_mdrun` profiles the run it reports and
//! writes trajectory frames at the engine's `nstxout` cadence.

use std::path::PathBuf;
use std::process::Command;

use sw_gromacs::swgmx::fastio::read_frames;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mdrun(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swgmx_mdrun"))
        .args(args)
        .output()
        .expect("swgmx_mdrun runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "swgmx_mdrun {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn profile_writes_the_three_exports_of_the_reported_run() {
    let dir = scratch("mdrun-profile");
    let prof = dir.join("prof");
    let stdout = mdrun(&[
        "--particles",
        "600",
        "--steps",
        "2",
        "--profile",
        prof.to_str().unwrap(),
    ]);
    let trace = std::fs::read_to_string(prof.join("trace.json")).unwrap();
    let parsed = sw_gromacs::swprof::json::parse(&trace).expect("trace.json parses");
    assert!(parsed.get("traceEvents").and_then(|v| v.as_arr()).is_some());
    assert!(prof.join("metrics.jsonl").is_file());
    let report = std::fs::read_to_string(prof.join("report.txt")).unwrap();
    // The paper's nstxout = 100 runs: step 0 writes a frame.
    assert!(stdout.contains("Write traj"), "{stdout}");
    assert!(report.contains("Write traj"), "{report}");
    assert!(stdout.contains("host wall clock"), "{stdout}");
}

#[test]
fn traj_follows_the_mdp_nstxout() {
    let dir = scratch("mdrun-traj");
    let mdp = dir.join("run.mdp");
    std::fs::write(&mdp, "nsteps = 4\nnstxout = 2\n").unwrap();
    let traj = dir.join("run.traj");
    mdrun(&[
        "--particles",
        "150",
        "--mdp",
        mdp.to_str().unwrap(),
        "--traj",
        traj.to_str().unwrap(),
    ]);
    let file = std::io::BufReader::new(std::fs::File::open(&traj).unwrap());
    let frames = read_frames(file, 150).expect("trajectory reads back");
    // Steps 0 and 2 of 4.
    assert_eq!(frames.len(), 2);
}
