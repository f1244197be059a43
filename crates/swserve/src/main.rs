//! `swserve` CLI — the SLO load harness.
//!
//! ```text
//! swserve loadgen [--jobs N] [--workers N] [--seed S] [--chaos]
//!                 [--check] [--store DIR] [--slo-out FILE]
//!                 [--trace FILE]
//! ```
//!
//! Drives a deterministic client population against the service,
//! prints the SLO table, and writes the `BENCH_swserve.json` sidecar
//! (into `$BENCH_OUT_DIR` or `results/`), which CI regenerates and
//! compares byte for byte with the committed baseline.
//!
//! `--chaos` installs the standard chaos mix (worker kills, queue
//! drops, store faults). `--check` first runs a fault-free reference
//! and then verifies the main run completed **every** admitted job
//! with a bit-identical trajectory — exit 3 on any divergence, which
//! is what the CI `swserve-chaos` job asserts. `--trace` wraps the
//! run in a `swtel` session and writes the merged Chrome timeline.
//!
//! Exit codes: 0 ok, 1 run error, 2 usage, 3 check failure.

use std::path::PathBuf;
use std::process::ExitCode;

use swserve::loadgen::{self, LoadPlan};

struct Args {
    jobs: usize,
    workers: usize,
    seed: u64,
    chaos: bool,
    check: bool,
    store: PathBuf,
    slo_out: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swserve loadgen [--jobs N] [--workers N] [--seed S] [--chaos] [--check] \
         [--store DIR] [--slo-out FILE] [--trace FILE]"
    );
    ExitCode::from(2)
}

fn parse(mut argv: std::env::Args) -> Result<Args, ExitCode> {
    let _bin = argv.next();
    match argv.next().as_deref() {
        Some("loadgen") => {}
        _ => return Err(usage()),
    }
    let mut args = Args {
        jobs: 240,
        workers: 4,
        seed: 11,
        chaos: false,
        check: false,
        store: PathBuf::from("target/swserve"),
        slo_out: None,
        trace: None,
    };
    while let Some(flag) = argv.next() {
        let mut val = |name: &str| {
            argv.next().ok_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--jobs" => args.jobs = val("--jobs")?.parse().map_err(|_| usage())?,
            "--workers" => args.workers = val("--workers")?.parse().map_err(|_| usage())?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|_| usage())?,
            "--chaos" => args.chaos = true,
            "--check" => args.check = true,
            "--store" => args.store = PathBuf::from(val("--store")?),
            "--slo-out" => args.slo_out = Some(PathBuf::from(val("--slo-out")?)),
            "--trace" => args.trace = Some(PathBuf::from(val("--trace")?)),
            other => {
                eprintln!("unknown flag: {other}");
                return Err(usage());
            }
        }
    }
    if args.workers == 0 || args.jobs == 0 {
        eprintln!("--jobs and --workers must be positive");
        return Err(usage());
    }
    Ok(args)
}

/// Chaos-injected lane panics are expected events the runner recovers
/// from; their default-hook backtraces would swamp the SLO output.
/// Filter exactly those and forward everything else untouched.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
        if msg.is_some_and(|m| {
            m.contains("injected pool worker panic") || m.contains("kernel lane panicked")
        }) {
            return;
        }
        prev(info);
    }));
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(code) => return code,
    };
    quiet_injected_panics();

    let mut plan = LoadPlan::standard(args.seed, args.jobs, args.workers);
    if args.chaos {
        plan = plan.with_chaos();
    }

    // Reference first (fault-free, separate store) when checking.
    let reference = if args.check {
        let ref_plan = LoadPlan {
            chaos: None,
            ..plan.clone()
        };
        let dir = args.store.join(format!("ref-{}", args.seed));
        let _ = std::fs::remove_dir_all(&dir);
        match loadgen::run(&ref_plan, &dir) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("reference run failed: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };

    let run_dir = args.store.join(format!("run-{}", args.seed));
    let _ = std::fs::remove_dir_all(&run_dir);
    let session = args
        .trace
        .as_ref()
        .map(|_| swtel::Session::begin(args.seed));
    let result = loadgen::run(&plan, &run_dir);
    let telemetry = session.map(|s| s.finish());
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "swserve loadgen: {} jobs, {} workers, seed {}, chaos {}",
        args.jobs,
        args.workers,
        args.seed,
        if args.chaos { "on" } else { "off" }
    );
    println!("{}", result.slo.table());

    if let (Some(path), Some(tel)) = (&args.trace, &telemetry) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = tel
            .check_causal()
            .map_err(std::io::Error::other)
            .and_then(|()| std::fs::write(path, tel.to_chrome_trace()))
        {
            eprintln!("trace write failed: {e}");
            return ExitCode::from(1);
        }
        println!("[trace] wrote {}", path.display());
    }
    if let Some(path) = &args.slo_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, result.slo.to_json()) {
            eprintln!("SLO report write failed: {e}");
            return ExitCode::from(1);
        }
        println!("[slo] wrote {}", path.display());
    }
    let mut sidecar = bench::BenchJson::new("swserve");
    result.slo.fill_bench(&mut sidecar, args.chaos);
    if let Err(e) = sidecar.write() {
        eprintln!("sidecar write failed: {e}");
        return ExitCode::from(1);
    }

    if let Some(reference) = reference {
        let stats = &result.slo.stats;
        let mut failures = Vec::new();
        if stats.completed != stats.admitted {
            failures.push(format!(
                "{} of {} admitted jobs did not complete",
                stats.admitted - stats.completed,
                stats.admitted
            ));
        }
        if result.checksums.len() != reference.checksums.len() {
            failures.push(format!(
                "completed-job sets differ: {} vs {} (reference)",
                result.checksums.len(),
                reference.checksums.len()
            ));
        }
        let mut diverged = 0usize;
        for (seed, cks) in &result.checksums {
            match reference.checksums.get(seed) {
                Some(r) if r == cks => {}
                _ => diverged += 1,
            }
        }
        if diverged > 0 {
            failures.push(format!("{diverged} trajectories diverged from reference"));
        }
        if failures.is_empty() {
            println!(
                "[check] OK: {} jobs bit-identical to the fault-free reference \
                 ({} kills, {} readmissions, {} resumes survived)",
                result.checksums.len(),
                stats.worker_kills,
                stats.readmissions,
                stats.resumes
            );
        } else {
            for f in &failures {
                eprintln!("[check] FAIL: {f}");
            }
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}
