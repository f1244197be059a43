//! `swserve` CLI — the SLO load harness and its telemetry dashboard.
//!
//! ```text
//! swserve loadgen [--jobs N] [--workers N] [--seed S] [--chaos]
//!                 [--check] [--store DIR] [--slo-out FILE]
//!                 [--trace FILE] [--dash FILE] [--at NS]
//! ```
//!
//! Drives a deterministic client population against the service with
//! the live telemetry plane (`swprof::slo`) attached, prints the SLO
//! table and the ASCII dashboard, and writes the `BENCH_swserve.json`
//! and `BENCH_swscope.json` sidecars (into `$BENCH_OUT_DIR` or
//! `results/`), which CI regenerates and compares byte for byte with
//! the committed baselines.
//!
//! `--chaos` installs the standard chaos mix (worker kills, queue
//! drops, store faults). `--check` first runs a fault-free reference
//! and then verifies the main run completed **every** admitted job
//! with a bit-identical trajectory — exit 3 on any divergence, which
//! is what the CI `recovery` job asserts. `--trace` wraps the run in a
//! `swprof::tel` session and writes the merged Chrome timeline; alert
//! spans (`swscope.alert.*`) land on the scheduler rank, and exemplar
//! trace ids resolve to the `args.id` of their `job.deliver` flow pair.
//! `--slo-out` writes the SLO report and, beside it, the service
//! loop's black box (`blackbox-serve.json`: the flight ring the main
//! run records its kills, drops, readmits and alerts into; each job's
//! runner records into a ring of its own).
//! `--dash` writes the dashboard as JSON at the virtual timestamp
//! `--at` (default: end of run; the ASCII view honours it too). Every
//! field is a pure function of the seed, so two runs write
//! byte-identical dashboards and sidecars.
//!
//! Exit codes: 0 ok, 1 run error, 2 usage, 3 check failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use swprof::slo::dash;
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
    dash: Option<PathBuf>,
    at: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swserve loadgen [--jobs N] [--workers N] [--seed S] [--chaos] [--check] \
         [--store DIR] [--slo-out FILE] [--trace FILE] [--dash FILE] [--at NS]"
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
        dash: None,
        at: u64::MAX,
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
            "--dash" => args.dash = Some(PathBuf::from(val("--dash")?)),
            "--at" => args.at = val("--at")?.parse().map_err(|_| usage())?,
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

/// Write `contents` to `path`, creating its directory first.
fn write_file(path: &Path, contents: String) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(code) => return code,
    };
    swserve::quiet_injected_panics();

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
        .map(|_| swprof::tel::Session::begin(args.seed));
    let ring = swprof::tel::flight::Ring::new();
    let armed = ring.enter();
    let result = loadgen::run_scoped(&plan, &run_dir);
    drop(armed);
    let telemetry = session.map(|s| s.finish());
    let (result, scope) = match result {
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
    println!("{}", dash::ascii(&scope, args.at));

    if let (Some(path), Some(tel)) = (&args.trace, &telemetry) {
        if let Err(e) = tel
            .check_causal()
            .map_err(std::io::Error::other)
            .and_then(|()| write_file(path, tel.to_chrome_trace()))
        {
            eprintln!("trace write failed: {e}");
            return ExitCode::from(1);
        }
        println!("[trace] wrote {}", path.display());
    }
    if let Some(path) = &args.slo_out {
        let blackbox = path.with_file_name("blackbox-serve.json");
        if let Err(e) =
            write_file(path, result.slo.to_json()).and_then(|()| ring.dump_to(&blackbox))
        {
            eprintln!("SLO report write failed: {e}");
            return ExitCode::from(1);
        }
        println!("[slo] wrote {}", path.display());
    }
    if let Some(path) = &args.dash {
        if let Err(e) = write_file(path, dash::snapshot_json(&scope, args.at)) {
            eprintln!("dashboard write failed: {e}");
            return ExitCode::from(1);
        }
        println!("[dash] wrote {}", path.display());
    }
    let mut sidecar = bench::BenchJson::new("swserve");
    result.slo.fill_bench(&mut sidecar, args.chaos);
    let scope_sidecar = loadgen::scope_bench(&scope, &result.slo, args.chaos);
    if let Err(e) = sidecar.write().and_then(|()| scope_sidecar.write()) {
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
