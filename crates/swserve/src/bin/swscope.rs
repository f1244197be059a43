//! `swscope` CLI — the live-telemetry dashboard and its CI replay
//! mode.
//!
//! ```text
//! swscope replay [--jobs N] [--workers N] [--seed S] [--chaos]
//!                [--at NS] [--json FILE] [--quiet] [--store DIR]
//!                [--bench] [--trace FILE]
//! ```
//!
//! `replay` re-derives the whole telemetry stream from a loadgen seed:
//! it runs the deterministic load harness with a [`swscope::Scope`]
//! attached, then renders the dashboard — ASCII to stdout (unless
//! `--quiet`) and, with `--json`, a bit-deterministic JSON snapshot at
//! the virtual timestamp given by `--at` (default: end of run). Two
//! replays of the same seed produce byte-identical JSON, which CI
//! asserts with `cmp`.
//!
//! `--bench` writes `BENCH_swscope.json` (into `$BENCH_OUT_DIR` or
//! `results/`) with alert counts, remaining error budgets, and
//! sketch-vs-exact percentile deltas. Every field is a pure function
//! of the seed, so the sidecar itself is byte-deterministic and the
//! committed baseline holds exactly.
//!
//! `--trace` wraps the run in a swtel session and writes the merged
//! Chrome timeline; alert spans (`swscope.alert.*`) land on the
//! scheduler rank, and exemplar trace ids resolve to the `args.id` of
//! the corresponding `job.deliver` flow pair.
//!
//! Exit codes: 0 ok, 1 run error, 2 usage.

use std::path::PathBuf;
use std::process::ExitCode;

use swserve::loadgen::{self, LoadPlan};

struct Args {
    jobs: usize,
    workers: usize,
    seed: u64,
    chaos: bool,
    at: u64,
    json: Option<PathBuf>,
    quiet: bool,
    store: PathBuf,
    bench: bool,
    trace: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swscope replay [--jobs N] [--workers N] [--seed S] [--chaos] [--at NS] \
         [--json FILE] [--quiet] [--store DIR] [--bench] [--trace FILE]"
    );
    ExitCode::from(2)
}

fn parse(mut argv: std::env::Args) -> Result<Args, ExitCode> {
    let _bin = argv.next();
    match argv.next().as_deref() {
        Some("replay") => {}
        _ => return Err(usage()),
    }
    let mut args = Args {
        jobs: 240,
        workers: 4,
        seed: 11,
        chaos: false,
        at: u64::MAX,
        json: None,
        quiet: false,
        store: PathBuf::from("target/swscope"),
        bench: false,
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
            "--at" => args.at = val("--at")?.parse().map_err(|_| usage())?,
            "--json" => args.json = Some(PathBuf::from(val("--json")?)),
            "--quiet" => args.quiet = true,
            "--store" => args.store = PathBuf::from(val("--store")?),
            "--bench" => args.bench = true,
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

/// Same filter as the `swserve` CLI: chaos-injected lane panics are
/// expected, recovered events; keep their backtraces off the dashboard.
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
    let run_dir = args.store.join(format!("replay-{}", args.seed));
    let _ = std::fs::remove_dir_all(&run_dir);

    let session = args
        .trace
        .as_ref()
        .map(|_| swtel::Session::begin(args.seed));
    let result = loadgen::run_scoped(&plan, &run_dir, swscope::ScopeConfig::default());
    let telemetry = session.map(|s| s.finish());
    let (result, scope) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::from(1);
        }
    };

    if !args.quiet {
        println!(
            "swscope replay: {} jobs, {} workers, seed {}, chaos {}",
            args.jobs,
            args.workers,
            args.seed,
            if args.chaos { "on" } else { "off" }
        );
        println!("{}", swscope::dash::ascii(&scope, args.at));
    }

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
    if let Some(path) = &args.json {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, swscope::dash::snapshot_json(&scope, args.at)) {
            eprintln!("snapshot write failed: {e}");
            return ExitCode::from(1);
        }
        println!("[dash] wrote {}", path.display());
    }
    if args.bench {
        loadgen::scope_bench(&scope, &result.slo, args.chaos).write();
    }
    ExitCode::SUCCESS
}
