//! swbench — the repository's wall-clock benchmark.
//!
//! ```text
//! swbench --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! swbench run [--seed N] [--runs K] [--seconds S] [--out FILE]
//! swbench compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command resolves to: one
//! workload, measured for about `S` seconds after its set-up, every
//! metric printed by name with its unit, outputs checked, and one JSON
//! object on the last line. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the harness records a span around
//! every call into a layer and reports the per-layer ones.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions; no crate is instrumented. The harness is single-threaded:
//! the only threads are the ones the program starts for itself.

mod compare;
mod kernel;
mod md;
mod outcome;
mod scratch;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use swgmx::backend::BackendSel;

use crate::outcome::Outcome;
use crate::spec::Spec;

/// Every workload sets up this many times and reports the median, so
/// `setup_s` is as steady as the timed metrics.
pub const SETUP_REPS: usize = 3;

/// A traced run makes fixed numbers of calls, stated for this run
/// length (`run_seconds` in `BENCHMARK.json`) and scaled to `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// `base` samples at the default run length, in proportion otherwise,
/// never fewer than two.
pub fn scaled(base: usize, seconds: f64) -> usize {
    ((base as f64 * seconds / DEFAULT_SECONDS).ceil() as usize).max(2)
}

/// The seed `swbench run` starts from.
const DEFAULT_SEED: u64 = 2026;

const USAGE: &str = "usage:
  swbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  swbench run [--seed <n>] [--runs <k>] [--seconds <s>] [--out <file>]
  swbench compare <a.json> <b.json>";

/// `--key value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("`{}` needs a value", args[args.len() - 1]));
    }
    args.chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(key) => Ok((key, kv[1].as_str())),
            None => Err(format!("expected a --flag, found `{}`", kv[0])),
        })
        .collect()
}

fn parsed<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: cannot read `{value}`"))
}

/// One run of one workload, as the driver invokes it.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        for (key, value) in flags(args)? {
            match key {
                "workload" => workload = Some(value.to_string()),
                "seed" => seed = Some(parsed(key, value)?),
                "seconds" => seconds = Some(parsed::<f64>(key, value)?),
                "trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace is 0 or 1, not `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag --{key}")),
            }
        }
        let need = |name: &str| format!("--{name} is required");
        let seconds = seconds.ok_or_else(|| need("seconds"))?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], not {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or_else(|| need("workload"))?,
            seed: seed.ok_or_else(|| need("seed"))?,
            seconds,
            trace: trace.ok_or_else(|| need("trace"))?,
        })
    }
}

enum Workload {
    Md(md::MdWorkload),
    Kernel { n_particles: usize },
    Serve(serve::ServeWorkload),
}

/// The workloads `BENCHMARK.json` names, at their benchmark sizes.
fn workload(name: &str) -> Option<Workload> {
    let md = |name, backend, shadow_steps| {
        Workload::Md(md::MdWorkload {
            name,
            backend,
            n_mol: md::N_MOL,
            shadow_steps,
        })
    };
    let serve = |name, chaos| {
        Workload::Serve(serve::ServeWorkload {
            name,
            chaos,
            n_jobs: serve::N_JOBS,
        })
    };
    Some(match name {
        // List placement moves a native step by ±12% from one rebuild to
        // the next, so the native shadow runs 20 cycles beside the engine
        // to average it out; the single-threaded metered step needs fewer.
        "md_native_4k" => md("md_native_4k", BackendSel::Native, 210),
        "md_metered_4k" => md("md_metered_4k", BackendSel::Metered, 110),
        "kernel_48k" => Workload::Kernel {
            n_particles: kernel::N_PARTICLES,
        },
        "serve_small" => serve("serve_small", false),
        "serve_chaos" => serve("serve_chaos", true),
        _ => return None,
    })
}

fn run_workload(a: &RunArgs) -> Result<Outcome, String> {
    let trace_path = scratch::out_dir().join(format!("trace-{}.json", a.workload));
    let (seed, seconds) = (a.seed, a.seconds);
    match workload(&a.workload).ok_or_else(|| format!("unknown workload `{}`", a.workload))? {
        Workload::Md(w) if a.trace => Ok(md::run_traced(&w, seed, seconds, &trace_path)),
        Workload::Md(w) => Ok(md::run_untraced(&w, seed, seconds)),
        Workload::Kernel { n_particles } if a.trace => {
            Ok(kernel::run_traced(n_particles, seed, seconds, &trace_path))
        }
        Workload::Kernel { n_particles } => Ok(kernel::run_untraced(n_particles, seed, seconds)),
        Workload::Serve(w) if a.trace => serve::run_traced(&w, seed, seconds, &trace_path),
        Workload::Serve(w) => serve::run_untraced(&w, seed, seconds),
    }
    .map_err(|e: std::io::Error| format!("{}: {e}", a.workload))
}

fn one_run(args: &[String]) -> Result<(), String> {
    let a = RunArgs::parse(args)?;
    let spec = Spec::load();
    let defs = spec.metrics(a.trace);
    let outcome = run_workload(&a)?;
    println!(
        "swbench {} seed {} seconds {} trace {} host.threads {}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        suite::host_threads()
    );
    outcome.print(defs);
    // A traced run reports every layer; the ones this workload never
    // enters read zero.
    println!("{}", outcome.result_line(defs, a.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..], DEFAULT_SEED),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some(flag) if flag.starts_with("--") => one_run(&args).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("swbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse_in_any_order() {
        let a = RunArgs::parse(&args(
            "--seed 7 --trace 1 --workload kernel_48k --seconds 8",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kernel_48k", 7, 8.0, true)
        );
        assert!(RunArgs::parse(&args("--workload x --seed 7 --seconds 8")).is_err());
        assert!(RunArgs::parse(&args("--workload x --seed 7 --seconds 8 --trace 2")).is_err());
        assert!(RunArgs::parse(&args("--workload x --seed -1 --seconds 8 --trace 0")).is_err());
        assert!(RunArgs::parse(&args("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(RunArgs::parse(&args("--workload x --seed 1 --seconds 8 --trace")).is_err());
    }

    #[test]
    fn every_declared_workload_is_runnable() {
        for w in Spec::load().workloads {
            assert!(
                workload(&w).is_some(),
                "BENCHMARK.json names `{w}`, the harness lacks it"
            );
        }
        assert!(workload("no_such_workload").is_none());
    }

    #[test]
    fn sample_counts_scale_with_the_run_length() {
        assert_eq!(Spec::load().run_seconds, DEFAULT_SECONDS);
        assert_eq!(scaled(40, DEFAULT_SECONDS), 40);
        assert_eq!(scaled(40, 7.5), 20);
        assert_eq!(scaled(40, 0.1), 2);
    }
}
