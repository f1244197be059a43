//! `swgmx_mdrun` — a tiny `gmx mdrun`-flavoured CLI over the simulated
//! machine: generate a water box, run MD, report per-kernel timing and
//! throughput, optionally write a trajectory and a profile.
//!
//! ```text
//! swgmx_mdrun [--particles N] [--steps N] [--version ori|cal|list|other]
//!             [--backend metered|native] [--ranks N] [--temp K] [--pme GRID]
//!             [--traj PATH] [--seed S] [--mdp FILE | --mdp paper] [--profile DIR]
//! ```
//!
//! `--profile DIR` runs under a [`swprof::Session`] and writes its
//! `trace.json` (Chrome trace, one track for the MPE and one per CPE),
//! `metrics.jsonl` and `report.txt` (the Table-1-style stage table). It
//! first checks that the spans nest, the trace parses with a
//! `traceEvents` array and, on one rank, the MPE span totals are the
//! `Breakdown` rows within 1%; a failure is a profiler bug and exits 2.

use std::fs::File;
use std::path::Path;

use sw_gromacs::mdsim::water::water_box_equilibrated;
use sw_gromacs::sw26010::Breakdown;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, MultiCgModel, Version};
use sw_gromacs::swgmx::fastio::{write_frame, BufferedWriter};
use sw_gromacs::swgmx::{BackendSel, NativeBackend};

struct Args {
    particles: usize,
    steps: usize,
    version: Version,
    backend: BackendSel,
    ranks: usize,
    temp: f64,
    pme: Option<usize>,
    traj: Option<String>,
    seed: u64,
    mdp: Option<String>,
    profile: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        particles: 12_000,
        steps: 100,
        version: Version::Other,
        backend: BackendSel::Metered,
        ranks: 1,
        temp: 300.0,
        pme: None,
        traj: None,
        seed: 2026,
        mdp: None,
        profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--particles" => args.particles = value().parse().unwrap_or_else(|_| die("bad N")),
            "--steps" => args.steps = value().parse().unwrap_or_else(|_| die("bad N")),
            "--ranks" => args.ranks = value().parse().unwrap_or_else(|_| die("bad N")),
            "--temp" => args.temp = value().parse().unwrap_or_else(|_| die("bad K")),
            "--pme" => args.pme = Some(value().parse().unwrap_or_else(|_| die("bad grid"))),
            "--traj" => args.traj = Some(value()),
            "--mdp" => args.mdp = Some(value()),
            "--profile" => args.profile = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| die("bad seed")),
            "--version" => {
                let v = value();
                args.version = Version::ALL
                    .into_iter()
                    .find(|ver| ver.name().to_ascii_lowercase() == v)
                    .unwrap_or_else(|| die(&format!("unknown version {v}")));
            }
            "--backend" => {
                let v = value();
                args.backend = BackendSel::from_name(&v)
                    .unwrap_or_else(|| die(&format!("unknown backend {v}")));
            }
            "--help" | "-h" => {
                println!(
                    "swgmx_mdrun [--particles N] [--steps N] [--version ori|cal|list|other] \
                     [--backend metered|native] [--ranks N] [--temp K] [--pme GRID] \
                     [--traj PATH] [--seed S] [--mdp FILE|paper] [--profile DIR]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("swgmx_mdrun: {msg} (try --help)");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    // The engine (or the multi-CG model) is dropped inside the session,
    // so whatever its drop records lands in the profile too.
    let session = args.profile.is_some().then(swprof::Session::begin);
    let breakdown = if args.ranks > 1 {
        // Multi-CG: the representative-CG + network model.
        println!(
            "modeling {} particles over {} CGs, {} steps, version {}",
            args.particles,
            args.ranks,
            args.steps,
            args.version.name()
        );
        let out =
            MultiCgModel::new(args.particles, args.ranks, args.version).run(args.steps, args.seed);
        print_breakdown(&out.breakdown, out.total_ms, args.steps);
        // The model rescales its engine rows after the fact, so the raw
        // spans are not expected to match them.
        None
    } else {
        Some(run_engine(&args))
    };
    if let (Some(dir), Some(session)) = (&args.profile, session) {
        write_profile(Path::new(dir), session.finish(), breakdown.as_ref());
    }
}

/// The single-CG run: equilibrate, step, report; returns the breakdown.
fn run_engine(args: &Args) -> Breakdown {
    let n_mol = (args.particles / 3).max(1);
    println!(
        "equilibrating {n_mol} water molecules (seed {})...",
        args.seed
    );
    let sys = water_box_equilibrated(n_mol, args.temp, args.seed);
    let dof = sys.dof_rigid_water();
    let (mut config, steps) = match &args.mdp {
        Some(path) => {
            let text = if path == "paper" {
                sw_gromacs::swgmx::mdp::PAPER_MDP.to_string()
            } else {
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")))
            };
            let opts = sw_gromacs::swgmx::mdp::parse_mdp(&text)
                .unwrap_or_else(|e| die(&format!("mdp: {e}")));
            for key in &opts.unknown {
                eprintln!("note: ignoring unknown mdp key `{key}`");
            }
            let mut c = opts.config;
            c.version = args.version;
            (c, opts.nsteps)
        }
        None => {
            let mut c = EngineConfig::paper(args.version);
            c.t_ref = Some(args.temp);
            c.pme_grid = args.pme;
            (c, args.steps)
        }
    };
    config.backend = args.backend;
    let mut engine = Engine::new(sys, config);
    // A wall-clock number names the path that produced it.
    let lanes = match args.backend {
        BackendSel::Metered => String::new(),
        BackendSel::Native => format!(", {} lanes", NativeBackend::lanes()),
    };
    println!(
        "running {steps} steps of {} ps (cutoff {:.2} nm, version {}, backend {}{lanes})",
        engine.config().dt,
        engine.config().params.r_cut,
        args.version.name(),
        args.backend.cli_name()
    );

    let mut traj = args.traj.as_ref().map(|path| {
        BufferedWriter::new(File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}"))))
    });
    let report_every = (steps / 10).max(1);
    // Host time of the steps that rebuild the pair list, and of the rest.
    let (nstlist, nstxout) = (engine.config().nstlist, engine.config().nstxout);
    let (mut rebuild_steps, mut rebuild_ms, mut other_ms) = (0usize, 0.0f64, 0.0f64);
    for step in 0..steps {
        // swrace: allow(SWC006) host wall clock for the closing report;
        // never reaches physics or the simulated breakdown.
        let t0 = std::time::Instant::now();
        let en = engine.step();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if step.is_multiple_of(nstlist) {
            rebuild_steps += 1;
            rebuild_ms += ms;
        } else {
            other_ms += ms;
        }
        if step % report_every == 0 {
            println!(
                "  step {step:>7}: T = {:>6.1} K, E_pot = {:>12.1} kJ/mol",
                engine.sys.temperature(dof),
                en.total()
            );
        }
        if let Some(w) = traj.as_mut() {
            // The engine's own frame cadence; `nstxout = 0` writes none.
            if step.checked_rem(nstxout) == Some(0) {
                write_frame(w, &engine.sys.pos).unwrap_or_else(|e| die(&format!("traj: {e}")));
            }
        }
    }
    if let Some(mut w) = traj {
        w.flush().unwrap_or_else(|e| die(&format!("traj: {e}")));
        println!("trajectory written to {}", args.traj.as_deref().unwrap());
    }
    print_breakdown(&engine.breakdown, engine.total_ms(), steps);
    let host_ms = rebuild_ms + other_ms;
    if args.backend == BackendSel::Native {
        // What a rebuild costs is what its step takes beyond a step
        // that keeps the list.
        let other_steps = steps - rebuild_steps;
        let per_other = other_ms / other_steps.max(1) as f64;
        let in_rebuilds = (rebuild_ms - rebuild_steps as f64 * per_other).max(0.0);
        println!(
            "\nnative host time: {host_ms:.1} ms, of which {in_rebuilds:.1} ms ({:.1}%) in {rebuild_steps} \
             list rebuilds ({:.2} ms each) and {:.1} ms in the rest ({per_other:.2} ms a step)",
            100.0 * in_rebuilds / host_ms.max(f64::MIN_POSITIVE),
            in_rebuilds / rebuild_steps.max(1) as f64,
            host_ms - in_rebuilds,
        );
    }

    // gmx-style closing lines: simulated ns/day, then what this run's
    // steps took on the host.
    let ns_simulated = steps as f64 * engine.config().dt as f64 / 1e3;
    let ns_per_day = |ms: f64| ns_simulated / (ms / 1e3 / 86_400.0);
    println!(
        "\nsimulated machine throughput: {:.2} ns/day\n\
         measured throughput (this run's host wall clock, {host_ms:.1} ms): {:.2} ns/day",
        ns_per_day(engine.total_ms()),
        ns_per_day(host_ms)
    );
    engine.breakdown.clone()
}

/// Self-validate a profile, then export it into `dir`; a failed check
/// exits nonzero before anything is written.
fn write_profile(dir: &Path, profile: swprof::Profile, breakdown: Option<&Breakdown>) {
    let ns_per_cycle = sw_gromacs::sw26010::params::cycles_to_ns(1);
    let spans = profile
        .closed_spans()
        .unwrap_or_else(|e| die(&format!("unbalanced span stream: {e}")));
    let (n_tracks, n_metrics) = (profile.tracks().len(), profile.metrics.len());
    println!(
        "\ncaptured {} spans over {n_tracks} tracks, {n_metrics} metrics",
        spans.len()
    );
    let trace = swprof::export::chrome_trace(&profile, ns_per_cycle);
    let n_events = swprof::json::parse(&trace)
        .unwrap_or_else(|e| die(&format!("exported trace is not valid JSON: {e}")))
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .map(|a| a.len())
        .unwrap_or_else(|| die("trace has no traceEvents array"));
    if let Some(breakdown) = breakdown {
        let totals = profile.span_totals_on(None);
        let mut worst = 0.0f64;
        for (label, perf) in breakdown.iter().filter(|(_, p)| p.cycles > 0) {
            let (booked, spanned) = (perf.cycles, totals.get(label).copied().unwrap_or(0));
            let rel = (booked as f64 - spanned as f64).abs() / booked as f64;
            worst = worst.max(rel);
            if rel > 0.01 {
                die(&format!(
                    "stage `{label}`: breakdown books {booked} cycles but \
                     spans total {spanned} ({:.2}% off)",
                    100.0 * rel
                ));
            }
        }
        let worst = 100.0 * worst;
        println!("span totals agree with the Table 1 breakdown (worst stage off by {worst:.4}%)");
    }

    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    let metrics = swprof::export::metrics_jsonl(&profile.metrics);
    let report = swprof::export::report(&profile, ns_per_cycle);
    for (name, body) in [
        ("trace.json", &trace),
        ("metrics.jsonl", &metrics),
        ("report.txt", &report),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
        println!("wrote {} ({} bytes)", path.display(), body.len());
    }
    println!("\n{report}");
    println!("{n_events} trace events exported; open trace.json in ui.perfetto.dev");
}

fn print_breakdown(b: &Breakdown, total_ms: f64, steps: usize) {
    println!("\nper-kernel simulated time ({steps} steps):");
    for (label, c) in b.iter() {
        println!(
            "  {label:<20} {:>10.3} ms  ({:>5.1}%)",
            c.ms(),
            100.0 * c.ms() / total_ms
        );
    }
    println!("  {:<20} {total_ms:>10.3} ms", "TOTAL");
}
