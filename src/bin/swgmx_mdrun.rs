//! `swgmx_mdrun` — a tiny `gmx mdrun`-flavoured CLI over the simulated
//! machine: generate a water box, run MD, report per-kernel timing and
//! throughput, optionally write a trajectory.
//!
//! ```text
//! swgmx_mdrun [--particles N] [--steps N] [--version ori|cal|list|other]
//!             [--backend metered|native] [--ranks N] [--temp K] [--pme GRID]
//!             [--traj PATH] [--seed S] [--mdp FILE | --mdp paper]
//! ```

use std::fs::File;

use sw_gromacs::mdsim::water::water_box_equilibrated;
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
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| die("bad seed")),
            "--version" => {
                args.version = match value().as_str() {
                    "ori" => Version::Ori,
                    "cal" => Version::Cal,
                    "list" => Version::List,
                    "other" => Version::Other,
                    v => die(&format!("unknown version {v}")),
                }
            }
            "--backend" => {
                let v = value();
                args.backend = BackendSel::from_name(&v)
                    .unwrap_or_else(|| die(&format!("unknown backend {v}")));
            }
            "--help" | "-h" => {
                println!(
                    "swgmx_mdrun [--particles N] [--steps N] \
                     [--version ori|cal|list|other] [--backend metered|native] \
                     [--ranks N] [--temp K] \
                     [--pme GRID] [--traj PATH] [--seed S] [--mdp FILE|paper]"
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
    if args.ranks > 1 {
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
        return;
    }

    let n_mol = (args.particles / 3).max(1);
    println!(
        "equilibrating {n_mol} water molecules (seed {})...",
        args.seed
    );
    let sys = water_box_equilibrated(n_mol, args.temp, args.seed);
    let dof = sys.dof_rigid_water();
    let (mut config, steps_override) = match &args.mdp {
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
            (c, Some(opts.nsteps))
        }
        None => {
            let mut c = EngineConfig::paper(args.version);
            c.t_ref = Some(args.temp);
            c.pme_grid = args.pme;
            (c, None)
        }
    };
    config.nstxout = 0;
    config.backend = args.backend;
    let args = Args {
        steps: steps_override.unwrap_or(args.steps),
        ..args
    };
    let mut engine = Engine::new(sys, config);
    // A wall-clock number names the path that produced it.
    let lanes = match args.backend {
        BackendSel::Metered => String::new(),
        BackendSel::Native => format!(", {} lanes", NativeBackend::lanes()),
    };
    println!(
        "running {} steps of {} ps (cutoff {:.2} nm, version {}, backend {}{lanes})",
        args.steps,
        engine.config().dt,
        engine.config().params.r_cut,
        args.version.name(),
        args.backend.cli_name()
    );

    let mut traj = args.traj.as_ref().map(|path| {
        BufferedWriter::new(File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}"))))
    });
    let report_every = (args.steps / 10).max(1);
    // Host time of the steps that rebuild the pair list, and of the rest.
    let nstlist = engine.config().nstlist;
    let (mut rebuild_steps, mut rebuild_ms, mut other_ms) = (0usize, 0.0f64, 0.0f64);
    for step in 0..args.steps {
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
            if step % 100 == 0 {
                write_frame(w, &engine.sys.pos).unwrap_or_else(|e| die(&format!("traj: {e}")));
            }
        }
    }
    if let Some(mut w) = traj {
        w.flush().unwrap_or_else(|e| die(&format!("traj: {e}")));
        println!("trajectory written to {}", args.traj.as_deref().unwrap());
    }
    print_breakdown(&engine.breakdown, engine.total_ms(), args.steps);
    if args.backend == BackendSel::Native {
        // What a rebuild costs is what its step takes beyond a step
        // that keeps the list.
        let other_steps = args.steps - rebuild_steps;
        let per_other = other_ms / other_steps.max(1) as f64;
        let in_rebuilds = (rebuild_ms - rebuild_steps as f64 * per_other).max(0.0);
        let host_ms = rebuild_ms + other_ms;
        println!(
            "\nnative host time: {host_ms:.1} ms, of which {in_rebuilds:.1} ms ({:.1}%) in {rebuild_steps} \
             list rebuilds ({:.2} ms each) and {:.1} ms in the rest ({per_other:.2} ms a step)",
            100.0 * in_rebuilds / host_ms.max(f64::MIN_POSITIVE),
            in_rebuilds / rebuild_steps.max(1) as f64,
            host_ms - in_rebuilds,
        );
    }

    // gmx-style closing line: simulated ns/day.
    let ps_simulated = args.steps as f64 * engine.config().dt as f64;
    let days = engine.total_ms() / 1e3 / 86_400.0;
    println!(
        "\nsimulated machine throughput: {:.2} ns/day",
        ps_simulated / 1e3 / days
    );
}

fn print_breakdown(b: &sw_gromacs::sw26010::Breakdown, total_ms: f64, steps: usize) {
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
