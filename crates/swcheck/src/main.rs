//! `swcheck` — run every kernel variant under the invariant checker.
//!
//! ```text
//! swcheck [--n-mol N] [--seed S] [--json] [variant ...]   check kernel runs
//! swcheck --fixtures [--json]            seeded-violation self-test
//! swcheck certify [--n-mol N] [--seeds a,b,c] [--schedules K]
//!                 [--backend metered|native] [--json]
//!                                        happens-before certification
//! swcheck srclint [--json]               SWC006–011 determinism lints
//! ```
//!
//! With no variant arguments all five ladder variants (`ori`,
//! `gldnaive`, `rma`, `rca`, `ustc`) and `step` — two steps of a native
//! engine, whose update runs on lanes of its own —
//! are traced and checked under both trace passes (static lint and the
//! happens-before walk). Exit codes
//! separate the failure classes so CI can triage without parsing:
//!
//! | code | meaning                                            |
//! |------|----------------------------------------------------|
//! | 0    | clean (warnings allowed)                           |
//! | 2    | usage error                                        |
//! | 3    | static findings (SWC001–005 lint / SWC006–011 src) |
//! | 4    | coherence / recovery findings (SWC102–107)         |
//! | 5    | happens-before findings (SWC110, SWC111, SWC113)   |
//! |      | or a failed certification                          |
//!
//! When several classes fire at once the most severe wins: HB beats
//! coherence/recovery beats lint.

use std::process::ExitCode;

use swcheck::lint::ldm_report;
use swcheck::schedule::{certify, CertifyOptions};
use swcheck::srclint::{lint_workspace, workspace_root};
use swcheck::{check_events, error_count, fixtures, DualAccess, Severity, Violation};
use swgmx::backend::{BackendSel, MIN_SCHEDULES};
use swgmx::check::{run_traced, run_traced_step, Variant, STEP_MIN_MOL};
use swprof::json;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag(&mut args, "--json");
    match args.first().map(String::as_str) {
        Some("certify") => cmd_certify(&args[1..], json),
        Some("srclint") => cmd_srclint(json),
        _ => {
            if take_flag(&mut args, "--fixtures") {
                return cmd_fixtures(json);
            }
            cmd_check(&args, json)
        }
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

const USAGE: &str = "\
usage: swcheck [--n-mol N] [--seed S] [--json] [variant ...]
       swcheck --fixtures [--json]
       swcheck certify [--n-mol N] [--seeds a,b,c] [--schedules K] [--backend metered|native] [--json]
       swcheck srclint [--json]

variants: ori gldnaive rma rca ustc step (default: all six; `step` is two
          steps of a native engine on at least 400 molecules)
";

fn usage(err: &str) -> ExitCode {
    eprintln!("swcheck: {err}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Exit code for a finding set: HB (5) > coherence/recovery (4) >
/// static (3) > ok.
fn exit_for(violations: &[Violation]) -> u8 {
    let errors = || {
        violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .map(|v| v.id)
    };
    if errors().any(|id| id >= "SWC110") {
        5
    } else if errors().any(|id| id >= "SWC100") {
        4
    } else if errors().next().is_some() {
        3
    } else {
        0
    }
}

fn cmd_check(args: &[String], json: bool) -> ExitCode {
    let mut n_mol = 200usize;
    let mut seed = 1u64;
    // `None` is `step`: the engine's own regions, not a kernel variant.
    let mut variants: Vec<Option<Variant>> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n-mol" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => n_mol = v,
                _ => return usage("--n-mol needs a positive integer argument"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer argument"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "step" => variants.push(None),
            name => match Variant::from_name(name) {
                Some(v) => variants.push(Some(v)),
                None => return usage(&format!("unknown variant `{name}`")),
            },
        }
    }
    if variants.is_empty() {
        variants = Variant::ALL.into_iter().map(Some).chain([None]).collect();
    }

    let mut worst = 0u8;
    let mut total_errors = 0usize;
    let mut run_objs = Vec::new();
    for &variant in &variants {
        let run = match variant {
            Some(variant) => run_traced(variant, n_mol, seed),
            None => run_traced_step(n_mol.max(STEP_MIN_MOL), seed),
        };
        let violations = check_events(&run.contract, &run.events);
        let errors = error_count(&violations);
        total_errors += errors;
        worst = worst.max(exit_for(&violations));

        if json {
            run_objs.push(format!(
                "{{\"variant\":{},\"events\":{},\"cycles\":{},\"checksum\":\"{:#018x}\",\"violations\":{}}}",
                json::escaped(run.contract.name),
                run.events.len(),
                run.cycles,
                run.checksum,
                json_violations(&violations)
            ));
            continue;
        }
        let verdict = if errors > 0 {
            "FAIL"
        } else if violations.is_empty() {
            "ok"
        } else {
            "ok (warnings)"
        };
        println!(
            "{:<9} {:>7} events {:>12} cycles  checksum {:#018x}  {}",
            run.contract.name,
            run.events.len(),
            run.cycles,
            run.checksum,
            verdict
        );
        if let Some(r) = ldm_report(&run.events) {
            println!(
                "          LDM peak {} B / {} B ({:.1}%), headroom {} B",
                r.peak_bytes,
                r.capacity_bytes,
                100.0 * r.utilization(),
                r.headroom_bytes()
            );
        }
        for v in &violations {
            let marker = match v.severity {
                Severity::Error => "  !!",
                Severity::Warning => "  --",
            };
            println!("{marker} {v}");
        }
    }
    if json {
        println!(
            "{{\"runs\":[{}],\"errors\":{},\"exit\":{}}}",
            run_objs.join(","),
            total_errors,
            worst
        );
    } else if total_errors > 0 {
        eprintln!(
            "swcheck: {total_errors} error(s) across {} variant(s)",
            variants.len()
        );
    }
    ExitCode::from(worst)
}

fn cmd_fixtures(json: bool) -> ExitCode {
    let mut failures = 0usize;
    let mut objs = Vec::new();
    let all = fixtures::all();
    let total = all.len();
    for f in all {
        let violations = check_events(&f.contract, &f.events);
        let detected = violations.iter().any(|v| v.id == f.expected);
        if json {
            objs.push(format!(
                "{{\"name\":{},\"expected\":{},\"detected\":{},\"violations\":{}}}",
                json::escaped(f.name),
                json::escaped(f.expected),
                detected,
                json_violations(&violations)
            ));
        } else if detected {
            println!("PASS {:<10} {}", f.expected, f.name);
            for v in violations.iter().filter(|v| v.id == f.expected) {
                println!("       {v}");
            }
        } else {
            println!(
                "FAIL {:<10} {} — expected id not reported",
                f.expected, f.name
            );
            for v in &violations {
                println!("       got: {v}");
            }
        }
        if !detected {
            failures += 1;
        }
    }
    if json {
        println!(
            "{{\"fixtures\":[{}],\"undetected\":{failures}}}",
            objs.join(",")
        );
    } else if failures > 0 {
        eprintln!("swcheck: {failures} fixture(s) undetected");
    } else {
        println!("all {total} seeded violations detected");
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_certify(args: &[String], json: bool) -> ExitCode {
    let mut opts = CertifyOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n-mol" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.n_mol = v,
                _ => return usage("--n-mol needs a positive integer argument"),
            },
            "--schedules" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.schedules = v,
                _ => return usage("--schedules needs a positive integer argument"),
            },
            "--seeds" => {
                let parsed: Option<Vec<u64>> = it
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(seeds) if !seeds.is_empty() => opts.seeds = seeds,
                    _ => return usage("--seeds needs a comma-separated integer list"),
                }
            }
            "--backend" => match it.next().and_then(|v| BackendSel::from_name(v)) {
                Some(sel) => opts.backend = sel,
                None => return usage("--backend needs `metered` or `native`"),
            },
            other => return usage(&format!("unknown certify argument `{other}`")),
        }
    }

    let report = certify(&opts);
    // The bar is enforced here, where certificates are minted: a clean
    // report over too few schedules certifies nothing.
    let certified = report
        .certificate
        .as_ref()
        .is_some_and(|c| c.covers_all_variants(MIN_SCHEDULES));
    if json {
        let objs: Vec<String> = report
            .outcomes
            .iter()
            .map(|o| {
                let problems: Vec<String> =
                    o.problems.iter().map(|p| json::escaped(p)).collect();
                format!(
                    "{{\"variant\":{},\"checksum\":\"{:#018x}\",\"schedules\":{},\"unique_orders\":{},\"trace_len\":{},\"problems\":[{}]}}",
                    json::escaped(o.variant.name()),
                    o.checksum,
                    o.replayed,
                    o.unique_orders,
                    o.trace_len,
                    problems.join(",")
                )
            })
            .collect();
        println!(
            "{{\"certified\":{certified},\"backend\":{},\"variants\":[{}]}}",
            json::escaped(opts.backend.backend_name()),
            objs.join(",")
        );
    } else {
        for o in &report.outcomes {
            let verdict = if !o.problems.is_empty() {
                "FAIL"
            } else if o.replayed >= MIN_SCHEDULES {
                "CERTIFIED"
            } else {
                "UNDER-EXPLORED"
            };
            println!(
                "{:<9} checksum {:#018x}  {:>4} schedules ({} unique) over {} events  {}",
                o.variant.name(),
                o.checksum,
                o.replayed,
                o.unique_orders,
                o.trace_len,
                verdict
            );
            for p in &o.problems {
                println!("  !! {p}");
            }
        }
        if certified {
            println!(
                "backend `{}` certified: {} variants x {} seeds, {} schedules each",
                opts.backend.backend_name(),
                report.outcomes.len(),
                opts.seeds.len(),
                opts.schedules
            );
        } else if report.certificate.is_some() {
            eprintln!(
                "swcheck: certification FAILED: {} schedules per variant, the bar is {MIN_SCHEDULES}",
                opts.schedules
            );
        } else {
            eprintln!("swcheck: certification FAILED");
        }
    }
    if certified {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(5)
    }
}

fn cmd_srclint(json: bool) -> ExitCode {
    let findings = match lint_workspace(&workspace_root()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("swcheck: cannot scan workspace: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        let objs: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"rule\":{},\"file\":{},\"line\":{},\"excerpt\":{},\"message\":{}}}",
                    json::escaped(f.rule),
                    json::escaped(&f.file),
                    f.line,
                    json::escaped(&f.excerpt),
                    json::escaped(&f.message)
                )
            })
            .collect();
        println!(
            "{{\"findings\":[{}],\"count\":{}}}",
            objs.join(","),
            findings.len()
        );
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("srclint clean: no SWC006-SWC011 findings");
        } else {
            eprintln!("swcheck: {} determinism finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

fn json_site(s: &swcheck::AccessSite) -> String {
    format!(
        "{{\"lane\":{},\"epoch\":{},\"index\":{},\"what\":{}}}",
        json::escaped(&s.lane_name()),
        s.epoch,
        s.index,
        json::escaped(&s.what)
    )
}

fn json_evidence(d: &DualAccess) -> String {
    format!(
        "{{\"first\":{},\"second\":{}}}",
        json_site(&d.first),
        json_site(&d.second)
    )
}

fn json_violations(violations: &[Violation]) -> String {
    let objs: Vec<String> = violations
        .iter()
        .map(|v| {
            let evidence = v
                .evidence
                .as_ref()
                .map(json_evidence)
                .unwrap_or_else(|| "null".to_string());
            let lanes = v
                .evidence
                .as_ref()
                .map(|d| {
                    format!(
                        "[{},{}]",
                        json::escaped(&d.first.lane_name()),
                        json::escaped(&d.second.lane_name())
                    )
                })
                .unwrap_or_else(|| "[]".to_string());
            format!(
                "{{\"rule\":{},\"severity\":{},\"kernel\":{},\"message\":{},\"lanes\":{},\"evidence\":{}}}",
                json::escaped(v.id),
                json::escaped(&v.severity.to_string()),
                json::escaped(&v.kernel),
                json::escaped(&v.message),
                lanes,
                evidence
            )
        })
        .collect();
    format!("[{}]", objs.join(","))
}
