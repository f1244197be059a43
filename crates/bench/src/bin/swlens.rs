//! `swlens` — roofline report CLI.
//!
//! ```text
//! swlens report [--mols N] [--seed S] [--out DIR]
//!     Run all 5 kernel variants on a seeded water box, place every
//!     (version, region) on the SW26010 core-group roofline, print the
//!     table and write roofline.json into DIR (default results/).
//! ```

use std::path::PathBuf;

use bench::roofline;

fn die(msg: &str) -> ! {
    eprintln!("swlens: {msg} (try --help)");
    std::process::exit(2);
}

const USAGE: &str = "swlens report [--mols N] [--seed S] [--out DIR]";

fn main() {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("report") => report(it),
        Some("--help") | Some("-h") => println!("{USAGE}"),
        Some(other) => die(&format!("unknown command `{other}`")),
        None => die("missing command"),
    }
}

fn report(mut it: impl Iterator<Item = String>) {
    let mut n_mol: usize = 400;
    let mut seed: u64 = 7;
    let mut out_dir = PathBuf::from("results");
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--mols" => {
                n_mol = value("--mols")
                    .parse()
                    .unwrap_or_else(|_| die("--mols needs an integer"));
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--out" => out_dir = PathBuf::from(value("--out")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }

    let env = roofline::Envelope::sw26010_cg();
    let rows = roofline::collect(n_mol, seed, &env);
    print!("{}", roofline::render_ascii(&rows, &env));

    let path = out_dir.join("roofline.json");
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, roofline::render_json(&rows, &env, n_mol, seed)))
        .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    println!("[swlens] wrote {}", path.display());
}
