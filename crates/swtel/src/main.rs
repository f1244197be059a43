//! `swtel` — trace merge CLI.
//!
//! ```text
//! swtel merge --out FILE IN1.json IN2.json ...
//!     Combine per-rank Chrome traces into one global timeline
//!     (input i becomes process i; flow ids pass through).
//! ```

use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("swtel: {msg} (try --help)");
    std::process::exit(2);
}

const USAGE: &str = "swtel merge --out FILE IN1 IN2 ...";

fn main() {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("merge") => merge(it),
        Some("--help") | Some("-h") => println!("{USAGE}"),
        Some(other) => die(&format!("unknown command `{other}`")),
        None => die("missing command"),
    }
}

fn merge(mut it: impl Iterator<Item = String>) {
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--out needs a value")),
                ));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            path => inputs.push(PathBuf::from(path)),
        }
    }
    let out = out.unwrap_or_else(|| die("merge requires --out FILE"));
    if inputs.is_empty() {
        die("merge requires at least one input trace");
    }
    let docs: Vec<String> = inputs
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("{}: {e}", p.display())))
        })
        .collect();
    let merged = swtel::merge::merge_documents(&docs).unwrap_or_else(|e| die(&e));
    std::fs::write(&out, &merged).unwrap_or_else(|e| die(&format!("{}: {e}", out.display())));
    println!(
        "merged {} trace(s) into {} ({} bytes)",
        inputs.len(),
        out.display(),
        merged.len()
    );
}
