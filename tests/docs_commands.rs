//! The commands the docs give must run: every line of README, DESIGN,
//! EXPERIMENTS and the verify skill that names `./target/release/X` or
//! `--bin X` names a binary (or example) this workspace builds, and a
//! `swgmx_mdrun` line uses only the flags its usage string lists.

use std::path::Path;
use std::process::Command;

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every binary and example the workspace builds, by name.
fn built_names(root: &Path) -> Vec<String> {
    let mut names = Vec::new();
    let mut stems = |dir: &Path, prefix: &str| {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "rs") {
                let stem = path.file_stem().unwrap().to_string_lossy();
                names.push(format!("{prefix}{stem}"));
            }
        }
    };
    stems(&root.join("src/bin"), "");
    stems(&root.join("examples"), "examples/");
    let crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .flatten()
        .collect();
    for krate in &crates {
        stems(&krate.path().join("src/bin"), "");
    }
    for krate in crates {
        if krate.path().join("src/main.rs").is_file() {
            names.push(krate.file_name().to_string_lossy().into_owned());
        }
    }
    names
}

/// The `X` of each `./target/release/X` and `--bin X` on `line`, with
/// the rest of the line after it.
fn named_binaries(line: &str) -> Vec<(&str, &str)> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || "_-/".contains(c);
    let mut found = Vec::new();
    for marker in ["./target/release/", "--bin "] {
        for (at, _) in line.match_indices(marker) {
            let tail = &line[at + marker.len()..];
            let end = tail.find(|c| !is_name(c)).unwrap_or(tail.len());
            if end > 0 {
                // (`--bin <name>` is a placeholder, not a name.)
                found.push((&tail[..end], &tail[end..]));
            }
        }
    }
    found
}

#[test]
fn every_binary_the_docs_run_exists_and_mdrun_lines_use_listed_flags() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let built = built_names(root);
    let help = Command::new(env!("CARGO_BIN_EXE_swgmx_mdrun"))
        .arg("--help")
        .output()
        .expect("swgmx_mdrun --help runs");
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    let flag = |t: &str| {
        t.len() > 2
            && t.starts_with("--")
            && t[2..].chars().all(|c| c.is_ascii_lowercase() || c == '-')
    };

    let mut checked = 0;
    let mut wrong = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (n, line) in text.lines().enumerate() {
            for (name, rest) in named_binaries(line) {
                checked += 1;
                if !built.iter().any(|b| b == name) {
                    wrong.push(format!("{doc}:{}: no binary `{name}`", n + 1));
                } else if name == "swgmx_mdrun" {
                    let command = rest.split('#').next().unwrap_or("");
                    for token in command.split_whitespace().filter(|t| flag(t)) {
                        if !usage
                            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
                            .any(|u| u == token)
                        {
                            wrong.push(format!("{doc}:{}: swgmx_mdrun has no `{token}`", n + 1));
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the docs name no binary");
    assert!(wrong.is_empty(), "{wrong:#?}");
}
