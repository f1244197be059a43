//! Determinism lints over the workspace *source* (SWC006–SWC011).
//!
//! The trace-replay passes certify what a run *did*; these lints
//! certify what the code *could* do. A native backend's certificate is
//! worthless if the build it certifies consults wall clocks, entropy,
//! or hash-iteration order anywhere physics or trace output can see —
//! those are nondeterminism the trace can't witness. The pass is a
//! line-based scan of non-test workspace sources:
//!
//! | id     | pattern                                  | hazard        |
//! |--------|------------------------------------------|---------------|
//! | SWC006 | `Instant::now` / `SystemTime::now`       | wall clock    |
//! | SWC007 | `thread_rng` / `from_entropy` / `rand::random` | unseeded RNG |
//! | SWC008 | `HashMap` / `HashSet`                    | iteration order |
//! | SWC009 | `compare_exchange*` in a float-bits file | racy float reduction |
//! | SWC010 | `static` holding a `Mutex`/`Atomic*`/lock/cell, `static mut` | process-wide mutable state |
//! | SWC011 | `thread::spawn` / `thread::scope` / `thread::Builder` | a thread outside the lane executor |
//!
//! SWC010 keeps state owned (a session guard, reached through
//! `swprof::scope`), so two runs in one process cannot see each other;
//! `thread_local!` statics are per-thread and exempt. SWC011 keeps the
//! places that start threads at the two excused ones (`LanePool`'s
//! workers, the `swstore` barrier): a thread started anywhere else runs
//! without the lane prologue, so no session, fault plan or capture
//! reaches it.
//!
//! Intentional uses are suppressed in place with a justification:
//! `// swrace: allow(SWC006) <reason>` on the flagged line or within
//! the [`ALLOW_WINDOW`] lines above it. Test modules (`#[cfg(test)]` to
//! end of file), `tests/`, `benches/`, `examples/`, and the offline
//! dependency shims are exempt — nondeterminism there can't reach
//! physics.

use std::fs;
use std::path::{Path, PathBuf};

/// Lines above a flagged site an `allow` directive still covers (so a
/// multi-line justification comment can sit above the code it excuses).
pub const ALLOW_WINDOW: usize = 5;

/// One source-level determinism finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrcFinding {
    /// Rule id (`SWC006`–`SWC011`).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
    /// What the hazard is.
    pub message: String,
}

impl std::fmt::Display for SrcFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}: {} (`{}`)",
            self.rule, self.file, self.line, self.message, self.excerpt
        )
    }
}

/// Workspace root as seen from this crate at compile time.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Lint every non-test `.rs` file under `root/crates/*/src` and
/// `root/src`. Findings come back sorted by (file, line, rule).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<SrcFinding>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let text = fs::read_to_string(&f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        findings.extend(lint_source(&rel, &text));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name.as_str(), "tests" | "benches" | "examples") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's text. Exposed so tests can feed synthetic sources.
fn lint_source(file: &str, text: &str) -> Vec<SrcFinding> {
    let lines: Vec<&str> = text.lines().collect();
    // Everything from the first `#[cfg(test)]` on is test code: the
    // workspace convention keeps test modules at the end of the file.
    let test_start = lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    let file_has_float_bits = lines[..test_start]
        .iter()
        .any(|l| l.contains("from_bits") || l.contains("to_bits"));
    let allowed = |rule: &str, idx: usize| {
        let lo = idx.saturating_sub(ALLOW_WINDOW);
        lines[lo..=idx]
            .iter()
            .any(|l| l.contains("swrace: allow(") && l.contains(rule))
    };
    let mut out = Vec::new();
    // Inside `thread_local! { .. }` (closed by a brace in column 0) a
    // `static` is per-thread.
    let mut in_thread_local = false;
    for (idx, &line) in lines[..test_start].iter().enumerate() {
        // The directive itself (and doc/comment mentions) don't count.
        let code = line.split("//").next().unwrap_or("");
        in_thread_local =
            (in_thread_local && !line.starts_with('}')) || code.contains("thread_local!");
        let mut hit = |rule: &'static str, message: &str| {
            if !allowed(rule, idx) {
                out.push(SrcFinding {
                    rule,
                    file: file.to_string(),
                    line: idx + 1,
                    excerpt: line.trim().to_string(),
                    message: message.to_string(),
                });
            }
        };
        // The pattern literals below would flag the detector itself;
        // each carries its own allow directive.
        let clock = code.contains("Instant::now") // swrace: allow(SWC006) detector
            || code.contains("SystemTime::now"); // swrace: allow(SWC006) detector
        if clock {
            hit(
                "SWC006",
                "wall-clock read; physics and traces must be simulated-time only",
            );
        }
        let entropy = code.contains("thread_rng") // swrace: allow(SWC007) detector
            || code.contains("from_entropy") // swrace: allow(SWC007) detector
            || code.contains("rand::random"); // swrace: allow(SWC007) detector
        if entropy {
            hit("SWC007", "unseeded RNG; every random stream must be seeded");
        }
        let hashed = code.contains("HashMap") // swrace: allow(SWC008) detector
            || code.contains("HashSet"); // swrace: allow(SWC008) detector
        if hashed {
            hit(
                "SWC008",
                "hash iteration order is unstable; use BTreeMap/BTreeSet where \
                 order can reach output",
            );
        }
        let is_static = code
            .trim_start()
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ")
            .starts_with("static ");
        let mutable = [
            "static mut ",
            "Mutex<",
            "RwLock<",
            "Atomic",
            "Once",
            "Lazy",
            "Cell<",
        ];
        let shared_static = is_static && mutable.iter().any(|m| code.contains(m));
        if shared_static && !in_thread_local {
            hit(
                "SWC010",
                "process-wide mutable static; give the state to a session \
                 guard and reach it through swprof::scope",
            );
        }
        let starts_thread = code.contains("thread::spawn") // swrace: allow(SWC011) detector
            || code.contains("thread::scope") // swrace: allow(SWC011) detector
            || code.contains("thread::Builder"); // swrace: allow(SWC011) detector
        if starts_thread {
            hit(
                "SWC011",
                "thread started outside the lane executor; run the work as \
                 lanes of a LanePool",
            );
        }
        let cas = code.contains("compare_exchange"); // swrace: allow(SWC009) detector
        if cas && file_has_float_bits {
            hit(
                "SWC009",
                "CAS loop in a float-bits file: non-associative float \
                 reduction without a documented fixed order",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(f: &[SrcFinding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_and_rng_are_flagged() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let r = rand::thread_rng();\n}\n";
        assert_eq!(rules(&lint_source("x.rs", src)), ["SWC006", "SWC007"]);
    }

    #[test]
    fn allow_directive_suppresses_within_window() {
        let src = "// swrace: allow(SWC006) measuring the measurement\nlet t = std::time::Instant::now();\n";
        assert!(lint_source("x.rs", src).is_empty());
        // A different rule's directive does not excuse it.
        let src = "// swrace: allow(SWC007) wrong rule\nlet t = std::time::Instant::now();\n";
        assert_eq!(rules(&lint_source("x.rs", src)), ["SWC006"]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let m = std::collections::HashMap::new(); }\n}\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn hash_collections_before_tests_are_flagged() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(rules(&lint_source("x.rs", src)), ["SWC008"]);
    }

    #[test]
    fn cas_is_flagged_only_next_to_float_bits() {
        let with = "fn f(x: f32) -> u32 { x.to_bits() }\nfn g() { a.compare_exchange(0, 1); }\n";
        assert_eq!(rules(&lint_source("x.rs", with)), ["SWC009"]);
        let without = "fn g() { a.compare_exchange(0, 1); }\n";
        assert!(lint_source("x.rs", without).is_empty());
    }

    #[test]
    fn process_wide_mutable_statics_are_flagged() {
        let src = "static ENABLED: AtomicBool = AtomicBool::new(false);\n\
                   pub(crate) static SINK: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n\
                   fn f() {\n    static mut N: u32 = 0;\n}\n\
                   static NAMES: [&str; 2] = [\"a\", \"b\"];\n\
                   static RING: Mutex<u8> = Mutex::new(0);\n\
                   thread_local! {\n    static SLOT: Cell<bool> = const { Cell::new(false) };\n}\n\
                   // swrace: allow(SWC010) id allocator\n\
                   static NEXT_ID: AtomicU64 = AtomicU64::new(1);\n";
        let found = lint_source("x.rs", src);
        assert_eq!(rules(&found), ["SWC010"; 4]);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            [1, 2, 4, 7],
            "not data, thread-locals or the excused"
        );
    }

    #[test]
    fn thread_starts_are_flagged_unless_excused() {
        let src = "fn f() {\n    std::thread::spawn(|| ());\n    thread::scope(|s| ());\n    \
                   let b = std::thread::Builder::new();\n    \
                   // swrace: allow(SWC011) the executor\n    std::thread::Builder::new();\n    \
                   let id = std::thread::current().id();\n}\n";
        let found = lint_source("x.rs", src);
        assert_eq!(rules(&found), ["SWC011"; 3]);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3, 4], "not the excused start or `current()`");
    }

    #[test]
    fn comment_mentions_do_not_count() {
        let src = "// HashMap would be wrong here\nlet x = 1;\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn the_workspace_itself_lints_clean() {
        let findings = lint_workspace(&workspace_root()).expect("workspace readable");
        assert!(
            findings.is_empty(),
            "determinism lints must hold workspace-wide:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
