//! Where the harness writes: everything lives under the build's target
//! directory, per-process temp files under `<target>/swbench/<pid>/`,
//! removed when the process ends. Nothing lands in `results/` or
//! anywhere else in the tree.

use std::path::{Path, PathBuf};

/// `<target>/swbench`, relative to the working directory like Cargo's
/// own `CARGO_TARGET_DIR`.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("swbench")
}

/// A temp directory `<target>/swbench/<pid>/<tag>`, deleted on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(std::process::id().to_string()).join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The per-process parent goes with its last tag.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
