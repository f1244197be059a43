//! # swstore — crash-consistent durable checkpoint store
//!
//! `swfault` (PR 3) made faults replayable and recovery *in-process*:
//! rollback restores an in-memory buffer. Nothing survived the process.
//! This crate is the on-disk half of the recovery story: a directory of
//! framed, CRC32-protected, versioned **checkpoint generations** with a
//! bounded chain, written so that a crash at any instruction boundary
//! leaves the store openable and consistent. The directory is the
//! chain: the `gen-*` files that validate, in epoch order.
//!
//! ## Commit protocol
//!
//! A generation (one coordinated snapshot: one opaque payload frame per
//! rank, every frame tagged with the same epoch) is committed in two
//! halves.
//!
//! **The calling-thread half** makes every fault draw and does
//! everything that needs the caller's data: serialize the whole file —
//! header, per-rank CRC32 frames, trailer with a whole-file CRC32 —
//! into memory, create `tmp-<epoch>.swst` and write it, add the epoch to
//! the in-memory chain and pick the generations beyond the retention
//! bound. What is left is the **barrier**, which owns all it touches
//! (the open temp file and its paths):
//!
//! 1. `fsync` the temp file — the data is on disk *before* the name, so
//!    a `gen-*` file never has unflushed contents behind it,
//! 2. `rename` it to `gen-<epoch>.swst`,
//! 3. `fsync` the directory — the commit point: the rename is durable
//!    from here,
//! 4. unlink the pruned generations — only now, so the chain on disk
//!    never shrinks before the generation that replaces them is durable.
//!
//! A crash before step 3 leaves a `tmp-*` file (deleted on the next
//! [`Store::open`]) or a `gen-*` file that is valid whenever it is
//! visible; a crash after it leaves the generation for good.
//!
//! [`Store::commit`] runs the barrier on the calling thread and returns
//! when the generation is durable. [`Store::begin`] hands it to a thread
//! and returns at once; the store then has **one barrier in flight**,
//! and every later call on it — [`Store::settle`], `begin`, `commit`,
//! `load*` — and its drop wait for that barrier first, report its error
//! and take its epoch back out of the chain. The interval between
//! `begin` and that next call is the only one in which `Ok` precedes
//! durability: a crash inside it restarts from the generation before,
//! exactly what a crash just before the call would have left.
//!
//! ## Corruption model
//!
//! Every corruption pathway is exercisable deterministically through
//! `swfault` sites:
//!
//! - [`Site::StoreTornWrite`](swfault::Site::StoreTornWrite) — a lying
//!   disk persists only a prefix of the generation despite the fsync
//!   (power loss with reordered metadata). The commit *appears* to
//!   succeed; the damage is found at open/load time by the trailer and
//!   CRC checks, and the store falls back to the newest valid
//!   generation.
//! - [`Site::StoreBitFlip`](swfault::Site::StoreBitFlip) — a bit of the
//!   file flips between write and read; the frame CRC catches it.
//! - [`Site::StoreFsyncFail`](swfault::Site::StoreFsyncFail) — the
//!   fsync itself errors; the commit reports failure (callers retry
//!   with [`swfault::retry`] bounds) and the orphaned temp file is
//!   swept on the next open.
//!
//! `open` never panics on hostile bytes: truncations, bit flips, bad
//! magic, absurd lengths, and version skew all land in the
//! [`OpenReport`] as rejected generations, and the chain keeps the
//! newest prefix of fully valid ones (property-tested in
//! `tests/proptests.rs`).

pub mod crc32;

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use crc32::crc32;

/// On-disk format version of generation files.
pub const FORMAT_VERSION: u8 = 1;

const GEN_MAGIC: &[u8; 8] = b"SWSTGEN1";
const END_MAGIC: &[u8; 8] = b"SWSTEND1";
const FRAME_MAGIC: &[u8; 2] = b"FR";

/// Options for [`Store::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Maximum committed generations kept on disk; older ones are
    /// pruned after each commit. Keep at least 2 so a torn newest
    /// generation always leaves a fallback.
    pub retain: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { retain: 4 }
    }
}

/// One loaded generation: the epoch tag and one opaque payload per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// Snapshot epoch (the nstlist-aligned step the ranks agreed on).
    pub epoch: u64,
    /// Per-rank frame payloads, indexed by rank.
    pub frames: Vec<Vec<u8>>,
}

/// A generation file rejected during [`Store::open`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// File name inside the store directory.
    pub file: String,
    /// Why validation failed.
    pub reason: String,
}

/// What [`Store::open`] found; the chain itself is [`Store::chain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Generation files that failed validation (kept on disk for
    /// forensics; never part of the chain).
    pub rejected: Vec<Rejected>,
    /// Orphaned temp files swept away.
    pub temps_swept: usize,
}

/// A crash-consistent checkpoint store rooted at one directory.
pub struct Store {
    dir: PathBuf,
    retain: usize,
    chain: Vec<u64>,
    /// The barrier [`Store::begin`] left running, until the next call
    /// waits for it.
    in_flight: Option<InFlight>,
}

/// The barrier of one commit (module docs, "Commit protocol"): what is
/// left to do once the temp file is written, owning all it touches so
/// that the committing thread or one beside it can run it.
struct Barrier {
    tmp: File,
    tmp_path: PathBuf,
    gen_path: PathBuf,
    dir: PathBuf,
    pruned: Vec<PathBuf>,
}

/// A commit whose barrier the caller has not waited for yet.
struct InFlight {
    /// The chain as it was before the commit: a barrier that fails
    /// unlinked nothing, so this is what the store still holds.
    undo: Vec<u64>,
    barrier: JoinHandle<io::Result<()>>,
}

fn gen_name(epoch: u64) -> String {
    format!("gen-{epoch:016x}.swst")
}

fn tmp_name(epoch: u64) -> String {
    format!("tmp-{epoch:016x}.swst")
}

/// Serialize a generation into its on-disk byte layout.
fn encode_generation(epoch: u64, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(GEN_MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    for (rank, payload) in frames.iter().enumerate() {
        let start = out.len();
        out.extend_from_slice(FRAME_MAGIC);
        out.extend_from_slice(&(rank as u32).to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    let file_crc = crc32(&out);
    out.extend_from_slice(END_MAGIC);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

/// Parse and fully validate a generation file's bytes.
fn decode_generation(bytes: &[u8]) -> Result<Generation, String> {
    let need = |n: usize, at: usize| -> Result<(), String> {
        if bytes.len() < at + n {
            Err(format!("truncated at byte {at} (need {n} more)"))
        } else {
            Ok(())
        }
    };
    need(21, 0)?;
    if &bytes[..8] != GEN_MAGIC {
        return Err("bad generation magic".into());
    }
    let version = bytes[8];
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported store format version {version} (supported {FORMAT_VERSION})"
        ));
    }
    let n_ranks = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    if n_ranks == 0 || n_ranks > 1 << 20 {
        return Err(format!("absurd rank count {n_ranks}"));
    }
    let epoch = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
    // The trailer protects against truncation: check it before walking
    // frames so a clean-cut file is reported as torn, not misparsed.
    if bytes.len() < 21 + 12 {
        return Err("truncated before trailer".into());
    }
    let trailer_at = bytes.len() - 12;
    if &bytes[trailer_at..trailer_at + 8] != END_MAGIC {
        return Err("missing end-of-file marker (torn write)".into());
    }
    let file_crc = u32::from_le_bytes(bytes[trailer_at + 8..].try_into().unwrap());
    if crc32(&bytes[..trailer_at]) != file_crc {
        return Err("file CRC mismatch".into());
    }
    let mut at = 21usize;
    let mut frames = Vec::with_capacity(n_ranks);
    for rank in 0..n_ranks {
        need(18, at)?;
        if &bytes[at..at + 2] != FRAME_MAGIC {
            return Err(format!("frame {rank}: bad frame magic"));
        }
        let fr_rank = u32::from_le_bytes(bytes[at + 2..at + 6].try_into().unwrap()) as usize;
        let fr_epoch = u64::from_le_bytes(bytes[at + 6..at + 14].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[at + 14..at + 18].try_into().unwrap()) as usize;
        if fr_rank != rank {
            return Err(format!("frame {rank}: tagged rank {fr_rank}"));
        }
        if fr_epoch != epoch {
            return Err(format!(
                "frame {rank}: epoch tag {fr_epoch} disagrees with header epoch {epoch}"
            ));
        }
        need(len + 4, at + 18)?;
        let body_end = at + 18 + len;
        let crc = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().unwrap());
        if crc32(&bytes[at..body_end]) != crc {
            return Err(format!("frame {rank}: CRC mismatch"));
        }
        frames.push(bytes[at + 18..body_end].to_vec());
        at = body_end + 4;
    }
    if at != trailer_at {
        return Err(format!(
            "{} trailing byte(s) between last frame and trailer",
            trailer_at - at
        ));
    }
    Ok(Generation { epoch, frames })
}

/// Read a file, applying the `store.bit_flip` corruption site: a flipped
/// bit is payload-addressed, so a scripted one-shot lands on a
/// reproducible position.
fn read_with_bitflip(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = fs::read(path)?;
    if swfault::enabled() {
        if let Some(payload) = swfault::decide(swfault::Site::StoreBitFlip) {
            if !bytes.is_empty() {
                let bit = payload as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
    Ok(bytes)
}

/// Flush `dir`'s entries: what makes a rename inside it durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir).and_then(|d| d.sync_all()) {
        Err(e) if !dir_sync_unsupported(&e) => Err(e),
        _ => Ok(()),
    }
}

/// True when `e` says that directories cannot be flushed here at all
/// (`EINVAL`/`ENOTSUP` from the filesystem, any target that cannot open
/// one) rather than that this flush failed: the first is tolerated, the
/// second fails the commit like any other `fsync` error.
fn dir_sync_unsupported(e: &io::Error) -> bool {
    cfg!(not(unix))
        || matches!(
            e.kind(),
            io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported
        )
}

impl Barrier {
    fn run(self) -> io::Result<()> {
        self.tmp.sync_all()?;
        drop(self.tmp);
        fs::rename(&self.tmp_path, &self.gen_path)?;
        sync_dir(&self.dir)?;
        for old in &self.pruned {
            let _ = fs::remove_file(old);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("retain", &self.retain)
            .field("chain", &self.chain)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Open (creating if necessary) the store at `dir`: sweep temp
    /// files, validate every `gen-*` file, and keep the valid ones as
    /// the chain; nothing else is written. The newest fully-valid
    /// generation is what recovery resumes from — torn, bit-flipped,
    /// truncated, or version-skewed files are reported and skipped,
    /// never trusted and never fatal.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<(Self, OpenReport)> {
        let _span = swprof::span("store.open");
        assert!(opts.retain >= 2, "retain must be >= 2 for a safe fallback");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut report = OpenReport::default();

        let mut candidates: Vec<(u64, String)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("tmp-") {
                // Crash leftover from an uncommitted write.
                let _ = fs::remove_file(entry.path());
                report.temps_swept += 1;
            } else if let Some(hex) = name
                .strip_prefix("gen-")
                .and_then(|s| s.strip_suffix(".swst"))
            {
                match u64::from_str_radix(hex, 16) {
                    Ok(epoch) => candidates.push((epoch, name)),
                    Err(_) => report.rejected.push(Rejected {
                        file: name,
                        reason: "unparseable epoch in file name".into(),
                    }),
                }
            }
        }

        candidates.sort_unstable();
        let mut chain = Vec::new();
        for (epoch, name) in candidates {
            match read_with_bitflip(&dir.join(&name)).map(|b| decode_generation(&b)) {
                Ok(Ok(g)) if g.epoch == epoch => chain.push(epoch),
                Ok(Ok(g)) => report.rejected.push(Rejected {
                    file: name,
                    reason: format!("file named {epoch} but header says {}", g.epoch),
                }),
                Ok(Err(reason)) => report.rejected.push(Rejected { file: name, reason }),
                Err(e) => report.rejected.push(Rejected {
                    file: name,
                    reason: format!("unreadable: {e}"),
                }),
            }
        }
        swprof::metrics::counter_add("store.opens", 1);
        swprof::metrics::counter_add("store.generations_rejected", report.rejected.len() as u64);
        let store = Self {
            dir,
            retain: opts.retain,
            chain,
            in_flight: None,
        };
        Ok((store, report))
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed epochs, ascending. Note a `store.torn_write` fault can
    /// leave a chain entry whose file will fail validation on the next
    /// open/load — by design, that is when torn writes are discoverable.
    pub fn chain(&self) -> &[u64] {
        &self.chain
    }

    /// Newest committed epoch.
    pub fn newest(&self) -> Option<u64> {
        self.chain.last().copied()
    }

    /// Atomically commit one coordinated generation (one payload frame
    /// per rank, all tagged `epoch`) and prune the chain to the
    /// retention bound; returns when the generation is durable. Errors
    /// (including injected fsync failures) leave the previous chain
    /// intact; callers retry under [`swfault::retry::MAX_ATTEMPTS`].
    pub fn commit(&mut self, epoch: u64, frames: &[Vec<u8>]) -> io::Result<()> {
        let _span = swprof::span("store.commit");
        let (barrier, undo) = self.stage(epoch, frames)?;
        self.conclude(barrier.run(), undo)
    }

    /// [`Store::commit`] with bounded deterministic retry against
    /// injected fsync failures. Returns the number of retries burned.
    pub fn commit_with_retry(&mut self, epoch: u64, frames: &[Vec<u8>]) -> io::Result<u32> {
        retrying(epoch, || self.commit(epoch, frames))
    }

    /// [`Store::commit_with_retry`] that returns at the barrier instead
    /// of behind it: the generation is durable once the next call on
    /// this store — [`Store::settle`] to ask for exactly that — or its
    /// drop has returned, and an error of the barrier is reported there.
    pub fn begin(&mut self, epoch: u64, frames: &[Vec<u8>]) -> io::Result<u32> {
        retrying(epoch, || {
            let _span = swprof::span("store.commit");
            let (barrier, undo) = self.stage(epoch, frames)?;
            // swrace: allow(SWC011) the other place non-test code starts
            // a thread, and the one that enters no `swprof::scope`: a
            // barrier makes no fault draw, opens no span and touches no
            // plane.
            let spawned = std::thread::Builder::new()
                .name("swstore-barrier".into())
                .spawn(move || barrier.run());
            match spawned {
                Ok(barrier) => {
                    self.in_flight = Some(InFlight { undo, barrier });
                    Ok(())
                }
                Err(e) => self.conclude(Err(e), undo),
            }
        })
    }

    /// Wait for the barrier in flight, if there is one. `Ok` means every
    /// generation in [`Store::chain`] is durable; an error is the
    /// barrier's, and its epoch has left the chain.
    pub fn settle(&mut self) -> io::Result<()> {
        let Some(InFlight { undo, barrier }) = self.in_flight.take() else {
            return Ok(());
        };
        let verdict = barrier
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("the barrier thread panicked")));
        self.conclude(verdict, undo)
    }

    /// The calling-thread half of a commit: every fault draw, the temp
    /// file's contents, the flight record, the counters and the chain.
    /// Returns the barrier still to run and the chain to put back
    /// should it fail.
    fn stage(&mut self, epoch: u64, frames: &[Vec<u8>]) -> io::Result<(Barrier, Vec<u64>)> {
        assert!(!frames.is_empty(), "a generation needs at least one rank");
        self.settle()?;
        let bytes = encode_generation(epoch, frames);
        // A torn write models a lying disk: only a prefix of the data is
        // durable, yet the rename is observed after the "crash". The commit
        // itself reports success — exactly why open() must validate.
        let torn_len = swfault::decide(swfault::Site::StoreTornWrite)
            .map(|payload| payload as usize % bytes.len().max(1));
        let written: &[u8] = match torn_len {
            Some(n) => &bytes[..n],
            None => &bytes,
        };
        let tmp_path = self.dir.join(tmp_name(epoch));
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(written)?;
        if swfault::should(swfault::Site::StoreFsyncFail) {
            // The temp file stays behind, as it would after a real fsync
            // error + crash; open() sweeps it.
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected fsync failure",
            ));
        }
        // Black box: commits anchor a post-mortem — the flight dump's
        // last "store" event names the generation the chain ends at.
        swprof::tel::flight::record("store", "commit", epoch, frames.len() as u64);
        swprof::metrics::counter_add("store.generations_written", 1);
        swprof::metrics::counter_add("store.bytes_written", bytes.len() as u64);
        let undo = self.chain.clone();
        if !self.chain.contains(&epoch) {
            self.chain.push(epoch);
            self.chain.sort_unstable();
        }
        let mut pruned = Vec::new();
        while self.chain.len() > self.retain {
            pruned.push(self.dir.join(gen_name(self.chain.remove(0))));
            swprof::metrics::counter_add("store.generations_pruned", 1);
        }
        let barrier = Barrier {
            tmp,
            tmp_path,
            gen_path: self.dir.join(gen_name(epoch)),
            dir: self.dir.clone(),
            pruned,
        };
        Ok((barrier, undo))
    }

    /// A barrier's verdict is its commit's: a failed one puts the chain
    /// back as it was.
    fn conclude(&mut self, verdict: io::Result<()>, undo: Vec<u64>) -> io::Result<()> {
        if verdict.is_err() {
            self.chain = undo;
        }
        verdict
    }

    /// Load and fully validate one committed generation.
    pub fn load(&mut self, epoch: u64) -> io::Result<Generation> {
        let _span = swprof::span("store.load");
        self.settle()?;
        let bytes = read_with_bitflip(&self.dir.join(gen_name(epoch)))?;
        decode_generation(&bytes)
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))
    }

    /// Load the newest generation that validates, walking the chain
    /// backwards past torn/corrupt entries (each skip is a recorded
    /// fallback). `Ok(None)` means the store holds no valid generation.
    pub fn load_newest_valid(&mut self) -> io::Result<Option<Generation>> {
        self.settle()?;
        let mut idx = self.chain.len();
        while idx > 0 {
            idx -= 1;
            let epoch = self.chain[idx];
            match self.load(epoch) {
                Ok(g) => {
                    // Entries newer than the survivor were corrupt.
                    self.chain.truncate(idx + 1);
                    return Ok(Some(g));
                }
                Err(_) => {
                    swprof::metrics::counter_add("store.fallbacks", 1);
                }
            }
        }
        Ok(None)
    }
}

impl Drop for Store {
    /// A barrier does not outlive its store: whoever opens the directory
    /// next finds the commit finished (or failed), never half done.
    fn drop(&mut self) {
        let _ = self.settle();
    }
}

/// [`swfault::retry::interrupted`] over injected fsync failures, each
/// retry recorded. Returns the retries burned.
fn retrying(epoch: u64, attempt: impl FnMut() -> io::Result<()>) -> io::Result<u32> {
    let recorded = |retries: u32| {
        swprof::tel::flight::record("store", "fsync_retry", epoch, retries as u64);
        swprof::metrics::counter_add("store.fsync_retries", 1);
    };
    swfault::retry::interrupted(attempt, recorded).map(|((), retries)| retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swfault::{FaultPlan, Site};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("swstore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn frames(epoch: u64, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|r| format!("rank {r} epoch {epoch} payload").into_bytes())
            .collect()
    }

    #[test]
    fn commit_then_reopen_roundtrips() {
        let dir = tmpdir("roundtrip");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.chain().is_empty());
        store.commit(10, &frames(10, 3)).unwrap();
        store.commit(20, &frames(20, 3)).unwrap();
        drop(store);
        let (mut store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.chain(), &[10, 20]);
        assert!(report.rejected.is_empty());
        let g = store.load_newest_valid().unwrap().unwrap();
        assert_eq!(g.epoch, 20);
        assert_eq!(g.frames, frames(20, 3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_under_a_renamed_directory_preserves_the_chain() {
        // Everything in the store (generation names, frame tags) is
        // epoch-derived and dir-relative, so a campaign's store can
        // be renamed or moved between restarts — e.g. staged to a
        // different filesystem — and resume exactly where it left off.
        let dir = tmpdir("moveme");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.commit(10, &frames(10, 2)).unwrap();
        store.commit(20, &frames(20, 2)).unwrap();
        drop(store);
        let moved = tmpdir("moved-dest");
        fs::rename(&dir, &moved).unwrap();
        let (mut store, report) = Store::open(&moved, StoreOptions::default()).unwrap();
        assert_eq!(store.chain(), &[10, 20]);
        assert!(report.rejected.is_empty());
        let g = store.load_newest_valid().unwrap().unwrap();
        assert_eq!(g.epoch, 20);
        assert_eq!(g.frames, frames(20, 2));
        // The reopened store keeps committing in the new location.
        store.commit(30, &frames(30, 2)).unwrap();
        assert_eq!(store.chain(), &[10, 20, 30]);
        assert!(moved.join(gen_name(30)).exists());
        let _ = fs::remove_dir_all(&moved);
    }

    #[test]
    fn chain_is_bounded_by_retain() {
        let dir = tmpdir("retain");
        let (mut store, _) = Store::open(&dir, StoreOptions { retain: 3 }).unwrap();
        for e in (0..8).map(|i| i * 5) {
            store.commit(e, &frames(e, 2)).unwrap();
        }
        assert_eq!(store.chain(), &[25, 30, 35]);
        // Pruned files really are gone, so a reopen finds the same chain.
        assert!(!dir.join(gen_name(0)).exists());
        assert!(dir.join(gen_name(35)).exists());
        drop(store);
        let (store, report) = Store::open(&dir, StoreOptions { retain: 3 }).unwrap();
        assert_eq!(store.chain(), &[25, 30, 35]);
        assert!(report.rejected.is_empty(), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let dir = tmpdir("torn");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.commit(10, &frames(10, 2)).unwrap();
        // Tear the *next* commit: the lying disk persists a prefix.
        let scope =
            swfault::install(FaultPlan::with_seed(7).one_shot(Site::StoreTornWrite, None, 0));
        store.commit(20, &frames(20, 2)).unwrap();
        let log = scope.finish();
        assert_eq!(log.count(Site::StoreTornWrite), 1);
        // In-process: the chain optimistically lists 20, but loading
        // discovers the tear and falls back to 10.
        assert_eq!(store.newest(), Some(20));
        let g = store.load_newest_valid().unwrap().unwrap();
        assert_eq!(g.epoch, 10);
        assert_eq!(store.chain(), &[10]);
        // Across a restart: open() rejects the torn file up front.
        drop(store);
        let (store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(store.chain(), &[10]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_on_read_is_detected_and_survived() {
        let dir = tmpdir("bitflip");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.commit(10, &frames(10, 2)).unwrap();
        store.commit(20, &frames(20, 2)).unwrap();
        let scope = swfault::install(FaultPlan::with_seed(3).one_shot(Site::StoreBitFlip, None, 0));
        // First read (epoch 20) sees the flipped bit and is rejected;
        // the fallback read of epoch 10 is clean.
        let g = store.load_newest_valid().unwrap().unwrap();
        drop(scope);
        assert_eq!(g.epoch, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_is_retried_and_leaves_no_ghost_generation() {
        let dir = tmpdir("fsync");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        let scope =
            swfault::install(FaultPlan::with_seed(1).one_shot(Site::StoreFsyncFail, None, 0));
        let retries = store.commit_with_retry(10, &frames(10, 2)).unwrap();
        drop(scope);
        assert_eq!(retries, 1);
        assert_eq!(store.chain(), &[10]);
        assert_eq!(store.load(10).unwrap().frames, frames(10, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Name, length and mtime of everything in `dir`, sorted: what a
    /// write of any kind would change.
    fn snapshot(dir: &Path) -> Vec<(String, u64, std::time::SystemTime)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let meta = entry.metadata().unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, meta.len(), meta.modified().unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn opening_a_clean_or_a_new_store_writes_nothing() {
        let dir = tmpdir("open-clean");
        let (store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(snapshot(&dir).is_empty(), "a new store holds no file");
        drop(store);
        assert!(snapshot(&dir).is_empty());

        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for e in [10, 20, 30] {
            store.commit(e, &frames(e, 2)).unwrap();
        }
        drop(store);
        let opens_untouched = |chain: &[u64], rejected: usize| {
            let before = snapshot(&dir);
            let dir_mtime = fs::metadata(&dir).unwrap().modified().unwrap();
            let (store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
            assert_eq!(store.chain(), chain);
            assert_eq!(report.rejected.len(), rejected, "{report:?}");
            drop(store);
            assert_eq!(snapshot(&dir), before);
            assert_eq!(fs::metadata(&dir).unwrap().modified().unwrap(), dir_mtime);
        };
        opens_untouched(&[10, 20, 30], 0);
        // A corrupt generation is reported, and left as it is.
        let path = dir.join(gen_name(20));
        let mut bytes = fs::read(&path).unwrap();
        bytes[30] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        opens_untouched(&[10, 30], 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_call_after_begin_finds_the_commit_settled() {
        // Whatever comes after `begin` — and a drop — waits for the
        // barrier first: the generation is under its final name and its
        // temp file is gone.
        let settled = |dir: &Path, epoch: u64| {
            assert!(dir.join(gen_name(epoch)).exists(), "gen-{epoch}");
            assert!(!dir.join(tmp_name(epoch)).exists(), "tmp-{epoch}");
        };
        let dir = tmpdir("begin");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.begin(10, &frames(10, 2)).unwrap(), 0);
        assert_eq!(store.newest(), Some(10));
        assert_eq!(store.load(10).unwrap().frames, frames(10, 2));
        settled(&dir, 10);
        store.begin(20, &frames(20, 2)).unwrap();
        assert_eq!(store.load_newest_valid().unwrap().unwrap().epoch, 20);
        settled(&dir, 20);
        store.begin(30, &frames(30, 2)).unwrap();
        store.begin(40, &frames(40, 2)).unwrap();
        settled(&dir, 30);
        store.settle().unwrap();
        settled(&dir, 40);
        store.begin(50, &frames(50, 2)).unwrap();
        store.commit(60, &frames(60, 2)).unwrap();
        settled(&dir, 60);
        store.begin(70, &frames(70, 2)).unwrap();
        drop(store);
        settled(&dir, 70);
        let (store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.chain(), &[40, 50, 60, 70]);
        assert!(report.rejected.is_empty() && report.temps_swept == 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_barrier_surfaces_at_the_next_call_and_takes_its_epoch_back() {
        // A non-empty directory where generation 30 belongs: the
        // calling-thread half succeeds, the barrier's rename cannot.
        let blocked = || {
            let dir = tmpdir("barrier-fails");
            let (mut store, _) = Store::open(&dir, StoreOptions { retain: 2 }).unwrap();
            store.commit(10, &frames(10, 2)).unwrap();
            store.commit(20, &frames(20, 2)).unwrap();
            fs::create_dir_all(dir.join(gen_name(30)).join("in the way")).unwrap();
            (dir, store)
        };
        // The previous chain is intact, pruned generation included.
        let intact = |dir: &Path, store: &mut Store| {
            assert_eq!(store.chain(), &[10, 20]);
            assert_eq!(store.load(10).unwrap().frames, frames(10, 2));
            assert_eq!(store.load_newest_valid().unwrap().unwrap().epoch, 20);
            store.commit(40, &frames(40, 2)).unwrap();
            assert_eq!(store.chain(), &[20, 40]);
            let _ = fs::remove_dir_all(dir);
        };

        let (dir, mut store) = blocked();
        store.commit(30, &frames(30, 2)).unwrap_err();
        intact(&dir, &mut store);

        let (dir, mut store) = blocked();
        store.begin(30, &frames(30, 2)).unwrap();
        assert_eq!(store.chain(), &[20, 30], "listed while in flight");
        store.settle().unwrap_err();
        store.settle().unwrap();
        intact(&dir, &mut store);

        // `load` settles like every other call: it reports the failure
        // once, and the epoch is out of the chain when it returns.
        let (dir, mut store) = blocked();
        store.begin(30, &frames(30, 2)).unwrap();
        store.load(20).unwrap_err();
        assert_eq!(store.chain(), &[10, 20]);
        assert_eq!(store.load(20).unwrap().frames, frames(20, 2));
        intact(&dir, &mut store);
    }

    #[test]
    fn only_a_filesystem_that_cannot_sync_directories_is_excused() {
        use io::ErrorKind::*;
        for kind in [InvalidInput, Unsupported] {
            assert!(dir_sync_unsupported(&kind.into()), "{kind:?}");
        }
        for kind in [NotFound, PermissionDenied, StorageFull, Other] {
            assert_eq!(dir_sync_unsupported(&kind.into()), cfg!(not(unix)));
        }
        #[cfg(target_os = "linux")]
        for (errno, excused) in [(22, true), (95, true), (5, false), (28, false)] {
            // EINVAL, ENOTSUP; EIO, ENOSPC.
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(dir_sync_unsupported(&e), excused, "{e}");
        }
        // The directory's own errors reach the caller.
        #[cfg(unix)]
        assert_eq!(sync_dir(&tmpdir("sync-gone")).unwrap_err().kind(), NotFound);
    }

    #[test]
    fn version_skew_is_rejected_not_misparsed() {
        let dir = tmpdir("version");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.commit(10, &frames(10, 1)).unwrap();
        let path = dir.join(gen_name(10));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99; // future format version
        fs::write(&path, &bytes).unwrap();
        drop(store);
        let (store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.chain().is_empty());
        assert!(
            report.rejected[0].reason.contains("version 99"),
            "{report:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_temp_files_are_swept() {
        let dir = tmpdir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(tmp_name(5)), b"half a generation").unwrap();
        let (store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(report.temps_swept, 1);
        assert!(store.chain().is_empty());
        assert!(!dir.join(tmp_name(5)).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_epoch_tags_must_agree() {
        // Hand-corrupt one frame's epoch tag; the file CRC also changes,
        // so patch both — the epoch-coherence check must still fire.
        let mut bytes = encode_generation(7, &frames(7, 2));
        // Frame 0 epoch tag lives at 21 + 2 + 4.
        bytes[27] ^= 1;
        let start = 21;
        let len = u32::from_le_bytes(bytes[35..39].try_into().unwrap()) as usize;
        let body_end = start + 18 + len;
        let crc = crc32(&bytes[start..body_end]);
        bytes[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
        let trailer_at = bytes.len() - 12;
        let fcrc = crc32(&bytes[..trailer_at]);
        let at = trailer_at + 8;
        bytes[at..at + 4].copy_from_slice(&fcrc.to_le_bytes());
        let err = decode_generation(&bytes).unwrap_err();
        assert!(err.contains("epoch tag"), "{err}");
    }
}
