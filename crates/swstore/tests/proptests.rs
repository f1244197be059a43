//! Property tests for the store's corruption contract: arbitrary
//! truncation or bit flips of generation files must never panic
//! `Store::open`, and the chain must always land on exactly the set of
//! generations left fully valid — recovery resumes from the newest one.
//!
//! These tests hit the real filesystem, each case under a directory of
//! its own, and install no fault scope: no other thread's plan can
//! reach them.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use swstore::{Store, StoreOptions};

fn tmpdir(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("swstore-prop-{tag}-{}", std::process::id()))
}

/// Build a store with `n_gens` committed generations — each through
/// `commit`, or through `begin` and left for the next call or the drop
/// to settle when `behind` — and return the generation file names,
/// oldest first.
fn seeded_store(dir: &PathBuf, n_gens: usize, n_ranks: usize, behind: bool) -> Vec<PathBuf> {
    let _ = fs::remove_dir_all(dir);
    let (mut store, _) = Store::open(
        dir,
        StoreOptions {
            retain: n_gens.max(2),
        },
    )
    .unwrap();
    let mut files = Vec::new();
    for i in 0..n_gens {
        let epoch = (i as u64 + 1) * 10;
        let frames: Vec<Vec<u8>> = (0..n_ranks)
            .map(|r| {
                // Payload sizes vary per rank so offsets are interesting.
                vec![(epoch as u8).wrapping_add(r as u8); 64 + 13 * r]
            })
            .collect();
        if behind {
            store.begin(epoch, &frames).unwrap();
        } else {
            store.commit(epoch, &frames).unwrap();
        }
        files.push(dir.join(format!("gen-{epoch:016x}.swst")));
    }
    files
}

proptest! {
    /// Truncating any suffix of any generation file: open() never
    /// panics, rejects exactly the damaged file, and the chain keeps
    /// every other generation.
    #[test]
    fn truncation_never_panics_and_falls_back(
        victim in 0usize..3,
        keep_frac in 0.0f64..1.0,
        behind in any::<bool>(),
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir(case);
        let files = seeded_store(&dir, 3, 2, behind);
        let bytes = fs::read(&files[victim]).unwrap();
        let keep = (((bytes.len() as f64) * keep_frac) as usize).min(bytes.len() - 1);
        fs::write(&files[victim], &bytes[..keep]).unwrap();

        let (mut store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        let all = [10u64, 20, 30];
        let expect: Vec<u64> =
            all.iter().copied().filter(|&e| e != all[victim]).collect();
        prop_assert_eq!(store.chain(), &expect[..]);
        prop_assert_eq!(report.rejected.len(), 1);
        let newest = store.load_newest_valid().unwrap();
        prop_assert_eq!(newest.map(|g| g.epoch), expect.last().copied());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit of any generation file: open() never
    /// panics and the chain is exactly the still-valid set, in order.
    #[test]
    fn bit_flip_never_panics_and_lands_on_newest_valid(
        victim in 0usize..3,
        bit_pick in any::<u64>(),
        behind in any::<bool>(),
        case in 1_000_000u64..2_000_000,
    ) {
        let dir = tmpdir(case);
        let files = seeded_store(&dir, 3, 2, behind);
        let mut bytes = fs::read(&files[victim]).unwrap();
        let bit = bit_pick as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        fs::write(&files[victim], &bytes).unwrap();

        let (mut store, _report) = Store::open(&dir, StoreOptions::default()).unwrap();
        // A flip anywhere in the file breaks a CRC, so the victim is
        // out and everything else stays. (Flips in a frame payload are
        // caught by that frame's CRC; flips in headers/trailer by the
        // structural checks or the file CRC.)
        let all = [10u64, 20, 30];
        let expect: Vec<u64> =
            all.iter().copied().filter(|&e| e != all[victim]).collect();
        prop_assert_eq!(store.chain(), &expect[..]);
        let newest = store.load_newest_valid().unwrap();
        prop_assert_eq!(newest.map(|g| g.epoch), expect.last().copied());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Corrupting every generation still leaves an openable store that
    /// reports "no valid generation" instead of panicking or lying.
    #[test]
    fn total_corruption_degrades_to_empty_not_panic(
        keep in 0usize..20,
        behind in any::<bool>(),
        case in 2_000_000u64..3_000_000,
    ) {
        let dir = tmpdir(case);
        let files = seeded_store(&dir, 2, 2, behind);
        for f in &files {
            let bytes = fs::read(f).unwrap();
            fs::write(f, &bytes[..keep.min(bytes.len().saturating_sub(1))]).unwrap();
        }
        let (mut store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        prop_assert!(store.chain().is_empty());
        prop_assert_eq!(report.rejected.len(), 2);
        prop_assert!(store.load_newest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
