//! Dynamic pass: epoch-scoped shadow memory + coherence checks
//! (SWC101–SWC105).
//!
//! A `CoreGroup::spawn` region is the unit of concurrency on the SW26010:
//! inside one spawn epoch all 64 CPEs run unsynchronized, and the join is
//! the only barrier. The dynamic pass therefore replays every traced
//! write into a shadow of shared memory scoped by `(epoch, region)` and
//! flags any pair of overlapping word intervals written by *different*
//! CPEs in the *same* epoch — the on-chip definition of a data race. The
//! RMA kernel's whole design (redundant copies, §3.2) exists to make
//! these intervals disjoint; this pass proves it holds run by run.
//!
//! Two coherence invariants of the deferred-update machinery ride on the
//! same stream: a [`sw26010::cache::WriteCache`] dropped while still
//! holding dirty lines has silently lost forces (SWC102), and the
//! Bit-Map contract (Alg. 3/4) requires the reduction's consumed-line
//! set to equal the marked-line set exactly (SWC103/SWC104).
//!
//! Fault recovery adds a fourth invariant: an aborted execution attempt
//! ([`EventKind::Abort`], emitted by the `swfault` respawn/retry paths) is
//! replayed from scratch, so the dead attempt must not have left any
//! visible state behind — no dirty write-cache lines and no
//! marked-but-unreduced Bit-Map lines from the same `(epoch, cpe)`
//! (SWC105).

use std::collections::{BTreeMap, BTreeSet};

use sw26010::trace::{Event, EventKind};
use swgmx::check::KernelContract;

use crate::{Severity, Violation};

/// Run the dynamic pass over one traced run.
pub fn detect(contract: &KernelContract, events: &[Event]) -> Vec<Violation> {
    let mut out = Vec::new();
    races(contract, events, &mut out);
    dropped_dirty(contract, events, &mut out);
    mark_coherence(contract, events, &mut out);
    aborted_regions(contract, events, &mut out);
    out
}

/// One shared-memory write: `(cpe, word_lo, word_hi)`.
type WriteInterval = (usize, usize, usize);

/// SWC101: conflicting cross-CPE writes inside one spawn epoch.
fn races(contract: &KernelContract, events: &[Event], out: &mut Vec<Violation>) {
    // (epoch, region) -> writes in that concurrency scope
    let mut writes: BTreeMap<(u64, u32), Vec<WriteInterval>> = BTreeMap::new();
    for e in events {
        if let (
            Some(cpe),
            EventKind::SharedWrite {
                region,
                word_lo,
                word_hi,
            },
        ) = (e.cpe, &e.kind)
        {
            writes
                .entry((e.epoch, *region))
                .or_default()
                .push((cpe, *word_lo, *word_hi));
        }
    }

    let mut n_races = 0usize;
    let mut first: Option<(u64, u32, usize, usize, usize, usize)> = None;
    for ((epoch, region), mut intervals) in writes {
        intervals.sort_by_key(|&(_, lo, _)| lo);
        // Sweep left to right keeping the farthest extent seen per CPE:
        // an interval races iff it starts before some *other* CPE's
        // extent ends. At most 64 CPEs, so the inner scan is O(64).
        let mut extent: BTreeMap<usize, usize> = BTreeMap::new();
        for (cpe, lo, hi) in intervals {
            for (&other, &other_hi) in &extent {
                if other != cpe && lo < other_hi {
                    n_races += 1;
                    first.get_or_insert((epoch, region, cpe, other, lo, other_hi));
                }
            }
            let e = extent.entry(cpe).or_insert(0);
            *e = (*e).max(hi);
        }
    }
    if let Some((epoch, region, a, b, lo, hi)) = first {
        out.push(Violation::new(
            "SWC101",
            contract.name,
            Severity::Error,
            format!(
                "{n_races} conflicting cross-CPE write pair(s) in one spawn \
                 epoch (first: epoch {epoch}, region {region}, CPEs {a} and \
                 {b} overlap in words [{lo}, {hi}))"
            ),
        ));
    }
}

/// SWC102: write caches dropped while still holding dirty lines.
fn dropped_dirty(contract: &KernelContract, events: &[Event], out: &mut Vec<Violation>) {
    for e in events {
        if let EventKind::WcDropDirty { cache, lines } = &e.kind {
            out.push(Violation::new(
                "SWC102",
                contract.name,
                Severity::Error,
                format!(
                    "write cache #{cache} dropped with {} unflushed dirty \
                     line(s) (first line {}): accumulated forces never \
                     reached the backing copy",
                    lines.len(),
                    lines.first().copied().unwrap_or(0)
                ),
            ));
        }
    }
}

/// SWC103/SWC104: Bit-Map marks vs. reduction consumption, per cache.
///
/// Only caches that recorded at least one mark are audited: a cache
/// running without marks (the Cache/Vec rungs) legitimately has its
/// whole copy reduced. A contract that `expects_marks` but produced no
/// mark events at all is itself an SWC103 finding — the Bit-Map was
/// configured away.
fn mark_coherence(contract: &KernelContract, events: &[Event], out: &mut Vec<Violation>) {
    let mut marked: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    let mut reduced: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::MarkSet { cache, line } => {
                marked.entry(*cache).or_default().insert(*line);
            }
            EventKind::ReduceLine { cache, line } => {
                reduced.entry(*cache).or_default().insert(*line);
            }
            _ => {}
        }
    }

    if contract.expects_marks && marked.is_empty() {
        out.push(Violation::new(
            "SWC103",
            contract.name,
            Severity::Error,
            "contract expects Bit-Map marks but the run recorded none".to_string(),
        ));
        return;
    }

    for (cache, marks) in &marked {
        let empty = BTreeSet::new();
        let consumed = reduced.get(cache).unwrap_or(&empty);
        let missing: Vec<_> = marks.difference(consumed).copied().collect();
        if let Some(&line) = missing.first() {
            out.push(Violation::new(
                "SWC103",
                contract.name,
                Severity::Error,
                format!(
                    "cache #{cache}: {} marked line(s) never consumed by the \
                     reduction (first line {line}); those force contributions \
                     are lost",
                    missing.len()
                ),
            ));
        }
        let extra: Vec<_> = consumed.difference(marks).copied().collect();
        if let Some(&line) = extra.first() {
            out.push(Violation::new(
                "SWC104",
                contract.name,
                Severity::Error,
                format!(
                    "cache #{cache}: reduction consumed {} unmarked line(s) \
                     (first line {line}); with marks skipping initialization \
                     those lines hold garbage",
                    extra.len()
                ),
            ));
        }
    }
}

/// SWC105: an aborted execution attempt must leave no visible state.
///
/// The `swfault` recovery paths (CPE respawn after a hang, kernel-fault
/// fallback) replay the aborted work from scratch, so anything the dead
/// attempt already made visible would be double-counted or corrupted on
/// replay. For each [`EventKind::Abort`] this audits the events *earlier in
/// the stream* from the same `(epoch, cpe)`: a write cache dropped with
/// dirty lines, or a Bit-Map mark whose `(cache, line)` the reduction
/// never consumes anywhere in the run, means the abort was not clean.
fn aborted_regions(contract: &KernelContract, events: &[Event], out: &mut Vec<Violation>) {
    let reduced: BTreeSet<(u64, usize)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ReduceLine { cache, line } => Some((cache, line)),
            _ => None,
        })
        .collect();

    for (i, e) in events.iter().enumerate() {
        let EventKind::Abort { reason } = e.kind else {
            continue;
        };
        let (cpe, epoch) = (e.cpe, e.epoch);
        let mut dirty = 0usize;
        let mut unreduced = 0usize;
        let mut first: Option<String> = None;
        let same_attempt = events[..i]
            .iter()
            .filter(|p| (p.cpe, p.epoch) == (cpe, epoch));
        for prior in same_attempt {
            match &prior.kind {
                EventKind::WcDropDirty { cache, lines } => {
                    dirty += lines.len();
                    first.get_or_insert_with(|| {
                        format!("cache #{cache} dropped {} dirty line(s)", lines.len())
                    });
                }
                EventKind::MarkSet { cache, line } if !reduced.contains(&(*cache, *line)) => {
                    unreduced += 1;
                    first.get_or_insert_with(|| {
                        format!("cache #{cache} line {line} marked, never reduced")
                    });
                }
                _ => {}
            }
        }
        if let Some(detail) = first {
            let core = match cpe {
                Some(c) => format!("CPE {c}"),
                None => "MPE".to_string(),
            };
            out.push(Violation::new(
                "SWC105",
                contract.name,
                Severity::Error,
                format!(
                    "aborted attempt (reason `{reason}`, epoch {epoch}, {core}) \
                     left visible state behind: {dirty} dirty write-cache \
                     line(s), {unreduced} marked-but-unreduced Bit-Map line(s) \
                     (first: {detail}); the replay will double-count or lose \
                     those contributions"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict() -> KernelContract {
        KernelContract::strict("test")
    }

    fn write(cpe: usize, epoch: u64, region: u32, lo: usize, hi: usize) -> Event {
        Event {
            cpe: Some(cpe),
            epoch,
            kind: EventKind::SharedWrite {
                region,
                word_lo: lo,
                word_hi: hi,
            },
        }
    }

    #[test]
    fn overlapping_cross_cpe_writes_race() {
        let ev = [write(0, 1, 9, 0, 16), write(1, 1, 9, 8, 24)];
        let v = detect(&strict(), &ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC101");
    }

    #[test]
    fn disjoint_or_cross_epoch_writes_are_clean() {
        let ev = [
            write(0, 1, 9, 0, 16),
            write(1, 1, 9, 16, 32), // adjacent, not overlapping
            write(1, 2, 9, 0, 16),  // same words, later epoch (after join)
            write(0, 1, 8, 8, 24),  // same words, different region
            write(0, 1, 9, 4, 12),  // same CPE rewriting its own words
        ];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn dropped_dirty_cache_is_swc102() {
        let ev = [Event {
            cpe: Some(0),
            epoch: 1,
            kind: EventKind::WcDropDirty {
                cache: 42,
                lines: vec![3, 7],
            },
        }];
        let v = detect(&strict(), &ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC102");
        assert!(v[0].message.contains("#42"));
    }

    fn mark(cache: u64, line: usize) -> Event {
        Event {
            cpe: Some(0),
            epoch: 1,
            kind: EventKind::MarkSet { cache, line },
        }
    }

    fn reduce(cache: u64, line: usize) -> Event {
        Event {
            cpe: Some(0),
            epoch: 2,
            kind: EventKind::ReduceLine { cache, line },
        }
    }

    #[test]
    fn mark_reduce_exact_match_is_clean() {
        let ev = [mark(1, 0), mark(1, 5), reduce(1, 0), reduce(1, 5)];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn marked_but_unreduced_is_swc103() {
        let ev = [mark(1, 0), mark(1, 5), reduce(1, 0)];
        let v = detect(&strict(), &ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC103");
    }

    #[test]
    fn reduced_but_unmarked_is_swc104() {
        let ev = [mark(1, 0), reduce(1, 0), reduce(1, 9)];
        let v = detect(&strict(), &ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC104");
    }

    #[test]
    fn unmarked_cache_reduction_is_by_design() {
        // Cache/Vec rungs: no marks, every line reduced. Clean.
        let ev = [reduce(1, 0), reduce(1, 1), reduce(1, 2)];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn expected_marks_missing_entirely_is_swc103() {
        let mut c = strict();
        c.expects_marks = true;
        let v = detect(&c, &[reduce(1, 0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "SWC103");
    }

    fn abort(cpe: usize, epoch: u64) -> Event {
        Event {
            cpe: Some(cpe),
            epoch,
            kind: EventKind::Abort { reason: "cpe-hang" },
        }
    }

    #[test]
    fn abort_with_no_prior_state_is_clean() {
        // The common case: a CPE hang is decided before the kernel body
        // runs, so the abort has nothing before it in its (epoch, cpe).
        assert!(detect(&strict(), &[abort(7, 1)]).is_empty());
    }

    #[test]
    fn abort_after_unreduced_mark_is_swc105() {
        // mark() uses cpe 0, epoch 1 — the abort shares both.
        let ev = [mark(1, 0), abort(0, 1)];
        let v = detect(&strict(), &ev);
        assert!(v.iter().any(|v| v.id == "SWC105"), "got {v:?}");
    }

    #[test]
    fn abort_after_dropped_dirty_cache_is_swc105() {
        let ev = [
            Event {
                cpe: Some(3),
                epoch: 2,
                kind: EventKind::WcDropDirty {
                    cache: 9,
                    lines: vec![4],
                },
            },
            abort(3, 2),
        ];
        let v = detect(&strict(), &ev);
        assert!(v.iter().any(|v| v.id == "SWC105"), "got {v:?}");
    }

    #[test]
    fn abort_after_reduced_marks_is_clean() {
        // The reduction consuming the mark (even later in the stream)
        // means the aborted attempt's state was properly drained.
        let ev = [mark(1, 0), reduce(1, 0), abort(0, 1)];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn abort_scopes_to_its_own_epoch_and_cpe() {
        // The unreduced mark is (cpe 0, epoch 1); neither abort matches
        // it, so SWC103 fires but SWC105 does not.
        let ev = [mark(1, 0), abort(5, 1), abort(0, 2)];
        let v = detect(&strict(), &ev);
        assert!(v.iter().any(|v| v.id == "SWC103"));
        assert!(!v.iter().any(|v| v.id == "SWC105"), "got {v:?}");
    }

    #[test]
    fn state_created_after_the_abort_is_not_the_aborts_fault() {
        // The respawned attempt marks and reduces after the abort event;
        // only events *earlier* in the stream are audited.
        let ev = [abort(0, 1), mark(1, 0), reduce(1, 0)];
        assert!(detect(&strict(), &ev).is_empty());
    }
}
