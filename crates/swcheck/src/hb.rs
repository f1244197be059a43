//! The one pass over a traced run's event stream: a vector-clock
//! happens-before engine that also carries the write-cache, Bit-Map and
//! abort rules (SWC102–105, SWC110, SWC111, SWC113).
//!
//! "Concurrent" means what a native backend would make of it: two
//! events are ordered only by a synchronization edge — spawn fork/join,
//! LDM release→acquire handoff, Bit-Map mark→reduce pairing, channel
//! send→recv, barrier arrivals. The pass replays the stream under that
//! model:
//!
//! - **Lanes.** MPE/host code is lane 0; CPE `c` is lane `c + 1`. Every
//!   event advances its lane's component of a vector clock.
//! - **Fork/join.** `SpawnBegin` forks the MPE clock into each CPE lane
//!   at its first event of the epoch; `SpawnEnd` joins every
//!   participating lane back into the MPE.
//! - **Edges.** `LdmReserve` joins the last `LdmRelease` of the same
//!   `(ledger, label)`; `ReduceLine` joins its matched `MarkSet`;
//!   `ChanRecv` joins its `ChanSend`; `Barrier` arrivals of one round
//!   chain-join in stream order.
//!
//! Two accesses to overlapping words of one region race (**SWC110**)
//! when they come from different lanes, at least one writes, and
//! neither happens-before the other; a DMA Get reads its words, a Put
//! writes them (through the `SharedWrite` it emits). Two CPEs of one
//! spawn epoch writing one word is therefore SWC110 unless an edge
//! orders them. Two further rules certify the synchronization protocols
//! themselves: a `ReduceLine` whose `MarkSet` is not ordered before it
//! (**SWC111**), and one LDM ledger touched from two lanes without a
//! release→acquire handoff (**SWC113**). Every such finding carries
//! dual-access evidence: both sites, both lanes, both stream positions.
//!
//! The coherence rules of the deferred-update machinery read the same
//! walk's bookkeeping. A [`sw26010::cache::WriteCache`] dropped while
//! still holding dirty lines has silently lost forces (**SWC102**). The
//! Bit-Map contract (Alg. 3/4) requires the reduced lines of a marking
//! cache to equal its marked lines: a marked line never reduced is
//! **SWC103**, a reduced line never marked **SWC104** — only caches that
//! marked are audited, since the Cache/Vec rungs reduce a whole unmarked
//! copy by design, and a contract that expects marks but recorded none
//! is SWC103 itself. An aborted attempt ([`EventKind::Abort`], from the
//! `swfault` respawn/retry paths) is replayed from scratch, so it must
//! leave nothing behind: no dirty drop and no never-reduced mark earlier
//! in the stream from its own lane and epoch (**SWC105**).

use std::collections::BTreeMap;

use sw26010::dma::Dir;
use sw26010::trace::{Event, EventKind};
use swgmx::check::KernelContract;

use crate::{Severity, Violation};

/// Lane of an event's issuer (0 = MPE, `n` = CPE `n - 1`).
pub(crate) fn lane_index(cpe: Option<usize>) -> usize {
    match cpe {
        Some(c) => c + 1,
        None => 0,
    }
}

/// Human name of a lane (`"MPE"`, `"CPE 7"`).
pub fn lane_name(lane: usize) -> String {
    if lane == 0 {
        "MPE".to_string()
    } else {
        format!("CPE {}", lane - 1)
    }
}

/// One side of a dual-access finding: where in the stream, on which
/// lane, doing what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Lane of the access (0 = MPE, `n` = CPE `n - 1`).
    pub lane: usize,
    /// Spawn epoch the access occurred in.
    pub epoch: u64,
    /// Position of the access in the event stream.
    pub index: usize,
    /// What the access was ("shared write region 2 words [0,12)", ...).
    pub what: String,
}

impl AccessSite {
    /// Human name of the accessing lane.
    pub fn lane_name(&self) -> String {
        lane_name(self.lane)
    }
}

impl std::fmt::Display for AccessSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} at event {} (epoch {})",
            self.lane_name(),
            self.what,
            self.index,
            self.epoch
        )
    }
}

/// The two unordered sites of one happens-before finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualAccess {
    /// Earlier site (by stream position).
    pub first: AccessSite,
    /// Later site.
    pub second: AccessSite,
}

impl std::fmt::Display for DualAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} vs {}", self.first, self.second)
    }
}

/// A vector-clock timestamp: the issuing lane, its clock value at the
/// event, and the full clock snapshot after all incoming joins.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snap {
    lane: usize,
    ts: u32,
    vc: Vec<u32>,
}

/// `a` happens-before `b`: `b`'s snapshot has seen `a`'s lane step.
fn hb(a: &Snap, b: &Snap) -> bool {
    a.ts <= b.vc.get(a.lane).copied().unwrap_or(0)
}

fn unordered(a: &Snap, b: &Snap) -> bool {
    !hb(a, b) && !hb(b, a)
}

/// Mark or reduce sites per `(cache, line)`, in stream order.
type LineSites = BTreeMap<(u64, usize), Vec<(Snap, AccessSite)>>;

/// One shared-memory access (direct or via DMA), with its timestamp.
#[derive(Debug, Clone)]
struct Access {
    snap: Snap,
    site: AccessSite,
    lo: usize,
    hi: usize,
    write: bool,
}

fn words(byte_off: usize, bytes: usize) -> (usize, usize) {
    (byte_off / 4, (byte_off + bytes).div_ceil(4))
}

/// The pass over one event stream: SWC102–105, SWC110, SWC111 and
/// SWC113.
pub fn detect(contract: &KernelContract, events: &[Event]) -> Vec<Violation> {
    // One clock component per lane the stream has, however wide.
    let n_lanes = 1 + events.iter().map(|e| lane_index(e.cpe)).max().unwrap_or(0);
    let mut vcs: Vec<Vec<u32>> = vec![vec![0; n_lanes]; n_lanes];
    // Per-epoch MPE snapshot at SpawnBegin, forked into CPE lanes.
    let mut fork_vc: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    // Latest epoch each CPE lane has forked from.
    let mut joined_epoch: Vec<Option<u64>> = vec![None; n_lanes];
    // CPE lanes seen in each still-open epoch (joined at SpawnEnd).
    let mut participants: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    // Pending release snapshot per (ledger, label): the acquire edge.
    let mut last_release: BTreeMap<(u64, &'static str), Snap> = BTreeMap::new();
    // Last event per LDM ledger, for the SWC113 aliasing check.
    let mut ldm_last: BTreeMap<u64, (Snap, AccessSite)> = BTreeMap::new();
    // Last arrival per barrier round: arrivals chain-join.
    let mut barrier_last: BTreeMap<u64, Snap> = BTreeMap::new();
    // Send snapshot per (channel, seq): the recv edge.
    let mut chan_sends: BTreeMap<(u64, u64), Snap> = BTreeMap::new();
    // Mark / reduce sites per (cache, line), matched k-th to k-th.
    let mut marks: LineSites = BTreeMap::new();
    let mut reduces: LineSites = BTreeMap::new();
    // Shared-memory accesses per region, split by kind.
    let mut writes: BTreeMap<u32, Vec<Access>> = BTreeMap::new();
    let mut reads: BTreeMap<u32, Vec<Access>> = BTreeMap::new();
    // Write caches dropped dirty, and aborted attempts, in stream order.
    let mut dropped: Vec<(AccessSite, usize)> = Vec::new();
    let mut aborts: Vec<(AccessSite, &'static str)> = Vec::new();

    let mut ldm_findings: Vec<DualAccess> = Vec::new();
    let mut out = Vec::new();

    for (index, ev) in events.iter().enumerate() {
        let (lane, epoch) = (lane_index(ev.cpe), ev.epoch);
        // Fork edge: a CPE lane's first event in an epoch inherits the
        // MPE clock captured at that epoch's SpawnBegin.
        if lane != 0 && joined_epoch[lane] != Some(epoch) {
            joined_epoch[lane] = Some(epoch);
            if let Some(fork) = fork_vc.get(&epoch) {
                join(&mut vcs, lane, fork);
            }
            participants.entry(epoch).or_default().push(lane);
        }
        // Incoming synchronization edges, applied before the step.
        match &ev.kind {
            EventKind::SpawnEnd => {
                for l in participants.remove(&epoch).unwrap_or_default() {
                    let from = vcs[l].clone();
                    join(&mut vcs, 0, &from);
                }
            }
            EventKind::LdmReserve { ldm, label, .. } => {
                // The acquire edge keys on (instance, label) so
                // unrelated labels don't fabricate ordering.
                if let Some(rel) = last_release.get(&(*ldm, label)) {
                    let from = rel.vc.clone();
                    join(&mut vcs, lane, &from);
                }
            }
            EventKind::ChanRecv { chan, seq, .. } => {
                if let Some(send) = chan_sends.get(&(*chan, *seq)) {
                    let from = send.vc.clone();
                    join(&mut vcs, lane, &from);
                }
            }
            EventKind::Barrier { id, .. } => {
                if let Some(prev) = barrier_last.get(id) {
                    let from = prev.vc.clone();
                    join(&mut vcs, lane, &from);
                }
            }
            _ => {}
        }
        // The step: every event advances its lane's own component.
        vcs[lane][lane] += 1;
        let snap = Snap {
            lane,
            ts: vcs[lane][lane],
            vc: vcs[lane].clone(),
        };
        let site = |what: String| AccessSite {
            lane,
            epoch,
            index,
            what,
        };
        // Outgoing state: snapshots other events will join or check.
        match &ev.kind {
            EventKind::SpawnBegin { .. } => {
                fork_vc.insert(epoch, snap.vc.clone());
            }
            // A synchronous Put already emits its own SharedWrite; only
            // the Get's read participates here.
            EventKind::Dma {
                dir: Dir::Get,
                region: Some(region),
                byte_off,
                bytes,
                ..
            } => {
                let (lo, hi) = words(*byte_off, *bytes);
                reads.entry(*region).or_default().push(Access {
                    snap: snap.clone(),
                    site: site(format!("DMA Get region {region} words [{lo},{hi})")),
                    lo,
                    hi,
                    write: false,
                });
            }
            EventKind::SharedWrite {
                region,
                word_lo,
                word_hi,
                ..
            } => {
                writes.entry(*region).or_default().push(Access {
                    snap: snap.clone(),
                    site: site(format!(
                        "shared write region {region} words [{word_lo},{word_hi})"
                    )),
                    lo: *word_lo,
                    hi: *word_hi,
                    write: true,
                });
            }
            EventKind::SharedRead {
                region,
                word_lo,
                word_hi,
                ..
            } => {
                reads.entry(*region).or_default().push(Access {
                    snap: snap.clone(),
                    site: site(format!(
                        "shared read region {region} words [{word_lo},{word_hi})"
                    )),
                    lo: *word_lo,
                    hi: *word_hi,
                    write: false,
                });
            }
            EventKind::LdmReserve {
                ldm, label, bytes, ..
            } => {
                let s = site(format!("LDM reserve `{label}` ({bytes} B, ledger {ldm})"));
                check_ldm_lane(&mut ldm_findings, &mut ldm_last, *ldm, &snap, s);
            }
            EventKind::LdmRelease {
                ldm, label, bytes, ..
            } => {
                let s = site(format!("LDM release `{label}` ({bytes} B, ledger {ldm})"));
                check_ldm_lane(&mut ldm_findings, &mut ldm_last, *ldm, &snap, s);
                last_release.insert((*ldm, label), snap.clone());
            }
            EventKind::ChanSend { chan, seq, .. } => {
                chan_sends.insert((*chan, *seq), snap.clone());
            }
            EventKind::Barrier { id, .. } => {
                barrier_last.insert(*id, snap.clone());
            }
            EventKind::WcDropDirty { cache, lines } => {
                let s = site(format!(
                    "cache #{cache} dropped {} dirty line(s)",
                    lines.len()
                ));
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
                dropped.push((s, lines.len()));
            }
            EventKind::Abort { reason } => aborts.push((site(String::new()), *reason)),
            EventKind::MarkSet { cache, line, .. } => {
                let s = site(format!("Bit-Map mark line {line} (cache {cache})"));
                marks.entry((*cache, *line)).or_default().push((snap, s));
            }
            EventKind::ReduceLine { cache, line, .. } => {
                // Check-then-join: the snapshot recorded for the SWC111
                // check predates the join, so an unsynchronized reduce
                // is still caught — but the join happens regardless, so
                // one missing edge doesn't cascade into downstream
                // false positives.
                let s = site(format!("reduce line {line} (cache {cache})"));
                let k = reduces.get(&(*cache, *line)).map_or(0, Vec::len);
                reduces.entry((*cache, *line)).or_default().push((snap, s));
                if let Some((m_snap, _)) = marks.get(&(*cache, *line)).and_then(|m| m.get(k)) {
                    let from = m_snap.vc.clone();
                    join(&mut vcs, lane, &from);
                }
            }
            _ => {}
        }
    }

    mark_coherence(contract, &marks, &reduces, &mut out);
    unclean_aborts(contract, &aborts, &dropped, &marks, &reduces, &mut out);

    // SWC110: overlapping unordered conflicting accesses, per region.
    for (&region, ws) in &writes {
        let rs = reads.get(&region).map(Vec::as_slice).unwrap_or(&[]);
        let racing = race_pairs(ws, rs);
        if let Some(first) = racing.first() {
            out.push(
                Violation::new(
                    "SWC110",
                    contract.name,
                    Severity::Error,
                    format!(
                        "{} happens-before race(s) on region {region} (first: {first})",
                        racing.len()
                    ),
                )
                .with_evidence(first.clone()),
            );
        }
    }

    // SWC111: a reduce not ordered after its matched mark.
    let mut unsynced_reduces: Vec<DualAccess> = Vec::new();
    for (key, rl) in &reduces {
        let ml = marks.get(key).map(Vec::as_slice).unwrap_or(&[]);
        for (k, (r_snap, r_site)) in rl.iter().enumerate() {
            // k-th reduce of a line pairs with its k-th mark; a reduce
            // with no mark at all is SWC104's (set-based) finding.
            let Some((m_snap, m_site)) = ml.get(k) else {
                continue;
            };
            if !hb(m_snap, r_snap) {
                unsynced_reduces.push(ordered_pair(m_site.clone(), r_site.clone()));
            }
        }
    }
    if let Some(first) = unsynced_reduces.first() {
        out.push(
            Violation::new(
                "SWC111",
                contract.name,
                Severity::Error,
                format!(
                    "{} Bit-Map reduce(s) not ordered after their mark ({first})",
                    unsynced_reduces.len()
                ),
            )
            .with_evidence(first.clone()),
        );
    }

    // SWC113: one LDM ledger on two lanes without a handoff.
    if let Some(first) = ldm_findings.first() {
        out.push(
            Violation::new(
                "SWC113",
                contract.name,
                Severity::Error,
                format!(
                    "{} cross-lane LDM ledger event(s) without a \
                     release→acquire handoff ({first})",
                    ldm_findings.len()
                ),
            )
            .with_evidence(first.clone()),
        );
    }

    out
}

/// SWC103/SWC104: per cache that marked, its marked lines against its
/// reduced ones. A contract that expects marks but recorded none is
/// SWC103 itself: the Bit-Map was configured away.
fn mark_coherence(
    contract: &KernelContract,
    marks: &LineSites,
    reduces: &LineSites,
    out: &mut Vec<Violation>,
) {
    if contract.expects_marks && marks.is_empty() {
        out.push(Violation::new(
            "SWC103",
            contract.name,
            Severity::Error,
            "contract expects Bit-Map marks but the run recorded none".to_string(),
        ));
        return;
    }
    let mut caches: Vec<u64> = marks.keys().map(|&(cache, _)| cache).collect();
    caches.dedup();
    for cache in caches {
        // Lines of `cache` in `of` that `other` lacks: their count and first.
        let lacking = |of: &LineSites, other: &LineSites| {
            let lines: Vec<usize> = of
                .range((cache, 0)..=(cache, usize::MAX))
                .filter(|(key, _)| !other.contains_key(key))
                .map(|(&(_, line), _)| line)
                .collect();
            Some((lines.len(), *lines.first()?))
        };
        if let Some((n, line)) = lacking(marks, reduces) {
            out.push(Violation::new(
                "SWC103",
                contract.name,
                Severity::Error,
                format!(
                    "cache #{cache}: {n} marked line(s) never consumed by the \
                     reduction (first line {line}); those force contributions \
                     are lost"
                ),
            ));
        }
        if let Some((n, line)) = lacking(reduces, marks) {
            out.push(Violation::new(
                "SWC104",
                contract.name,
                Severity::Error,
                format!(
                    "cache #{cache}: reduction consumed {n} unmarked line(s) \
                     (first line {line}); with marks skipping initialization \
                     those lines hold garbage"
                ),
            ));
        }
    }
}

/// SWC105: each abort against the dirty drops and never-reduced marks
/// its own lane recorded earlier in its epoch — what the dead attempt
/// made visible, which its replay would double-count or lose.
fn unclean_aborts(
    contract: &KernelContract,
    aborts: &[(AccessSite, &'static str)],
    dropped: &[(AccessSite, usize)],
    marks: &LineSites,
    reduces: &LineSites,
    out: &mut Vec<Violation>,
) {
    for (abort, reason) in aborts {
        let same_attempt = |s: &AccessSite| {
            (s.lane, s.epoch) == (abort.lane, abort.epoch) && s.index < abort.index
        };
        // What the attempt left behind: stream position, dirty lines
        // (`None` for a mark), and what it was.
        let drops = dropped
            .iter()
            .filter(|(s, _)| same_attempt(s))
            .map(|(s, n)| (s.index, Some(*n), s.what.clone()));
        let unreduced_marks = marks
            .iter()
            .filter(|(key, _)| !reduces.contains_key(key))
            .flat_map(|(&(cache, line), sites)| {
                let sites = sites.iter().filter(|(_, s)| same_attempt(s));
                sites.map(move |(_, s)| {
                    let what = format!("cache #{cache} line {line} marked, never reduced");
                    (s.index, None, what)
                })
            });
        let left: Vec<_> = drops.chain(unreduced_marks).collect();
        let Some((_, _, detail)) = left.iter().min_by_key(|(at, ..)| *at) else {
            continue;
        };
        let dirty: usize = left.iter().filter_map(|(_, n, _)| *n).sum();
        let unreduced = left.iter().filter(|(_, n, _)| n.is_none()).count();
        out.push(Violation::new(
            "SWC105",
            contract.name,
            Severity::Error,
            format!(
                "aborted attempt (reason `{reason}`, epoch {}, {}) left visible \
                 state behind: {dirty} dirty write-cache line(s), {unreduced} \
                 marked-but-unreduced Bit-Map line(s) (first: {detail}); the \
                 replay will double-count or lose those contributions",
                abort.epoch,
                abort.lane_name()
            ),
        ));
    }
}

impl Access {
    fn lane(&self) -> usize {
        self.snap.lane
    }
}

/// Put the two sites of a finding in stream order.
fn ordered_pair(a: AccessSite, b: AccessSite) -> DualAccess {
    if a.index <= b.index {
        DualAccess {
            first: a,
            second: b,
        }
    } else {
        DualAccess {
            first: b,
            second: a,
        }
    }
}

fn join(vcs: &mut [Vec<u32>], lane: usize, from: &[u32]) {
    for (mine, theirs) in vcs[lane].iter_mut().zip(from) {
        *mine = (*mine).max(*theirs);
    }
}

/// SWC113 check for one ledger event: flag it when the previous event
/// of the same ledger came from a different lane with no ordering (the
/// acquire join, applied before the step, makes legal handoffs HB).
fn check_ldm_lane(
    findings: &mut Vec<DualAccess>,
    ldm_last: &mut BTreeMap<u64, (Snap, AccessSite)>,
    ldm: u64,
    snap: &Snap,
    site: AccessSite,
) {
    if let Some((prev_snap, prev_site)) = ldm_last.get(&ldm) {
        if prev_snap.lane != snap.lane && !hb(prev_snap, snap) {
            findings.push(ordered_pair(prev_site.clone(), site.clone()));
        }
    }
    ldm_last.insert(ldm, (snap.clone(), site));
}

/// All unordered conflicting overlapping pairs among `writes` (against
/// each other) and `writes × reads`. Read/read pairs never conflict and
/// are never enumerated, which keeps the sweep linear on read-heavy
/// regions (every CPE re-reading the same position packages).
fn race_pairs(writes: &[Access], reads: &[Access]) -> Vec<DualAccess> {
    let mut out = Vec::new();
    // Write-write: interval sweep over writes sorted by start word.
    let mut ws: Vec<&Access> = writes.iter().collect();
    ws.sort_by_key(|a| (a.lo, a.site.index));
    let mut active: Vec<&Access> = Vec::new();
    for a in &ws {
        active.retain(|b| b.hi > a.lo);
        for b in &active {
            racy(&mut out, a, b);
        }
        active.push(a);
    }
    // Write-read: merged sweep, comparing only across kinds.
    let mut all: Vec<&Access> = writes.iter().chain(reads.iter()).collect();
    all.sort_by_key(|a| (a.lo, a.site.index));
    let mut active_w: Vec<&Access> = Vec::new();
    let mut active_r: Vec<&Access> = Vec::new();
    for a in &all {
        active_w.retain(|b| b.hi > a.lo);
        active_r.retain(|b| b.hi > a.lo);
        for b in if a.write { &active_r } else { &active_w } {
            racy(&mut out, a, b);
        }
        if a.write {
            active_w.push(a);
        } else {
            active_r.push(a);
        }
    }
    out.sort_by_key(|d| (d.second.index, d.first.index));
    out
}

fn racy(out: &mut Vec<DualAccess>, a: &Access, b: &Access) {
    if a.lane() != b.lane() && unordered(&a.snap, &b.snap) {
        out.push(ordered_pair(a.site.clone(), b.site.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::pool::LanePool;
    use sw26010::trace;

    fn on_lane(lane: Option<usize>, f: impl FnOnce()) {
        let _lane = swprof::scope::Who::enter_lane(lane);
        f()
    }

    fn strict() -> KernelContract {
        KernelContract::strict("hbtest")
    }

    fn ids(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.id).collect()
    }

    fn w(cpe: usize, epoch: u64, region: u32, lo: usize, hi: usize) -> Event {
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

    fn begin(epoch: u64) -> Event {
        Event {
            cpe: None,
            epoch,
            kind: EventKind::SpawnBegin { n_cpes: 64 },
        }
    }

    fn end(epoch: u64) -> Event {
        Event {
            cpe: None,
            epoch,
            kind: EventKind::SpawnEnd,
        }
    }

    #[test]
    fn overlapping_unordered_writes_race() {
        let ev = [begin(1), w(0, 1, 5, 0, 16), w(1, 1, 5, 8, 24), end(1)];
        let v = detect(&strict(), &ev);
        assert_eq!(ids(&v), ["SWC110"]);
        let d = v[0].evidence.as_ref().expect("dual evidence");
        assert_eq!(d.first.lane, 1); // CPE 0
        assert_eq!(d.second.lane, 2); // CPE 1
        assert!(v[0].message.contains("region 5"));
    }

    #[test]
    fn disjoint_or_sequenced_writes_do_not_race() {
        // Disjoint words, same epoch.
        let ev = [begin(1), w(0, 1, 5, 0, 16), w(1, 1, 5, 16, 32), end(1)];
        assert!(detect(&strict(), &ev).is_empty());
        // Overlapping words, but in different epochs: the join+fork
        // through the MPE orders them.
        let ev = [
            begin(1),
            w(0, 1, 5, 0, 16),
            end(1),
            begin(2),
            w(1, 2, 5, 8, 24),
            end(2),
        ];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn read_racing_a_write_is_caught_but_reads_never_conflict() {
        let r = |cpe: usize, lo: usize, hi: usize| Event {
            cpe: Some(cpe),
            epoch: 1,
            kind: EventKind::SharedRead {
                region: 5,
                word_lo: lo,
                word_hi: hi,
            },
        };
        let ev = [begin(1), w(0, 1, 5, 0, 16), r(1, 8, 24), end(1)];
        assert_eq!(ids(&detect(&strict(), &ev)), ["SWC110"]);
        let ev = [begin(1), r(0, 0, 16), r(1, 8, 24), end(1)];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn channel_edge_orders_across_lanes() {
        let ev = [
            begin(1),
            w(0, 1, 5, 0, 16),
            Event {
                cpe: Some(0),
                epoch: 1,
                kind: EventKind::ChanSend { chan: 9, seq: 0 },
            },
            Event {
                cpe: Some(1),
                epoch: 1,
                kind: EventKind::ChanRecv { chan: 9, seq: 0 },
            },
            w(1, 1, 5, 8, 24),
            end(1),
        ];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn barrier_arrivals_chain_join() {
        let b = |cpe: usize| Event {
            cpe: Some(cpe),
            epoch: 1,
            kind: EventKind::Barrier { id: 3 },
        };
        let ev = [
            begin(1),
            w(0, 1, 5, 0, 16),
            b(0),
            b(1),
            w(1, 1, 5, 8, 24),
            end(1),
        ];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn cross_lane_reduce_without_order_is_swc111() {
        let ev = [
            begin(1),
            Event {
                cpe: Some(0),
                epoch: 1,
                kind: EventKind::MarkSet { cache: 7, line: 4 },
            },
            Event {
                cpe: Some(1),
                epoch: 1,
                kind: EventKind::ReduceLine { cache: 7, line: 4 },
            },
            end(1),
        ];
        let v = detect(&strict(), &ev);
        assert_eq!(ids(&v), ["SWC111"]);
        // Same pair across an epoch boundary: ordered, clean.
        let ev = [
            begin(1),
            Event {
                cpe: Some(0),
                epoch: 1,
                kind: EventKind::MarkSet { cache: 7, line: 4 },
            },
            end(1),
            begin(2),
            Event {
                cpe: Some(1),
                epoch: 2,
                kind: EventKind::ReduceLine { cache: 7, line: 4 },
            },
            end(2),
        ];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn reduce_join_orders_downstream_accesses() {
        // CPE 1's write after consuming CPE 0's mark is ordered after
        // everything CPE 0 did before the mark — even in one epoch.
        let ev = [
            begin(1),
            w(0, 1, 5, 0, 16),
            Event {
                cpe: Some(0),
                epoch: 1,
                kind: EventKind::MarkSet { cache: 7, line: 4 },
            },
            end(1),
            begin(2),
            Event {
                cpe: Some(1),
                epoch: 2,
                kind: EventKind::ReduceLine { cache: 7, line: 4 },
            },
            w(1, 2, 5, 8, 24),
            end(2),
        ];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn ldm_ledger_on_two_lanes_is_swc113_unless_handed_over() {
        let reserve = |cpe: usize| Event {
            cpe: Some(cpe),
            epoch: 1,
            kind: EventKind::LdmReserve {
                ldm: 11,
                label: "stage",
                bytes: 256,
                in_use_after: 256,
                capacity: 65536,
                ok: true,
            },
        };
        let release = |cpe: usize| Event {
            cpe: Some(cpe),
            epoch: 1,
            kind: EventKind::LdmRelease {
                ldm: 11,
                label: "stage",
                bytes: 256,
            },
        };
        // Aliased: two lanes reserve on one ledger concurrently.
        let ev = [begin(1), reserve(0), reserve(1), end(1)];
        assert_eq!(ids(&detect(&strict(), &ev)), ["SWC113"]);
        // Handed over: release→acquire orders the second lane.
        let ev = [begin(1), reserve(0), release(0), reserve(1), end(1)];
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn real_substrate_capture_round_trips_through_the_engine() {
        // Drive the real primitives into a clean two-epoch mark→reduce
        // and assert the engine accepts the genuine event shapes.
        let session = trace::Session::begin();
        let e1 = trace::begin_region(2);
        on_lane(Some(0), || trace::shared_write(5, 0, 16));
        trace::end_region(e1);
        let e2 = trace::begin_region(2);
        on_lane(Some(1), || trace::shared_read(5, 0, 16));
        trace::end_region(e2);
        let ev = session.finish();
        assert!(detect(&strict(), &ev).is_empty());
    }

    #[test]
    fn a_dma_get_is_a_read_of_its_words() {
        use sw26010::dma::DmaEngine;
        use sw26010::perf::PerfCounters;
        // CPE 0 DMA-gets words [0, 16) of region 5 while CPE 1 writes
        // words [8, 12): a read racing a write in one region.
        let get = || {
            on_lane(Some(0), || {
                DmaEngine::transfer_shared_at(&mut PerfCounters::new(), Dir::Get, 5, 0, 64)
            })
        };
        let write = || on_lane(Some(1), || trace::shared_write(5, 8, 12));
        let session = trace::Session::begin();
        let region = trace::begin_region(2);
        get();
        write();
        trace::end_region(region);
        let v = detect(&strict(), &session.take());
        assert_eq!(ids(&v), ["SWC110"]);
        assert!(v[0].message.contains("DMA Get region 5 words [0,16)"));
        // The same pair split across two regions: the join orders them.
        let region = trace::begin_region(2);
        get();
        trace::end_region(region);
        let region = trace::begin_region(2);
        write();
        trace::end_region(region);
        assert!(detect(&strict(), &session.finish()).is_empty());
    }

    #[test]
    fn lanes_past_the_core_group_are_lanes_too() {
        // A 100-lane region on two threads: both passes and the schedule
        // explorer take it, each lane writing its own words is clean,
        // and lanes 64 and 99 writing one word race.
        let capture = |f: &(dyn Fn(usize) + Sync)| {
            let session = trace::Session::begin();
            LanePool::with_threads(2).run(100, f);
            session.finish()
        };
        let own_words = capture(&|l| trace::shared_write(1, 4 * l, 4 * l + 4));
        assert!(crate::check_events(&strict(), &own_words).is_empty());
        assert!(crate::schedule::explore(&strict(), &own_words, 20, 1).stable());
        let racing = capture(&|l| {
            if l == 64 || l == 99 {
                trace::shared_write(1, 0, 4);
            }
        });
        let v = detect(&strict(), &racing);
        assert_eq!(ids(&v), ["SWC110"]);
        let d = v[0].evidence.as_ref().expect("dual evidence");
        let mut lanes = [d.first.lane_name(), d.second.lane_name()];
        lanes.sort();
        assert_eq!(lanes, ["CPE 64", "CPE 99"]);
        assert!(crate::schedule::explore(&strict(), &racing, 20, 1).stable());
    }

    #[test]
    fn overlapping_writes_an_edge_orders_are_clean_in_one_epoch() {
        // Two CPEs of one epoch write overlapping words of region 5; an
        // edge between the writes orders them, so no schedule can run
        // them at once.
        let chan = |cpe: usize, kind: EventKind| Event {
            cpe: Some(cpe),
            epoch: 1,
            kind,
        };
        let ev = [
            begin(1),
            w(0, 1, 5, 0, 16),
            chan(0, EventKind::ChanSend { chan: 9, seq: 0 }),
            chan(1, EventKind::ChanRecv { chan: 9, seq: 0 }),
            w(1, 1, 5, 8, 24),
            end(1),
        ];
        assert!(crate::check_events(&strict(), &ev).is_empty());
        // The same through the real substrate: an LDM staging buffer
        // released by CPE 0 and acquired by CPE 1 under one label.
        let session = trace::Session::begin();
        let region = trace::begin_region(2);
        let mut ldm = sw26010::ldm::Ldm::new();
        on_lane(Some(0), || {
            ldm.reserve("stage", 256).expect("fits");
            trace::shared_write(5, 0, 16);
            ldm.release("stage");
        });
        on_lane(Some(1), || {
            ldm.reserve("stage", 256).expect("fits");
            trace::shared_write(5, 8, 24);
        });
        trace::end_region(region);
        let ev = session.finish();
        assert!(crate::check_events(&strict(), &ev).is_empty(), "{ev:?}");
        // Without the handoff the same writes race.
        let ev = [begin(1), w(0, 1, 5, 0, 16), w(1, 1, 5, 8, 24), end(1)];
        assert_eq!(ids(&crate::check_events(&strict(), &ev)), ["SWC110"]);
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
        assert_eq!(ids(&v), ["SWC102"]);
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
        assert_eq!(ids(&detect(&strict(), &ev)), ["SWC103"]);
    }

    #[test]
    fn reduced_but_unmarked_is_swc104() {
        let ev = [mark(1, 0), reduce(1, 0), reduce(1, 9)];
        assert_eq!(ids(&detect(&strict(), &ev)), ["SWC104"]);
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
        assert_eq!(ids(&detect(&c, &[reduce(1, 0)])), ["SWC103"]);
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
        assert_eq!(ids(&detect(&strict(), &ev)), ["SWC103"]);
    }

    #[test]
    fn state_created_after_the_abort_is_not_the_aborts_fault() {
        // The respawned attempt marks and reduces after the abort event;
        // only events *earlier* in the stream are audited.
        let ev = [abort(0, 1), mark(1, 0), reduce(1, 0)];
        assert!(detect(&strict(), &ev).is_empty());
    }
}
