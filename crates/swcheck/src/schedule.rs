//! Schedule exploration: replay a trace under many legal interleavings
//! and certify that the verdicts never move (DPOR-lite).
//!
//! The simulator runs CPE lanes sequentially, so a captured stream is
//! *one* linearization of the run's happens-before partial order. A
//! native backend would realize a different one every time. This module
//! closes that gap without native threads: it rebuilds the partial
//! order as a DAG — per-lane program order plus every synchronization
//! edge the [`hb`](crate::hb) engine recognizes — and enumerates seeded
//! random topological orders of it. Each order is a stream some legal
//! execution could have produced; replaying the full checker over each
//! must yield the identical verdict set. Commutable event pairs (no
//! path between them) get permuted, dependent pairs never do — the
//! persistent-set pruning of classic DPOR, approximated by seeded
//! sampling instead of exhaustive search.
//!
//! [`certify`] packages the loop into the gate both backends pass in
//! CI: for every kernel variant × seed, the run is re-executed for
//! bit-equal physics checksums, checked clean, and its trace replayed
//! under [`CertifyOptions::schedules`] interleavings. An all-clean
//! report mints a [`Certificate`]; the `swcheck certify` CLI accepts it
//! only if it covers every variant with at least [`MIN_SCHEDULES`].

use std::collections::BTreeMap;

use sw26010::trace::{Event, EventKind};
use swgmx::backend::{AnyBackend, BackendSel, Certificate, VariantCertificate, MIN_SCHEDULES};
use swgmx::check::{run_traced_with, Variant};

use crate::{check_events, Severity, Violation};

/// A deterministic xorshift64* stream; the workspace bans wall-clock
/// and entropy sources, so exploration is seeded end to end.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded stream (seed 0 is remapped — xorshift has no zero orbit).
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    /// Next value in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) % bound.max(1) as u64) as usize
    }
}

/// The happens-before DAG of one stream: `succs[i]` lists events that
/// must come after event `i`. Every edge points forward in the original
/// stream, so the graph is acyclic by construction.
#[derive(Debug)]
pub struct HbDag {
    succs: Vec<Vec<usize>>,
    n: usize,
}

impl HbDag {
    /// Build the DAG: program order per lane, fork/join epoch brackets,
    /// channel send→recv, barrier arrival chains, LDM release→acquire
    /// handoffs, and mark→reduce pairings.
    pub fn build(events: &[Event]) -> Self {
        let n = events.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut edge = |from: usize, to: usize| {
            if from < to {
                succs[from].push(to);
            }
        };

        // Program order per lane.
        let mut last_on_lane: BTreeMap<usize, usize> = BTreeMap::new();
        // Epoch brackets: SpawnBegin index and per-(epoch, lane) first/last.
        let mut begin_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut lane_span: BTreeMap<(u64, usize), (usize, usize)> = BTreeMap::new();
        // Pairings.
        let mut chan_send: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut barrier_prev: BTreeMap<u64, usize> = BTreeMap::new();
        let mut ldm_release: BTreeMap<(u64, &'static str), usize> = BTreeMap::new();
        let mut marks: BTreeMap<(u64, usize), Vec<usize>> = BTreeMap::new();
        let mut n_reduces: BTreeMap<(u64, usize), usize> = BTreeMap::new();

        for (i, ev) in events.iter().enumerate() {
            let lane = crate::hb::lane_index(ev.cpe);
            if let Some(&prev) = last_on_lane.get(&lane) {
                edge(prev, i);
            }
            last_on_lane.insert(lane, i);
            match &ev.kind {
                EventKind::SpawnBegin { .. } => {
                    begin_of.insert(ev.epoch, i);
                }
                EventKind::SpawnEnd => {
                    for (&(e, _), &(_, last)) in lane_span.iter() {
                        if e == ev.epoch {
                            edge(last, i);
                        }
                    }
                }
                EventKind::ChanSend { chan, seq, .. } => {
                    chan_send.insert((*chan, *seq), i);
                }
                EventKind::ChanRecv { chan, seq, .. } => {
                    if let Some(&send) = chan_send.get(&(*chan, *seq)) {
                        edge(send, i);
                    }
                }
                EventKind::Barrier { id, .. } => {
                    if let Some(&prev) = barrier_prev.get(id) {
                        edge(prev, i);
                    }
                    barrier_prev.insert(*id, i);
                }
                EventKind::LdmReserve { ldm, label, .. } => {
                    if let Some(&rel) = ldm_release.get(&(*ldm, label)) {
                        edge(rel, i);
                    }
                }
                EventKind::LdmRelease { ldm, label, .. } => {
                    ldm_release.insert((*ldm, label), i);
                }
                EventKind::MarkSet { cache, line, .. } => {
                    marks.entry((*cache, *line)).or_default().push(i);
                }
                EventKind::ReduceLine { cache, line, .. } => {
                    let k = n_reduces.entry((*cache, *line)).or_insert(0);
                    if let Some(&m) = marks.get(&(*cache, *line)).and_then(|v| v.get(*k)) {
                        edge(m, i);
                    }
                    *k += 1;
                }
                _ => {}
            }
            // Epoch bracketing for CPE lanes: begin → first, last → end.
            if lane != 0 {
                let span = lane_span.entry((ev.epoch, lane)).or_insert((i, i));
                if span.0 == i {
                    if let Some(&b) = begin_of.get(&ev.epoch) {
                        edge(b, i);
                    }
                }
                span.1 = i;
            }
        }
        Self { succs, n }
    }

    /// One seeded random topological order (Kahn's algorithm, uniform
    /// choice among the ready set). Returns stream positions.
    pub fn linearize(&self, seed: u64) -> Vec<usize> {
        let mut indegree = vec![0usize; self.n];
        for ss in &self.succs {
            for &s in ss {
                indegree[s] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indegree[i] == 0).collect();
        let mut rng = Rng::new(seed);
        let mut order = Vec::with_capacity(self.n);
        while !ready.is_empty() {
            let pick = rng.below(ready.len());
            let i = ready.swap_remove(pick);
            order.push(i);
            for &s in &self.succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.n, "DAG must be acyclic");
        order
    }
}

/// Verdict signature of one stream: the sorted (id, severity) list.
/// Counts and evidence sites legitimately move across interleavings
/// (the *first* witness of a race depends on the order); the rules that
/// fire must not.
pub fn verdict_signature(v: &[Violation]) -> Vec<(&'static str, Severity)> {
    let mut sig: Vec<_> = v.iter().map(|v| (v.id, v.severity)).collect();
    sig.sort();
    sig
}

/// Outcome of exploring one trace.
#[derive(Debug)]
pub struct ExploreReport {
    /// Interleavings replayed (including repeats of the same order when
    /// the partial order admits fewer than asked for).
    pub replayed: usize,
    /// Distinct event orders among them.
    pub unique_orders: usize,
    /// Baseline verdict signature (the captured stream's own order).
    pub baseline: Vec<(&'static str, Severity)>,
    /// Human-readable description of every divergence found (empty on a
    /// stable trace).
    pub divergences: Vec<String>,
}

impl ExploreReport {
    /// Whether every replay agreed with the baseline.
    pub fn stable(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Replay `events` under `n` seeded linearizations of its HB DAG and
/// compare every verdict signature against the captured order's.
pub fn explore(
    contract: &swgmx::check::KernelContract,
    events: &[Event],
    n: usize,
    base_seed: u64,
) -> ExploreReport {
    let baseline = verdict_signature(&check_events(contract, events));
    let dag = HbDag::build(events);
    let mut seen: Vec<u64> = Vec::new();
    let mut divergences = Vec::new();
    for k in 0..n {
        let order = dag.linearize(
            base_seed
                .wrapping_add(k as u64)
                .wrapping_mul(0x9E3779B97F4A7C15),
        );
        let sig_hash = order_hash(&order);
        if !seen.contains(&sig_hash) {
            seen.push(sig_hash);
        }
        let permuted: Vec<Event> = order.iter().map(|&i| events[i].clone()).collect();
        let verdict = verdict_signature(&check_events(contract, &permuted));
        if verdict != baseline {
            divergences.push(format!(
                "schedule {k}: verdicts {verdict:?} != baseline {baseline:?}"
            ));
        }
    }
    ExploreReport {
        replayed: n,
        unique_orders: seen.len(),
        baseline,
        divergences,
    }
}

fn order_hash(order: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &i in order {
        h ^= i as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Knobs for [`certify`].
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Water-box size each traced run uses.
    pub n_mol: usize,
    /// Seeds to run per variant (each seeds a distinct system).
    pub seeds: Vec<u64>,
    /// Linearizations to replay per variant (on the first seed's trace).
    pub schedules: usize,
    /// Which backend to certify. For [`BackendSel::Native`] the traces
    /// come from real thread-pool runs, so the double-run checksum check
    /// is a genuine determinism test, not a formality.
    pub backend: BackendSel,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        Self {
            n_mol: 200,
            seeds: vec![1, 2, 3],
            schedules: MIN_SCHEDULES,
            backend: BackendSel::Metered,
        }
    }
}

/// Per-variant certification outcome.
#[derive(Debug)]
pub struct VariantOutcome {
    /// The variant under test.
    pub variant: Variant,
    /// Physics checksum of the first seed's run.
    pub checksum: u64,
    /// Interleavings replayed.
    pub replayed: usize,
    /// Distinct orders among them.
    pub unique_orders: usize,
    /// Events in the explored trace.
    pub trace_len: usize,
    /// Everything that disqualifies the variant (empty = certified).
    pub problems: Vec<String>,
}

/// Full certification report; [`CertifyReport::certificate`] is `Some`
/// only when every variant came back clean.
#[derive(Debug)]
pub struct CertifyReport {
    /// One outcome per kernel variant, ladder order.
    pub outcomes: Vec<VariantOutcome>,
    /// The minted certificate, on success.
    pub certificate: Option<Certificate>,
}

/// Certify the selected backend: every kernel variant × seed runs
/// twice for bit-equal checksums, checks clean under all three passes,
/// and survives schedule exploration with an unmoved verdict set.
pub fn certify(opts: &CertifyOptions) -> CertifyReport {
    // One backend instance for the whole certification: the native pool
    // is spawned once, and reusing it across runs is itself part of
    // what is being certified.
    let backend = AnyBackend::of(opts.backend);
    let mut outcomes = Vec::new();
    for variant in Variant::ALL {
        let mut problems = Vec::new();
        let mut first: Option<(u64, usize, usize, usize)> = None;
        for (si, &seed) in opts.seeds.iter().enumerate() {
            let run = run_traced_with(&backend, variant, opts.n_mol, seed);
            let rerun = run_traced_with(&backend, variant, opts.n_mol, seed);
            if run.checksum != rerun.checksum {
                problems.push(format!(
                    "seed {seed}: physics checksum moved between identical runs \
                     ({:#018x} vs {:#018x})",
                    run.checksum, rerun.checksum
                ));
            }
            let violations = check_events(&run.contract, &run.events);
            for v in violations.iter().filter(|v| v.severity == Severity::Error) {
                problems.push(format!("seed {seed}: {v}"));
            }
            if si == 0 {
                let report = explore(&run.contract, &run.events, opts.schedules, seed);
                for d in &report.divergences {
                    problems.push(format!("seed {seed}: {d}"));
                }
                first = Some((
                    run.checksum,
                    report.replayed,
                    report.unique_orders,
                    run.events.len(),
                ));
            }
        }
        let (checksum, replayed, unique_orders, trace_len) = first.unwrap_or((0, 0, 0, 0));
        outcomes.push(VariantOutcome {
            variant,
            checksum,
            replayed,
            unique_orders,
            trace_len,
            problems,
        });
    }
    let all_clean = outcomes.iter().all(|o| o.problems.is_empty());
    let certificate = all_clean.then(|| Certificate {
        backend: opts.backend.backend_name(),
        variants: outcomes
            .iter()
            .map(|o| VariantCertificate {
                variant: o.variant,
                seeds: opts.seeds.clone(),
                schedules_explored: o.replayed,
                checksum: o.checksum,
            })
            .collect(),
    });
    CertifyReport {
        outcomes,
        certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgmx::check::KernelContract;

    fn strict() -> KernelContract {
        KernelContract::strict("schedtest")
    }

    fn racy_events() -> Vec<Event> {
        vec![
            Event {
                cpe: None,
                epoch: 1,
                kind: EventKind::SpawnBegin { n_cpes: 2 },
            },
            Event {
                cpe: Some(0),
                epoch: 1,
                kind: EventKind::SharedWrite {
                    region: 5,
                    word_lo: 0,
                    word_hi: 16,
                },
            },
            Event {
                cpe: Some(1),
                epoch: 1,
                kind: EventKind::SharedWrite {
                    region: 5,
                    word_lo: 8,
                    word_hi: 24,
                },
            },
            Event {
                cpe: None,
                epoch: 1,
                kind: EventKind::SpawnEnd,
            },
        ]
    }

    #[test]
    fn linearizations_respect_the_dag() {
        let ev = racy_events();
        let dag = HbDag::build(&ev);
        for seed in 0..32 {
            let order = dag.linearize(seed);
            assert_eq!(order.len(), ev.len());
            let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
            // Brackets hold in every order; the two writes commute.
            assert_eq!(pos(0), 0, "SpawnBegin first");
            assert_eq!(pos(3), 3, "SpawnEnd last");
        }
        // Both write orders actually occur across seeds.
        let orders: Vec<Vec<usize>> = (0..32).map(|s| dag.linearize(s)).collect();
        assert!(orders.iter().any(|o| o[1] == 1));
        assert!(orders.iter().any(|o| o[1] == 2));
    }

    #[test]
    fn racy_trace_stays_racy_under_every_schedule() {
        let report = explore(&strict(), &racy_events(), 24, 7);
        assert!(report.unique_orders >= 2, "the race must actually commute");
        assert!(
            report.stable(),
            "SWC110 must fire in every order: {:?}",
            report.divergences
        );
        assert!(report.baseline.iter().any(|(id, _)| *id == "SWC110"));
    }

    #[test]
    fn clean_sequenced_trace_is_stable_and_clean() {
        let ev = vec![
            Event {
                cpe: None,
                epoch: 1,
                kind: EventKind::SpawnBegin { n_cpes: 2 },
            },
            Event {
                cpe: Some(0),
                epoch: 1,
                kind: EventKind::SharedWrite {
                    region: 5,
                    word_lo: 0,
                    word_hi: 16,
                },
            },
            Event {
                cpe: None,
                epoch: 1,
                kind: EventKind::SpawnEnd,
            },
            Event {
                cpe: None,
                epoch: 2,
                kind: EventKind::SpawnBegin { n_cpes: 2 },
            },
            Event {
                cpe: Some(1),
                epoch: 2,
                kind: EventKind::SharedRead {
                    region: 5,
                    word_lo: 0,
                    word_hi: 16,
                },
            },
            Event {
                cpe: None,
                epoch: 2,
                kind: EventKind::SpawnEnd,
            },
        ];
        let report = explore(&strict(), &ev, 16, 3);
        assert!(report.stable());
        assert!(report.baseline.is_empty(), "clean trace, clean verdicts");
    }

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..100 {
            let x = a.below(17);
            assert_eq!(x, b.below(17));
            assert!(x < 17);
        }
    }
}
