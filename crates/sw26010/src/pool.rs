//! The lane executor: the one thing in this workspace that runs the
//! lanes of a kernel region on host threads.
//!
//! The athread model has exactly one way to run a kernel — an instance
//! on each of the 64 CPEs, join, merge — and so does this crate:
//! [`LanePool::run`] invokes a closure once per lane index and returns
//! the per-lane results in lane order. The metered
//! [`CoreGroup::spawn`](crate::cg::CoreGroup::spawn) is this plus a
//! [`CpeCtx`](crate::cg::CpeCtx), the cycle meter and a profile span;
//! the native kernels call it directly.
//!
//! **The submitter is one of the threads.** A pool of `n` host threads
//! is the thread that submits a region plus `n − 1` workers parked on a
//! condvar, and every one of them — submitter included — claims lane
//! indices from one counter until none are left. Parked workers alone
//! would not make a small region cheap: waking a thread through a
//! condvar costs about what starting one does, so a 64-lane region of a
//! 48-particle system spent its time waiting for help it did not need.
//! With the submitter working, such a region is usually over before a
//! worker has woken, and a large one is shared as soon as one has; no
//! size threshold decides between the two. Workers start with the
//! pool's first region and are joined when it drops.
//!
//! Determinism therefore cannot come from the schedule — it comes from
//! the kernels: each lane owns a fixed slice of the work (the same
//! [`block_range`] partition at every thread count), sees only its own
//! state, and all cross-lane merging happens after the join, in
//! lane-index order.
//!
//! **One lane prologue.** Around each lane body the executor makes the
//! calling thread *be* that lane of *that submitter*, with one guard. It
//! enters the submitter's trace, fault, profile and `tel` sessions and
//! its flight ring (`swprof::scope` handles — the only way a session
//! crosses threads; five flag reads when the submitter has none), so a
//! lane records into and is injected by what the thread that submitted
//! its region opened, and a worker is nobody's between lanes. And it makes the thread the
//! lane: the submitter's [`Who`] (its rank, the region's epoch) with the
//! lane's index — the trace's CPE, the profiler's track and the fault
//! lane at once. All of it is put back when the lane ends or unwinds —
//! on the submitter too, which goes on as the MPE. An injected CPE hang
//! walks the bounded respawn loop *before* the body runs, so a hang
//! never perturbs the physics.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use crate::params::{SPAWN_JOIN_CYCLES, STRAGGLER_TIMEOUT_CYCLES};
use crate::trace;
use swprof::scope::{Handle, Who};

/// Number of logical lanes a native kernel region is divided into (one
/// per CPE of a core group), independent of how many OS threads execute
/// them.
pub const N_LANES: usize = 64;

/// The block partition every kernel uses: the items lane `lane` of
/// `n_lanes` owns out of `n_items`, contiguous and in lane order.
pub fn block_range(n_items: usize, n_lanes: usize, lane: usize) -> Range<usize> {
    let per = n_items.div_ceil(n_lanes);
    (lane * per).min(n_items)..((lane + 1) * per).min(n_items)
}

/// Panic message of a region in which a lane body panicked. The serving
/// layer recognises injected lane panics by this text.
const POISONED: &str = "native pool: a kernel lane panicked";

const STATE_LOCK: &str = "no thread panics while holding the pool state";

/// The lane closure of the open region, lifetime-erased (see
/// [`LanePool::execute`] for why no copy outlives the region).
type Job = &'static (dyn Fn(usize) + Sync);

struct State {
    /// `Some` while the open region still has lanes to hand out.
    job: Option<Job>,
    n_lanes: usize,
    /// Lanes of the open region not yet reported complete.
    pending: usize,
    /// Workers currently holding a copy of `job`.
    inside: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Next unclaimed lane of the open region. Publishes nothing: the
    /// closure reaches a worker through `state`, and what a lane wrote
    /// reaches the submitter through its result slot and `state`.
    next_lane: AtomicUsize,
    /// Signaled when a region opens (or on shutdown).
    work: Condvar,
    /// Signaled when the open region has no lane pending and no worker
    /// inside.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(STATE_LOCK)
    }

    /// Claim and run lanes until none are left. Returns how many this
    /// thread ran and whether one of them panicked.
    fn drain(&self, f: &(dyn Fn(usize) + Sync), n_lanes: usize) -> (usize, bool) {
        let mut ran = 0;
        let mut panicked = false;
        loop {
            let lane = self.next_lane.fetch_add(1, Ordering::Relaxed);
            if lane >= n_lanes {
                return (ran, panicked);
            }
            panicked |= std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(lane))).is_err();
            ran += 1;
        }
    }

    /// Book a finished [`Shared::drain`]. Its caller saw the counter run
    /// past the last lane, so the region closes to newcomers here.
    fn report(&self, st: &mut State, ran: usize, panicked: bool) {
        st.job = None;
        st.pending -= ran;
        st.panicked |= panicked;
        if st.pending == 0 && st.inside == 0 {
            self.done.notify_all();
        }
    }
}

/// Persistent host-thread team executing kernel lanes: the submitting
/// thread plus `n_threads − 1` parked workers.
pub struct LanePool {
    shared: Arc<Shared>,
    /// Started by the first region.
    workers: OnceLock<Vec<JoinHandle<()>>>,
    n_threads: usize,
    /// Held by a submitter from opening its region to joining it: one
    /// region at a time.
    submit: Mutex<()>,
    /// Recycled lane buffers, see [`LanePool::take_buffer`].
    buffers: Mutex<Vec<Vec<f32>>>,
}

impl LanePool {
    /// Pool sized to the host (`available_parallelism`) for regions of at
    /// most `n_lanes` lanes — more threads than lanes can never help.
    pub(crate) fn for_lanes(n_lanes: usize) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(host.min(n_lanes))
    }

    /// Pool of exactly `n_threads` host threads (≥ 1), the submitter
    /// counted: `with_threads(1)` has no workers and runs every lane on
    /// the caller. The output of a region is identical at every thread
    /// count; only wall time changes.
    pub fn with_threads(n_threads: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    job: None,
                    n_lanes: 0,
                    pending: 0,
                    inside: 0,
                    panicked: false,
                    shutdown: false,
                }),
                next_lane: AtomicUsize::new(0),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            workers: OnceLock::new(),
            n_threads: n_threads.max(1),
            submit: Mutex::new(()),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Number of OS threads serving lanes, the submitting one included.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Run one region: `f` is invoked once per lane in `0..n_lanes`, on
    /// the calling thread and the pool's workers, and the per-lane
    /// results come back in lane order after every lane has completed.
    /// Panics (after draining the region) if any lane body panicked; the
    /// pool stays usable, and whatever lanes of the poisoned region
    /// wrote must be discarded by the caller (the fault-tolerant runner
    /// restores its checkpoint).
    pub fn run<T: Send>(&self, n_lanes: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        self.region(n_lanes, |lane, _respawn_cycles| {
            // An injected worker-thread panic, decided *before* the lane
            // body runs so a poisoned region leaves no partial physics
            // from this lane. The metered spawn never consults the site.
            if swfault::should(swfault::Site::LanePanic) {
                trace::emit_abort("lane-panic");
                panic!("injected pool worker panic (lane {lane})");
            }
            f(lane)
        })
    }

    /// Run `body` once per block, each call with exclusive access to
    /// its own: as a region with one lane per block when there are at
    /// least two, on the calling thread otherwise — which then opens no
    /// region, wakes nobody and draws no fault. The results come back
    /// in block order either way.
    pub fn run_blocks<B: Send, T: Send>(
        &self,
        blocks: Vec<B>,
        body: impl Fn(usize, &mut B) -> T + Sync,
    ) -> Vec<T> {
        if blocks.len() < 2 {
            let inline = blocks.into_iter().enumerate();
            return inline.map(|(i, mut block)| body(i, &mut block)).collect();
        }
        let blocks: Vec<Mutex<B>> = blocks.into_iter().map(Mutex::new).collect();
        self.run(blocks.len(), |lane| {
            let mut own = blocks[lane].lock().expect("only its lane locks a block");
            body(lane, &mut own)
        })
    }

    /// What [`LanePool::run`] and the metered spawn share: the region's
    /// epoch, the lane prologue and the result slots. `f` also receives
    /// the simulated cycles injected CPE hangs cost its lane — the
    /// metered spawn charges them, a native region has no clock to
    /// charge.
    pub(crate) fn region<T: Send>(
        &self,
        n_lanes: usize,
        f: impl Fn(usize, u64) -> T + Sync,
    ) -> Vec<T> {
        if n_lanes == 0 {
            return Vec::new();
        }
        let region = trace::begin_region(n_lanes);
        let submitter = Submitter {
            trace: trace::handle(),
            faults: swfault::handle(),
            profile: swprof::handle(),
            tel: swprof::tel::handle(),
            flight: swprof::tel::flight::handle(),
            who: Who::current(),
        };
        let slots: Vec<Mutex<Option<T>>> = (0..n_lanes).map(|_| Mutex::new(None)).collect();
        let poisoned = self.execute(n_lanes, &|lane| {
            let _lane = submitter.enter(lane);
            let out = f(lane, respawn_hung_lane());
            *slots[lane].lock().expect("a lane's slot is locked once") = Some(out);
        });
        assert!(!poisoned, "{POISONED}");
        trace::end_region(region);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("a lane's slot is locked once")
                    .expect("every lane stores its output")
            })
            .collect()
    }

    /// Hand `body` to every thread of the pool, run lanes on the calling
    /// thread too, and return once all `n_lanes` have completed: whether
    /// any of them panicked.
    fn execute(&self, n_lanes: usize, body: &(dyn Fn(usize) + Sync)) -> bool {
        // A poisoned `submit` only says a worker could not be started.
        let _one_region = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &*self.shared;
        self.workers.get_or_init(|| {
            (1..self.n_threads)
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    // swrace: allow(SWC011) the lane executor: every lane
                    // of every backend runs on these workers
                    std::thread::Builder::new()
                        .name(format!("cpe-pool-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect()
        });
        // SAFETY: erases the closure's lifetime so that parked workers
        // can be handed it. No copy outlives this call: `State::job` is
        // cleared by the first thread to find the lanes exhausted, a
        // worker that copied it out is counted in `State::inside` until
        // it has let go of the copy, and the loop below does not return
        // before `pending == 0 && inside == 0`. Nothing between here and
        // that loop unwinds: `drain` catches lane panics, and no code
        // that holds the state lock can panic, so `lock` cannot either.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(body) };
        {
            let mut st = shared.lock();
            shared.next_lane.store(0, Ordering::Relaxed);
            st.job = Some(job);
            st.n_lanes = n_lanes;
            st.pending = n_lanes;
        }
        shared.work.notify_all();
        let (ran, panicked) = shared.drain(body, n_lanes);
        let mut st = shared.lock();
        shared.report(&mut st, ran, panicked);
        while st.pending > 0 || st.inside > 0 {
            st = shared.done.wait(st).expect(STATE_LOCK);
        }
        std::mem::take(&mut st.panicked)
    }

    /// A `words`-long buffer for one lane of one region, recycled from
    /// an earlier region when there is one. A fresh `vec![0.0; ..]` per
    /// lane per call hands back brand-new zero pages from the allocator,
    /// so every kernel invocation would re-fault `lanes × words × 4`
    /// bytes (tens of MB on the paper workloads) before doing any work.
    /// A recycled buffer carries **stale data** instead: only for
    /// callers that initialise what they later read.
    pub fn take_buffer(&self, words: usize) -> Vec<f32> {
        let mut buf = self.buffers().pop().unwrap_or_default();
        // Growing appends zeros; shrinking truncates. Existing elements
        // keep their stale values.
        buf.resize(words, 0.0);
        buf
    }

    /// Give buffers back for [`LanePool::take_buffer`] to hand out again.
    pub fn recycle(&self, buffers: impl IntoIterator<Item = Vec<f32>>) {
        let mut kept = self.buffers();
        kept.extend(buffers.into_iter().filter(|b| !b.is_empty()));
        // Bound what is retained across differently-sized workloads.
        kept.truncate(N_LANES);
    }

    fn buffers(&self) -> MutexGuard<'_, Vec<Vec<f32>>> {
        // A panic under this lock is a failed allocation at worst; the
        // list of buffers is valid at every step.
        self.buffers.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for LanePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LanePool")
            .field("n_threads", &self.n_threads)
            .finish_non_exhaustive()
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        let Some(workers) = self.workers.take() else {
            return;
        };
        match self.shared.state.lock() {
            Ok(mut st) => st.shutdown = true,
            Err(poisoned) => poisoned.into_inner().shutdown = true,
        }
        self.shared.work.notify_all();
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return;
        }
        let Some(job) = st.job else {
            st = shared.work.wait(st).expect(STATE_LOCK);
            continue;
        };
        let n_lanes = st.n_lanes;
        st.inside += 1;
        drop(st);
        let (ran, panicked) = shared.drain(job, n_lanes);
        st = shared.lock();
        st.inside -= 1;
        shared.report(&mut st, ran, panicked);
    }
}

/// What the lanes of a region take from the thread that submitted it,
/// once per region: the sessions it works for and who it is, in the
/// region it opened.
struct Submitter {
    trace: Handle<trace::Sink>,
    faults: Handle<swfault::Injector>,
    profile: Handle<swprof::Recording>,
    tel: Handle<swprof::Recording>,
    flight: Handle<swprof::tel::flight::Ring>,
    who: Who,
}

impl Submitter {
    /// Make the calling thread lane `lane` of the region until the one
    /// guard returned drops — also when the lane body unwinds, so a
    /// submitter that catches a poisoned region carries on as the MPE
    /// thread it was.
    fn enter(&self, lane: usize) -> impl Sized {
        (
            self.trace.enter(),
            self.faults.enter(),
            self.profile.enter(),
            self.tel.enter(),
            self.flight.enter(),
            Who {
                lane: Some(lane),
                ..self.who
            }
            .enter(),
        )
    }
}

/// Straggler recovery: a hung instance is decided *before* the lane body
/// runs, so the aborted attempt has zero side effects (SWC105 holds
/// trivially) and the respawned closure replays bit-identically. Returns
/// what the respawns cost in simulated time — the MPE's straggler
/// timeout plus backoff, each time.
fn respawn_hung_lane() -> u64 {
    let mut cycles = 0;
    let mut attempt = 0u32;
    while attempt < 4 {
        let Some(payload) = swfault::decide(swfault::Site::CpeHang) else {
            break;
        };
        cycles += STRAGGLER_TIMEOUT_CYCLES
            + swfault::retry::backoff_cycles(attempt, SPAWN_JOIN_CYCLES, payload);
        trace::emit_abort("cpe-hang");
        swprof::metrics::counter_add("fault.respawns", 1);
        attempt += 1;
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_once() {
        for n in [0, 1, 63, 64, 65, 1000] {
            for n_lanes in [1, 3, 64] {
                let mut next = 0;
                for lane in 0..n_lanes {
                    let r = block_range(n, n_lanes, lane);
                    assert_eq!(r.start, next.min(n), "n {n} lanes {n_lanes} lane {lane}");
                    next = r.end.max(next);
                }
                assert_eq!(next, n, "n {n} lanes {n_lanes}");
            }
        }
    }

    #[test]
    fn pool_runs_every_lane_exactly_once_in_lane_order() {
        let pool = LanePool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..N_LANES).map(|_| AtomicUsize::new(0)).collect();
        let out = pool.run(N_LANES, |lane| {
            hits[lane].fetch_add(1, Ordering::Relaxed);
            lane * 3
        });
        for (lane, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "lane {lane}");
        }
        assert_eq!(out, (0..N_LANES).map(|l| l * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_result_is_deterministic_across_thread_counts() {
        // The contract the kernels rely on: per-lane outputs in lane
        // order give one answer at any width.
        let run = |n_threads: usize| -> Vec<u64> {
            LanePool::with_threads(n_threads).run(N_LANES, |lane| {
                let mut acc = 0u64;
                for i in 0..1000u64 {
                    acc = acc
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i + lane as u64);
                }
                acc
            })
        };
        let one = run(1);
        for n_threads in [2, 4, 64] {
            assert_eq!(run(n_threads), one, "{n_threads} threads");
        }
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = LanePool::with_threads(2);
        let sum = AtomicUsize::new(0);
        for _ in 0..3 {
            pool.run(16, |lane| {
                sum.fetch_add(lane + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 3 * (16 * 17) / 2);
    }

    #[test]
    fn pool_zero_lanes_is_a_noop() {
        let pool = LanePool::with_threads(1);
        assert!(pool.run(0, |_| panic!("must not run")).is_empty());
    }

    #[test]
    fn no_thread_starts_before_the_first_region() {
        let pool = LanePool::with_threads(3);
        assert_eq!(pool.n_threads(), 3);
        assert!(pool.workers.get().is_none());
        pool.run(4, |_| ());
        assert_eq!(pool.workers.get().map(Vec::len), Some(2));
        let solo = LanePool::with_threads(1);
        solo.run(4, |_| ());
        assert_eq!(
            solo.workers.get().map(Vec::len),
            Some(0),
            "the submitter is the team"
        );
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        // A worker holds a clone of the shared state for as long as it
        // lives; after the drop nobody does.
        let pool = LanePool::with_threads(3);
        let shared = Arc::downgrade(&pool.shared);
        pool.run(4, |_| ());
        assert_eq!(shared.strong_count(), 3);
        drop(pool);
        assert_eq!(shared.strong_count(), 0);
    }

    /// What the lane prologue touches.
    fn lane_identity() -> (Who, bool) {
        (Who::current(), trace::enabled())
    }

    #[test]
    fn zero_worker_pool_runs_on_the_caller_and_restores_its_identity() {
        let pool = LanePool::with_threads(1);
        let caller = std::thread::current().id();
        let _ranked = Who {
            rank: Some(4),
            ..Who::current()
        }
        .enter();
        let capture = trace::Session::begin();
        let before = lane_identity();
        let ran_on = pool.run(N_LANES, |lane| {
            let (who, capturing) = lane_identity();
            assert_eq!(
                (who.lane, who.rank, capturing),
                (Some(lane), Some(4), true),
                "a lane is its CPE, of the submitter's rank and session"
            );
            (std::thread::current().id(), who.region)
        });
        assert!(ran_on.iter().all(|&(thread, _)| thread == caller));
        assert_eq!(lane_identity(), before);
        assert!(ran_on.iter().all(|&(_, epoch)| epoch == 1));
        let spawn = capture.finish();
        assert_eq!((spawn[0].cpe, spawn[0].epoch), (None, 1));
    }

    #[test]
    fn every_lane_records_into_the_submitters_tel_session() {
        for n_threads in [1, 2, 4] {
            let pool = LanePool::with_threads(n_threads);
            let session = swprof::tel::Session::begin(7);
            pool.run(N_LANES, |_| {
                let _s = swprof::tel::span_on(0, "lane");
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            let spans = session.finish().spans;
            let begins = spans.iter().filter(|e| e.phase == swprof::Phase::Begin);
            assert_eq!(begins.count(), N_LANES, "{n_threads} threads");
        }
    }

    #[test]
    fn a_lane_keeps_the_profile_and_the_trace_apart() {
        let pool = LanePool::with_threads(2);
        let profile = swprof::Session::begin();
        let session = swprof::tel::Session::begin(9);
        pool.run(8, |lane| {
            let _profiled = swprof::span("profiled");
            let _traced = swprof::tel::span_on(lane, "traced");
            let ctx = swprof::tel::send_from("m", lane, 8).expect("the submitter's trace");
            swprof::tel::deliver(&ctx, 1);
        });
        let tel = session.finish();
        let profile = profile.finish();
        assert!(profile.spans.iter().all(|e| e.label == "profiled"));
        assert_eq!(profile.tracks(), (0..8).map(Some).collect::<Vec<_>>());
        assert!(tel.spans.iter().all(|e| e.label == "traced"));
        assert_eq!((tel.spans.len(), tel.flows.len(), tel.n_ranks), (16, 16, 9));
    }

    #[test]
    fn pool_lane_panic_is_reported_after_drain() {
        // With a worker, and with the submitter alone: a panic in a lane
        // the submitter ran is drained and reported exactly like a
        // worker's, and leaves the submitter the thread it was.
        for n_threads in [2, 1] {
            let pool = LanePool::with_threads(n_threads);
            let done = AtomicUsize::new(0);
            let before = lane_identity();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(8, |lane| {
                    if lane == 3 {
                        panic!("lane 3 exploded");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let msg = r.expect_err("a poisoned region panics on the submitter");
            assert_eq!(
                msg.downcast_ref::<String>().map(String::as_str),
                Some(POISONED)
            );
            assert_eq!(done.load(Ordering::Relaxed), 7, "every other lane ran");
            assert_eq!(lane_identity(), before, "{n_threads} threads");
            // The pool must still be usable after a poisoned region.
            assert_eq!(pool.run(8, |lane| lane), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seeded_lane_panic_fires_before_the_body_and_drains() {
        // A scripted worker panic on lane 5: the panicking lane never
        // runs its body, every other lane completes, and the pool is
        // reusable — the exact contract rollback recovery relies on.
        let plan =
            || swfault::FaultPlan::with_seed(3).one_shot(swfault::Site::LanePanic, Some(5), 0);
        let poisoned = |pool: &LanePool, hits: &[AtomicUsize]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(8, |lane| {
                    hits[lane].fetch_add(1, Ordering::Relaxed);
                })
            }))
            .is_err()
        };
        for n_threads in [2, 1] {
            let pool = LanePool::with_threads(n_threads);
            let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
            let scope = swfault::install(plan());
            assert!(poisoned(&pool, &hits));
            for (lane, h) in hits.iter().enumerate() {
                let expect = if lane == 5 { 0 } else { 1 };
                assert_eq!(h.load(Ordering::Relaxed), expect, "lane {lane}");
            }
            assert_eq!(Who::current(), Who::default());
            let log = scope.finish();
            assert_eq!(log.count(swfault::Site::LanePanic), 1);
            // The one-shot is consumed by its decision index: the
            // replayed region (seq 1 on lane 5) is clean, guaranteeing a
            // rollback that retries the region makes forward progress.
            let scope2 = swfault::install(plan());
            assert!(poisoned(&pool, &hits));
            assert!(!poisoned(&pool, &hits));
            drop(scope2);
        }
        // The metered face of the executor never consults the site.
        let always = swfault::install(swfault::FaultPlan {
            lane_panic: 1.0,
            ..swfault::FaultPlan::with_seed(3)
        });
        let pool = LanePool::with_threads(2);
        assert_eq!(pool.region(8, |lane, _| lane).len(), 8);
        assert_eq!(always.finish().count(swfault::Site::LanePanic), 0);
    }

    #[test]
    fn a_worker_is_nobodys_between_lanes() {
        // Thread A, with every kind of session open, and thread B, with
        // none, submit regions to the same pool in turns. Lanes — on the
        // shared worker as on the submitters — work for their region's
        // submitter only, also right after a lane of A's has panicked.
        let pool = LanePool::with_threads(2);
        let sessions_seen = |pool: &LanePool| {
            pool.run(8, |_| {
                swprof::stage("lane", 1);
                swprof::metrics::counter_add("lanes", 1);
                trace::emit_gld(1);
                swprof::tel::flight::record("stage", "lane", 0, 0);
                (trace::enabled(), swfault::enabled(), swprof::enabled())
            })
        };
        // Turns pass over channels: a side that fails hangs up, which
        // fails the other instead of leaving it waiting.
        let (to_b, from_a) = std::sync::mpsc::channel::<()>();
        let (to_a, from_b) = std::sync::mpsc::channel::<()>();
        let pool = &pool;
        std::thread::scope(|s| {
            s.spawn(move || {
                let capture = trace::Session::begin();
                let profile = swprof::Session::begin();
                let ring = swprof::tel::flight::Ring::new();
                let _armed = ring.enter();
                let faults = swfault::install(swfault::FaultPlan::with_seed(1).one_shot(
                    swfault::Site::LanePanic,
                    Some(2),
                    1,
                ));
                for round in 0..3 {
                    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sessions_seen(pool)
                    }));
                    match ran {
                        Ok(seen) => assert_eq!(seen, [(true, true, true); 8]),
                        Err(_) => assert_eq!(round, 1, "the scripted lane panic"),
                    }
                    to_b.send(()).expect("B is there");
                    from_b.recv().expect("B took its turn");
                }
                assert_eq!(faults.finish().count(swfault::Site::LanePanic), 1);
                // 8 + 7 + 8 lanes of A's regions, not one of B's.
                let metrics = profile.finish().metrics;
                assert_eq!(metrics.get("lanes").map(|m| m.value()), Some(23));
                let glds = capture.finish();
                let glds = glds
                    .iter()
                    .filter(|e| matches!(e.kind, trace::EventKind::Gld { .. }));
                assert_eq!(glds.count(), 23);
                let flown = ring.snapshot();
                assert_eq!(flown.iter().filter(|e| e.label == "lane").count(), 23);
            });
            s.spawn(move || {
                for _ in 0..3 {
                    from_a.recv().expect("A took its turn");
                    assert_eq!(sessions_seen(pool), [(false, false, false); 8]);
                    to_a.send(()).expect("A is there");
                }
            });
        });
    }

    #[test]
    fn a_spawn_names_the_region_spans_of_its_own_session() {
        use crate::cg::CoreGroup;
        let region_spans =
            |profile: swprof::Profile| profile.span_totals().into_keys().collect::<Vec<_>>();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for label in ["a.kernel", "b.kernel"] {
                let start = &start;
                s.spawn(move || {
                    let profile = swprof::Session::begin();
                    start.wait();
                    CoreGroup::with_threads(1).spawn(label, |_| ());
                    assert_eq!(region_spans(profile.finish()), [label]);
                });
            }
        });
    }

    #[test]
    fn recycled_buffers_are_resized_and_bounded() {
        let pool = LanePool::with_threads(1);
        assert_eq!(pool.take_buffer(4), vec![0.0; 4]);
        pool.recycle([vec![1.0; 8], Vec::new()]);
        assert_eq!(pool.take_buffer(2), vec![1.0; 2], "stale, truncated");
        assert_eq!(pool.take_buffer(2), vec![0.0; 2], "empty ones are not kept");
        pool.recycle((0..2 * N_LANES).map(|_| vec![0.0; 1]));
        assert_eq!(pool.buffers().len(), N_LANES);
    }
}
