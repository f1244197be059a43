//! # swfault — deterministic fault injection for the simulated stack
//!
//! Week-long production MD campaigns on 1,024 Sunway nodes see DMA
//! stalls, straggler CPEs, dropped messages, and failed writes as a
//! matter of routine; a reproduction that assumes every transfer,
//! spawn, and send succeeds cannot claim production scale. This crate
//! is the injection plane the recovery machinery is tested against:
//!
//! - A [`FaultPlan`] is the single configuration object: a seed,
//!   per-site probabilities, and scripted one-shot events.
//!   `FaultPlan::default()` is all-off, and every query site guards on
//!   one thread-local read ([`enabled`]) — an uninstrumented run pays
//!   exactly one predictable branch per site and its simulated cycle
//!   accounting is bit-identical to a build without this crate.
//! - An installed plan, its decision counters and its log belong to the
//!   [`FaultScope`] that [`install`] returned, and reach only the
//!   installing thread and the lanes of the regions it runs
//!   (`swprof::scope`): a thread that installed nothing is never
//!   injected into and never uses up another thread's decisions.
//! - Injection decisions are **seed-reproducible and interleaving
//!   independent**: each decision is a pure function of
//!   `(seed, site, lane, seq)` where the *lane* is the simulated core
//!   making the request (the thread's `swprof::scope::Who` lane: MPE or
//!   CPE id, the same the trace and the profiler see) and *seq* is that
//!   `(site, lane)` pair's private decision counter. Work is assigned
//!   to lanes deterministically by the substrate, so the injected-event
//!   log (sorted by lane/site/seq) is identical across runs no matter
//!   how the host schedules the CPE worker threads.
//! - [`retry`] holds the deterministic bounded-backoff helpers the
//!   recovery paths share; jitter derives from the fault payload, never
//!   from wall clocks.
//!
//! Sites are queried with [`decide`] (returns a deterministic payload
//! word on injection) or [`should`]; recovery code feeds outcomes back
//! as `swprof` metrics (`fault.injected.*`, `fault.retries.*`,
//! `fault.rollbacks`, `fault.degradations`).
//!
//! ```
//! use swfault::{FaultPlan, Site};
//!
//! let scope = swfault::install(FaultPlan {
//!     dma_fail: 1.0, // every DMA transfer fails (and is retried)
//!     ..FaultPlan::with_seed(7)
//! });
//! assert!(swfault::should(Site::DmaFail));
//! assert!(!swfault::should(Site::NetDrop));
//! let log = scope.finish();
//! assert_eq!(log.count(Site::DmaFail), 1);
//! ```

pub mod retry;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swprof::scope;

/// An injection site: one class of architectural operation that can be
/// made to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// A DMA transfer fails outright (detected at completion, retried).
    DmaFail,
    /// A DMA transfer moves only part of its bytes before stalling.
    DmaPartial,
    /// A CPE kernel instance hangs / joins late and must be respawned.
    CpeHang,
    /// An LDM reservation transiently fails (allocator contention).
    LdmFail,
    /// A network message is dropped on the wire (timeout + retransmit).
    NetDrop,
    /// A network message is delayed by congestion jitter.
    NetDelay,
    /// A network message arrives corrupted (CRC fail, NACK + resend).
    NetCorrupt,
    /// A checkpoint / trajectory I/O operation errors.
    IoError,
    /// A whole CPE force-kernel region faults (CPE exception).
    KernelFault,
    /// A completed MD step is detected as corrupt and must be rolled
    /// back to the last checkpoint.
    StepAbort,
    /// A durable-store generation write is torn: only a prefix of the
    /// bytes reaches disk before a simulated crash, yet the rename is
    /// observed (power loss between data and metadata ordering).
    StoreTornWrite,
    /// A bit flips in a durable-store generation between write and read
    /// (media corruption, detected by the frame CRC).
    StoreBitFlip,
    /// An fsync on a durable-store file fails; the write cannot be
    /// declared durable and must be retried or abandoned.
    StoreFsyncFail,
    /// A DD rank dies permanently mid-run (node loss). Detected by the
    /// survivors via halo-exchange timeout; triggers elastic shrink.
    RankKill,
    /// A queued scheduler job is silently lost from the run queue
    /// (scheduler memory corruption / dropped enqueue). Detected by the
    /// registry-vs-queue reconciliation sweep, which re-enqueues it.
    SchedJobDrop,
    /// A pool worker thread panics mid-lane (real `panic!`, not a
    /// simulated hang). Surfaced by `LanePool::run` as a poisoned region
    /// and rolled back by the fault-tolerant runner like a step abort.
    LanePanic,
}

/// Number of distinct [`Site`]s.
pub const N_SITES: usize = 16;

impl Site {
    /// Every site, in declaration order.
    pub const ALL: [Site; N_SITES] = [
        Site::DmaFail,
        Site::DmaPartial,
        Site::CpeHang,
        Site::LdmFail,
        Site::NetDrop,
        Site::NetDelay,
        Site::NetCorrupt,
        Site::IoError,
        Site::KernelFault,
        Site::StepAbort,
        Site::StoreTornWrite,
        Site::StoreBitFlip,
        Site::StoreFsyncFail,
        Site::RankKill,
        Site::SchedJobDrop,
        Site::LanePanic,
    ];

    /// Stable diagnostic name.
    pub fn name(&self) -> &'static str {
        match self {
            Site::DmaFail => "dma_fail",
            Site::DmaPartial => "dma_partial",
            Site::CpeHang => "cpe_hang",
            Site::LdmFail => "ldm_fail",
            Site::NetDrop => "net_drop",
            Site::NetDelay => "net_delay",
            Site::NetCorrupt => "net_corrupt",
            Site::IoError => "io_error",
            Site::KernelFault => "kernel_fault",
            Site::StepAbort => "step_abort",
            Site::StoreTornWrite => "store_torn_write",
            Site::StoreBitFlip => "store_bit_flip",
            Site::StoreFsyncFail => "store_fsync_fail",
            Site::RankKill => "rank_kill",
            Site::SchedJobDrop => "sched_job_drop",
            Site::LanePanic => "lane_panic",
        }
    }

    /// `swprof` counter name for injections at this site.
    pub fn metric(&self) -> &'static str {
        match self {
            Site::DmaFail => "fault.injected.dma_fail",
            Site::DmaPartial => "fault.injected.dma_partial",
            Site::CpeHang => "fault.injected.cpe_hang",
            Site::LdmFail => "fault.injected.ldm_fail",
            Site::NetDrop => "fault.injected.net_drop",
            Site::NetDelay => "fault.injected.net_delay",
            Site::NetCorrupt => "fault.injected.net_corrupt",
            Site::IoError => "fault.injected.io_error",
            Site::KernelFault => "fault.injected.kernel_fault",
            Site::StepAbort => "fault.injected.step_abort",
            Site::StoreTornWrite => "fault.injected.store_torn_write",
            Site::StoreBitFlip => "fault.injected.store_bit_flip",
            Site::StoreFsyncFail => "fault.injected.store_fsync_fail",
            Site::RankKill => "fault.injected.rank_kill",
            Site::SchedJobDrop => "fault.injected.sched_job_drop",
            Site::LanePanic => "fault.injected.lane_panic",
        }
    }
}

/// The simulated core asking for a fault decision, the calling thread's
/// `swprof::scope::Who` lane: `None` is the MPE / host, `Some(i)` is CPE
/// `i`, or rank / worker `i` at the durable driver's and the service's
/// sites.
pub type Lane = Option<usize>;

/// Lanes with a fixed counter per site: MPE plus 64 CPEs. Higher lanes
/// count in [`Injector`]'s overflow map.
const N_LANES: usize = 65;

/// A scripted one-shot event: force an injection at exactly the
/// `seq`-th decision of `(site, lane)`, regardless of the site's rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneShot {
    /// Site the event fires at.
    pub site: Site,
    /// Lane the event fires on.
    pub lane: Lane,
    /// Zero-based decision index it fires at.
    pub seq: u64,
}

/// The single fault configuration object: seed, per-site rates, and
/// scripted one-shots. `Default` is all-off.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed every injection decision derives from.
    pub seed: u64,
    /// Probability a DMA transfer fails outright.
    pub dma_fail: f64,
    /// Probability a DMA transfer is partial.
    pub dma_partial: f64,
    /// Probability a CPE kernel instance hangs and is respawned.
    pub cpe_hang: f64,
    /// Probability an LDM reservation transiently fails.
    pub ldm_fail: f64,
    /// Probability a network message is dropped.
    pub net_drop: f64,
    /// Probability a network message is delayed.
    pub net_delay: f64,
    /// Probability a network message is corrupted in flight.
    pub net_corrupt: f64,
    /// Probability a checkpoint / trajectory I/O operation errors.
    pub io_error: f64,
    /// Probability a CPE force-kernel region faults entirely.
    pub kernel_fault: f64,
    /// Probability a completed step is rolled back to the checkpoint.
    pub step_abort: f64,
    /// Probability a durable-store generation write is torn on disk.
    pub store_torn_write: f64,
    /// Probability a durable-store read sees a flipped bit.
    pub store_bit_flip: f64,
    /// Probability a durable-store fsync fails.
    pub store_fsync_fail: f64,
    /// Probability a DD rank dies permanently (queried once per rank
    /// per step, lane = the rank index).
    pub rank_kill: f64,
    /// Probability a queued scheduler job is lost from the run queue
    /// (queried once per enqueue, lane = the scheduler / MPE).
    pub sched_job_drop: f64,
    /// Probability a pool worker thread panics before running its lane
    /// body (queried once per lane per region, lane = the CPE id).
    pub lane_panic: f64,
    /// Scripted one-shot events, checked in addition to the rates.
    pub scripted: Vec<OneShot>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            dma_fail: 0.0,
            dma_partial: 0.0,
            cpe_hang: 0.0,
            ldm_fail: 0.0,
            net_drop: 0.0,
            net_delay: 0.0,
            net_corrupt: 0.0,
            io_error: 0.0,
            kernel_fault: 0.0,
            step_abort: 0.0,
            store_torn_write: 0.0,
            store_bit_flip: 0.0,
            store_fsync_fail: 0.0,
            rank_kill: 0.0,
            sched_job_drop: 0.0,
            lane_panic: 0.0,
            scripted: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// All-off plan with a seed (the base for builder-style literals).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The chaos-soak defaults: every *recoverable* site at a moderate
    /// rate. Kernel faults (which degrade the engine to the `Ori`
    /// kernel) stay off so recovery remains bit-exact, and rank kills
    /// stay off because a shrunken decomposition legitimately changes
    /// FP summation order; enable both explicitly.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            dma_fail: 0.01,
            dma_partial: 0.01,
            cpe_hang: 0.005,
            ldm_fail: 0.01,
            net_drop: 0.05,
            net_delay: 0.10,
            net_corrupt: 0.02,
            io_error: 0.05,
            kernel_fault: 0.0,
            step_abort: 0.03,
            store_torn_write: 0.02,
            store_bit_flip: 0.02,
            store_fsync_fail: 0.05,
            rank_kill: 0.0,
            ..Self::default()
        }
    }

    /// Injection probability of `site`.
    pub fn rate(&self, site: Site) -> f64 {
        match site {
            Site::DmaFail => self.dma_fail,
            Site::DmaPartial => self.dma_partial,
            Site::CpeHang => self.cpe_hang,
            Site::LdmFail => self.ldm_fail,
            Site::NetDrop => self.net_drop,
            Site::NetDelay => self.net_delay,
            Site::NetCorrupt => self.net_corrupt,
            Site::IoError => self.io_error,
            Site::KernelFault => self.kernel_fault,
            Site::StepAbort => self.step_abort,
            Site::StoreTornWrite => self.store_torn_write,
            Site::StoreBitFlip => self.store_bit_flip,
            Site::StoreFsyncFail => self.store_fsync_fail,
            Site::RankKill => self.rank_kill,
            Site::SchedJobDrop => self.sched_job_drop,
            Site::LanePanic => self.lane_panic,
        }
    }

    /// Add a scripted one-shot (builder style).
    pub fn one_shot(mut self, site: Site, lane: Lane, seq: u64) -> Self {
        self.scripted.push(OneShot { site, lane, seq });
        self
    }
}

/// One injected fault, as recorded in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Site that fired.
    pub site: Site,
    /// Lane the decision was made on.
    pub lane: Lane,
    /// The `(site, lane)` decision index that fired.
    pub seq: u64,
    /// Deterministic payload word (drives partial fractions, jitter).
    pub payload: u64,
}

/// The injected-event log of a finished [`FaultScope`], sorted by
/// `(lane, site, seq)` so identical runs compare equal regardless of
/// host thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultLog {
    /// Every injected fault, in canonical order.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Number of injections at `site`.
    pub fn count(&self, site: Site) -> u64 {
        self.events.iter().filter(|e| e.site == site).count() as u64
    }

    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.events.len() as u64
    }
}

/// An installed plan with everything it accumulates. Opaque: owned by
/// its [`FaultScope`], reached by the threads working for it through
/// [`scope`].
pub struct Injector {
    plan: FaultPlan,
    log: Mutex<Vec<FaultEvent>>,
    /// Next decision index of each `(site, lane)` below [`N_LANES`].
    counters: [AtomicU64; N_SITES * N_LANES],
    /// Next decision index of each `(site, lane index)` past them.
    overflow: Mutex<BTreeMap<(Site, usize), u64>>,
}

thread_local! {
    static INJECTOR_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static INJECTOR_SLOT: scope::Slot<Injector> = const { RefCell::new(None) };
}
const INJECTOR: scope::Plane<Injector> = scope::Plane::new(&INJECTOR_ACTIVE, &INJECTOR_SLOT);

/// The calling thread's handle on the plan it runs under: what a thread
/// started by hand enters ([`scope::Handle::enter`]) to run under it
/// too, as the lane executor's lanes do.
pub fn handle() -> scope::Handle<Injector> {
    INJECTOR.handle()
}

/// Whether the calling thread runs under a fault plan. One thread-local
/// read — the whole disabled-path cost of every injection site.
#[inline]
pub fn enabled() -> bool {
    INJECTOR.active()
}

fn lane_index(lane: Lane) -> usize {
    match lane {
        None => 0,
        Some(cpe) => 1 + cpe,
    }
}

/// splitmix64 finalizer: the deterministic hash every decision uses.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a payload word onto `[0, 1)`.
pub fn unit(payload: u64) -> f64 {
    (payload >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ask whether a fault fires at `site` for the calling lane's next
/// decision index. Returns the deterministic payload word on injection.
///
/// Every call consumes one decision index of `(site, lane)` whether or
/// not it fires, which is what makes schedules reproducible: the n-th
/// DMA issued by CPE 12 sees the same verdict in every run.
#[inline]
pub fn decide(site: Site) -> Option<u64> {
    INJECTOR.with(|injector| decide_slow(injector, site))?
}

#[cold]
fn decide_slow(injector: &Injector, site: Site) -> Option<u64> {
    let lane = scope::Who::current().lane;
    let li = lane_index(lane);
    let seq = if li < N_LANES {
        injector.counters[site as usize * N_LANES + li].fetch_add(1, Ordering::Relaxed)
    } else {
        let mut overflow = scope::lock(&injector.overflow);
        let next = overflow.entry((site, li)).or_insert(0);
        *next += 1;
        *next - 1
    };
    let plan = &injector.plan;
    let h = mix(plan
        .seed
        .wrapping_add(mix((site as u64 + 1) << 32 | (li as u64 + 1)))
        .wrapping_add(mix(seq.wrapping_mul(0x2545F4914F6CDD1D))));
    let scripted = plan
        .scripted
        .iter()
        .any(|o| o.site == site && o.lane == lane && o.seq == seq);
    let rate = plan.rate(site);
    if !(scripted || (rate > 0.0 && unit(h) < rate)) {
        return None;
    }
    let payload = mix(h ^ 0xD6E8FEB86659FD93);
    scope::lock(&injector.log).push(FaultEvent {
        site,
        lane,
        seq,
        payload,
    });
    swprof::metrics::counter_add("fault.injected", 1);
    swprof::metrics::counter_add(site.metric(), 1);
    // Black box: every fired decision lands in the calling thread's
    // flight ring (a lane's is its submitter's), so a post-mortem sees
    // the faults leading up to an abort. Lane is offset by one: 0 =
    // MPE/none, n = CPE n-1.
    swprof::tel::flight::record(
        "fault",
        site.name(),
        lane.map(|l| l as u64 + 1).unwrap_or(0),
        seq,
    );
    Some(payload)
}

/// [`decide`] collapsed to a boolean (payload discarded).
#[inline]
pub fn should(site: Site) -> bool {
    decide(site).is_some()
}

/// An installed fault plan, owning its [`Injector`]. It reaches the
/// thread that installed it and the lanes of the regions that thread
/// runs; plans installed on other threads are independent. Dropping it
/// uninstalls the plan.
pub struct FaultScope {
    scope: scope::Scope<Injector>,
}

/// Install `plan` on the calling thread — fresh decision counters, an
/// empty injected-event log — until the returned scope is dropped or
/// [`FaultScope::finish`]ed. Never blocks.
pub fn install(plan: FaultPlan) -> FaultScope {
    FaultScope {
        scope: INJECTOR.open(Injector {
            plan,
            log: Mutex::default(),
            counters: [const { AtomicU64::new(0) }; N_SITES * N_LANES],
            overflow: Mutex::default(),
        }),
    }
}

impl FaultScope {
    /// Uninstall the plan and return the canonical injected-event log.
    pub fn finish(self) -> FaultLog {
        let mut events = std::mem::take(&mut *scope::lock(&self.scope.state().log));
        events.sort_by_key(|e| (lane_index(e.lane), e.site, e.seq));
        FaultLog { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swprof::scope::Who;

    #[test]
    fn disabled_never_fires_and_costs_one_branch() {
        assert!(!enabled(), "no scope is installed on this thread");
        let plan = FaultPlan::default();
        let scope = install(plan);
        for site in Site::ALL {
            assert_eq!(decide(site), None);
        }
        assert_eq!(scope.finish().total(), 0);
        assert!(!enabled());
        assert_eq!(decide(Site::DmaFail), None);
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let scope = install(FaultPlan {
            dma_fail: 1.0,
            ..FaultPlan::with_seed(3)
        });
        for _ in 0..10 {
            assert!(should(Site::DmaFail));
            assert!(!should(Site::NetDrop));
        }
        let log = scope.finish();
        assert_eq!(log.count(Site::DmaFail), 10);
        assert_eq!(log.count(Site::NetDrop), 0);
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different() {
        let run = |seed: u64| {
            let scope = install(FaultPlan {
                net_drop: 0.3,
                ..FaultPlan::with_seed(seed)
            });
            let verdicts: Vec<Option<u64>> = (0..256).map(|_| decide(Site::NetDrop)).collect();
            (verdicts, scope.finish())
        };
        let (v1, l1) = run(42);
        let (v2, l2) = run(42);
        let (v3, l3) = run(43);
        assert_eq!(v1, v2);
        assert_eq!(l1, l2);
        assert!(l1.total() > 10, "0.3 rate over 256 draws: {}", l1.total());
        assert_ne!(v1, v3);
        assert_ne!(l1, l3);
    }

    #[test]
    fn lanes_have_independent_deterministic_streams() {
        let draws_on = |lane: Lane| {
            let _lane = Who::enter_lane(lane);
            (0..64)
                .map(|_| should(Site::CpeHang))
                .collect::<Vec<bool>>()
        };
        let scope = install(FaultPlan {
            cpe_hang: 0.5,
            ..FaultPlan::with_seed(9)
        });
        let a = draws_on(Some(3));
        let b = draws_on(Some(4));
        drop(scope);
        assert_ne!(a, b, "distinct lanes must see distinct streams");
        // Re-install: each lane replays its exact verdict sequence even
        // though the other lane's draws are interleaved differently.
        let scope = install(FaultPlan {
            cpe_hang: 0.5,
            ..FaultPlan::with_seed(9)
        });
        let b2 = draws_on(Some(4));
        let a2 = draws_on(Some(3));
        drop(scope);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn lanes_past_the_cpes_have_their_own_streams() {
        // Service workers and DD ranks are lanes too, and nothing caps
        // their count at the 64 CPEs.
        let plan = || FaultPlan {
            rank_kill: 0.5,
            ..FaultPlan::with_seed(11)
        };
        let draws_on = |lane: usize| {
            let _lane = Who::enter_lane(Some(lane));
            (0..64)
                .map(|_| should(Site::RankKill))
                .collect::<Vec<bool>>()
        };
        let scope = install(plan());
        let lane64 = draws_on(64);
        drop(scope);
        let scope = install(plan());
        let lane100 = draws_on(100);
        drop(scope);
        assert_ne!(lane64, lane100, "lanes 64 and 100 share a stream");
        let scope = install(plan());
        draws_on(63);
        let after63 = draws_on(64);
        drop(scope);
        assert_eq!(lane64, after63, "lane 63's draws moved lane 64's");

        let scope = install(FaultPlan::with_seed(11).one_shot(Site::RankKill, Some(70), 3));
        let on64 = draws_on(64)[..5].to_vec();
        let on70 = draws_on(70)[..5].to_vec();
        let log = scope.finish();
        assert_eq!(on64, [false; 5]);
        assert_eq!(on70, [false, false, false, true, false]);
        assert_eq!((log.events[0].lane, log.events[0].seq), (Some(70), 3));
    }

    #[test]
    fn scripted_one_shot_fires_exactly_once_at_its_seq() {
        let scope = install(FaultPlan::with_seed(1).one_shot(Site::StepAbort, None, 5));
        let verdicts: Vec<bool> = (0..10).map(|_| should(Site::StepAbort)).collect();
        let log = scope.finish();
        let expect: Vec<bool> = (0..10).map(|i| i == 5).collect();
        assert_eq!(verdicts, expect);
        assert_eq!(log.count(Site::StepAbort), 1);
        assert_eq!(log.events[0].seq, 5);
    }

    #[test]
    fn payload_unit_is_in_range_and_deterministic() {
        let scope = install(FaultPlan {
            dma_partial: 1.0,
            ..FaultPlan::with_seed(11)
        });
        let p1 = decide(Site::DmaPartial).unwrap();
        drop(scope);
        let scope = install(FaultPlan {
            dma_partial: 1.0,
            ..FaultPlan::with_seed(11)
        });
        let p2 = decide(Site::DmaPartial).unwrap();
        drop(scope);
        assert_eq!(p1, p2);
        let u = unit(p1);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn sched_job_drop_is_a_pure_function_of_seed_site_lane_seq() {
        // The scheduler-level site must replay exactly like the
        // substrate sites: same seed, same verdict stream.
        let run = |seed: u64| {
            let scope = install(FaultPlan {
                sched_job_drop: 0.25,
                ..FaultPlan::with_seed(seed)
            });
            let v: Vec<bool> = (0..128).map(|_| should(Site::SchedJobDrop)).collect();
            drop(scope);
            v
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn log_is_sorted_canonically() {
        let scope = install(FaultPlan {
            ldm_fail: 1.0,
            dma_fail: 1.0,
            ..FaultPlan::with_seed(2)
        });
        let on = |lane: Lane, site| {
            let _lane = Who::enter_lane(lane);
            should(site)
        };
        on(Some(7), Site::LdmFail);
        on(None, Site::DmaFail);
        on(Some(2), Site::DmaFail);
        let log = scope.finish();
        let keys: Vec<(usize, Site, u64)> = log
            .events
            .iter()
            .map(|e| (super::lane_index(e.lane), e.site, e.seq))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(log.total(), 3);
    }
}
