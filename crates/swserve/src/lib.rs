//! swserve — fault-tolerant multi-tenant MD-as-a-service.
//!
//! A production Sunway installation does not run one simulation at a
//! time: a queue front-end admits campaigns from many groups, shards
//! them across core-group partitions, and must keep every admitted job
//! alive through node deaths, filesystem hiccups, and operator chaos.
//! This crate reproduces that serving plane over the simulated
//! substrate:
//!
//! - **Admission** ([`admission`]): per-tenant in-flight quotas plus a
//!   priority model. A full queue sheds the lowest-priority queued job
//!   to make room for a higher-priority submission; an over-quota or
//!   un-sheddable submission gets backpressure — the client retries
//!   with the shared `swfault::retry` exponential-backoff-plus-jitter
//!   schedule and is rejected only after `MAX_ATTEMPTS`.
//! - **Scheduling and execution** ([`service`]): a deterministic
//!   discrete-event simulation on a virtual-nanosecond clock. Workers
//!   run *real physics* — each dispatch wraps an
//!   [`Engine`](swgmx::engine::Engine) in
//!   [`FaultTolerantRunner::new_durable`](swgmx::recovery::FaultTolerantRunner::new_durable)
//!   over a per-job `swstore` directory, so every job is resumable
//!   from its newest committed generation.
//! - **Chaos-proofness**: worker kills ([`Site::RankKill`]), queue
//!   losses ([`Site::SchedJobDrop`]), store faults, and kernel-lane
//!   panics are all injected through `swfault`'s deterministic plane.
//!   A killed worker's job is detected by liveness timeout, readmitted,
//!   and resumed **bit-identically** — the chaos acceptance test
//!   compares per-job trajectory checksums against a fault-free
//!   reference run.
//! - **SLO load harness** ([`loadgen`]): a deterministic open-loop
//!   client population driving hundreds of jobs, reporting p50/p99
//!   virtual latency, throughput, and recovery counts as a
//!   `BENCH_swserve.json` sidecar, with the live telemetry plane
//!   (`swprof::slo`) attached for its `BENCH_swscope.json` sidecar and
//!   dashboard; CI checks both committed baselines byte for byte.
//!
//! Because the event loop, the cost model, and every fault decision
//! are pure functions of the plan seed, the whole service — latency
//! percentiles included — replays bit-identically, which is what lets
//! chaos outcomes be *asserted* rather than eyeballed.
//!
//! [`Site::RankKill`]: swfault::Site::RankKill
//! [`Site::SchedJobDrop`]: swfault::Site::SchedJobDrop

use mdsim::math::{fnv1a, FNV1A_OFFSET};
use mdsim::System;
use swgmx::engine::Version;
use swgmx::BackendSel;

pub mod admission;
pub mod loadgen;
pub mod service;

/// Tenant identity: the accounting unit for quotas and shedding.
pub type TenantId = u32;

/// Scheduling priority. Higher priorities dispatch first and can shed
/// queued lower-priority jobs when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Batch/backfill work: first to be shed.
    Low,
    /// Default service class.
    Normal,
    /// Latency-sensitive work: dispatches ahead of everything else.
    High,
}

impl Priority {
    /// Queue-ordering rank: lower sorts first (dispatches earlier).
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// One simulation request as submitted by a client.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Owning tenant (quota accounting).
    pub tenant: TenantId,
    /// Water-box size in molecules (3 particles each).
    pub n_mol: usize,
    /// Optimization-ladder version to run.
    pub version: Version,
    /// Execution substrate for the force kernels.
    pub backend: BackendSel,
    /// MD steps requested.
    pub steps: u64,
    /// Initial-condition seed; also the job's identity in SLO reports,
    /// so chaos and reference runs can be matched job-for-job even if
    /// admission order differs.
    pub seed: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Completion deadline in virtual ns from submission (None = best
    /// effort). Misses are counted, not enforced — MD campaigns want
    /// their trajectory even when late.
    pub deadline_ns: Option<u64>,
}

impl JobSpec {
    /// Particle count of the requested system.
    pub fn n_particles(&self) -> usize {
        3 * self.n_mol
    }
}

/// splitmix64: the crate's deterministic hash/derivation primitive
/// (per-job seeds, retry jitter payloads). Never a wall clock.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Silence the default panic hook for the lane panics chaos injects:
/// they are expected events the runner recovers from, and their
/// backtraces would swamp the SLO output. Every other panic is
/// forwarded to the hook that was installed before.
pub fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
        if msg.is_some_and(|m| {
            m.contains("injected pool worker panic") || m.contains("kernel lane panicked")
        }) {
            return;
        }
        prev(info);
    }));
}

/// FNV-1a over the bit patterns of every position component: the
/// trajectory fingerprint delivered with a completed job. Two runs
/// agree on this iff they agree on every position bit.
pub fn trajectory_checksum(sys: &System) -> u64 {
    let components = sys.pos.iter().flat_map(|p| [p.x, p.y, p.z]);
    components.fold(FNV1A_OFFSET, |h, c| fnv1a(h, &c.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    #[test]
    fn priority_ranks_order_high_first() {
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
    }

    #[test]
    fn trajectory_checksum_is_bit_sensitive() {
        let a = water_box(8, 300.0, 1);
        let b = water_box(8, 300.0, 1);
        assert_eq!(trajectory_checksum(&a), trajectory_checksum(&b));
        let mut c = water_box(8, 300.0, 1);
        c.pos[0].x = f32::from_bits(c.pos[0].x.to_bits() ^ 1);
        assert_ne!(trajectory_checksum(&a), trajectory_checksum(&c));
        assert_ne!(
            trajectory_checksum(&a),
            trajectory_checksum(&water_box(8, 300.0, 2))
        );
    }

    #[test]
    fn mix64_is_a_bijective_scramble() {
        assert_ne!(mix64(0), mix64(1));
        assert_eq!(mix64(42), mix64(42));
    }
}
