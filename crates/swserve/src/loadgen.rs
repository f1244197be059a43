//! The SLO load harness: a deterministic open-loop client population,
//! an optional chaos plan, and a machine-readable report.
//!
//! Every quantity in the [`SloReport`] — latency percentiles included
//! — is derived from virtual time, so the report is a pure function of
//! `(plan, chaos seed)` and can be committed as a `BENCH_swserve.json`
//! baseline that a regenerated sidecar must equal byte for byte.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use swfault::FaultPlan;
use swgmx::engine::Version;
use swgmx::BackendSel;

use crate::service::{JobPhase, Service, ServiceConfig, ServiceStats};
use crate::{mix64, JobSpec, Priority, TenantId};

/// Distinct tenants submitting.
const N_TENANTS: u64 = 8;

/// Mean virtual gap between submissions (uniform in `[1, 2*mean]`).
const MEAN_INTERARRIVAL_NS: u64 = 40_000;

/// A deterministic client population.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Master seed: arrivals, job mixes, and the chaos plan derive
    /// from it.
    pub seed: u64,
    /// Jobs to submit.
    pub n_jobs: usize,
    /// Worker pool size.
    pub n_workers: usize,
    /// Every k-th job runs on the native thread-pool backend
    /// (0 = never). Kept sparse: native jobs burn host CPU.
    pub native_every: usize,
    /// Fault plan to install for the run (None = fault-free).
    pub chaos: Option<FaultPlan>,
}

impl LoadPlan {
    /// The standard mixed workload used by the CI harness.
    pub fn standard(seed: u64, n_jobs: usize, n_workers: usize) -> Self {
        Self {
            seed,
            n_jobs,
            n_workers,
            native_every: 16,
            chaos: None,
        }
    }

    /// The same plan under the standard chaos mix.
    pub fn with_chaos(mut self) -> Self {
        self.chaos = Some(chaos_plan(self.seed));
        self
    }
}

/// The standard chaos mix: worker kills, queue drops, store faults,
/// checkpoint I/O faults, step aborts, and (rarely) kernel-lane
/// panics. `kernel_fault` stays 0 — degradation to the `Ori` kernel
/// changes FP summation order, which would break the bit-identity
/// acceptance test by design rather than by bug.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        rank_kill: 0.02,
        sched_job_drop: 0.05,
        store_torn_write: 0.02,
        store_fsync_fail: 0.05,
        store_bit_flip: 0.01,
        io_error: 0.02,
        step_abort: 0.01,
        // Each panic replays up to cp_every steps; keep the rate low
        // enough that per-step re-draws cannot cascade.
        lane_panic: 0.0003,
        ..FaultPlan::with_seed(seed)
    }
}

/// The deterministic spec of job `i` under `plan`: a mix of box sizes,
/// step counts, priorities (~10% High / ~60% Normal / ~30% Low), and
/// tenants, with a per-job unique seed that doubles as the job's
/// identity across chaos and reference runs.
pub fn spec_for(plan: &LoadPlan, i: usize) -> JobSpec {
    let h = mix64(plan.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n_mol = [8, 12, 16, 24][(h % 4) as usize];
    let steps = [20, 30, 40][((h >> 8) % 3) as usize];
    let priority = match (h >> 16) % 10 {
        0 => Priority::High,
        1..=3 => Priority::Low,
        _ => Priority::Normal,
    };
    let tenant = ((h >> 24) % N_TENANTS) as TenantId;
    let native = plan.native_every > 0 && i.is_multiple_of(plan.native_every);
    JobSpec {
        tenant,
        n_mol,
        version: Version::Other,
        backend: if native {
            BackendSel::Native
        } else {
            BackendSel::Metered
        },
        steps,
        seed: mix64(h),
        priority,
        deadline_ns: Some(2_000_000_000),
    }
}

/// Per-tenant slice of the SLO report: the fleet-wide percentiles
/// recomputed over one tenant's completed jobs, plus its loss
/// accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSlo {
    /// Tenant id.
    pub tenant: TenantId,
    /// Jobs admitted for this tenant.
    pub admitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs shed under queue pressure.
    pub shed: u64,
    /// Completions past their deadline.
    pub deadline_misses: u64,
    /// Median completed-job latency, virtual ns.
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst completed-job latency.
    pub max_ns: u64,
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Plan shape.
    pub n_jobs: usize,
    /// Worker pool size.
    pub n_workers: usize,
    /// Final service counters.
    pub stats: ServiceStats,
    /// Total injected fault events (all sites).
    pub injected_faults: u64,
    /// Median completed-job latency, virtual ns.
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst completed-job latency.
    pub max_ns: u64,
    /// Virtual time from first submit to last delivery.
    pub makespan_ns: u64,
    /// Completed jobs per virtual second.
    pub jobs_per_vsec: f64,
    /// Per-tenant breakdown, ascending tenant id.
    pub per_tenant: Vec<TenantSlo>,
}

impl SloReport {
    /// Serialize for the CI artifact.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::from("{\n");
        let num = |k: &str, v: f64| format!("  \"{k}\": {},\n", swprof::json::number(v));
        out.push_str(&num("n_jobs", self.n_jobs as f64));
        out.push_str(&num("n_workers", self.n_workers as f64));
        out.push_str(&num("submitted", s.submitted as f64));
        out.push_str(&num("admitted", s.admitted as f64));
        out.push_str(&num("completed", s.completed as f64));
        out.push_str(&num("shed", s.shed as f64));
        out.push_str(&num("rejected", s.rejected as f64));
        out.push_str(&num("deadline_misses", s.deadline_misses as f64));
        out.push_str(&num("worker_kills", s.worker_kills as f64));
        out.push_str(&num("respawns", s.respawns as f64));
        out.push_str(&num("readmissions", s.readmissions as f64));
        out.push_str(&num("requeues", s.requeues as f64));
        out.push_str(&num("resumes", s.resumes as f64));
        out.push_str(&num("job_drops", s.job_drops as f64));
        out.push_str(&num("rollbacks", s.rollbacks as f64));
        out.push_str(&num("lane_panics", s.lane_panics as f64));
        out.push_str(&num("injected_faults", self.injected_faults as f64));
        out.push_str(&num("latency_p50_ns", self.p50_ns as f64));
        out.push_str(&num("latency_p90_ns", self.p90_ns as f64));
        out.push_str(&num("latency_p99_ns", self.p99_ns as f64));
        out.push_str(&num("latency_max_ns", self.max_ns as f64));
        out.push_str(&num("makespan_ns", self.makespan_ns as f64));
        out.push_str("  \"tenants\": [\n");
        for (i, t) in self.per_tenant.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"tenant\": {}, \"admitted\": {}, \"completed\": {}, \"shed\": {}, \"deadline_misses\": {}, \"latency_p50_ns\": {}, \"latency_p90_ns\": {}, \"latency_p99_ns\": {}, \"latency_max_ns\": {}}}{}\n",
                t.tenant,
                t.admitted,
                t.completed,
                t.shed,
                t.deadline_misses,
                t.p50_ns,
                t.p90_ns,
                t.p99_ns,
                t.max_ns,
                if i + 1 < self.per_tenant.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"jobs_per_vsec\": {}\n}}\n",
            swprof::json::number(self.jobs_per_vsec)
        ));
        out
    }

    /// Human-readable SLO table for the CLI, with a per-tenant
    /// breakdown under the fleet-wide block.
    pub fn table(&self) -> String {
        let mut out = self.fleet_table();
        if !self.per_tenant.is_empty() {
            out.push_str(
                "\ntenant      admitted  completed  shed  misses        p50        p90        p99        max\n",
            );
            for t in &self.per_tenant {
                out.push_str(&format!(
                    "  {:<9} {:>8} {:>10} {:>5} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
                    t.tenant,
                    t.admitted,
                    t.completed,
                    t.shed,
                    t.deadline_misses,
                    t.p50_ns,
                    t.p90_ns,
                    t.p99_ns,
                    t.max_ns,
                ));
            }
        }
        out
    }

    fn fleet_table(&self) -> String {
        let s = &self.stats;
        format!(
            "jobs        {:>10} submitted  {:>6} admitted  {:>6} completed\n\
             loss        {:>10} shed       {:>6} rejected  {:>6} deadline misses\n\
             chaos       {:>10} kills      {:>6} drops     {:>6} rollbacks ({} lane panics)\n\
             recovery    {:>10} readmits   {:>6} requeues  {:>6} resumes\n\
             latency p50 {:>10} ns   p90 {:>10} ns   p99 {:>10} ns   max {:>10} ns\n\
             makespan    {:>10} ns   throughput {:.1} jobs/vsec",
            s.submitted,
            s.admitted,
            s.completed,
            s.shed,
            s.rejected,
            s.deadline_misses,
            s.worker_kills,
            s.job_drops,
            s.rollbacks,
            s.lane_panics,
            s.readmissions,
            s.requeues,
            s.resumes,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.max_ns,
            self.makespan_ns,
            self.jobs_per_vsec,
        )
    }

    /// Fill the sidecar: every metric is a pure function of
    /// the plan, so the committed baseline holds exactly.
    pub fn fill_bench(&self, b: &mut bench::BenchJson, chaos: bool) {
        let s = &self.stats;
        b.config_num("jobs", self.n_jobs as f64)
            .config_num("workers", self.n_workers as f64)
            .config_str("chaos", if chaos { "standard" } else { "off" })
            .metric("latency.p50.ns", self.p50_ns as f64)
            .metric("latency.p90.ns", self.p90_ns as f64)
            .metric("latency.p99.ns", self.p99_ns as f64)
            .metric("latency.max.ns", self.max_ns as f64)
            .metric("throughput.jobs_per_vsec", self.jobs_per_vsec)
            .metric("makespan.virtual.ns", self.makespan_ns as f64)
            .metric("jobs.completed", s.completed as f64)
            .metric("jobs.shed", s.shed as f64)
            .metric("jobs.rejected", s.rejected as f64)
            .metric("jobs.deadline_misses", s.deadline_misses as f64)
            .metric("chaos.worker_kills", s.worker_kills as f64)
            .metric("chaos.job_drops", s.job_drops as f64)
            .metric("chaos.rollbacks", s.rollbacks as f64)
            .metric("recovery.readmissions", s.readmissions as f64)
            .metric("recovery.resumes", s.resumes as f64)
            .metric("md.steps", s.md_steps as f64);
    }
}

/// Build the `BENCH_swscope.json` sidecar: alert counts, remaining
/// fleet error budgets, and the sketch-vs-exact percentile deltas
/// that prove the error bound held on this run. Every field is a
/// pure function of the seed; the CLI (`swserve loadgen`) and the
/// acceptance test share this builder so their sidecars agree
/// byte-for-byte.
pub fn scope_bench(scope: &swprof::slo::Scope, slo: &SloReport, chaos: bool) -> bench::BenchJson {
    use swprof::slo::burn::{AlertKind, AlertScope, SliKind};
    let mut b = bench::BenchJson::new("swscope");
    let count = |k: AlertKind| scope.alerts().iter().filter(|a| a.kind == k).count() as f64;
    let budget = |sli| {
        scope
            .budget(AlertScope::Fleet, sli)
            .map_or(1.0, |bu| (bu.remaining * 1e6).round() / 1e6)
    };
    // Fleet latency percentiles out of the merged per-window sketches,
    // against the exact sorted-order percentiles the SLO report holds.
    let mut merged = swprof::slo::sketch::QSketch::new();
    for w in scope.fleet().closed() {
        merged.merge(&w.sketch);
    }
    b.config_num("jobs", slo.n_jobs as f64)
        .config_num("workers", slo.n_workers as f64)
        .config_str("chaos", if chaos { "standard" } else { "off" })
        .config_num("window_ns", swprof::slo::WINDOW_NS as f64)
        .metric("alerts.fast_burn", count(AlertKind::FastBurn))
        .metric("alerts.slow_burn", count(AlertKind::SlowBurn))
        .metric("alerts.anomaly", count(AlertKind::Anomaly))
        .metric("alerts.clear", count(AlertKind::Clear))
        .metric("alerts.total", scope.alerts().len() as f64)
        .metric(
            "budget.availability.remaining",
            budget(SliKind::Availability),
        )
        .metric("budget.latency.remaining", budget(SliKind::Latency))
        .metric("windows.closed", scope.fleet().closed().count() as f64)
        .metric("sketch.samples", merged.count() as f64)
        .metric("sketch.p50.ns", merged.quantile_pct(50) as f64)
        .metric("sketch.p99.ns", merged.quantile_pct(99) as f64)
        .metric(
            "sketch.p50.delta_ns",
            merged.quantile_pct(50).abs_diff(slo.p50_ns) as f64,
        )
        .metric(
            "sketch.p99.delta_ns",
            merged.quantile_pct(99).abs_diff(slo.p99_ns) as f64,
        );
    b
}

/// One finished load run: the report plus per-job trajectory
/// checksums, keyed by the job's spec seed so chaos and reference runs
/// match job-for-job even if admission order differs.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The SLO report.
    pub slo: SloReport,
    /// `spec.seed -> trajectory checksum` for every completed job.
    pub checksums: BTreeMap<u64, u64>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * q / 100) as usize]
}

/// Drive `plan` against a fresh service rooted at `store_root`,
/// installing the plan's chaos (or a no-op fault scope for
/// reference runs) on the calling thread.
pub fn run(plan: &LoadPlan, store_root: &Path) -> io::Result<RunResult> {
    run_with_scope(plan, store_root, None).map(|(r, _)| r)
}

/// Like [`run`], but with a live [`swprof::slo`] telemetry plane
/// attached for the whole run. The returned scope is sealed: its
/// windows, alerts, and exemplars cover first submit through last
/// delivery. The plane only watches: the report and the checksums equal
/// [`run`]'s. This is what `swserve loadgen` runs.
pub fn run_scoped(
    plan: &LoadPlan,
    store_root: &Path,
) -> io::Result<(RunResult, swprof::slo::Scope)> {
    let (result, scope) = run_with_scope(plan, store_root, Some(swprof::slo::Scope::new()))?;
    Ok((result, scope.expect("scope attached for the whole run")))
}

fn run_with_scope(
    plan: &LoadPlan,
    store_root: &Path,
    tel_scope: Option<swprof::slo::Scope>,
) -> io::Result<(RunResult, Option<swprof::slo::Scope>)> {
    let fault_plan = plan
        .chaos
        .clone()
        .unwrap_or_else(|| FaultPlan::with_seed(plan.seed));
    let scope = swfault::install(fault_plan);
    let result = run_inner(plan, store_root, tel_scope);
    let log = scope.finish();
    let (mut result, tel_scope) = result?;
    result.slo.injected_faults = log.total();
    Ok((result, tel_scope))
}

/// Per-tenant breakdown off the registry: loss accounting plus
/// nearest-rank percentiles over each tenant's completed latencies.
fn tenant_breakdown(svc: &Service) -> Vec<TenantSlo> {
    let mut acc: BTreeMap<TenantId, (TenantSlo, Vec<u64>)> = BTreeMap::new();
    for job in svc.jobs().values() {
        let e = acc.entry(job.spec.tenant).or_insert_with(|| {
            (
                TenantSlo {
                    tenant: job.spec.tenant,
                    ..TenantSlo::default()
                },
                Vec::new(),
            )
        });
        e.0.admitted += 1;
        match job.phase {
            JobPhase::Done(o) => {
                e.0.completed += 1;
                if o.deadline_missed {
                    e.0.deadline_misses += 1;
                }
                e.1.push(o.latency_ns);
            }
            JobPhase::Shed => e.0.shed += 1,
            _ => {}
        }
    }
    acc.into_values()
        .map(|(mut t, mut lats)| {
            lats.sort_unstable();
            t.p50_ns = percentile(&lats, 50);
            t.p90_ns = percentile(&lats, 90);
            t.p99_ns = percentile(&lats, 99);
            t.max_ns = lats.last().copied().unwrap_or(0);
            t
        })
        .collect()
}

fn run_inner(
    plan: &LoadPlan,
    store_root: &Path,
    tel_scope: Option<swprof::slo::Scope>,
) -> io::Result<(RunResult, Option<swprof::slo::Scope>)> {
    let mut cfg = ServiceConfig::new(plan.n_workers, store_root);
    // The harness measures chaos-proofness, not queue-tuning: generous
    // quotas/capacity so admitted == submitted and a kill can never
    // turn into a shed.
    cfg.admission.queue_capacity = plan.n_jobs.max(16);
    cfg.admission.default_quota = plan.n_jobs.max(16);
    let mut svc = Service::new(cfg)?;
    if let Some(scope) = tel_scope {
        svc.attach_scope(scope);
    }

    let mut t = 0u64;
    for i in 0..plan.n_jobs {
        let gap =
            mix64(plan.seed ^ 0xA5A5_0000 ^ ((i as u64) << 16)) % (2 * MEAN_INTERARRIVAL_NS) + 1;
        t += gap;
        svc.submit_at(t, spec_for(plan, i));
    }
    svc.run_to_completion()?;

    let mut latencies = Vec::new();
    let mut checksums = BTreeMap::new();
    for job in svc.jobs().values() {
        if let JobPhase::Done(o) = job.phase {
            latencies.push(o.latency_ns);
            let prev = checksums.insert(job.spec.seed, o.checksum);
            debug_assert!(prev.is_none(), "per-job seeds must be unique");
        }
    }
    latencies.sort_unstable();
    let stats = svc.stats().clone();
    let makespan_ns = svc.now_ns();
    let jobs_per_vsec = stats.completed as f64 / (makespan_ns.max(1) as f64 / 1e9);
    let per_tenant = tenant_breakdown(&svc);
    let tel_scope = svc.detach_scope();
    Ok((
        RunResult {
            slo: SloReport {
                n_jobs: plan.n_jobs,
                n_workers: plan.n_workers,
                injected_faults: 0, // filled by the caller's fault log
                p50_ns: percentile(&latencies, 50),
                p90_ns: percentile(&latencies, 90),
                p99_ns: percentile(&latencies, 99),
                max_ns: latencies.last().copied().unwrap_or(0),
                makespan_ns,
                jobs_per_vsec,
                stats,
                per_tenant,
            },
            checksums,
        },
        tel_scope,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("swserve-lg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn specs_are_deterministic_and_uniquely_seeded() {
        let plan = LoadPlan::standard(11, 64, 4);
        let mut seeds = std::collections::BTreeSet::new();
        for i in 0..plan.n_jobs {
            let a = spec_for(&plan, i);
            let b = spec_for(&plan, i);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.n_mol, b.n_mol);
            assert!(seeds.insert(a.seed), "duplicate job seed at {i}");
        }
        assert_ne!(spec_for(&plan, 0).seed, {
            let other = LoadPlan::standard(12, 64, 4);
            spec_for(&other, 0).seed
        });
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn attaching_the_telemetry_plane_changes_nothing() {
        let plan = LoadPlan::standard(21, 24, 2);
        for plan in [plan.clone(), plan.with_chaos()] {
            let (dir_a, dir_b) = (tmp("plain"), tmp("scoped"));
            let plain = run(&plan, &dir_a).unwrap();
            let (scoped, scope) = run_scoped(&plan, &dir_b).unwrap();
            assert_eq!(plain.slo.to_json(), scoped.slo.to_json());
            assert_eq!(plain.checksums, scoped.checksums);
            assert_eq!(scope.fleet().closed().map(|w| w.completed).sum::<u64>(), 24);
            let _ = std::fs::remove_dir_all(&dir_a);
            let _ = std::fs::remove_dir_all(&dir_b);
        }
    }

    #[test]
    fn small_load_completes_everything_and_replays_identically() {
        let plan = LoadPlan {
            native_every: 0, // keep the unit test off the thread pool
            ..LoadPlan::standard(21, 12, 2)
        };
        let dir_a = tmp("rep-a");
        let a = run(&plan, &dir_a).unwrap();
        let dir_b = tmp("rep-b");
        let b = run(&plan, &dir_b).unwrap();
        assert_eq!(a.slo.stats, b.slo.stats);
        assert_eq!(a.slo.p99_ns, b.slo.p99_ns);
        assert_eq!(a.checksums, b.checksums);
        assert_eq!(a.slo.stats.completed, 12);
        assert_eq!(a.checksums.len(), 12);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
