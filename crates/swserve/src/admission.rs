//! Admission control: per-tenant in-flight quotas and the priority
//! model that decides who waits, who sheds, and who gets in.
//!
//! The controller owns only the *accounting*; the queue itself lives
//! in [`service`](crate::service) (it needs the scheduler's ordering
//! key). Splitting it this way keeps the policy unit-testable without
//! standing up workers.

use std::collections::BTreeMap;

use crate::TenantId;

/// Quota configuration: how many jobs a tenant may have in flight
/// (queued + running) at once.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// In-flight cap of every tenant.
    pub default_quota: usize,
    /// Total queued-job capacity across all tenants. A submission to a
    /// full queue may shed a strictly-lower-priority queued job; else
    /// it gets backpressure.
    pub queue_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            default_quota: 64,
            queue_capacity: 4096,
        }
    }
}

/// Tracks per-tenant in-flight counts against the configured quota.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    in_flight: BTreeMap<TenantId, usize>,
}

impl AdmissionController {
    /// A controller with no jobs in flight.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            in_flight: BTreeMap::new(),
        }
    }

    /// Current in-flight count for `tenant`.
    pub fn in_flight(&self, tenant: TenantId) -> usize {
        self.in_flight.get(&tenant).copied().unwrap_or(0)
    }

    /// Whether `tenant` has headroom for one more job.
    pub fn has_headroom(&self, tenant: TenantId) -> bool {
        self.in_flight(tenant) < self.cfg.default_quota
    }

    /// Account one admitted job against `tenant`.
    pub fn charge(&mut self, tenant: TenantId) {
        *self.in_flight.entry(tenant).or_insert(0) += 1;
    }

    /// Release one slot when a job completes or is shed.
    pub fn release(&mut self, tenant: TenantId) {
        let n = self
            .in_flight
            .get_mut(&tenant)
            .expect("release without charge");
        *n -= 1;
        if *n == 0 {
            self.in_flight.remove(&tenant);
        }
    }

    /// The configured queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.cfg.queue_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_apply_per_tenant() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            default_quota: 2,
            queue_capacity: 16,
        });
        ctl.charge(0);
        ctl.charge(0);
        assert!(!ctl.has_headroom(0), "tenant 0 at quota");
        assert!(ctl.has_headroom(1), "tenant 1 unaffected");

        ctl.release(0);
        assert!(ctl.has_headroom(0), "release restores headroom");
    }

    #[test]
    #[should_panic(expected = "release without charge")]
    fn release_without_charge_is_a_bug() {
        AdmissionController::new(AdmissionConfig::default()).release(3);
    }
}
