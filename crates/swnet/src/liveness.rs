//! Rank liveness: timeout-based dead-peer detection and the epoch
//! barrier coordinated snapshots ride on.
//!
//! The paper's communication layer (§3.6) assumes every rank answers;
//! a production campaign cannot. Two primitives close the gap:
//!
//! - [`halo_timeout_ns`] — the time a rank burns discovering that a
//!   halo-exchange peer is dead: the full
//!   [`LIVENESS_TIMEOUT_NS`], by
//!   definition longer than any retransmit backoff, so silence is
//!   proof of death rather than congestion.
//! - [`epoch_barrier`] — an allreduce among the live ranks agreeing on
//!   `(epoch, liveness bitmap)`. Every rank leaves the barrier with
//!   the same epoch tag and the same verdict about who is dead, which
//!   is what makes the snapshot *coordinated*: each rank stamps that
//!   epoch into its `swstore` frame, and a restore can verify all
//!   frames agree.

use crate::collectives::allreduce_ns;
use crate::params::LIVENESS_TIMEOUT_NS;
use crate::transport::Transport;
use crate::Topology;

/// Simulated time for a rank to detect a dead halo-exchange peer: the
/// peer's silence outlasts the liveness timeout. Detections by several
/// survivors overlap in wall-clock, so chargers should count this once
/// per detection *round*, not once per survivor.
pub fn halo_timeout_ns() -> f64 {
    LIVENESS_TIMEOUT_NS
}

/// Outcome of one epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierOutcome {
    /// Simulated time of the barrier round.
    pub ns: f64,
    /// Ranks every survivor now agrees are dead (indices into `live`).
    pub confirmed_dead: Vec<usize>,
}

/// Barrier + agreement round over the live ranks: allreduce of the
/// epoch tag and the liveness bitmap (16 B payload). If any rank is
/// dead, every survivor first waits out the liveness timeout (in
/// parallel — one timeout of wall-clock, not one per survivor) before
/// the reduced bitmap confirms the death to everyone.
pub fn epoch_barrier(transport: Transport, live: &[bool]) -> BarrierOutcome {
    let n_live = live.iter().filter(|&&l| l).count();
    let confirmed_dead: Vec<usize> = live
        .iter()
        .enumerate()
        .filter(|(_, &l)| !l)
        .map(|(i, _)| i)
        .collect();
    swprof::metrics::counter_add("net.epoch_barriers", 1);
    if !confirmed_dead.is_empty() {
        swprof::metrics::counter_add("net.barrier_timeouts", 1);
    }
    let mut ns = 0.0;
    if n_live > 1 {
        ns += allreduce_ns(&Topology::new(n_live), transport, 16);
    }
    if !confirmed_dead.is_empty() {
        ns += LIVENESS_TIMEOUT_NS;
    }
    // One barrier arrival per round in the substrate trace: everything
    // the calling lane did before the barrier happens-before everything
    // any lane does after a later arrival of the same round family.
    sw26010::trace::emit_barrier(sw26010::trace::next_id());
    BarrierOutcome { ns, confirmed_dead }
}

/// [`epoch_barrier`] plus causal-trace propagation: the agreement
/// round appears as `"barrier"` flows from every live seat into the
/// first live seat and back out (seat `i` maps to rank `ranks[i]`).
/// Cost and outcome are identical to the untraced call.
pub fn epoch_barrier_traced(
    transport: Transport,
    live: &[bool],
    ranks: &[usize],
) -> BarrierOutcome {
    let outcome = epoch_barrier(transport, live);
    if swprof::tel::enabled() {
        let seats: Vec<usize> = live
            .iter()
            .zip(ranks)
            .filter(|(&l, _)| l)
            .map(|(_, &r)| r)
            .collect();
        if seats.len() > 1 {
            let wire = (outcome.ns / 2.0).max(0.0) as u64;
            let root = seats[0];
            for &r in &seats[1..] {
                flow("barrier", r, root, wire);
            }
            for &r in &seats[1..] {
                flow("barrier", root, r, wire);
            }
        }
    }
    outcome
}

/// Emit one traced flow `src -> dst` delivered after `wire_ns`.
fn flow(label: &'static str, src: usize, dst: usize, wire_ns: u64) {
    if let Some(ctx) = swprof::tel::send_from(label, src, dst) {
        swprof::tel::deliver(&ctx, wire_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LAT_CROSS_NS;

    #[test]
    fn all_live_barrier_is_a_cheap_allreduce() {
        let out = epoch_barrier(Transport::Rdma, &[true; 8]);
        assert!(out.confirmed_dead.is_empty());
        assert!(out.ns > 0.0);
        assert!(
            out.ns < LIVENESS_TIMEOUT_NS,
            "no timeout on an all-live barrier: {} ns",
            out.ns
        );
    }

    #[test]
    fn dead_ranks_cost_one_timeout_and_are_agreed_on() {
        let mut live = [true; 8];
        live[2] = false;
        live[5] = false;
        let out = epoch_barrier(Transport::Rdma, &live);
        assert_eq!(out.confirmed_dead, vec![2, 5]);
        assert!(out.ns >= LIVENESS_TIMEOUT_NS);
        // Parallel detection: two dead ranks still cost one timeout.
        assert!(out.ns < 2.0 * LIVENESS_TIMEOUT_NS);
    }

    #[test]
    fn timeout_dominates_any_retransmit_backoff() {
        // The detector's soundness: MAX_ATTEMPTS exponential backoffs
        // on the worst path stay under the liveness timeout, so a slow
        // rank is never declared dead.
        let worst_backoff: f64 = (0..swfault::retry::MAX_ATTEMPTS)
            .map(|a| swfault::retry::backoff_ns(a, 4.0 * LAT_CROSS_NS, u64::MAX))
            .take(3) // drops give up re-arming long before the cap
            .sum();
        assert!(worst_backoff < LIVENESS_TIMEOUT_NS);
    }

    #[test]
    fn single_survivor_pays_no_allreduce() {
        let out = epoch_barrier(Transport::Rdma, &[true, false]);
        assert_eq!(out.confirmed_dead, vec![1]);
        assert_eq!(out.ns, LIVENESS_TIMEOUT_NS);
    }
}
