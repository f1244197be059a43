//! Point-to-point message cost: the 4-copy MPI path vs zero-copy RDMA
//! (paper §3.6).
//!
//! MPI path per message: user -> kernel copy, packetization, NIC copy on
//! the sender; the mirror image on the receiver — four buffer copies plus
//! kernel time. RDMA path: the NIC reads user memory directly and the
//! receiver's NIC writes user memory directly — no copies, no kernel.

use crate::params::{
    RankDistance, BANDWIDTH_GBS, MEM_BANDWIDTH_GBS, MPI_COPIES, MPI_SW_OVERHEAD_NS,
    RDMA_SW_OVERHEAD_NS,
};

/// Which transport the communication layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Classic MPI over TCP-like segments with the full copy chain.
    Mpi,
    /// RDMA verbs: zero copy, kernel bypass.
    Rdma,
}

/// End-to-end time in ns for one message of `bytes` over `transport`
/// between ranks at distance `dist`.
pub fn message_ns(transport: Transport, dist: RankDistance, bytes: usize) -> f64 {
    if dist == RankDistance::SameRank {
        return 0.0;
    }
    swprof::metrics::counter_add("net.messages", 1);
    swprof::metrics::counter_add(
        match transport {
            Transport::Mpi => "net.mpi.messages",
            Transport::Rdma => "net.rdma.messages",
        },
        1,
    );
    swprof::metrics::counter_add("net.bytes", bytes as u64);
    swprof::metrics::histogram_record("net.msg_bytes", bytes as u64);
    let lat = dist.latency_ns();
    let stream = bytes as f64 / BANDWIDTH_GBS;
    let fault_ns = if swfault::enabled() {
        inject_faults(lat, stream)
    } else {
        0.0
    };
    fault_ns
        + match transport {
            Transport::Mpi => {
                // Eager protocol copies every byte `MPI_COPIES` times (§3.6:
                // "the data has to be copied four times"); the rendezvous
                // protocol adds a request/ack handshake (two extra wire
                // latencies) but pipelines a single bounce-buffer copy with
                // the wire. Real stacks use whichever is cheaper, which also
                // keeps the cost monotone in message size.
                let eager = lat + MPI_COPIES as f64 * bytes as f64 / MEM_BANDWIDTH_GBS + stream;
                let rendezvous = 3.0 * lat + (bytes as f64 / MEM_BANDWIDTH_GBS).max(stream);
                MPI_SW_OVERHEAD_NS + eager.min(rendezvous)
            }
            Transport::Rdma => RDMA_SW_OVERHEAD_NS + lat + stream,
        }
}

/// Deterministic fault overhead (ns) for one message. Dropped messages
/// burn the full attempt and wait out a retransmit timeout; corrupted
/// messages burn the attempt plus a NACK round trip; congestion delay
/// adds payload-scaled jitter. All of it is simulated time only — the
/// message always arrives intact eventually, so a faulted run perturbs
/// the cost model, never the simulation state.
fn inject_faults(lat: f64, stream: f64) -> f64 {
    use swfault::{retry, Site};
    let mut ns = 0.0;
    let mut attempt = 0u32;
    while attempt < retry::MAX_ATTEMPTS {
        if let Some(payload) = swfault::decide(Site::NetDrop) {
            // Timeout-detected drop: retransmit after exponential
            // backoff seeded at a few wire latencies.
            ns += lat + stream + retry::backoff_ns(attempt, 4.0 * lat, payload);
        } else if let Some(payload) = swfault::decide(Site::NetCorrupt) {
            // CRC failure at the receiver: NACK round trip, resend.
            ns += lat + stream + 2.0 * lat + retry::backoff_ns(attempt, lat, payload);
        } else {
            break;
        }
        swprof::metrics::counter_add("fault.retries.net", 1);
        attempt += 1;
    }
    if attempt >= retry::MAX_ATTEMPTS {
        swprof::metrics::counter_add("fault.retries.exhausted", 1);
    }
    if let Some(payload) = swfault::decide(Site::NetDelay) {
        // Congestion jitter proportional to the message's own wire time.
        ns += swfault::unit(payload) * (lat + stream);
    }
    ns
}

/// [`message_ns`] plus causal-trace propagation: when a tracing
/// session is active, injects a [`swprof::tel::TraceContext`] at `from` and
/// delivers it at `to` with the modeled wire time, so the merged
/// global trace shows this message as a flow arrow. Cost is identical
/// to the untraced call (same fault decisions, same ns).
pub fn traced_message_ns(
    transport: Transport,
    topo: &crate::Topology,
    from: usize,
    to: usize,
    bytes: usize,
    label: &'static str,
) -> f64 {
    let ns = message_ns(transport, topo.distance(from, to), bytes);
    if swprof::tel::enabled() && from != to {
        if let Some(ctx) = swprof::tel::send_from(label, from, to) {
            swprof::tel::deliver(&ctx, ns.max(0.0) as u64);
        }
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_is_never_slower() {
        for bytes in [8usize, 1024, 1 << 20] {
            for d in [
                RankDistance::SameChip,
                RankDistance::SameSupernode,
                RankDistance::CrossTree,
            ] {
                assert!(
                    message_ns(Transport::Rdma, d, bytes) < message_ns(Transport::Mpi, d, bytes)
                );
            }
        }
    }

    #[test]
    fn rdma_advantage_is_largest_for_small_messages() {
        // §3.6 motivation: high-frequency small messages suffer most from
        // per-message software overhead.
        let speedup = |bytes| {
            let ns = |transport| message_ns(transport, RankDistance::SameSupernode, bytes);
            ns(Transport::Mpi) / ns(Transport::Rdma)
        };
        let (small, large) = (speedup(64), speedup(16 << 20));
        assert!(small > large, "small {small:.2}x vs large {large:.2}x");
        assert!(small > 1.5);
    }

    #[test]
    fn same_rank_is_free() {
        assert_eq!(
            message_ns(Transport::Mpi, RankDistance::SameRank, 1024),
            0.0
        );
    }

    #[test]
    fn bandwidth_bound_for_huge_messages() {
        let bytes = 1usize << 30;
        let t = message_ns(Transport::Rdma, RankDistance::CrossTree, bytes);
        let ideal = bytes as f64 / BANDWIDTH_GBS;
        assert!((t - ideal) / ideal < 0.01);
    }
}
