//! Property-based tests for the interconnect model: cost monotonicity,
//! transport dominance, and topology consistency.

use proptest::prelude::*;
use swnet::{allreduce_ns, alltoall_ns, halo_exchange_ns};
use swnet::{message_ns, RankDistance, Topology, Transport};

fn distances() -> impl Strategy<Value = RankDistance> {
    prop_oneof![
        Just(RankDistance::SameChip),
        Just(RankDistance::SameSupernode),
        Just(RankDistance::CrossTree),
    ]
}

proptest! {
    /// Message cost is monotone in size for both transports.
    #[test]
    fn message_cost_monotone_in_size(
        d in distances(),
        size in 1usize..1_000_000,
        extra in 1usize..100_000,
    ) {
        for t in [Transport::Mpi, Transport::Rdma] {
            let a = message_ns(t, d, size);
            let b = message_ns(t, d, size + extra);
            prop_assert!(b >= a, "{:?}: {} B {} ns vs {} B {} ns", t, size, a, size + extra, b);
        }
    }

    /// RDMA never loses to MPI at any size or distance.
    #[test]
    fn rdma_dominates_mpi(d in distances(), size in 1usize..16_000_000) {
        prop_assert!(
            message_ns(Transport::Rdma, d, size) < message_ns(Transport::Mpi, d, size)
        );
    }

    /// Farther distance classes never cost less.
    #[test]
    fn cost_monotone_in_distance(size in 1usize..1_000_000) {
        for t in [Transport::Mpi, Transport::Rdma] {
            let chip = message_ns(t, RankDistance::SameChip, size);
            let supernode = message_ns(t, RankDistance::SameSupernode, size);
            let cross = message_ns(t, RankDistance::CrossTree, size);
            prop_assert!(chip <= supernode && supernode <= cross);
        }
    }

    /// Collectives are monotone in rank count and payload.
    #[test]
    fn collectives_monotone(ranks in 2usize..2048, bytes in 8usize..65_536) {
        let t1 = Topology::new(ranks);
        let t2 = Topology::new(ranks * 2);
        for transport in [Transport::Mpi, Transport::Rdma] {
            prop_assert!(
                allreduce_ns(&t1, transport, bytes)
                    <= allreduce_ns(&t2, transport, bytes)
            );
            prop_assert!(
                alltoall_ns(&t1, transport, bytes) <= alltoall_ns(&t2, transport, bytes)
            );
            prop_assert!(
                allreduce_ns(&t1, transport, bytes)
                    <= allreduce_ns(&t1, transport, bytes * 2)
            );
        }
    }

    /// Topology classification is symmetric and consistent with packing.
    #[test]
    fn topology_classification_symmetric(a in 0usize..4096, b in 0usize..4096) {
        let t = Topology::new(4096);
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
        if a == b {
            prop_assert_eq!(t.distance(a, b), RankDistance::SameRank);
        } else if t.chip(a) == t.chip(b) {
            prop_assert_eq!(t.distance(a, b), RankDistance::SameChip);
        }
        // Same chip implies same supernode.
        if t.chip(a) == t.chip(b) {
            prop_assert_eq!(t.supernode(a), t.supernode(b));
        }
    }

    /// Halo exchange scales linearly with neighbor count.
    #[test]
    fn halo_linear_in_neighbors(n in 1usize..12, bytes in 64usize..32_768) {
        let t = Topology::new(64);
        let one = halo_exchange_ns(&t, Transport::Rdma, 1, bytes);
        let many = halo_exchange_ns(&t, Transport::Rdma, n, bytes);
        prop_assert!((many - n as f64 * one).abs() < 1e-6 * many.max(1.0));
    }
}

proptest! {
    /// Sequence-numbered channels under *any* delay rate: duplicates
    /// are discarded and never leave an orphan flow event — the merged
    /// trace pairs every logical message's send with exactly one
    /// receive, no matter how many copies the wire delivered.
    #[test]
    fn discarded_duplicates_never_orphan_flows(
        seed in any::<u64>(),
        delay_percent in 0u64..101,
        n_messages in 1u64..40,
    ) {
        let session = swprof::tel::Session::begin(seed ^ 0xF10);
        let plan = swfault::FaultPlan {
            net_delay: delay_percent as f64 / 100.0,
            ..swfault::FaultPlan::with_seed(seed)
        };
        let scope = swfault::install(plan);
        let mut ch = swnet::SeqChannel::new();
        let mut delivered = 0u64;
        for i in 0..n_messages {
            let (report, ctx) = ch.transmit_traced("halo.f", 0, 1);
            prop_assert_eq!(report.seq, i);
            let ctx = ctx.expect("session active");
            prop_assert_eq!(ctx.seqno, i, "context carries the channel seqno");
            swprof::tel::deliver(&ctx, 50 + (i % 7) * 10);
            delivered += 1;
        }
        drop(scope.finish());
        let tel = session.finish();
        if let Err(e) = tel.check_causal() {
            return Err(format!("not causal: {e}"));
        }
        // One send + one receive per *logical* message; duplicate
        // copies the receiver discarded contribute nothing.
        prop_assert_eq!(tel.flows.len() as u64, 2 * delivered);
        prop_assert_eq!(tel.undelivered_flows(), 0);
        prop_assert_eq!(ch.applied(), n_messages, "exactly-once application");
    }
}
