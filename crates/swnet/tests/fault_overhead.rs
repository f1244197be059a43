//! Network fault-injection tests: drops, corruption, and congestion
//! delay only add deterministic simulated time; they never change
//! anything but the cost model.
//!
//! A fault scope reaches only the thread that installed it, so these
//! run beside tests that assert exact fault-free timings.

use swfault::{FaultPlan, Site};
use swnet::params::RankDistance;
use swnet::transport::{message_ns, Transport};

#[test]
fn faults_add_time_and_replay_deterministically() {
    let clean = message_ns(Transport::Rdma, RankDistance::SameSupernode, 4096);

    let run = || {
        let scope = swfault::install(FaultPlan {
            net_drop: 0.5,
            net_corrupt: 0.2,
            net_delay: 0.8,
            ..FaultPlan::with_seed(21)
        });
        let ns: Vec<f64> = (0..32)
            .map(|_| message_ns(Transport::Rdma, RankDistance::SameSupernode, 4096))
            .collect();
        let log = scope.finish();
        (ns, log)
    };
    let (a, la) = run();
    let (b, lb) = run();
    assert_eq!(a, b, "same seed: bit-identical message costs");
    assert_eq!(la, lb);
    assert!(la.count(Site::NetDrop) > 0);
    assert!(a.iter().all(|&t| t >= clean));
    assert!(a.iter().any(|&t| t > clean), "some message must be faulted");
}

#[test]
fn same_rank_messages_never_draw_fault_decisions() {
    let scope = swfault::install(FaultPlan {
        net_drop: 1.0,
        ..FaultPlan::with_seed(2)
    });
    assert_eq!(
        message_ns(Transport::Mpi, RankDistance::SameRank, 4096),
        0.0
    );
    assert_eq!(scope.finish().total(), 0);
}
