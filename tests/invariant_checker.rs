//! Tier-1 integration: the `swcheck` invariant checker against the
//! kernels as shipped. The paper's correctness story rests on the
//! redundant-copy scheme making cross-CPE writes disjoint and on the
//! Bit-Map/reduction contract (Alg. 3/4); this suite keeps those
//! properties machine-checked on every test run.

use sw26010::trace::EventKind;
use swcheck::{check_events, error_count, fixtures};
use swgmx::check::{run_traced, run_traced_step, Variant};
use swgmx::check::{REGION_SYS_POS, STEP_MIN_MOL};

#[test]
fn optimized_kernel_passes_the_checker() {
    let run = run_traced(Variant::Rma, 300, 11);
    let violations = check_events(&run.contract, &run.events);
    assert_eq!(
        error_count(&violations),
        0,
        "rma (Mark) must check clean: {violations:?}"
    );
}

#[test]
fn engine_step_regions_pass_the_checker() {
    // The update is a lane region like the kernels': each lane writes
    // the word range of its own block. (The shifts have no region: each
    // kernel lane derives its own rows' from the packed centers.)
    let run = run_traced_step(STEP_MIN_MOL, 11);
    let lanes = run.events.iter().filter(|e| {
        e.cpe.is_some()
            && matches!(e.kind, EventKind::SharedWrite { region, .. } if region == REGION_SYS_POS)
    });
    assert!(lanes.count() >= 2, "the update never went to lanes");
    let violations = check_events(&run.contract, &run.events);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn baselines_pass_under_their_own_contracts() {
    for variant in [Variant::GldNaive, Variant::Ustc] {
        let run = run_traced(variant, 200, 11);
        let violations = check_events(&run.contract, &run.events);
        assert_eq!(
            error_count(&violations),
            0,
            "{}: {violations:?}",
            variant.name()
        );
    }
}

#[test]
fn seeded_violations_are_all_caught() {
    for f in fixtures::all() {
        let violations = check_events(&f.contract, &f.events);
        assert!(
            violations.iter().any(|v| v.id == f.expected),
            "fixture `{}` escaped detection (expected {})",
            f.name,
            f.expected
        );
    }
}

#[test]
fn gld_contract_distinguishes_baseline_from_optimized() {
    // The same gld-heavy event stream that is legal for the gldnaive
    // baseline must be an SWC005 error under the rma contract.
    let run = run_traced(Variant::GldNaive, 200, 13);
    assert_eq!(error_count(&check_events(&run.contract, &run.events)), 0);
    let strict = Variant::Rma.contract();
    let violations = check_events(&strict, &run.events);
    assert!(
        violations.iter().any(|v| v.id == "SWC005"),
        "gld traffic must violate the optimized contract: {violations:?}"
    );
}
