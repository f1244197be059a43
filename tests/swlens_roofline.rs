//! End-to-end properties of the swlens roofline report: coverage of
//! the full kernel ladder, bit-determinism, physically sensible
//! classifications, and the committed baseline's exact bytes.

use bench::roofline::{collect, render_ascii, render_json, Bound, Envelope};

const N_MOL: usize = 200;
const SEED: u64 = 7;

#[test]
fn report_covers_all_five_versions_and_is_bit_deterministic() {
    let env = Envelope::sw26010_cg();
    let a = collect(N_MOL, SEED, &env);
    let b = collect(N_MOL, SEED, &env);

    let versions: Vec<&str> = a
        .iter()
        .filter(|r| r.region == "total")
        .map(|r| r.version)
        .collect();
    assert_eq!(versions, vec!["ori", "gldnaive", "rma", "rca", "ustc"]);

    // Same workload, same counters, byte-identical reports.
    assert_eq!(a, b);
    assert_eq!(
        render_json(&a, &env, N_MOL, SEED),
        render_json(&b, &env, N_MOL, SEED)
    );
    assert_eq!(render_ascii(&a, &env), render_ascii(&b, &env));
}

#[test]
fn classifications_match_the_kernel_models() {
    let env = Envelope::sw26010_cg();
    let rows = collect(N_MOL, SEED, &env);
    let total = |version: &str| {
        rows.iter()
            .find(|r| r.version == version && r.region == "total")
            .unwrap()
    };

    // The MPE-only port never touches the DMA or gld models: no memory
    // traffic, compute-bound by definition.
    let ori = total("ori");
    assert_eq!(ori.bound, Bound::Compute);
    assert_eq!(ori.ai, None);
    assert_eq!(ori.dma_bytes + ori.gld_bytes, 0);

    // Every CPE kernel moves particle data through main memory and
    // sits left of the ~25 flop/B ridge: the short-range kernel is a
    // bandwidth story, which is the paper's premise.
    for v in ["gldnaive", "rma", "rca", "ustc"] {
        let r = total(v);
        assert_eq!(r.bound, Bound::Bandwidth, "{v} should be bandwidth-bound");
        assert!(r.ai.unwrap() < env.ridge());
        assert!(r.flops > 0 && r.cycles > 0);
    }

    // The ladder's point: rma achieves far more of the roof than the
    // gld-naive port on the same physics.
    assert!(total("rma").achieved_gflops > 10.0 * total("gldnaive").achieved_gflops);

    // Achieved never exceeds attainable (the roof is a roof), with a
    // small slack for cycle rounding in the cost model.
    for r in &rows {
        if let Some(roof) = r.attainable_gflops {
            assert!(
                r.achieved_gflops <= roof * 1.05,
                "{}/{} achieves {} over roof {}",
                r.version,
                r.region,
                r.achieved_gflops,
                roof
            );
        }
    }
}

/// `results/baselines/roofline.json` is what `swlens report` writes at
/// its defaults (400 molecules, seed 7), byte for byte: a cost-model
/// change that moves any counter must regenerate the baseline with it.
#[test]
fn the_committed_report_is_what_a_fresh_run_writes() {
    let (n_mol, seed) = (400, 7);
    let env = Envelope::sw26010_cg();
    let fresh = render_json(&collect(n_mol, seed, &env), &env, n_mol, seed);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/baselines/roofline.json");
    let committed = std::fs::read_to_string(&path).unwrap();
    for (i, (f, c)) in fresh.lines().zip(committed.lines()).enumerate() {
        assert_eq!(
            f,
            c,
            "{} line {}; regenerate with `swlens report --out results/baselines`",
            path.display(),
            i + 1
        );
    }
    assert_eq!(fresh, committed);
}
