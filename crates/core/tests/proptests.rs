//! Property-based tests for the SW_GROMACS core: the fast formatter
//! against the standard library, package roundtrips, mask semantics,
//! kernel/reference equivalence on random configurations, and the `.mdp`
//! parser under hostile text.

use mdsim::cluster::{Clustering, FILLER};
use mdsim::nonbonded::{compute_forces_half, NbParams};
use mdsim::pairlist::{ListKind, PairList};
use proptest::prelude::*;
use sw26010::cg::CoreGroup;
use swgmx::cpelist::CpePairList;
use swgmx::fastio::format_f32_fixed;
use swgmx::kernels::{run_rma, RmaConfig};
use swgmx::mdp::{parse_mdp, PAPER_MDP};
use swgmx::package::{PackageLayout, PackedSystem};

proptest! {
    /// The §3.7 formatter agrees with `format!("{:.d}")` to within one
    /// unit in the last digit (ties may round differently), for any
    /// finite input in the trajectory range.
    #[test]
    fn formatter_matches_std_within_last_digit(v in -1.0e6f32..1.0e6, d in 0u32..6) {
        let mut buf = [0u8; 48];
        let n = format_f32_fixed(v, d, &mut buf);
        let got: f64 = std::str::from_utf8(&buf[..n]).unwrap().parse().unwrap();
        let want: f64 = format!("{:.*}", d as usize, v).parse().unwrap();
        let ulp = 10f64.powi(-(d as i32));
        prop_assert!(
            (got - want).abs() <= ulp + 1e-9,
            "v={} d={}: {} vs {}", v, d, got, want
        );
    }

    /// Formatted output parses back to within half a unit in the last
    /// digit of the original value (correct rounding).
    #[test]
    fn formatter_round_trips(v in -1.0e5f32..1.0e5, d in 0u32..5) {
        let mut buf = [0u8; 48];
        let n = format_f32_fixed(v, d, &mut buf);
        let got: f64 = std::str::from_utf8(&buf[..n]).unwrap().parse().unwrap();
        let ulp = 10f64.powi(-(d as i32));
        prop_assert!((got - v as f64).abs() <= 0.5 * ulp + 1e-9);
    }

    /// Packaging + force-order mapping round-trips arbitrary slot-ordered
    /// force arrays back to particle order.
    #[test]
    fn force_order_roundtrip(seed in 0u64..300, n_mol in 2usize..30) {
        let sys = mdsim::water::water_box(n_mol, 300.0, seed);
        let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
        let p = PackedSystem::build(&sys, clustering, PackageLayout::Interleaved);
        let n_slots = p.n_packages() * 4;
        let mut slot_forces = vec![0.0f32; 3 * n_slots];
        for (slot, &m) in p.clustering.slots.iter().enumerate() {
            if m != FILLER {
                slot_forces[3 * slot] = m as f32 + 0.25;
                slot_forces[3 * slot + 1] = -(m as f32);
            }
        }
        let out = p.forces_to_particle_order(&slot_forces);
        for (i, f) in out.iter().enumerate() {
            prop_assert_eq!(f.x, i as f32 + 0.25);
            prop_assert_eq!(f.y, -(i as f32));
        }
    }

    /// Mask popcount equals the number of unordered particle pairs the
    /// half list implies, with no duplicates.
    #[test]
    fn mask_popcount_counts_pairs_once(seed in 0u64..200, n_mol in 5usize..40) {
        let sys = mdsim::water::water_box(n_mol, 300.0, seed);
        let rlist = (0.4 * sys.pbc.lengths().x).min(1.0);
        let list = PairList::build(&sys, rlist, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let mut seen = std::collections::HashSet::new();
        let mut entry = 0;
        for ci in 0..cpe.n_clusters() {
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                for bit in 0..16u32 {
                    if cpe.masks[entry] >> bit & 1 == 1 {
                        let a = list.clustering.members(ci)[bit as usize / 4];
                        let b = list.clustering.members(cj)[bit as usize % 4];
                        prop_assert!(a != FILLER && b != FILLER);
                        prop_assert!(seen.insert((a.min(b), a.max(b))));
                    }
                }
                entry += 1;
            }
        }
    }

    /// The fully optimized kernel matches the scalar reference on random
    /// water boxes (sizes where the shift scheme is exact). Case count
    /// kept small: each case runs a full 800-molecule kernel.
    #[test]
    fn mark_kernel_matches_reference_on_random_boxes(seed in 0u64..8) {
        let sys = mdsim::water::water_box(800, 300.0, seed);
        let params = NbParams { r_cut: 0.7, ..NbParams::paper_default() };
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let cpe = CpePairList::build(&sys, &list);
        let out = run_rma(&psys, &cpe, &params, &CoreGroup::new(), RmaConfig::MARK);

        let mut r = sys.clone();
        r.clear_forces();
        let en = compute_forces_half(&mut r, &list, &params);
        // Pairs at exactly the cutoff radius may classify differently
        // through the shifted-coordinate path (last-ulp r^2 difference);
        // their force contribution is negligible.
        let dpairs = out.energies.pairs_within_cutoff.abs_diff(en.pairs_within_cutoff);
        prop_assert!(dpairs <= 4, "pair count differs by {}", dpairs);
        let erel = (out.energies.total() - en.total()).abs() / en.total().abs().max(1.0);
        prop_assert!(erel < 1e-4, "energy relative diff {}", erel);
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        let diff = out
            .forces
            .iter()
            .zip(&r.force)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f32, f32::max);
        prop_assert!(diff / fmax < 1e-3, "force diff {} of {}", diff, fmax);
    }

    /// Arbitrary text, arbitrary values behind every key the parser
    /// knows, and any flipped bit of the paper's `.mdp`: the parser
    /// returns options or an error, never panics.
    #[test]
    fn hostile_mdp_text_never_panics_the_parser(
        noise in prop::collection::vec(any::<u8>(), 0..200),
        lines in prop::collection::vec((0usize..MDP_KEYS.len(), prop::collection::vec(any::<u8>(), 0..12)), 0..8),
        bit_pick in any::<u64>(),
    ) {
        let _ = parse_mdp(&String::from_utf8_lossy(&noise));
        let keyed: String = lines
            .iter()
            .map(|(k, v)| format!("{} = {}\n", MDP_KEYS[*k], String::from_utf8_lossy(v)))
            .collect();
        let _ = parse_mdp(&keyed);
        let mut flipped = PAPER_MDP.as_bytes().to_vec();
        let bit = bit_pick as usize % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = parse_mdp(&String::from_utf8_lossy(&flipped));
    }
}

/// Every key [`parse_mdp`] treats specially, and one it does not.
const MDP_KEYS: &[&str] = &[
    "nsteps",
    "dt",
    "nstlist",
    "nstxout",
    "rlist",
    "rcoulomb",
    "rvdw",
    "coulombtype",
    "fourier-spacing",
    "fourier_nx",
    "ref-t",
    "tcoupl",
    "constraints",
    "integrator",
    "emtol",
];

#[test]
fn every_truncation_of_the_paper_mdp_parses_or_errs() {
    assert!(parse_mdp(PAPER_MDP).is_ok());
    for cut in 0..PAPER_MDP.len() {
        let _ = parse_mdp(&PAPER_MDP[..cut]);
    }
}
