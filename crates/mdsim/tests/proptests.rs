//! Property-based tests for the MD substrate: periodic geometry, FFT
//! algebra, pair-list coverage, constraint restoration, numerics, and
//! both checkpoint decoders under hostile bytes.

use mdsim::checkpoint::{Checkpoint, RankShard};
use mdsim::cluster::{hilbert3, morton3, Clustering};
use mdsim::constraints::ConstraintSet;
use mdsim::fft::{dft_reference, fft, ifft, Complex};
use mdsim::math::{erf, erfc};
use mdsim::pairlist::{ListKind, PairList};
use mdsim::pbc::PbcBox;
use mdsim::vec3::{vec3, Vec3};
use proptest::prelude::*;

fn arb_box() -> impl Strategy<Value = PbcBox> {
    (1.0f32..8.0, 1.0f32..8.0, 1.0f32..8.0).prop_map(|(x, y, z)| PbcBox::new(x, y, z))
}

fn arb_point() -> impl Strategy<Value = Vec3> {
    (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0).prop_map(|(x, y, z)| vec3(x, y, z))
}

/// A valid checkpoint frame and a valid shard frame of one water box.
fn valid_frames(n_mol: usize, seed: u64) -> [Vec<u8>; 2] {
    let sys = mdsim::water::water_box(n_mol, 300.0, seed);
    let owned: Vec<u32> = (0..sys.n() as u32).step_by(2).collect();
    let mut cp = Vec::new();
    Checkpoint::capture(&sys, seed).write_to(&mut cp).unwrap();
    let mut shard = Vec::new();
    RankShard::capture(&sys, seed, 1, 2, &owned)
        .write_to(&mut shard)
        .unwrap();
    [cp, shard]
}

/// Every decoder over `bytes`: each returns a value or an error, never
/// panics, and a value re-encodes to the prefix it was read from.
fn decode_everywhere(bytes: &[u8]) -> Result<(), String> {
    let read_back = |encoded: Vec<u8>, what: &str| {
        prop_assert!(
            bytes.starts_with(&encoded),
            "{} decoded to other bytes",
            what
        );
        Ok(())
    };
    if let Ok(cp) = Checkpoint::read_from(&mut &bytes[..]) {
        let mut again = Vec::new();
        cp.write_to(&mut again).unwrap();
        read_back(again, "checkpoint")?;
    }
    if let Ok((cp, retries)) = Checkpoint::decode_with_retry(bytes) {
        prop_assert_eq!(retries, 0);
        let mut again = Vec::new();
        cp.write_to(&mut again).unwrap();
        read_back(again, "retried checkpoint")?;
    }
    if let Ok(shard) = RankShard::read_from(&mut &bytes[..]) {
        let mut again = Vec::new();
        shard.write_to(&mut again).unwrap();
        read_back(again, "shard")?;
    }
    Ok(())
}

proptest! {
    /// Minimum-image displacement never exceeds half the box diagonal,
    /// and is antisymmetric.
    #[test]
    fn min_image_bounds_and_antisymmetry(pbc in arb_box(), a in arb_point(), b in arb_point()) {
        let d = pbc.min_image(a, b);
        let l = pbc.lengths();
        prop_assert!(d.x.abs() <= 0.5 * l.x + 1e-3);
        prop_assert!(d.y.abs() <= 0.5 * l.y + 1e-3);
        prop_assert!(d.z.abs() <= 0.5 * l.z + 1e-3);
        let r = pbc.min_image(b, a);
        // Antisymmetric up to the L/2 tie (both signs valid there).
        prop_assert!((d + r).norm() < 1e-3 || (d.norm() - r.norm()).abs() < 1e-3);
    }

    /// Wrapping is idempotent and preserves all pairwise distances.
    #[test]
    fn wrap_idempotent_and_isometric(pbc in arb_box(), a in arb_point(), b in arb_point()) {
        let wa = pbc.wrap(a);
        prop_assert_eq!(pbc.wrap(wa), wa);
        let before = pbc.dist2(a, b);
        let after = pbc.dist2(wa, pbc.wrap(b));
        prop_assert!((before - after).abs() < 1e-2 * before.max(1.0));
    }

    /// Translating every particle by a lattice vector leaves minimum-image
    /// distances unchanged.
    #[test]
    fn lattice_translation_invariance(
        pbc in arb_box(),
        a in arb_point(),
        b in arb_point(),
        k in -3i32..=3,
    ) {
        let l = pbc.lengths();
        let shift = vec3(k as f32 * l.x, k as f32 * l.y, k as f32 * l.z);
        let d0 = pbc.dist2(a, b);
        let d1 = pbc.dist2(a + shift, b);
        prop_assert!((d0 - d1).abs() < 2e-2 * d0.max(1.0), "{} vs {}", d0, d1);
    }

    /// FFT followed by inverse FFT is the identity; the forward transform
    /// matches the naive DFT.
    #[test]
    fn fft_roundtrip_and_dft(values in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6)) {
        // Pad to the next power of two.
        let n = values.len().next_power_of_two().max(2);
        let mut buf: Vec<Complex> = values.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        buf.resize(n, Complex::ZERO);
        let orig = buf.clone();
        let want = dft_reference(&buf);
        fft(&mut buf);
        for (g, w) in buf.iter().zip(&want) {
            prop_assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
        }
        ifft(&mut buf);
        for (g, o) in buf.iter().zip(&orig) {
            prop_assert!((g.re - o.re).abs() < 1e-9 && (g.im - o.im).abs() < 1e-9);
        }
    }

    /// FFT is linear: F(a x + b y) = a F(x) + b F(y).
    #[test]
    fn fft_linearity(
        xs in prop::collection::vec(-5.0f64..5.0, 8),
        ys in prop::collection::vec(-5.0f64..5.0, 8),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let mk = |v: &[f64]| -> Vec<Complex> { v.iter().map(|&r| Complex::new(r, 0.0)).collect() };
        let mut fx = mk(&xs);
        let mut fy = mk(&ys);
        let mut fz: Vec<Complex> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| Complex::new(a * x + b * y, 0.0))
            .collect();
        fft(&mut fx);
        fft(&mut fy);
        fft(&mut fz);
        for i in 0..8 {
            let want_re = a * fx[i].re + b * fy[i].re;
            let want_im = a * fx[i].im + b * fy[i].im;
            prop_assert!((fz[i].re - want_re).abs() < 1e-8);
            prop_assert!((fz[i].im - want_im).abs() < 1e-8);
        }
    }

    /// erfc is within [0, 2], decreasing, and erf + erfc = 1.
    #[test]
    fn erfc_properties(x in -5.0f64..5.0, dx in 0.001f64..2.0) {
        let e = erfc(x);
        prop_assert!((0.0..=2.0).contains(&e));
        prop_assert!(erfc(x + dx) <= e + 1e-9);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    /// Pair lists built over random particle clouds cover every pair
    /// within the cutoff (the Verlet-list completeness invariant).
    #[test]
    fn pairlist_covers_random_clouds(
        seed in 0u64..1000,
        n in 12usize..60,
        edge in 1.6f32..3.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pbc = PbcBox::cubic(edge);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| vec3(
                rng.gen_range(0.0..edge),
                rng.gen_range(0.0..edge),
                rng.gen_range(0.0..edge),
            ))
            .collect();
        let top = mdsim::Topology::lj_fluid(n);
        let sys = mdsim::System::from_topology(top, pbc, pos);
        let rlist = 0.45 * edge;
        let list = PairList::build(&sys, rlist, ListKind::Half);
        prop_assert_eq!(list.verify_coverage(&sys, rlist), None);
    }

    /// Clustering is always a partition of the particles.
    #[test]
    fn clustering_partitions(seed in 0u64..500, n in 1usize..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pbc = PbcBox::cubic(3.0);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| vec3(rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)))
            .collect();
        let c = Clustering::build(&pbc, &pos, 1.0);
        let mut seen = vec![false; n];
        for &s in &c.slots {
            if s != mdsim::FILLER {
                prop_assert!(!seen[s as usize]);
                seen[s as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// SHAKE restores randomly perturbed rigid water to tolerance while
    /// conserving momentum.
    #[test]
    fn shake_restores_and_conserves(seed in 0u64..200, amp in 0.0005f32..0.004) {
        let mut sys = mdsim::water::water_box(8, 300.0, seed);
        let cs = ConstraintSet::rigid_water(&sys, mdsim::water::D_OH, mdsim::water::theta_hoh());
        let old = sys.pos.clone();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
        for p in &mut sys.pos {
            p.x += rng.gen_range(-amp..amp);
            p.y += rng.gen_range(-amp..amp);
            p.z += rng.gen_range(-amp..amp);
        }
        let p_before = sys.momentum();
        prop_assert!(cs.apply(&mut sys, &old, 0.002).is_some());
        prop_assert!(cs.max_violation(&sys) < 5e-3);
        prop_assert!((sys.momentum() - p_before).norm() < 1e-2);
    }

    /// Checkpoints round-trip bit-exactly for arbitrary dynamic states.
    #[test]
    fn checkpoint_roundtrip(seed in 0u64..500, n_mol in 1usize..40, step in 0u64..1_000_000) {
        let mut sys = mdsim::water::water_box(n_mol, 300.0, seed);
        // Arbitrary velocities/positions perturbation.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 77);
        for v in &mut sys.vel {
            v.x += rng.gen_range(-1.0f32..1.0);
        }
        let cp = Checkpoint::capture(&sys, step);
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        let loaded = Checkpoint::read_from(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(&loaded, &cp);
        let mut fresh = mdsim::water::water_box(n_mol, 300.0, seed);
        loaded.restore(&mut fresh).unwrap();
        for (a, b) in fresh.vel.iter().zip(&sys.vel) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
        }
    }

    /// Truncating a checkpoint stream anywhere yields an error, never a
    /// panic or a silently wrong state.
    #[test]
    fn checkpoint_truncation_is_graceful(cut in 0usize..200) {
        let sys = mdsim::water::water_box(5, 300.0, 3);
        let cp = Checkpoint::capture(&sys, 9);
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let short = &bytes[..cut];
        prop_assert!(Checkpoint::read_from(&mut &short[..]).is_err());
    }

    /// Arbitrary bytes — bare, or behind a valid checkpoint or shard
    /// header so the fields past it are reached — never panic a decoder.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        body in prop::collection::vec(any::<u8>(), 0..300),
        header in 0usize..3,
    ) {
        let frames = valid_frames(1, 1);
        let mut bytes = match header {
            0 => Vec::new(),
            h => frames[h - 1][..9].to_vec(),
        };
        bytes.extend_from_slice(&body);
        decode_everywhere(&bytes)?;
    }

    /// Every truncation of a valid frame is an error for its decoder,
    /// and no decoder panics on it.
    #[test]
    fn every_truncation_of_a_valid_frame_is_an_error(n_mol in 1usize..4, seed in 0u64..100) {
        let [cp, shard] = valid_frames(n_mol, seed);
        for cut in 0..cp.len() {
            prop_assert!(Checkpoint::read_from(&mut &cp[..cut]).is_err(), "cut {}", cut);
            prop_assert!(Checkpoint::decode_with_retry(&cp[..cut]).is_err(), "cut {}", cut);
            decode_everywhere(&cp[..cut])?;
        }
        for cut in 0..shard.len() {
            prop_assert!(RankShard::read_from(&mut &shard[..cut]).is_err(), "cut {}", cut);
            decode_everywhere(&shard[..cut])?;
        }
    }

    /// Any single flipped bit of a valid frame never panics a decoder.
    #[test]
    fn a_flipped_bit_never_panics_a_decoder(
        n_mol in 1usize..4,
        seed in 0u64..100,
        bit_pick in any::<u64>(),
    ) {
        for mut bytes in valid_frames(n_mol, seed) {
            let bit = bit_pick as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            decode_everywhere(&bytes)?;
        }
    }

    /// Space-filling-curve codes are bijective over their grid.
    #[test]
    fn curves_are_bijective(bits in 1u32..4) {
        let side = 1u32 << bits;
        let mut seen_m = std::collections::HashSet::new();
        let mut seen_h = std::collections::HashSet::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    prop_assert!(seen_m.insert(morton3(x, y, z)));
                    prop_assert!(seen_h.insert(hilbert3(x, y, z, bits)));
                }
            }
        }
        prop_assert!(seen_h.iter().all(|&h| h < (side as u64).pow(3)));
    }
}
