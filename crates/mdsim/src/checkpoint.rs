//! Checkpoint / restart: save and restore the dynamic state of a system
//! (box, positions, velocities, step counter) in a small self-describing
//! binary format. The topology is *not* stored — like GROMACS' `.cpt`,
//! a checkpoint restarts a run whose inputs you still have — but the
//! particle count and a topology fingerprint are verified on load.
//!
//! Two codecs live here, both carrying an explicit format-version byte
//! (decoded against [`FORMAT_VERSION`] with a typed
//! [`UnsupportedVersion`] error, so a future layout change is a clean
//! rejection instead of a silent misparse):
//!
//! - [`Checkpoint`] — the whole system, the unit of single-process
//!   rollback (`swgmx::recovery`, [`crate::ddrun::run_dd_md`]).
//! - [`RankShard`] — one rank's owned slice of a *coordinated* global
//!   snapshot: `(global id, position, velocity)` triples plus the epoch
//!   tag every rank agreed on at the snapshot barrier. A full
//!   generation of shards reassembles ([`assemble_shards`]) into the
//!   exact global state, which is what makes restart and elastic
//!   rank-failure recovery possible from the `swstore` chain.

use std::io::{self, Read, Write};

use crate::pbc::PbcBox;
use crate::system::System;
use crate::vec3::{vec3, Vec3};

const MAGIC: &[u8; 8] = b"SWGMXCPT";
const SHARD_MAGIC: &[u8; 8] = b"SWGMXSHD";

/// Current checkpoint/shard layout version, written right after the
/// magic. Bump on any layout change.
pub const FORMAT_VERSION: u8 = 2;

/// Typed error for a checkpoint whose format-version byte names a
/// layout this build does not speak. Reaches callers as the payload of
/// an [`io::ErrorKind::InvalidData`] error (`error.get_ref()` +
/// downcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedVersion {
    /// Version byte found in the stream.
    pub found: u8,
    /// The version this build reads and writes.
    pub supported: u8,
}

impl std::fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported checkpoint format version {} (this build supports {})",
            self.found, self.supported
        )
    }
}

impl std::error::Error for UnsupportedVersion {}

fn check_version<R: Read>(r: &mut R) -> io::Result<()> {
    let mut v = [0u8; 1];
    r.read_exact(&mut v)?;
    if v[0] != FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            UnsupportedVersion {
                found: v[0],
                supported: FORMAT_VERSION,
            },
        ));
    }
    Ok(())
}

/// Dynamic state captured by a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Step counter at capture time.
    pub step: u64,
    /// Box edges.
    pub pbc: PbcBox,
    /// Positions.
    pub pos: Vec<crate::vec3::Vec3>,
    /// Velocities.
    pub vel: Vec<crate::vec3::Vec3>,
    /// Fingerprint of the topology (type ids + charges), checked on load.
    pub fingerprint: u64,
}

/// FNV-1a over the per-particle type ids and charge bit patterns.
fn topology_fingerprint(sys: &System) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x100000001b3);
    };
    for i in 0..sys.n() {
        eat(sys.type_id[i] as u64);
        eat(sys.charge[i].to_bits() as u64);
    }
    h
}

impl Checkpoint {
    /// Capture the dynamic state of `sys` at step `step`.
    pub fn capture(sys: &System, step: u64) -> Self {
        Self {
            step,
            pbc: sys.pbc,
            pos: sys.pos.clone(),
            vel: sys.vel.clone(),
            fingerprint: topology_fingerprint(sys),
        }
    }

    /// Restore this state into `sys`. Fails if the particle count or the
    /// topology fingerprint disagrees.
    pub fn restore(&self, sys: &mut System) -> io::Result<()> {
        if self.pos.len() != sys.n() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint has {} particles, system {}",
                    self.pos.len(),
                    sys.n()
                ),
            ));
        }
        if self.fingerprint != topology_fingerprint(sys) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint topology fingerprint mismatch",
            ));
        }
        sys.pbc = self.pbc;
        sys.pos.copy_from_slice(&self.pos);
        sys.vel.copy_from_slice(&self.vel);
        sys.clear_forces();
        Ok(())
    }

    /// Serialize to a writer. Under an active fault plan the write can
    /// fail with [`io::ErrorKind::Interrupted`] *before touching the
    /// writer*; recovery drivers retry with a fresh buffer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if swfault::should(swfault::Site::IoError) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected checkpoint write fault",
            ));
        }
        w.write_all(MAGIC)?;
        w.write_all(&[FORMAT_VERSION])?;
        w.write_all(&self.step.to_le_bytes())?;
        w.write_all(&self.fingerprint.to_le_bytes())?;
        let l = self.pbc.lengths();
        for v in [l.x, l.y, l.z] {
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(&(self.pos.len() as u64).to_le_bytes())?;
        for arr in [&self.pos, &self.vel] {
            for p in arr.iter() {
                for v in [p.x, p.y, p.z] {
                    w.write_all(&v.to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// [`Checkpoint::write_to`] a fresh buffer per attempt, so a retried
    /// write is byte-identical to a first-try one: the bytes and how many
    /// attempts were retried (see [`retry_interrupted`]).
    pub fn encode_with_retry(&self) -> io::Result<(Vec<u8>, u64)> {
        retry_interrupted(|| {
            let mut buf = Vec::new();
            self.write_to(&mut buf).map(|()| buf)
        })
    }

    /// [`Checkpoint::read_from`] the start of `bytes`, retried likewise:
    /// the checkpoint and how many attempts were retried.
    pub fn decode_with_retry(bytes: &[u8]) -> io::Result<(Self, u64)> {
        retry_interrupted(|| Self::read_from(&mut &bytes[..]))
    }

    /// Deserialize from a reader. Under an active fault plan the read
    /// can fail with [`io::ErrorKind::Interrupted`] before consuming
    /// any bytes; recovery drivers retry from the start of the buffer.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        if swfault::should(swfault::Site::IoError) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected checkpoint read fault",
            ));
        }
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
        }
        check_version(r)?;
        let mut u64buf = [0u8; 8];
        let mut read_u64 = |r: &mut R| -> io::Result<u64> {
            r.read_exact(&mut u64buf)?;
            Ok(u64::from_le_bytes(u64buf))
        };
        let step = read_u64(r)?;
        let fingerprint = read_u64(r)?;
        let mut f32buf = [0u8; 4];
        let mut read_f32 = |r: &mut R| -> io::Result<f32> {
            r.read_exact(&mut f32buf)?;
            Ok(f32::from_le_bytes(f32buf))
        };
        let (lx, ly, lz) = (read_f32(r)?, read_f32(r)?, read_f32(r)?);
        if !(lx > 0.0 && ly > 0.0 && lz > 0.0) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad box"));
        }
        let mut nbuf = [0u8; 8];
        r.read_exact(&mut nbuf)?;
        let n = u64::from_le_bytes(nbuf) as usize;
        if n > 100_000_000 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "absurd size"));
        }
        let read_arr = |r: &mut R| -> io::Result<Vec<crate::vec3::Vec3>> {
            let mut out = Vec::with_capacity(n);
            let mut buf = [0u8; 4];
            for _ in 0..n {
                let mut c = [0f32; 3];
                for v in &mut c {
                    r.read_exact(&mut buf)?;
                    *v = f32::from_le_bytes(buf);
                }
                out.push(vec3(c[0], c[1], c[2]));
            }
            Ok(out)
        };
        let pos = read_arr(r)?;
        let vel = read_arr(r)?;
        Ok(Self {
            step,
            pbc: PbcBox::new(lx, ly, lz),
            pos,
            vel,
            fingerprint,
        })
    }
}

/// Run `attempt` until it stops failing with
/// [`io::ErrorKind::Interrupted`] (an injected checkpoint I/O fault), at
/// most [`swfault::retry::MAX_ATTEMPTS`] retries: the value and the
/// retries it took, each counted in `fault.retries.checkpoint`.
fn retry_interrupted<T>(mut attempt: impl FnMut() -> io::Result<T>) -> io::Result<(T, u64)> {
    let mut retries = 0;
    loop {
        match attempt() {
            Err(e)
                if e.kind() == io::ErrorKind::Interrupted
                    && retries < u64::from(swfault::retry::MAX_ATTEMPTS) =>
            {
                retries += 1;
                swprof::metrics::counter_add("fault.retries.checkpoint", 1);
            }
            done => return done.map(|value| (value, retries)),
        }
    }
}

/// One rank's slice of a coordinated global snapshot: the dynamic state
/// of exactly the particles that rank owned at the snapshot epoch,
/// keyed by global particle id.
#[derive(Debug, Clone, PartialEq)]
pub struct RankShard {
    /// Snapshot epoch all ranks agreed on at the barrier (the step the
    /// generation restores to). Stamped into every shard so a restore
    /// can prove the generation is coordinated.
    pub epoch: u64,
    /// Rank that owned these particles.
    pub rank: u32,
    /// Rank count of the decomposition that produced the generation.
    pub n_ranks: u32,
    /// Box edges at the epoch.
    pub pbc: PbcBox,
    /// Topology fingerprint (same derivation as [`Checkpoint`]).
    pub fingerprint: u64,
    /// Global particle ids owned by the rank, ascending.
    pub ids: Vec<u32>,
    /// Positions of `ids`, in order.
    pub pos: Vec<Vec3>,
    /// Velocities of `ids`, in order.
    pub vel: Vec<Vec3>,
}

impl RankShard {
    /// Capture rank `rank`'s shard of `sys` at `epoch`: the particles
    /// in `owned` (their global indices, as produced by
    /// [`crate::domain::Decomposition::partition`]).
    pub fn capture(sys: &System, epoch: u64, rank: u32, n_ranks: u32, owned: &[u32]) -> Self {
        Self {
            epoch,
            rank,
            n_ranks,
            pbc: sys.pbc,
            fingerprint: topology_fingerprint(sys),
            ids: owned.to_vec(),
            pos: owned.iter().map(|&i| sys.pos[i as usize]).collect(),
            vel: owned.iter().map(|&i| sys.vel[i as usize]).collect(),
        }
    }

    /// Serialize (versioned, same discipline as [`Checkpoint::write_to`]).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(SHARD_MAGIC)?;
        w.write_all(&[FORMAT_VERSION])?;
        w.write_all(&self.epoch.to_le_bytes())?;
        w.write_all(&self.rank.to_le_bytes())?;
        w.write_all(&self.n_ranks.to_le_bytes())?;
        w.write_all(&self.fingerprint.to_le_bytes())?;
        let l = self.pbc.lengths();
        for v in [l.x, l.y, l.z] {
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(&(self.ids.len() as u64).to_le_bytes())?;
        for id in &self.ids {
            w.write_all(&id.to_le_bytes())?;
        }
        for arr in [&self.pos, &self.vel] {
            for p in arr.iter() {
                for v in [p.x, p.y, p.z] {
                    w.write_all(&v.to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// Deserialize and structurally validate one shard.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != SHARD_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad shard magic",
            ));
        }
        check_version(r)?;
        let mut u64buf = [0u8; 8];
        let mut read_u64 = |r: &mut R| -> io::Result<u64> {
            r.read_exact(&mut u64buf)?;
            Ok(u64::from_le_bytes(u64buf))
        };
        let epoch = read_u64(r)?;
        let mut u32buf = [0u8; 4];
        let mut read_u32 = |r: &mut R| -> io::Result<u32> {
            r.read_exact(&mut u32buf)?;
            Ok(u32::from_le_bytes(u32buf))
        };
        let rank = read_u32(r)?;
        let n_ranks = read_u32(r)?;
        if n_ranks == 0 || rank >= n_ranks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard rank {rank} outside decomposition of {n_ranks}"),
            ));
        }
        let mut u64buf2 = [0u8; 8];
        r.read_exact(&mut u64buf2)?;
        let fingerprint = u64::from_le_bytes(u64buf2);
        let mut f32buf = [0u8; 4];
        let mut read_f32 = |r: &mut R| -> io::Result<f32> {
            r.read_exact(&mut f32buf)?;
            Ok(f32::from_le_bytes(f32buf))
        };
        let (lx, ly, lz) = (read_f32(r)?, read_f32(r)?, read_f32(r)?);
        if !(lx > 0.0 && ly > 0.0 && lz > 0.0) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad box"));
        }
        let mut nbuf = [0u8; 8];
        r.read_exact(&mut nbuf)?;
        let n = u64::from_le_bytes(nbuf) as usize;
        if n > 100_000_000 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "absurd size"));
        }
        let mut ids = Vec::with_capacity(n);
        let mut buf4 = [0u8; 4];
        for _ in 0..n {
            r.read_exact(&mut buf4)?;
            ids.push(u32::from_le_bytes(buf4));
        }
        let read_arr = |r: &mut R| -> io::Result<Vec<Vec3>> {
            let mut out = Vec::with_capacity(n);
            let mut buf = [0u8; 4];
            for _ in 0..n {
                let mut c = [0f32; 3];
                for v in &mut c {
                    r.read_exact(&mut buf)?;
                    *v = f32::from_le_bytes(buf);
                }
                out.push(vec3(c[0], c[1], c[2]));
            }
            Ok(out)
        };
        let pos = read_arr(r)?;
        let vel = read_arr(r)?;
        Ok(Self {
            epoch,
            rank,
            n_ranks,
            pbc: PbcBox::new(lx, ly, lz),
            fingerprint,
            ids,
            pos,
            vel,
        })
    }
}

/// Per-particle owner counts across a set of shards: `coverage[i]` is
/// how many shards claim global particle `i`. A coordinated generation
/// covers every particle exactly once — this is the raw material of the
/// `swcheck` SWC106 "no orphaned domain cells" rule.
pub fn shard_coverage(shards: &[RankShard], n_particles: usize) -> Vec<u32> {
    let mut coverage = vec![0u32; n_particles];
    for s in shards {
        for &id in &s.ids {
            if let Some(c) = coverage.get_mut(id as usize) {
                *c += 1;
            }
        }
    }
    coverage
}

/// Reassemble a full-system [`Checkpoint`] from one coordinated
/// generation of shards. Verifies the generation really is coordinated
/// (every shard tagged with the same epoch, box, fingerprint, and rank
/// count) and complete (every particle covered exactly once).
pub fn assemble_shards(shards: &[RankShard], n_particles: usize) -> io::Result<Checkpoint> {
    let first = shards
        .first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty shard set"))?;
    if shards.len() != first.n_ranks as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "generation has {} shard(s) but claims {} rank(s)",
                shards.len(),
                first.n_ranks
            ),
        ));
    }
    for s in shards {
        if s.epoch != first.epoch
            || s.fingerprint != first.fingerprint
            || s.n_ranks != first.n_ranks
            || s.pbc != first.pbc
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard for rank {} disagrees with rank {} on the snapshot \
                     identity (epoch {} vs {}): generation is not coordinated",
                    s.rank, first.rank, s.epoch, first.epoch
                ),
            ));
        }
    }
    let coverage = shard_coverage(shards, n_particles);
    if let Some(i) = coverage.iter().position(|&c| c != 1) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "particle {i} covered {} time(s) by the generation (want exactly 1)",
                coverage[i]
            ),
        ));
    }
    let mut pos = vec![Vec3::ZERO; n_particles];
    let mut vel = vec![Vec3::ZERO; n_particles];
    for s in shards {
        for (k, &id) in s.ids.iter().enumerate() {
            if id as usize >= n_particles {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard id {id} out of range for {n_particles} particles"),
                ));
            }
            pos[id as usize] = s.pos[k];
            vel[id as usize] = s.vel[k];
        }
    }
    Ok(Checkpoint {
        step: first.epoch,
        pbc: first.pbc,
        pos,
        vel,
        fingerprint: first.fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::water::water_box;

    #[test]
    fn roundtrip_preserves_state_exactly() {
        let sys = water_box(50, 300.0, 21);
        let cp = Checkpoint::capture(&sys, 1234);
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        let loaded = Checkpoint::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded, cp);
        assert_eq!(loaded.step, 1234);
    }

    #[test]
    fn restore_resumes_identical_trajectory() {
        use crate::constraints::ConstraintSet;
        use crate::integrate::leapfrog_step_constrained;
        use crate::nonbonded::{compute_forces_half, Coulomb, NbParams};
        use crate::pairlist::{ListKind, PairList};
        use crate::water::{theta_hoh, D_OH};

        let params = NbParams {
            r_cut: 0.6,
            coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
        };
        let step_n = |sys: &mut System, n: usize| {
            let cs = ConstraintSet::rigid_water(sys, D_OH, theta_hoh());
            for _ in 0..n {
                let list = PairList::build(sys, 0.6, ListKind::Half);
                sys.clear_forces();
                compute_forces_half(sys, &list, &params);
                leapfrog_step_constrained(sys, 0.002, &cs);
            }
        };

        // Run 10 steps, checkpoint, run 5 more.
        let mut a = water_box(40, 300.0, 22);
        step_n(&mut a, 10);
        let cp = Checkpoint::capture(&a, 10);
        step_n(&mut a, 5);

        // Restore into a fresh system and replay the 5 steps.
        let mut b = water_box(40, 300.0, 22);
        cp.restore(&mut b).unwrap();
        step_n(&mut b, 5);

        for (x, y) in a.pos.iter().zip(&b.pos) {
            assert_eq!(x.x.to_bits(), y.x.to_bits(), "trajectories diverged");
            assert_eq!(x.y.to_bits(), y.y.to_bits());
            assert_eq!(x.z.to_bits(), y.z.to_bits());
        }
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let a = water_box(50, 300.0, 23);
        let cp = Checkpoint::capture(&a, 0);
        // Different particle count.
        let mut b = water_box(60, 300.0, 23);
        assert!(cp.restore(&mut b).is_err());
        // Same count, different topology (LJ fluid of 150 atoms).
        let top = crate::topology::Topology::lj_fluid(150);
        let pos = vec![crate::vec3::Vec3::ZERO; 150];
        let mut c = System::from_topology(top, PbcBox::cubic(3.0), pos);
        assert!(cp.restore(&mut c).is_err());
    }

    #[test]
    fn unsupported_version_is_a_typed_error() {
        let sys = water_box(10, 300.0, 25);
        let cp = Checkpoint::capture(&sys, 3);
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        assert_eq!(bytes[8], FORMAT_VERSION);
        bytes[8] = FORMAT_VERSION + 7; // a future layout
        let err = Checkpoint::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let typed = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<UnsupportedVersion>())
            .expect("error must carry the typed UnsupportedVersion payload");
        assert_eq!(typed.found, FORMAT_VERSION + 7);
        assert_eq!(typed.supported, FORMAT_VERSION);

        // Same contract on the shard codec.
        let shard = RankShard::capture(&sys, 0, 0, 1, &(0..sys.n() as u32).collect::<Vec<_>>());
        let mut bytes = Vec::new();
        shard.write_to(&mut bytes).unwrap();
        bytes[8] = 0;
        let err = RankShard::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(err
            .get_ref()
            .and_then(|e| e.downcast_ref::<UnsupportedVersion>())
            .is_some());
    }

    #[test]
    fn shards_roundtrip_and_reassemble_bit_exactly() {
        use crate::domain::Decomposition;
        let sys = water_box(80, 300.0, 26);
        let d = Decomposition::new(sys.pbc, 4);
        let parts = d.partition(&sys.pos);
        let shards: Vec<RankShard> = parts
            .iter()
            .enumerate()
            .map(|(r, owned)| {
                let s = RankShard::capture(&sys, 120, r as u32, 4, owned);
                let mut bytes = Vec::new();
                s.write_to(&mut bytes).unwrap();
                let loaded = RankShard::read_from(&mut bytes.as_slice()).unwrap();
                assert_eq!(loaded, s);
                loaded
            })
            .collect();
        assert!(shard_coverage(&shards, sys.n()).iter().all(|&c| c == 1));
        let cp = assemble_shards(&shards, sys.n()).unwrap();
        assert_eq!(cp, Checkpoint::capture(&sys, 120));
    }

    #[test]
    fn incomplete_or_uncoordinated_generations_are_rejected() {
        use crate::domain::Decomposition;
        let sys = water_box(40, 300.0, 27);
        let d = Decomposition::new(sys.pbc, 2);
        let parts = d.partition(&sys.pos);
        let mut shards: Vec<RankShard> = parts
            .iter()
            .enumerate()
            .map(|(r, owned)| RankShard::capture(&sys, 50, r as u32, 2, owned))
            .collect();
        // Missing shard: coverage gap.
        assert!(assemble_shards(&shards[..1], sys.n()).is_err());
        // Epoch disagreement: not a coordinated snapshot.
        shards[1].epoch = 60;
        let err = assemble_shards(&shards, sys.n()).unwrap_err();
        assert!(err.to_string().contains("not coordinated"), "{err}");
    }

    #[test]
    fn corrupted_stream_is_rejected() {
        let sys = water_box(10, 300.0, 24);
        let cp = Checkpoint::capture(&sys, 7);
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::read_from(&mut bad.as_slice()).is_err());
        // Truncated.
        let short = &bytes[..bytes.len() / 2];
        assert!(Checkpoint::read_from(&mut &short[..]).is_err());
    }
}
