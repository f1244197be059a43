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

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Largest element count a header may claim.
const MAX_ELEMENTS: usize = 100_000_000;

/// Elements reserved ahead of the bytes that prove them: a header's
/// count is a claim, so an array grows as its payload actually arrives.
const RESERVE_AHEAD: usize = 1 << 16;

/// Little-endian field writer of both codecs. A frame is built in memory
/// and handed to the writer whole.
struct Enc(Vec<u8>);

impl Enc {
    /// A frame of `n` elements (ids, positions, velocities).
    fn new(magic: &[u8; 8], n: usize) -> Self {
        let mut frame = Vec::with_capacity(64 + 28 * n);
        frame.extend_from_slice(magic);
        frame.push(FORMAT_VERSION);
        Self(frame)
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn vec3(&mut self, v: Vec3) {
        for c in [v.x, v.y, v.z] {
            self.0.extend_from_slice(&c.to_le_bytes());
        }
    }
}

/// Little-endian field reader of both codecs.
struct Dec<'r, R>(&'r mut R);

impl<'r, R: Read> Dec<'r, R> {
    /// Check the magic and the format-version byte.
    fn open(r: &'r mut R, magic: &[u8; 8], bad_magic: &'static str) -> io::Result<Self> {
        let mut dec = Self(r);
        if &dec.bytes::<8>()? != magic {
            return Err(invalid(bad_magic));
        }
        let [found] = dec.bytes::<1>()?;
        if found != FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                UnsupportedVersion {
                    found,
                    supported: FORMAT_VERSION,
                },
            ));
        }
        Ok(dec)
    }

    fn bytes<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.0.read_exact(&mut b)?;
        Ok(b)
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.bytes().map(u64::from_le_bytes)
    }

    fn vec3(&mut self) -> io::Result<Vec3> {
        let mut c = [0f32; 3];
        for v in &mut c {
            *v = f32::from_le_bytes(self.bytes()?);
        }
        Ok(vec3(c[0], c[1], c[2]))
    }

    fn pbc(&mut self) -> io::Result<PbcBox> {
        let l = self.vec3()?;
        if !(l.x > 0.0 && l.y > 0.0 && l.z > 0.0) {
            return Err(invalid("bad box"));
        }
        Ok(PbcBox::new(l.x, l.y, l.z))
    }

    /// An element count, bounded before anything is sized from it.
    fn count(&mut self) -> io::Result<usize> {
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= MAX_ELEMENTS => Ok(n),
            _ => Err(invalid("absurd size")),
        }
    }

    /// `n` elements. A stream that ends inside them lied about `n`.
    fn array<T>(
        &mut self,
        n: usize,
        item: impl Fn(&mut Self) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        let mut out = Vec::with_capacity(n.min(RESERVE_AHEAD));
        for _ in 0..n {
            out.push(item(self).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => invalid("element count exceeds the payload"),
                _ => e,
            })?);
        }
        Ok(out)
    }
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
        let mut enc = Enc::new(MAGIC, self.pos.len());
        enc.u64(self.step);
        enc.u64(self.fingerprint);
        enc.vec3(self.pbc.lengths());
        enc.u64(self.pos.len() as u64);
        for &v in self.pos.iter().chain(&self.vel) {
            enc.vec3(v);
        }
        w.write_all(&enc.0)
    }

    /// [`Checkpoint::write_to`] a fresh buffer per attempt, so a retried
    /// write is byte-identical to a first-try one: the bytes and how many
    /// attempts were retried (see [`retrying`]).
    pub fn encode_with_retry(&self) -> io::Result<(Vec<u8>, u64)> {
        retrying(|| {
            let mut buf = Vec::new();
            self.write_to(&mut buf).map(|()| buf)
        })
    }

    /// [`Checkpoint::read_from`] the start of `bytes`, retried likewise:
    /// the checkpoint and how many attempts were retried.
    pub fn decode_with_retry(bytes: &[u8]) -> io::Result<(Self, u64)> {
        retrying(|| Self::read_from(&mut &bytes[..]))
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
        let mut dec = Dec::open(r, MAGIC, "bad magic")?;
        let step = dec.u64()?;
        let fingerprint = dec.u64()?;
        let pbc = dec.pbc()?;
        let n = dec.count()?;
        Ok(Self {
            step,
            pbc,
            pos: dec.array(n, Dec::vec3)?,
            vel: dec.array(n, Dec::vec3)?,
            fingerprint,
        })
    }
}

/// [`swfault::retry::interrupted`] over injected checkpoint I/O faults,
/// each retry counted in `fault.retries.checkpoint`.
fn retrying<T>(attempt: impl FnMut() -> io::Result<T>) -> io::Result<(T, u64)> {
    let counted = |_| swprof::metrics::counter_add("fault.retries.checkpoint", 1);
    swfault::retry::interrupted(attempt, counted).map(|(value, retries)| (value, retries.into()))
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
        let mut enc = Enc::new(SHARD_MAGIC, self.ids.len());
        enc.u64(self.epoch);
        enc.u32(self.rank);
        enc.u32(self.n_ranks);
        enc.u64(self.fingerprint);
        enc.vec3(self.pbc.lengths());
        enc.u64(self.ids.len() as u64);
        for &id in &self.ids {
            enc.u32(id);
        }
        for &v in self.pos.iter().chain(&self.vel) {
            enc.vec3(v);
        }
        w.write_all(&enc.0)
    }

    /// Deserialize and structurally validate one shard.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut dec = Dec::open(r, SHARD_MAGIC, "bad shard magic")?;
        let epoch = dec.u64()?;
        let rank = dec.u32()?;
        let n_ranks = dec.u32()?;
        if n_ranks == 0 || rank >= n_ranks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard rank {rank} outside decomposition of {n_ranks}"),
            ));
        }
        let fingerprint = dec.u64()?;
        let pbc = dec.pbc()?;
        let n = dec.count()?;
        Ok(Self {
            epoch,
            rank,
            n_ranks,
            pbc,
            fingerprint,
            ids: dec.array(n, Dec::u32)?,
            pos: dec.array(n, Dec::vec3)?,
            vel: dec.array(n, Dec::vec3)?,
        })
    }
}

/// Per-particle owner counts across a set of shards: `coverage[i]` is
/// how many shards claim global particle `i`. A coordinated generation
/// covers every particle exactly once — this is the raw material of the
/// `swcheck` SWC106 "no orphaned domain cells" rule.
fn shard_coverage(shards: &[RankShard], n_particles: usize) -> Vec<u32> {
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

    fn golden_pair() -> (Checkpoint, RankShard) {
        let pos = vec![vec3(0.25, -1.5, 3.0), vec3(1.0e-3, 2.0, -0.0)];
        let vel = vec![vec3(-0.125, 0.5, 7.0), vec3(f32::MIN_POSITIVE, 1.0, -2.5)];
        let cp = Checkpoint {
            step: 0x0102_0304_0506_0708,
            pbc: PbcBox::new(1.5, 2.5, 3.5),
            pos: pos.clone(),
            vel: vel.clone(),
            fingerprint: 0xfeed_face_cafe_beef,
        };
        let shard = RankShard {
            epoch: 40,
            rank: 1,
            n_ranks: 3,
            pbc: cp.pbc,
            fingerprint: cp.fingerprint,
            ids: vec![7, 0x0a0b_0c0d],
            pos,
            vel,
        };
        (cp, shard)
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn on_disk_bytes_are_golden() {
        // Recorded from the commit before the two codecs shared their
        // field readers and writers.
        let (cp, shard) = golden_pair();
        let cp_gold = unhex(
            "5357474d58435054020807060504030201efbefecacefaedfe0000c03f00002040000060\
             4002000000000000000000803e0000c0bf000040406f12833a0000004000000080000000\
             be0000003f0000e040000080000000803f000020c0",
        );
        let shard_gold = unhex(
            "5357474d585348440228000000000000000100000003000000efbefecacefaedfe0000c0\
             3f00002040000060400200000000000000070000000d0c0b0a0000803e0000c0bf000040\
             406f12833a0000004000000080000000be0000003f0000e040000080000000803f000020\
             c0",
        );
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        assert_eq!(bytes, cp_gold);
        assert_eq!(Checkpoint::read_from(&mut &cp_gold[..]).unwrap(), cp);
        let mut bytes = Vec::new();
        shard.write_to(&mut bytes).unwrap();
        assert_eq!(bytes, shard_gold);
        assert_eq!(RankShard::read_from(&mut &shard_gold[..]).unwrap(), shard);
    }

    #[test]
    fn a_hostile_length_cannot_size_an_allocation() {
        // 45 bytes of valid header claiming the largest admitted count
        // (2.4 GB of arrays), then nothing: the decoders must fail on
        // the missing payload, not reserve for the claim.
        let (cp, shard) = golden_pair();
        let mut frame = Vec::new();
        cp.write_to(&mut frame).unwrap();
        frame.truncate(45);
        frame[37..45].copy_from_slice(&(MAX_ELEMENTS as u64).to_le_bytes());
        let err = Checkpoint::read_from(&mut &frame[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mut frame = Vec::new();
        shard.write_to(&mut frame).unwrap();
        frame.truncate(53);
        frame[45..53].copy_from_slice(&(MAX_ELEMENTS as u64).to_le_bytes());
        let err = RankShard::read_from(&mut &frame[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // One past the bound is refused outright.
        frame[45..53].copy_from_slice(&(MAX_ELEMENTS as u64 + 1).to_le_bytes());
        let err = RankShard::read_from(&mut &frame[..]).unwrap_err();
        assert_eq!(err.to_string(), "absurd size");
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
