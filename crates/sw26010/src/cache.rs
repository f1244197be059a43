//! LDM-resident software caches (paper §3.1 read cache, §3.2 deferred
//! update, §3.3 Bit-Map marks, §3.5 two-way associativity).
//!
//! SW26010 CPEs have no hardware cache over main memory, so SW_GROMACS
//! builds its own in LDM. Addresses here are *element indices*: the cached
//! unit is an element of `elem_words` f32 words (a particle package, a
//! force package, ...), grouped into lines of `line_elems` elements. A
//! line is the DMA transfer unit; with 8 packages of ~100 B each, one line
//! is ~800 B, which per Table 2 runs near peak DMA bandwidth.
//!
//! Index decomposition follows Fig. 3 / Alg. 3: with `line_elems = 2^m`
//! and `n_sets = 2^n`,
//! `offset = idx & (2^m - 1)`, `set = (idx >> m) & (2^n - 1)`,
//! `tag = idx >> (m + n)`.

use crate::bitmap::BitMap;
use crate::dma::{Dir, DmaEngine, SharedPrice};
use crate::perf::PerfCounters;

/// Hit/miss statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that required a line fill.
    pub misses: u64,
    /// Valid lines displaced by a conflicting fill.
    pub evictions: u64,
    /// Dirty-line writebacks (write cache only).
    pub writebacks: u64,
    /// Line fills skipped because the Bit-Map proved the line all-zero.
    pub init_skips: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1], or `None` for an untouched cache — a cold
    /// cache has no meaningful ratio, and reporting `0.0` would read as a
    /// perfect hit rate.
    pub fn miss_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.misses as f64 / total as f64)
        }
    }
}

/// Geometry shared by both cache kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets (power of two).
    pub n_sets: usize,
    /// Associativity: 1 (direct-mapped, Fig. 3/4) or 2 (§3.5).
    pub ways: usize,
    /// Elements per line (power of two; paper: 8 particle packages).
    pub line_elems: usize,
    /// f32 words per element.
    pub elem_words: usize,
}

impl CacheGeometry {
    /// Validated constructor; panics on bad input. The bit-twiddling
    /// index decomposition (Fig. 3 / Alg. 3) needs power-of-two set
    /// counts and line sizes, and the paper's caches are 1- or 2-way.
    /// Every geometry is a constant of the code, never outside input.
    pub fn new(n_sets: usize, ways: usize, line_elems: usize, elem_words: usize) -> Self {
        assert!(
            n_sets.is_power_of_two(),
            "invalid cache geometry: n_sets must be a power of two, got {n_sets}"
        );
        assert!(
            line_elems.is_power_of_two(),
            "invalid cache geometry: line_elems must be a power of two, got {line_elems}"
        );
        assert!(
            ways == 1 || ways == 2,
            "invalid cache geometry: only 1- and 2-way associativity supported, got {ways}"
        );
        assert!(
            elem_words > 0,
            "invalid cache geometry: elem_words must be at least 1"
        );
        Self {
            n_sets,
            ways,
            line_elems,
            elem_words,
        }
    }

    /// The paper's default read/write cache geometry: 32 sets x 8 packages
    /// (Fig. 3: 5-bit index, 3-bit offset), direct-mapped.
    pub fn paper_default(elem_words: usize) -> Self {
        Self::new(32, 1, 8, elem_words)
    }

    #[inline]
    fn m(&self) -> u32 {
        self.line_elems.trailing_zeros()
    }

    #[inline]
    fn n(&self) -> u32 {
        self.n_sets.trailing_zeros()
    }

    /// Decompose an element index into `(tag, set, offset)` via bit ops.
    #[inline]
    pub fn decompose(&self, idx: usize) -> (usize, usize, usize) {
        let offset = idx & (self.line_elems - 1);
        let set = (idx >> self.m()) & (self.n_sets - 1);
        let tag = idx >> (self.m() + self.n());
        (tag, set, offset)
    }

    /// First element index of the backing line containing `idx`
    /// (Alg. 3 `Cache_Begin = I >> m` in element terms).
    #[inline]
    fn line_base(&self, idx: usize) -> usize {
        (idx >> self.m()) << self.m()
    }

    /// Backing-line number containing element `idx`.
    #[inline]
    fn line_number(&self, idx: usize) -> usize {
        idx >> self.m()
    }

    /// f32 words per line.
    pub fn line_words(&self) -> usize {
        self.line_elems * self.elem_words
    }

    /// Bytes per line (the DMA transfer size).
    pub fn line_bytes(&self) -> usize {
        self.line_words() * 4
    }

    /// LDM bytes for data + tags of a cache with this geometry.
    pub fn ldm_bytes(&self) -> usize {
        self.n_sets * self.ways * self.line_bytes() + self.n_sets * self.ways * 8
    }
}

const INVALID: i64 = -1;

/// Read-only software cache over a backing f32 slice (§3.1, Fig. 3).
///
/// The host storage is built at first use: the tags and LRU bits at the
/// first miss, the line words at the first fill by [`ReadCache::get`].
/// A simulated CPE that never reads through its cache allocates nothing.
#[derive(Debug, Clone)]
pub struct ReadCache {
    geo: CacheGeometry,
    /// Empty until the first miss: every way invalid.
    tags: Vec<i64>,
    /// Per-set LRU bit for 2-way: index of the way to evict next.
    lru: Vec<u8>,
    /// Empty until the first fill by `get`; a cache only ever touched
    /// holds no words.
    data: Vec<f32>,
    /// Price of one line fill, misaligned and aligned, once a miss has
    /// asked for it.
    fill_price: [Option<SharedPrice>; 2],
    /// Backing-line number of the latest access and the first word of the
    /// slot it sits in. That line is always resident, and in a 2-way set
    /// it is already the one to keep.
    latest: (usize, usize),
    stats: CacheStats,
    trace_id: u64,
    binding: Option<crate::trace::Binding>,
}

impl ReadCache {
    /// A cold cache with the given geometry.
    pub fn new(geo: CacheGeometry) -> Self {
        Self {
            geo,
            tags: Vec::new(),
            lru: Vec::new(),
            data: Vec::new(),
            fill_price: [None; 2],
            latest: (usize::MAX, 0),
            stats: CacheStats::default(),
            trace_id: crate::trace::next_id(),
            binding: None,
        }
    }

    /// Cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geo
    }

    /// Process-unique trace id of this cache instance.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Declare where the backing array sits in the traced address space:
    /// its element 0 is word `base_words` of `region`. Line fills are
    /// then emitted as addressed DMA (same cost; alignment derived from
    /// the address).
    pub fn bind_region(&mut self, region: crate::trace::RegionId, base_words: usize) {
        self.binding = Some(crate::trace::Binding { region, base_words });
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// LDM footprint of this cache.
    pub fn ldm_bytes(&self) -> usize {
        self.geo.ldm_bytes()
    }

    /// Fetch element `idx`, filling the line by DMA on a miss. Returns the
    /// element's words. `backing` is the main-memory array the cache sits
    /// over, as flat f32 words with `elem_words` per element.
    pub fn get<'a>(
        &'a mut self,
        perf: &mut PerfCounters,
        backing: &[f32],
        idx: usize,
    ) -> &'a [f32] {
        let (slot, filled) = self.access(perf, idx);
        let lw = self.geo.line_words();
        if filled {
            if self.data.is_empty() {
                let first_access = self.stats.hits + self.stats.misses == 1;
                debug_assert!(first_access, "a touched cache holds no words to get");
                self.data = vec![0.0; self.geo.n_sets * self.geo.ways * lw];
            }
            let word_base = self.geo.line_base(idx) * self.geo.elem_words;
            let src_end = (word_base + lw).min(backing.len());
            let n = src_end.saturating_sub(word_base);
            let line = &mut self.data[slot..slot + lw];
            line[..n].copy_from_slice(&backing[word_base..src_end]);
            // A line straddling the end of the backing array is zero-filled.
            line[n..].fill(0.0);
        }
        let base = slot + self.geo.decompose(idx).2 * self.geo.elem_words;
        &self.data[base..base + self.geo.elem_words]
    }

    /// Charge an access to element `idx` — the lookup, LRU update,
    /// statistics and line-fill DMA of [`ReadCache::get`] — without
    /// copying any words. A cache is read either through `touch` (the
    /// cost of a walk whose data the caller has already) or through
    /// `get`, never both.
    pub fn touch(&mut self, perf: &mut PerfCounters, idx: usize) {
        debug_assert!(self.data.is_empty(), "a touch would leave got words stale");
        self.access(perf, idx);
    }

    /// The one lookup path: returns the first word of the slot holding
    /// `idx`'s line and whether this access filled it.
    fn access(&mut self, perf: &mut PerfCounters, idx: usize) -> (usize, bool) {
        let line = self.geo.line_number(idx);
        // A run of accesses to one line (neighbors have nearby indices)
        // hits without probing: nothing about the set changes.
        if line == self.latest.0 {
            self.stats.hits += 1;
            return (self.latest.1, false);
        }
        let (tag, set, _) = self.geo.decompose(idx);
        let (way, filled) = self.lookup_or_fill(perf, tag, set, idx);
        let slot = (set * self.geo.ways + way) * self.geo.line_words();
        self.latest = (line, slot);
        (slot, filled)
    }

    fn lookup_or_fill(
        &mut self,
        perf: &mut PerfCounters,
        tag: usize,
        set: usize,
        idx: usize,
    ) -> (usize, bool) {
        if self.tags.is_empty() {
            self.tags = vec![INVALID; self.geo.n_sets * self.geo.ways];
            self.lru = vec![0; self.geo.n_sets];
        }
        // Probe all ways.
        for way in 0..self.geo.ways {
            if self.tags[set * self.geo.ways + way] == tag as i64 {
                self.stats.hits += 1;
                if self.geo.ways == 2 {
                    self.lru[set] = (way ^ 1) as u8; // other way is next victim
                }
                return (way, false);
            }
        }
        // Miss: pick victim, DMA the line in.
        self.stats.misses += 1;
        let victim = if self.geo.ways == 1 {
            0
        } else {
            let v = self.lru[set] as usize;
            self.lru[set] = (v ^ 1) as u8;
            v
        };
        if self.tags[set * self.geo.ways + victim] != INVALID {
            self.stats.evictions += 1;
        }
        let word_base = self.geo.line_base(idx) * self.geo.elem_words;
        let at = self
            .binding
            .map(|b| (b.region, (b.base_words + word_base) * 4));
        let aligned = at.is_none_or(|(_, byte_off)| DmaEngine::is_aligned(byte_off));
        let line_bytes = self.geo.line_bytes();
        let price = *self.fill_price[aligned as usize]
            .get_or_insert_with(|| DmaEngine::price_shared(line_bytes, aligned));
        DmaEngine::transfer_shared_priced(perf, Dir::Get, at, price);
        self.tags[set * self.geo.ways + victim] = tag as i64;
        (victim, true)
    }
}

impl Drop for ReadCache {
    /// Fold this instance's lifetime statistics into the swprof registry
    /// (aggregation at drop keeps the per-access fast path lock-free).
    fn drop(&mut self) {
        swprof::metrics::counter_add("cache.read.hits", self.stats.hits);
        swprof::metrics::counter_add("cache.read.misses", self.stats.misses);
        swprof::metrics::counter_add("cache.read.evictions", self.stats.evictions);
    }
}

/// Write-back accumulator cache implementing deferred update (§3.2,
/// Fig. 4 / Alg. 3) with optional Bit-Map marks (§3.3).
///
/// `update` accumulates a delta into the cached copy of an element; dirty
/// lines are written back (added is NOT needed — each CPE owns its copy,
/// so writeback is a plain store) on eviction or [`WriteCache::flush`].
///
/// With marks enabled, the backing copy needs **no zero-initialization**:
/// a line whose mark bit is clear is known to be all-zero in the copy, so
/// a miss on it installs a zero line instead of a DMA fetch (Alg. 3 line
/// 14-16), and the reduction can skip it entirely (Alg. 4).
///
/// Like the read cache, its tags and line words are built at the first
/// miss; until then every set is invalid and a flush moves nothing.
#[derive(Debug, Clone)]
pub struct WriteCache {
    geo: CacheGeometry,
    /// Empty until the first miss: every set invalid.
    tags: Vec<i64>,
    data: Vec<f32>,
    marks: Option<BitMap>,
    stats: CacheStats,
    trace_id: u64,
    binding: Option<crate::trace::Binding>,
}

impl WriteCache {
    /// Plain deferred-update cache (the paper's "Cache" version); panics
    /// on a non-direct-mapped geometry. The backing copy must be
    /// zero-initialized by the caller.
    pub fn new(geo: CacheGeometry) -> Self {
        assert!(
            geo.ways == 1,
            "invalid write cache: the paper's write cache is direct-mapped, got {}-way geometry",
            geo.ways
        );
        Self {
            geo,
            tags: Vec::new(),
            data: Vec::new(),
            marks: None,
            stats: CacheStats::default(),
            trace_id: crate::trace::next_id(),
            binding: None,
        }
    }

    /// Deferred-update cache with Bit-Map marks over a backing copy of
    /// `backing_elems` elements (the paper's "Mark" version); panics on
    /// a non-direct-mapped geometry.
    pub fn with_marks(geo: CacheGeometry, backing_elems: usize) -> Self {
        let mut c = Self::new(geo);
        c.marks = Some(BitMap::new(backing_elems.div_ceil(geo.line_elems)));
        c
    }

    /// Cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geo
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The mark bitmap, if marks are enabled.
    pub fn marks(&self) -> Option<&BitMap> {
        self.marks.as_ref()
    }

    /// Move the mark bitmap out (the reduction's input, Alg. 4); the
    /// cache keeps none afterwards.
    pub fn take_marks(&mut self) -> Option<BitMap> {
        self.marks.take()
    }

    /// Process-unique trace id of this cache instance.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Declare where the backing copy sits in the traced address space:
    /// its element 0 is word `base_words` of `region`. Fetches and
    /// writebacks are then emitted as addressed DMA, which lets the
    /// `swcheck` race detector prove the per-CPE copies disjoint.
    pub fn bind_region(&mut self, region: crate::trace::RegionId, base_words: usize) {
        self.binding = Some(crate::trace::Binding { region, base_words });
    }

    /// Backing line numbers of all currently resident (dirty) lines.
    /// Every resident line is dirty by construction — the cache only
    /// holds unflushed accumulations.
    pub fn dirty_lines(&self) -> Vec<usize> {
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_, &tag)| tag >= 0)
            .map(|(set, &tag)| ((tag as usize) << self.geo.n()) | set)
            .collect()
    }

    /// LDM footprint (data + tags + marks).
    pub fn ldm_bytes(&self) -> usize {
        self.geo.ldm_bytes() + self.marks.as_ref().map_or(0, BitMap::ldm_bytes)
    }

    /// Accumulate `delta` (one element, `elem_words` long) into element
    /// `idx` of the backing copy, through the cache.
    pub fn update(
        &mut self,
        perf: &mut PerfCounters,
        backing: &mut [f32],
        idx: usize,
        delta: &[f32],
    ) {
        debug_assert_eq!(delta.len(), self.geo.elem_words);
        let (tag, set, offset) = self.geo.decompose(idx);
        if self.tags.get(set) != Some(&(tag as i64)) {
            self.miss(perf, backing, tag, set, idx);
        } else {
            self.stats.hits += 1;
        }
        let base = set * self.geo.line_words() + offset * self.geo.elem_words;
        for (d, v) in self.data[base..base + delta.len()].iter_mut().zip(delta) {
            *d += v;
        }
    }

    fn miss(
        &mut self,
        perf: &mut PerfCounters,
        backing: &mut [f32],
        tag: usize,
        set: usize,
        idx: usize,
    ) {
        self.stats.misses += 1;
        if self.tags.is_empty() {
            self.tags = vec![INVALID; self.geo.n_sets];
            self.data = vec![0.0; self.geo.n_sets * self.geo.line_words()];
        }
        // Evict current occupant if valid (Alg. 3 line 8-10).
        if self.tags[set] >= 0 {
            self.stats.evictions += 1;
            self.writeback_set(perf, backing, set);
        }
        let line_no = self.geo.line_number(idx);
        let trace_id = self.trace_id;
        let fetch = match &mut self.marks {
            Some(marks) => {
                if marks.get(line_no) {
                    true // previously updated: must fetch current copy value
                } else {
                    marks.set_owned(line_no, trace_id);
                    false // known zero: just init LDM line (Alg. 3 line 14-16)
                }
            }
            None => true,
        };
        let lw = self.geo.line_words();
        let range = set * lw..(set + 1) * lw;
        if fetch {
            let word_base = self.geo.line_base(idx) * self.geo.elem_words;
            match self.binding {
                Some(b) => DmaEngine::transfer_shared_at(
                    perf,
                    Dir::Get,
                    b.region,
                    (b.base_words + word_base) * 4,
                    self.geo.line_bytes(),
                ),
                None => DmaEngine::transfer_shared(perf, Dir::Get, self.geo.line_bytes(), true),
            }
            let src_end = (word_base + lw).min(backing.len());
            let n = src_end.saturating_sub(word_base);
            self.data[range.clone()][..n].copy_from_slice(&backing[word_base..src_end]);
            self.data[range][n..].fill(0.0);
        } else {
            self.stats.init_skips += 1;
            self.data[range].fill(0.0);
        }
        self.tags[set] = tag as i64;
    }

    fn writeback_set(&mut self, perf: &mut PerfCounters, backing: &mut [f32], set: usize) {
        let tag = self.tags[set];
        debug_assert!(tag >= 0);
        self.stats.writebacks += 1;
        // Reconstruct the backing element index: idx = ((tag << n) | set) << m.
        let line_elem_base = (((tag as usize) << self.geo.n()) | set) << self.geo.m();
        let word_base = line_elem_base * self.geo.elem_words;
        match self.binding {
            Some(b) => DmaEngine::transfer_shared_at(
                perf,
                Dir::Put,
                b.region,
                (b.base_words + word_base) * 4,
                self.geo.line_bytes(),
            ),
            None => DmaEngine::transfer_shared(perf, Dir::Put, self.geo.line_bytes(), true),
        }
        let lw = self.geo.line_words();
        let dst_end = (word_base + lw).min(backing.len());
        let n = dst_end.saturating_sub(word_base);
        let src = set * lw..set * lw + n;
        backing[word_base..dst_end].copy_from_slice(&self.data[src]);
    }

    /// Write all valid lines back to the backing copy and invalidate.
    pub fn flush(&mut self, perf: &mut PerfCounters, backing: &mut [f32]) {
        for set in 0..self.tags.len() {
            if self.tags[set] >= 0 {
                self.writeback_set(perf, backing, set);
                self.tags[set] = INVALID;
            }
        }
    }
}

impl Drop for WriteCache {
    /// Accumulations still resident at drop never reach the backing copy
    /// — a kernel that forgets to flush silently loses forces. Report
    /// the leak to the trace sink (invariant SWC102) when a checker
    /// session is capturing; a flushed cache emits nothing.
    fn drop(&mut self) {
        if crate::trace::enabled() {
            let lines = self.dirty_lines();
            if !lines.is_empty() {
                crate::trace::emit_wc_drop_dirty(self.trace_id, lines);
            }
        }
        swprof::metrics::counter_add("cache.write.hits", self.stats.hits);
        swprof::metrics::counter_add("cache.write.misses", self.stats.misses);
        swprof::metrics::counter_add("cache.write.evictions", self.stats.evictions);
        swprof::metrics::counter_add("cache.write.writebacks", self.stats.writebacks);
        swprof::metrics::counter_add("cache.write.init_skips", self.stats.init_skips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> CacheGeometry {
        CacheGeometry::new(4, 1, 4, 2) // 4 sets, direct, 4 elems/line, 2 words/elem
    }

    fn backing(n_elems: usize) -> Vec<f32> {
        (0..n_elems * 2).map(|i| i as f32).collect()
    }

    #[test]
    fn decompose_matches_bit_ops() {
        let g = geo();
        // idx = 27 = 0b11011: offset = 3, set = 0b10 = 2, tag = 0b1 = 1.
        assert_eq!(g.decompose(27), (1, 2, 3));
        assert_eq!(g.line_base(27), 24);
        assert_eq!(g.line_number(27), 6);
    }

    #[test]
    fn paper_default_geometry_matches_fig3() {
        // Fig. 3: 5-bit index (32 lines), 3-bit offset (8 packages).
        let g = CacheGeometry::paper_default(20);
        assert_eq!(g.n_sets, 32);
        assert_eq!(g.line_elems, 8);
        let (tag, set, off) = g.decompose((7 << 8) | (9 << 3) | 5);
        assert_eq!((tag, set, off), (7, 9, 5));
    }

    #[test]
    fn read_cache_returns_correct_data() {
        let g = geo();
        let mem = backing(64);
        let mut c = ReadCache::new(g);
        let mut p = PerfCounters::new();
        for idx in [0, 1, 17, 63, 0, 17] {
            let got = c.get(&mut p, &mem, idx).to_vec();
            assert_eq!(got, &mem[idx * 2..idx * 2 + 2], "idx {idx}");
        }
    }

    #[test]
    fn read_cache_sequential_access_hits() {
        let g = geo();
        let mem = backing(16);
        let mut c = ReadCache::new(g);
        let mut p = PerfCounters::new();
        for idx in 0..16 {
            c.get(&mut p, &mem, idx);
        }
        // 16 elements / 4 per line = 4 compulsory misses, 12 hits.
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.stats().hits, 12);
        assert_eq!(p.dma_transactions, 4);
    }

    #[test]
    fn direct_mapped_thrashes_on_conflicting_strides() {
        // Two addresses mapping to the same set alternate -> 100% misses
        // direct-mapped, but 2-way keeps both resident (§3.5 motivation).
        let g1 = CacheGeometry::new(4, 1, 4, 1);
        let g2 = CacheGeometry::new(4, 2, 4, 1);
        let mem: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let (a, b) = (0usize, 16usize); // same set 0, different tags
        let mut direct = ReadCache::new(g1);
        let mut assoc = ReadCache::new(g2);
        let mut p = PerfCounters::new();
        for _ in 0..10 {
            direct.get(&mut p, &mem, a);
            direct.get(&mut p, &mem, b);
            assoc.get(&mut p, &mem, a);
            assoc.get(&mut p, &mem, b);
        }
        assert_eq!(direct.stats().misses, 20, "direct-mapped thrashes");
        assert_eq!(assoc.stats().misses, 2, "2-way holds both lines");
    }

    #[test]
    fn two_way_lru_evicts_least_recent() {
        let g = CacheGeometry::new(1, 2, 1, 1);
        let mem: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut c = ReadCache::new(g);
        let mut p = PerfCounters::new();
        c.get(&mut p, &mem, 0); // miss, way0
        c.get(&mut p, &mem, 1); // miss, way1
        c.get(&mut p, &mem, 0); // hit -> way1 is LRU
        c.get(&mut p, &mem, 2); // miss, evicts way1 (addr 1)
        assert_eq!(c.get(&mut p, &mem, 0)[0], 0.0); // still a hit
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn write_cache_accumulates_and_flushes() {
        let g = geo();
        let mut copy = vec![0.0f32; 64 * 2];
        let mut c = WriteCache::new(g);
        let mut p = PerfCounters::new();
        c.update(&mut p, &mut copy, 5, &[1.0, 2.0]);
        c.update(&mut p, &mut copy, 5, &[0.5, 0.5]);
        c.update(&mut p, &mut copy, 40, &[3.0, 3.0]);
        c.flush(&mut p, &mut copy);
        assert_eq!(&copy[10..12], &[1.5, 2.5]);
        assert_eq!(&copy[80..82], &[3.0, 3.0]);
    }

    #[test]
    fn write_cache_eviction_preserves_accumulation() {
        // Elements 0 and 16 share set 0 (4 sets x 4 elems = 16 elems span).
        let g = geo();
        let mut copy = vec![0.0f32; 64 * 2];
        let mut c = WriteCache::new(g);
        let mut p = PerfCounters::new();
        for _ in 0..3 {
            c.update(&mut p, &mut copy, 0, &[1.0, 0.0]);
            c.update(&mut p, &mut copy, 16, &[0.0, 1.0]);
        }
        c.flush(&mut p, &mut copy);
        assert_eq!(copy[0], 3.0);
        assert_eq!(copy[33], 3.0);
    }

    #[test]
    fn marks_skip_fetch_for_untouched_lines() {
        let g = geo();
        // Backing deliberately NOT zero-initialized: marks make init needless,
        // but only lines actually touched may be read afterwards.
        let mut copy = vec![f32::NAN; 64 * 2];
        let mut c = WriteCache::with_marks(g, 64);
        let mut p = PerfCounters::new();
        c.update(&mut p, &mut copy, 3, &[7.0, 7.0]);
        assert_eq!(c.stats().init_skips, 1);
        assert_eq!(p.dma_transactions, 0, "first touch needs no fetch");
        // Evict line 0 by touching conflicting line, then return.
        c.update(&mut p, &mut copy, 16, &[1.0, 1.0]);
        c.update(&mut p, &mut copy, 3, &[1.0, 1.0]);
        c.flush(&mut p, &mut copy);
        assert_eq!(&copy[6..8], &[8.0, 8.0]);
        let marks = c.marks().unwrap();
        assert!(marks.get(0) && marks.get(4));
        assert_eq!(marks.count_ones(), 2);
    }

    #[test]
    fn marked_equals_unmarked_on_zeroed_backing() {
        // With a zero-initialized backing, mark and no-mark variants must
        // produce identical final copies.
        let g = geo();
        let updates: Vec<(usize, [f32; 2])> = (0..200)
            .map(|i| ((i * 7) % 60, [i as f32, (i % 5) as f32]))
            .collect();
        let mut a = vec![0.0f32; 64 * 2];
        let mut b = vec![0.0f32; 64 * 2];
        let mut ca = WriteCache::new(g);
        let mut cb = WriteCache::with_marks(g, 64);
        let mut p = PerfCounters::new();
        for (idx, d) in &updates {
            ca.update(&mut p, &mut a, *idx, d);
            cb.update(&mut p, &mut b, *idx, d);
        }
        let mut pa = PerfCounters::new();
        let mut pb = PerfCounters::new();
        ca.flush(&mut pa, &mut a);
        cb.flush(&mut pb, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn each_bad_geometry_panics_with_its_cause() {
        fn cause<T>(build: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
            let err = std::panic::catch_unwind(build)
                .err()
                .expect("bad geometry accepted");
            match err.downcast::<String>() {
                Ok(msg) => *msg,
                Err(err) => err.downcast_ref::<&str>().unwrap().to_string(),
            }
        }
        assert_eq!(
            cause(|| CacheGeometry::new(3, 1, 4, 2)),
            "invalid cache geometry: n_sets must be a power of two, got 3"
        );
        assert_eq!(
            cause(|| CacheGeometry::new(4, 1, 5, 2)),
            "invalid cache geometry: line_elems must be a power of two, got 5"
        );
        assert_eq!(
            cause(|| CacheGeometry::new(4, 3, 4, 2)),
            "invalid cache geometry: only 1- and 2-way associativity supported, got 3"
        );
        assert_eq!(
            cause(|| CacheGeometry::new(4, 1, 4, 0)),
            "invalid cache geometry: elem_words must be at least 1"
        );
        let two_way = CacheGeometry::new(4, 2, 4, 2);
        let direct_mapped =
            "invalid write cache: the paper's write cache is direct-mapped, got 2-way geometry";
        assert_eq!(cause(|| WriteCache::new(two_way)), direct_mapped);
        assert_eq!(cause(|| WriteCache::with_marks(two_way, 64)), direct_mapped);
    }

    #[test]
    fn untouched_cache_has_no_miss_ratio() {
        let c = ReadCache::new(geo());
        assert_eq!(c.stats().miss_ratio(), None);
        let mut c = ReadCache::new(geo());
        let mem = backing(16);
        let mut p = PerfCounters::new();
        c.get(&mut p, &mem, 0);
        assert_eq!(c.stats().miss_ratio(), Some(1.0));
    }

    #[test]
    fn evictions_are_counted() {
        // Elements 0 and 16 conflict in set 0 of the 4x4 geometry; the
        // second and every later fill displaces a valid line.
        let g = geo();
        let mem = backing(64);
        let mut c = ReadCache::new(g);
        let mut p = PerfCounters::new();
        for _ in 0..5 {
            c.get(&mut p, &mem, 0);
            c.get(&mut p, &mem, 16);
        }
        let s = c.stats();
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 9, "all fills but the first evict");

        // Write-cache conflicts: each eviction is also a writeback, and
        // the final flush writes back without evicting.
        let mut copy = vec![0.0f32; 64 * 2];
        let mut wc = WriteCache::new(g);
        let mut p = PerfCounters::new();
        for _ in 0..3 {
            wc.update(&mut p, &mut copy, 0, &[1.0, 0.0]);
            wc.update(&mut p, &mut copy, 16, &[0.0, 1.0]);
        }
        wc.flush(&mut p, &mut copy);
        let s = wc.stats();
        assert_eq!(s.evictions, 5);
        assert_eq!(s.writebacks, 6, "5 eviction writebacks + 1 flush");
    }

    #[test]
    fn touch_charges_what_get_charges() {
        let g = CacheGeometry::new(4, 2, 4, 2);
        let mem = backing(64);
        let (mut read, mut touched) = (ReadCache::new(g), ReadCache::new(g));
        let (mut pr, mut pt) = (PerfCounters::new(), PerfCounters::new());
        for idx in [0, 1, 16, 32, 0, 48, 17, 63, 2] {
            read.get(&mut pr, &mem, idx);
            touched.touch(&mut pt, idx);
        }
        assert_eq!(read.stats(), touched.stats());
        assert_eq!(pr, pt);
    }

    #[test]
    fn untouched_write_cache_has_nothing_to_flush() {
        let mut c = WriteCache::with_marks(geo(), 64);
        assert!(c.dirty_lines().is_empty());
        let mut p = PerfCounters::new();
        c.flush(&mut p, &mut []);
        assert_eq!(p, PerfCounters::new());
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.take_marks().map(|m| m.count_ones()), Some(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn panicking_constructor_still_guards() {
        CacheGeometry::new(6, 1, 4, 2);
    }

    #[test]
    fn paper_read_cache_takes_under_24_kib_of_ldm() {
        // Read cache of 32 lines x 8 packages x 20 words < 64 KB? 20 words
        // = 80 B/package -> 32*8*80 = 20 KB data + tags. Fits comfortably.
        let g = CacheGeometry::paper_default(20);
        assert!(g.ldm_bytes() < 24 * 1024, "{}", g.ldm_bytes());
    }
}
