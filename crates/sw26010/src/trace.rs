//! Event tracing for the `swcheck` invariant checker.
//!
//! Every metered architectural interaction — DMA transfers, gld/gst
//! bursts, LDM reservations, write-cache line state, Bit-Map marks —
//! can emit an [`Event`] into the sink of a capture session. Capture is
//! off by default and each emit site guards on one thread-local read, so
//! kernels pay nothing when no checker is attached.
//!
//! A [`Session`] owns its sink and turns capture on **for the thread
//! that opened it** (`swprof::scope`, the mechanism every plane shares):
//! sessions on different threads are independent, neither waits for the
//! other. The lanes of a region work for the session of the thread that
//! submitted it — the lane executor ([`LanePool`](crate::pool::LanePool))
//! hands them its handle in the lane prologue — so a session records its
//! own thread and the regions that thread runs, and nothing another
//! thread of the process is doing.
//!
//! A session numbers the parallel regions recorded into it by a
//! monotonically increasing **epoch**, from 1 (the lane executor opens
//! one per region). Every [`Event`] is stamped once, when it is
//! recorded, with who recorded it — the issuing CPE (`None` for
//! MPE/host code) and the epoch of the region the thread is in, both
//! read from the thread's [`Who`](scope::Who) — which is what lets the
//! happens-before checker fork and join each region's lanes.
//! The cache/LDM/channel/barrier ids are the one process-wide part:
//! a bare `fetch_add` allocator of unique numbers, never reset and never
//! read back as state, so it couples no sessions.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swprof::scope;

use crate::dma::Dir;

/// Identifier of a logical shared-memory region (a main-memory array the
/// kernel reads or writes). Region numbering is chosen by the kernel
/// layer; the substrate only threads the ids through to events.
pub type RegionId = u32;

/// One traced architectural interaction: what happened, and the lane
/// and region of the thread it happened on — stamped once, when the
/// event is recorded, from that thread's [`Who`](scope::Who).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Issuing CPE, or `None` for MPE/host code.
    pub cpe: Option<usize>,
    /// Epoch of the region the issuing thread was in (a region's own for
    /// its `SpawnBegin` and `SpawnEnd`), 0 outside every region.
    pub epoch: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What one traced interaction was.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A CPE parallel region opened.
    SpawnBegin {
        /// CPEs participating.
        n_cpes: usize,
    },
    /// A CPE parallel region joined.
    SpawnEnd,
    /// A DMA transfer was issued; it completes at issue (the engine's
    /// transfers block).
    Dma {
        /// Transfer direction.
        dir: Dir,
        /// Target region for address-aware transfers
        /// ([`DmaEngine::transfer_shared_at`](crate::dma::DmaEngine::transfer_shared_at)),
        /// `None` for size-only metering.
        region: Option<RegionId>,
        /// Byte offset inside `region` (0 when `region` is `None`).
        byte_off: usize,
        /// Transfer size in bytes.
        bytes: usize,
        /// Whether the main-memory address satisfied the §3.7 128-bit rule.
        aligned: bool,
    },
    /// A direct (non-DMA) read of a shared region, e.g. a gld sweep over
    /// a main-memory array. Reads participate in the happens-before race
    /// check: a read racing a write is SWC110; reads never conflict with
    /// each other.
    SharedRead {
        /// Read region.
        region: RegionId,
        /// First read word (f32 granularity).
        word_lo: usize,
        /// One past the last read word.
        word_hi: usize,
    },
    /// A burst of gld/gst operations was issued.
    Gld {
        /// Number of gld/gst operations.
        ops: u64,
    },
    /// An LDM reservation was attempted.
    LdmReserve {
        /// Trace id of the owning [`Ldm`](crate::ldm::Ldm) ledger
        /// instance. LDM is core-private on the chip, so every event of
        /// one ledger must come from one lane (or be handed over with a
        /// release→acquire edge) — the SWC113 aliasing rule.
        ldm: u64,
        /// Reservation label.
        label: &'static str,
        /// Bytes requested.
        bytes: usize,
        /// Ledger usage after the attempt (unchanged if it failed).
        in_use_after: usize,
        /// Ledger capacity.
        capacity: usize,
        /// Whether the reservation fit.
        ok: bool,
    },
    /// An LDM reservation was released back to its ledger. Release of a
    /// label followed by a re-acquire of the same label on the same
    /// ledger is an acquire/release synchronization edge in the
    /// happens-before model.
    LdmRelease {
        /// Trace id of the owning ledger instance.
        ldm: u64,
        /// Label of the released reservation.
        label: &'static str,
        /// Bytes returned.
        bytes: usize,
    },
    /// A direct (non-DMA) write to a shared region, e.g. the Pkg rung's
    /// per-pair read-modify-write.
    SharedWrite {
        /// Written region.
        region: RegionId,
        /// First written word (f32 granularity).
        word_lo: usize,
        /// One past the last written word.
        word_hi: usize,
    },
    /// A Bit-Map mark transitioned clear -> set.
    MarkSet {
        /// Owning write-cache trace id.
        cache: u64,
        /// Marked line number.
        line: usize,
    },
    /// The reduction consumed one line of one CPE copy.
    ReduceLine {
        /// Trace id of the write cache that produced the copy.
        cache: u64,
        /// Reduced line number.
        line: usize,
    },
    /// A write cache was dropped while still holding dirty lines.
    WcDropDirty {
        /// Trace id of the dropped cache.
        cache: u64,
        /// Backing line numbers still dirty.
        lines: Vec<usize>,
    },
    /// An execution attempt on the issuing core was aborted and will be
    /// retried/respawned (fault recovery: CPE hang, kernel fault). The
    /// SWC105 rule asserts the aborted attempt left no visible state:
    /// no dirty write-cache lines and no marked-but-unreduced Bit-Map
    /// lines from the same `(epoch, cpe)` earlier in the stream.
    Abort {
        /// Diagnostic reason (`"cpe-hang"`, `"kernel-fault"`, ...).
        reason: &'static str,
    },
    /// The issuing lane arrived at a barrier/allreduce round (`swnet`
    /// epoch barriers, energy allreduces). Arrivals at the same barrier
    /// id are chained in stream order by the happens-before engine: each
    /// arrival is ordered after every earlier arrival of the same id.
    Barrier {
        /// Barrier round id (fresh per round, from [`next_id`]).
        id: u64,
    },
    /// A sequence-numbered channel send (`swnet::seqno::SeqChannel`).
    /// Paired with the [`EventKind::ChanRecv`] of the same `(chan, seq)`,
    /// this is the send→recv synchronization edge; retransmitted
    /// duplicates re-use the original's number and emit no extra event.
    ChanSend {
        /// Channel trace id (fresh per channel, from [`next_id`]).
        chan: u64,
        /// Sequence number stamped on the message.
        seq: u64,
    },
    /// First (and only applied) delivery of a sequence-numbered message.
    ChanRecv {
        /// Channel trace id.
        chan: u64,
        /// Sequence number applied.
        seq: u64,
    },
}

/// Region binding of a software cache: where its backing array sits in
/// the traced address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// Region the backing array belongs to.
    pub region: RegionId,
    /// Word offset of the backing array's element 0 inside the region.
    pub base_words: usize,
}

// swrace: allow(SWC010) the trace id allocator: fetch_add only, never reset or read back as state
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The event sink of one capture session. Opaque: owned by its
/// [`Session`], reached by the threads working for it through [`scope`].
#[derive(Default)]
pub struct Sink {
    events: Mutex<Vec<Event>>,
    /// Regions opened so far: the epoch of the latest.
    regions: AtomicU64,
}

thread_local! {
    static SINK_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SINK_SLOT: scope::Slot<Sink> = const { RefCell::new(None) };
}

const SINK: scope::Plane<Sink> = scope::Plane::new(&SINK_ACTIVE, &SINK_SLOT);

/// The calling thread's handle on the session it records into: what a
/// thread started by hand enters ([`scope::Handle::enter`]) to record
/// there too, as the lane executor's lanes do.
pub fn handle() -> scope::Handle<Sink> {
    SINK.handle()
}

/// Whether the calling thread is capturing events for a session.
#[inline]
pub fn enabled() -> bool {
    SINK.active()
}

/// Record `kind()`, stamped with the calling thread's lane and region,
/// if the thread captures; it is not evaluated otherwise.
#[inline]
fn emit(kind: impl FnOnce() -> EventKind) {
    SINK.with(|sink| {
        let who = scope::Who::current();
        let event = Event {
            cpe: who.lane,
            epoch: who.region,
            kind: kind(),
        };
        scope::lock(&sink.events).push(event)
    });
}

/// Allocate a process-unique, nonzero trace id: for a software cache,
/// an LDM ledger, a sequence-numbered channel or a barrier round. Ids only need to be unique within their kind; one counter
/// makes them unique overall.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Open a parallel region of `n_cpes` lanes, the next epoch of the
/// calling thread's capture session (0 with none): the thread is in it
/// until [`end_region`] closes it or the returned guard drops. A
/// profiling session of the thread counts the region too, so span
/// timelines number regions in the order the race detector sees them.
pub fn begin_region(n_cpes: usize) -> scope::Being {
    let epoch = SINK.with(|sink| sink.regions.fetch_add(1, Ordering::Relaxed) + 1);
    let region = scope::Who {
        region: epoch.unwrap_or(0),
        ..scope::Who::current()
    }
    .enter();
    swprof::next_epoch();
    emit(|| EventKind::SpawnBegin { n_cpes });
    region
}

/// Close a region opened by [`begin_region`]: record its join and put
/// the thread back in the region it was in.
pub fn end_region(region: scope::Being) {
    emit(|| EventKind::SpawnEnd);
    drop(region);
}

/// Record a DMA transfer (called by the DMA engine).
pub fn emit_dma(dir: Dir, region: Option<RegionId>, byte_off: usize, bytes: usize, aligned: bool) {
    emit(|| EventKind::Dma {
        dir,
        region,
        byte_off,
        bytes,
        aligned,
    });
}

/// Record a direct read of `[word_lo, word_hi)` from `region` by the
/// calling core. Kernels annotate non-DMA shared-memory reads with this
/// so the happens-before race check sees read/write conflicts too.
pub fn shared_read(region: RegionId, word_lo: usize, word_hi: usize) {
    emit(|| EventKind::SharedRead {
        region,
        word_lo,
        word_hi,
    });
}

/// Record a gld/gst burst (called by the gld cost model).
pub fn emit_gld(ops: u64) {
    emit(|| EventKind::Gld { ops });
}

/// Record an LDM reservation attempt (called by the LDM ledger).
pub fn emit_ldm(
    ldm: u64,
    label: &'static str,
    bytes: usize,
    in_use_after: usize,
    capacity: usize,
    ok: bool,
) {
    emit(|| EventKind::LdmReserve {
        ldm,
        label,
        bytes,
        in_use_after,
        capacity,
        ok,
    });
}

/// Record an LDM reservation release (called by the LDM ledger).
pub fn emit_ldm_release(ldm: u64, label: &'static str, bytes: usize) {
    emit(|| EventKind::LdmRelease { ldm, label, bytes });
}

/// Record the calling lane's arrival at barrier round `id` (called by
/// the `swnet` collectives).
pub fn emit_barrier(id: u64) {
    emit(|| EventKind::Barrier { id });
}

/// Record a sequence-numbered channel send (called by
/// `swnet::seqno::SeqChannel::transmit`).
pub fn emit_chan_send(chan: u64, seq: u64) {
    emit(|| EventKind::ChanSend { chan, seq });
}

/// Record the first (applied) delivery of a sequence-numbered message.
pub fn emit_chan_recv(chan: u64, seq: u64) {
    emit(|| EventKind::ChanRecv { chan, seq });
}

/// Record a direct write of `[word_lo, word_hi)` into `region` by the
/// calling core. Kernels annotate non-DMA shared-memory writes with this
/// so the race detector sees them.
pub fn shared_write(region: RegionId, word_lo: usize, word_hi: usize) {
    emit(|| EventKind::SharedWrite {
        region,
        word_lo,
        word_hi,
    });
}

/// Record a Bit-Map mark transition (called by `BitMap::set_owned`).
pub fn emit_mark_set(cache: u64, line: usize) {
    emit(|| EventKind::MarkSet { cache, line });
}

/// Record that the reduction consumed `line` of the copy produced by
/// write cache `cache`. Kernels annotate their reduce phase with this.
pub fn reduce_line(cache: u64, line: usize) {
    emit(|| EventKind::ReduceLine { cache, line });
}

/// Record a write cache dropped with dirty lines (called from its `Drop`).
pub fn emit_wc_drop_dirty(cache: u64, lines: Vec<usize>) {
    emit(|| EventKind::WcDropDirty { cache, lines });
}

/// Record an aborted execution attempt on the calling core (called by
/// the fault-recovery paths before a retry/respawn).
pub fn emit_abort(reason: &'static str) {
    emit(|| EventKind::Abort { reason });
}

/// An active capture session of the thread that opened it, owning its
/// [`Sink`]; dropping it (or calling [`Session::finish`]) stops capture.
pub struct Session {
    scope: scope::Scope<Sink>,
}

impl Session {
    /// Start capturing on the calling thread, into an empty sink. Never
    /// blocks: sessions on other threads are independent.
    pub fn begin() -> Self {
        Self {
            scope: SINK.open(Sink::default()),
        }
    }

    /// Every event recorded since `begin` or the last `take`; capture
    /// goes on, and so does the session's region numbering.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *scope::lock(&self.scope.state().events))
    }

    /// Stop capturing (the drop does) and return every event recorded
    /// since `begin` or the last `take`.
    pub fn finish(self) -> Vec<Event> {
        self.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope::Who;

    fn kinds(events: &[Event]) -> Vec<&EventKind> {
        events.iter().map(|e| &e.kind).collect()
    }

    #[test]
    fn disabled_sink_records_nothing() {
        assert!(!enabled());
        emit_gld(10);
        shared_write(1, 0, 4);
        let s = Session::begin();
        assert!(s.finish().is_empty());
    }

    #[test]
    fn session_captures_and_drains() {
        let s = Session::begin();
        emit_gld(3);
        emit_dma(Dir::Get, Some(7), 16, 128, true);
        let ev = s.finish();
        assert_eq!(ev.len(), 2);
        assert!(matches!(ev[0].kind, EventKind::Gld { ops: 3 }));
        assert!(matches!(
            ev[1].kind,
            EventKind::Dma {
                region: Some(7),
                byte_off: 16,
                bytes: 128,
                aligned: true,
                ..
            }
        ));
        // Sink is off again; nothing leaks into the next session.
        emit_gld(99);
        let s2 = Session::begin();
        let ev2 = s2.finish();
        assert!(ev2.is_empty());
    }

    #[test]
    fn a_session_numbers_its_own_regions_and_brackets_them() {
        let s = Session::begin();
        for n_cpes in [4, 8] {
            let region = begin_region(n_cpes);
            emit_gld(1);
            end_region(region);
        }
        emit_gld(2);
        let taken = s.take();
        // A second session on the thread numbers its regions from 1.
        let inner = Session::begin();
        end_region(begin_region(2));
        let inner_epochs: Vec<u64> = inner.finish().iter().map(|e| e.epoch).collect();
        assert_eq!(inner_epochs, [1, 1]);
        end_region(begin_region(1));
        let stamps = |ev: &[Event]| ev.iter().map(|e| (e.cpe, e.epoch)).collect::<Vec<_>>();
        assert_eq!(
            stamps(&taken),
            [
                (None, 1),
                (None, 1),
                (None, 1),
                (None, 2),
                (None, 2),
                (None, 2),
                (None, 0)
            ],
            "a region's events carry its epoch; the thread leaves it at the end"
        );
        assert!(matches!(
            kinds(&taken)[..3],
            [
                EventKind::SpawnBegin { n_cpes: 4 },
                EventKind::Gld { ops: 1 },
                EventKind::SpawnEnd
            ]
        ));
        assert_eq!(stamps(&s.finish()), [(None, 3), (None, 3)]);
    }

    #[test]
    fn cpe_tagging_and_capture_are_thread_local() {
        let s = Session::begin();
        let region = begin_region(1);
        let submitter = (handle(), Who::current());
        {
            let _cpe = Who::enter_lane(Some(5));
            emit_gld(1);
        }
        std::thread::spawn(move || {
            // A thread that is none of this session's business: untagged
            // and not capturing.
            assert_eq!(Who::current(), Who::default());
            assert!(!enabled());
            emit_gld(2);
            // As a lane of the session thread's region it records, under
            // that region's epoch, and stops when the lane ends.
            {
                let _lane = submitter.0.enter();
                let _cpe = Who {
                    lane: Some(3),
                    ..submitter.1
                }
                .enter();
                emit_gld(3);
            }
            emit_gld(4);
        })
        .join()
        .unwrap();
        end_region(region);
        let ev = s.finish();
        assert_eq!(ev.len(), 4, "{ev:?}");
        let e = ev[0].epoch;
        assert_eq!(
            ev[1..3],
            [
                Event {
                    cpe: Some(5),
                    epoch: e,
                    kind: EventKind::Gld { ops: 1 }
                },
                Event {
                    cpe: Some(3),
                    epoch: e,
                    kind: EventKind::Gld { ops: 3 }
                }
            ]
        );
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let (a, b) = (next_id(), next_id());
        assert_ne!(a, b);
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn sync_and_channel_events_capture_context() {
        let s = Session::begin();
        {
            let _cpe = Who::enter_lane(Some(9));
            shared_read(4, 10, 20);
            emit_barrier(77);
            emit_chan_send(5, 0);
            emit_chan_recv(5, 0);
            emit_ldm_release(3, "buf", 256);
        }
        let ev = s.finish();
        assert!(ev.iter().all(|e| e.cpe == Some(9)));
        assert_eq!(
            kinds(&ev),
            [
                &EventKind::SharedRead {
                    region: 4,
                    word_lo: 10,
                    word_hi: 20
                },
                &EventKind::Barrier { id: 77 },
                &EventKind::ChanSend { chan: 5, seq: 0 },
                &EventKind::ChanRecv { chan: 5, seq: 0 },
                &EventKind::LdmRelease {
                    ldm: 3,
                    label: "buf",
                    bytes: 256
                },
            ]
        );
    }
}
