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
//! Spawn regions are numbered by a monotonically increasing **epoch**
//! (the lane executor opens one per parallel region). Events carry the
//! epoch of the region the emitting thread is in — a lane's own region,
//! or the last one the emitting host thread opened — plus the issuing
//! CPE id (`None` for MPE/host code), which is what lets the dynamic
//! race detector scope "concurrent" to "same spawn region".
//! The epoch and the cache/LDM/channel/DMA/barrier ids are the one
//! process-wide part: bare `fetch_add` allocators of unique numbers,
//! never reset and never read back as state, so they couple no sessions.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swprof::scope;

use crate::dma::Dir;

/// Identifier of a logical shared-memory region (a main-memory array the
/// kernel reads or writes). Region numbering is chosen by the kernel
/// layer; the substrate only threads the ids through to events.
pub type RegionId = u32;

/// One traced architectural interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A CPE parallel region opened.
    SpawnBegin {
        /// Epoch number of the region.
        epoch: u64,
        /// CPEs participating.
        n_cpes: usize,
    },
    /// A CPE parallel region joined.
    SpawnEnd {
        /// Epoch number of the region.
        epoch: u64,
    },
    /// A DMA transfer was issued.
    Dma {
        /// Issuing CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
        /// Session-unique transfer id, pairing the issue with its
        /// [`Event::DmaDone`] completion (0 when captured outside a
        /// session).
        id: u64,
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
        /// Whether the transfer completed synchronously at issue (the
        /// blocking `transfer*` entry points). Asynchronous issues
        /// ([`DmaEngine::issue_shared_at`](crate::dma::DmaEngine::issue_shared_at))
        /// record `false` here and stay in flight until their
        /// [`Event::DmaDone`] appears — the happens-before checker
        /// treats the open window as unordered against every other lane.
        completed: bool,
    },
    /// An asynchronous DMA transfer completed (its handle was awaited).
    /// This is the *synchronization edge* the SWC112 rule certifies:
    /// compute touching the transfer's bytes must be ordered after this
    /// event (or before the issue), never inside the window.
    DmaDone {
        /// Awaiting CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at completion time.
        epoch: u64,
        /// Id of the issue event being completed.
        id: u64,
    },
    /// A direct (non-DMA) read of a shared region, e.g. a gld sweep over
    /// a main-memory array. Reads participate in the happens-before race
    /// check (a read racing a write is SWC110) but not in the
    /// write-overlap pass.
    SharedRead {
        /// Reading CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
        /// Read region.
        region: RegionId,
        /// First read word (f32 granularity).
        word_lo: usize,
        /// One past the last read word.
        word_hi: usize,
    },
    /// A burst of gld/gst operations was issued.
    Gld {
        /// Issuing CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
        /// Number of gld/gst operations.
        ops: u64,
    },
    /// An LDM reservation was attempted.
    LdmReserve {
        /// Reserving CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
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
        /// Releasing CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at release time.
        epoch: u64,
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
        /// Writing CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
        /// Written region.
        region: RegionId,
        /// First written word (f32 granularity).
        word_lo: usize,
        /// One past the last written word.
        word_hi: usize,
    },
    /// A Bit-Map mark transitioned clear -> set.
    MarkSet {
        /// Marking CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
        /// Owning write-cache trace id.
        cache: u64,
        /// Marked line number.
        line: usize,
    },
    /// The reduction consumed one line of one CPE copy.
    ReduceLine {
        /// Reducing CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at issue time.
        epoch: u64,
        /// Trace id of the write cache that produced the copy.
        cache: u64,
        /// Reduced line number.
        line: usize,
    },
    /// A write cache was dropped while still holding dirty lines.
    WcDropDirty {
        /// Dropping CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at drop time.
        epoch: u64,
        /// Trace id of the dropped cache.
        cache: u64,
        /// Backing line numbers still dirty.
        lines: Vec<usize>,
    },
    /// A named phase of a kernel completed (from
    /// [`Breakdown::add`](crate::perf::Breakdown::add)).
    Phase {
        /// Phase label.
        label: String,
        /// Wall cycles of the phase.
        cycles: u64,
    },
    /// An execution attempt on the issuing core was aborted and will be
    /// retried/respawned (fault recovery: CPE hang, kernel fault). The
    /// SWC105 rule asserts the aborted attempt left no visible state:
    /// no dirty write-cache lines and no marked-but-unreduced Bit-Map
    /// lines from the same `(epoch, cpe)` earlier in the stream.
    Abort {
        /// Aborted CPE, or `None` for an MPE-level abort.
        cpe: Option<usize>,
        /// Spawn epoch current at abort time.
        epoch: u64,
        /// Diagnostic reason (`"cpe-hang"`, `"kernel-fault"`, ...).
        reason: &'static str,
    },
    /// The issuing lane arrived at a barrier/allreduce round (`swnet`
    /// epoch barriers, energy allreduces). Arrivals at the same barrier
    /// id are chained in stream order by the happens-before engine: each
    /// arrival is ordered after every earlier arrival of the same id.
    Barrier {
        /// Arriving CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at arrival time.
        epoch: u64,
        /// Barrier round id (fresh per round, from [`next_id`]).
        id: u64,
    },
    /// A sequence-numbered channel send (`swnet::seqno::SeqChannel`).
    /// Paired with the [`Event::ChanRecv`] of the same `(chan, seq)`,
    /// this is the send→recv synchronization edge; retransmitted
    /// duplicates re-use the original's number and emit no extra event.
    ChanSend {
        /// Sending CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at send time.
        epoch: u64,
        /// Channel trace id (fresh per channel, from [`next_id`]).
        chan: u64,
        /// Sequence number stamped on the message.
        seq: u64,
    },
    /// First (and only applied) delivery of a sequence-numbered message.
    ChanRecv {
        /// Receiving CPE, or `None` for MPE/host code.
        cpe: Option<usize>,
        /// Spawn epoch current at delivery time.
        epoch: u64,
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

// swrace: allow(SWC010) region-epoch allocator: fetch_add only, never reset or read back as state
static EPOCH: AtomicU64 = AtomicU64::new(0);
// swrace: allow(SWC010) the trace id allocator: fetch_add only, never reset or read back as state
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The event sink of one capture session. Opaque: owned by its
/// [`Session`], reached by the threads working for it through [`scope`].
pub struct Sink(Mutex<Vec<Event>>);

thread_local! {
    static SINK_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SINK_SLOT: scope::Slot<Sink> = const { RefCell::new(None) };
    static CURRENT_CPE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Epoch of the region this thread is a lane of, else of the last
    /// region it opened.
    static REGION_EPOCH: Cell<u64> = const { Cell::new(0) };
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

/// Record `event()` if the calling thread captures; it is not evaluated
/// otherwise.
#[inline]
fn emit(event: impl FnOnce() -> Event) {
    SINK.with(|sink| {
        let event = event();
        scope::lock(&sink.0).push(event)
    });
}

/// CPE id of the calling thread (`None` on MPE/host threads).
pub fn current_cpe() -> Option<usize> {
    CURRENT_CPE.with(|c| c.get())
}

/// Tag the calling thread as executing CPE `id` (or untag with `None`).
/// The lane executor does this around each lane.
pub fn set_current_cpe(id: Option<usize>) {
    CURRENT_CPE.with(|c| c.set(id));
}

/// The epoch the calling thread's events carry: the region it is a
/// lane of, else the last region it opened.
pub fn current_epoch() -> u64 {
    REGION_EPOCH.with(|e| e.get())
}

/// Put the calling thread in region `epoch` (the lane executor, around
/// each lane).
pub(crate) fn set_current_epoch(epoch: u64) {
    REGION_EPOCH.with(|e| e.set(epoch));
}

/// Allocate a process-unique, nonzero trace id: for a software cache,
/// an LDM ledger, a sequence-numbered channel, a barrier round or a DMA
/// transfer. Ids only need to be unique within their kind; one counter
/// makes them unique overall.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Open a new spawn epoch, returning its number. A profiling session of
/// the calling thread counts the region too, so span timelines number
/// regions in the order the race detector sees them.
pub fn begin_region(n_cpes: usize) -> u64 {
    let epoch = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    set_current_epoch(epoch);
    swprof::next_epoch();
    emit(|| Event::SpawnBegin { epoch, n_cpes });
    epoch
}

/// Close the spawn epoch opened by [`begin_region`].
pub fn end_region(epoch: u64) {
    emit(|| Event::SpawnEnd { epoch });
}

/// Record a DMA transfer (called by the DMA engine). Returns the
/// transfer id for pairing with [`emit_dma_done`] (0 with no session —
/// the happens-before engine ignores unknown ids).
pub fn emit_dma(
    dir: Dir,
    region: Option<RegionId>,
    byte_off: usize,
    bytes: usize,
    aligned: bool,
    completed: bool,
) -> u64 {
    let mut id = 0;
    emit(|| {
        id = next_id();
        Event::Dma {
            cpe: current_cpe(),
            epoch: current_epoch(),
            id,
            dir,
            region,
            byte_off,
            bytes,
            aligned,
            completed,
        }
    });
    id
}

/// Record the completion of the asynchronous DMA transfer `id` (called
/// when its handle is awaited).
pub fn emit_dma_done(id: u64) {
    if id != 0 {
        emit(|| Event::DmaDone {
            cpe: current_cpe(),
            epoch: current_epoch(),
            id,
        });
    }
}

/// Record a direct read of `[word_lo, word_hi)` from `region` by the
/// calling core. Kernels annotate non-DMA shared-memory reads with this
/// so the happens-before race check sees read/write conflicts too.
pub fn shared_read(region: RegionId, word_lo: usize, word_hi: usize) {
    emit(|| Event::SharedRead {
        cpe: current_cpe(),
        epoch: current_epoch(),
        region,
        word_lo,
        word_hi,
    });
}

/// Record a gld/gst burst (called by the gld cost model).
pub fn emit_gld(ops: u64) {
    emit(|| Event::Gld {
        cpe: current_cpe(),
        epoch: current_epoch(),
        ops,
    });
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
    emit(|| Event::LdmReserve {
        cpe: current_cpe(),
        epoch: current_epoch(),
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
    emit(|| Event::LdmRelease {
        cpe: current_cpe(),
        epoch: current_epoch(),
        ldm,
        label,
        bytes,
    });
}

/// Record the calling lane's arrival at barrier round `id` (called by
/// the `swnet` collectives).
pub fn emit_barrier(id: u64) {
    emit(|| Event::Barrier {
        cpe: current_cpe(),
        epoch: current_epoch(),
        id,
    });
}

/// Record a sequence-numbered channel send (called by
/// `swnet::seqno::SeqChannel::transmit`).
pub fn emit_chan_send(chan: u64, seq: u64) {
    emit(|| Event::ChanSend {
        cpe: current_cpe(),
        epoch: current_epoch(),
        chan,
        seq,
    });
}

/// Record the first (applied) delivery of a sequence-numbered message.
pub fn emit_chan_recv(chan: u64, seq: u64) {
    emit(|| Event::ChanRecv {
        cpe: current_cpe(),
        epoch: current_epoch(),
        chan,
        seq,
    });
}

/// Record a direct write of `[word_lo, word_hi)` into `region` by the
/// calling core. Kernels annotate non-DMA shared-memory writes with this
/// so the race detector sees them.
pub fn shared_write(region: RegionId, word_lo: usize, word_hi: usize) {
    emit(|| Event::SharedWrite {
        cpe: current_cpe(),
        epoch: current_epoch(),
        region,
        word_lo,
        word_hi,
    });
}

/// Record a Bit-Map mark transition (called by `BitMap::set_owned`).
pub fn emit_mark_set(cache: u64, line: usize) {
    emit(|| Event::MarkSet {
        cpe: current_cpe(),
        epoch: current_epoch(),
        cache,
        line,
    });
}

/// Record that the reduction consumed `line` of the copy produced by
/// write cache `cache`. Kernels annotate their reduce phase with this.
pub fn reduce_line(cache: u64, line: usize) {
    emit(|| Event::ReduceLine {
        cpe: current_cpe(),
        epoch: current_epoch(),
        cache,
        line,
    });
}

/// Record a write cache dropped with dirty lines (called from its `Drop`).
pub fn emit_wc_drop_dirty(cache: u64, lines: Vec<usize>) {
    emit(|| Event::WcDropDirty {
        cpe: current_cpe(),
        epoch: current_epoch(),
        cache,
        lines,
    });
}

/// Record an aborted execution attempt on the calling core (called by
/// the fault-recovery paths before a retry/respawn).
pub fn emit_abort(reason: &'static str) {
    emit(|| Event::Abort {
        cpe: current_cpe(),
        epoch: current_epoch(),
        reason,
    });
}

/// Record a completed kernel phase (called by `Breakdown::add`).
pub fn emit_phase(label: &str, cycles: u64) {
    emit(|| Event::Phase {
        label: label.to_string(),
        cycles,
    });
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
            scope: SINK.open(Sink(Mutex::default())),
        }
    }

    /// Stop capturing (the drop does) and return every event recorded
    /// since `begin`.
    pub fn finish(self) -> Vec<Event> {
        std::mem::take(&mut *scope::lock(&self.scope.state().0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let id = emit_dma(Dir::Get, Some(7), 16, 128, true, true);
        assert_ne!(id, 0, "in-session transfers get real ids");
        let ev = s.finish();
        assert_eq!(ev.len(), 2);
        assert!(matches!(ev[0], Event::Gld { ops: 3, .. }));
        assert!(matches!(
            ev[1],
            Event::Dma {
                region: Some(7),
                byte_off: 16,
                bytes: 128,
                aligned: true,
                completed: true,
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
    fn spawn_epochs_are_monotone_and_bracketed() {
        let s = Session::begin();
        let e1 = begin_region(4);
        end_region(e1);
        let e2 = begin_region(8);
        end_region(e2);
        assert!(e2 > e1);
        let ev = s.finish();
        assert_eq!(
            ev,
            vec![
                Event::SpawnBegin {
                    epoch: e1,
                    n_cpes: 4
                },
                Event::SpawnEnd { epoch: e1 },
                Event::SpawnBegin {
                    epoch: e2,
                    n_cpes: 8
                },
                Event::SpawnEnd { epoch: e2 },
            ]
        );
    }

    #[test]
    fn cpe_tagging_and_capture_are_thread_local() {
        let s = Session::begin();
        let e = begin_region(1);
        let submitter = handle();
        set_current_cpe(Some(5));
        emit_gld(1);
        set_current_cpe(None);
        std::thread::spawn(move || {
            // A thread that is none of this session's business: untagged
            // and not capturing.
            assert_eq!(current_cpe(), None);
            assert!(!enabled());
            emit_gld(2);
            // As a lane of the session thread's region it records, under
            // that region's epoch, and stops when the lane ends.
            {
                let _lane = submitter.enter();
                set_current_cpe(Some(3));
                set_current_epoch(e);
                emit_gld(3);
            }
            emit_gld(4);
        })
        .join()
        .unwrap();
        let ev = s.finish();
        assert_eq!(ev.len(), 3, "{ev:?}");
        assert!(matches!(
            ev[1],
            Event::Gld {
                cpe: Some(5),
                ops: 1,
                ..
            }
        ));
        assert_eq!(
            ev[2],
            Event::Gld {
                cpe: Some(3),
                epoch: e,
                ops: 3
            }
        );
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let (a, b) = (next_id(), next_id());
        assert_ne!(a, b);
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn async_dma_pairs_issue_with_done() {
        let s = Session::begin();
        let id = emit_dma(Dir::Put, Some(2), 0, 64, true, false);
        emit_dma_done(id);
        let ev = s.finish();
        assert!(matches!(
            ev[0],
            Event::Dma {
                completed: false,
                ..
            }
        ));
        assert_eq!(
            ev[1],
            Event::DmaDone {
                cpe: None,
                epoch: current_epoch(),
                id,
            }
        );
    }

    #[test]
    fn dma_done_with_unknown_id_is_dropped() {
        let s = Session::begin();
        // Id 0 means "issued outside a session": no pairing possible.
        emit_dma_done(0);
        assert!(s.finish().is_empty());
    }

    #[test]
    fn sync_and_channel_events_capture_context() {
        let s = Session::begin();
        set_current_cpe(Some(9));
        shared_read(4, 10, 20);
        emit_barrier(77);
        emit_chan_send(5, 0);
        emit_chan_recv(5, 0);
        emit_ldm_release(3, "buf", 256);
        set_current_cpe(None);
        let ev = s.finish();
        assert!(matches!(
            ev[0],
            Event::SharedRead {
                cpe: Some(9),
                region: 4,
                word_lo: 10,
                word_hi: 20,
                ..
            }
        ));
        assert!(matches!(ev[1], Event::Barrier { id: 77, .. }));
        assert!(matches!(
            ev[2],
            Event::ChanSend {
                chan: 5,
                seq: 0,
                ..
            }
        ));
        assert!(matches!(
            ev[3],
            Event::ChanRecv {
                chan: 5,
                seq: 0,
                ..
            }
        ));
        assert!(matches!(
            ev[4],
            Event::LdmRelease {
                ldm: 3,
                label: "buf",
                bytes: 256,
                ..
            }
        ));
    }
}
