//! Transport sequence numbers: exactly-once application on a wire that
//! can deliver a message twice.
//!
//! The retransmit path in [`transport`](crate::transport) recovers lost
//! messages by timeout + resend. But a message that was merely *delayed*
//! (not lost) also trips the sender's timeout: a retransmitted copy goes
//! out, then the delayed original arrives too. Both copies are byte-wise
//! valid, so CRCs don't help — without sequence numbers the receiver
//! would apply the payload twice (double-counting halo forces, replaying
//! a checkpoint frame).
//!
//! [`SeqChannel`] closes the hole: the sender stamps each message with a
//! monotonically increasing sequence number, and the receiver applies a
//! message only if its number is the next expected one; anything older
//! is a duplicate and is discarded. Per-channel ordering is guaranteed
//! by the simulated wire (retransmits re-use the original number), so a
//! simple high-water mark suffices — no reorder window needed.

/// Verdict for one received copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// First time this sequence number was seen: apply the payload.
    Fresh(u64),
    /// Already applied: discard, do not re-apply.
    Duplicate(u64),
}

/// What one logical transmit looked like on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransmitReport {
    /// Sequence number stamped on the message (and any retransmit).
    pub seq: u64,
    /// Copies that reached the receiver (>= 1; 2 when a delayed
    /// original arrived after its retransmit).
    pub copies_delivered: u32,
    /// Copies rejected as duplicates (`copies_delivered - 1`).
    pub duplicates_discarded: u32,
}

/// One ordered, sequence-numbered channel between a sender/receiver
/// pair. Covers a single direction; use one per peer per direction.
/// Not `Clone`: a copy would share the original's trace id, fusing two
/// channels' send→recv edges into one.
#[derive(Debug)]
pub struct SeqChannel {
    next_send: u64,
    next_expect: u64,
    duplicates_discarded: u64,
    /// Trace id pairing this channel's send events with its applied
    /// deliveries in the `sw26010::trace` stream — the send→recv
    /// synchronization edge of the happens-before model. Duplicate
    /// copies emit nothing, so a retransmit can never fabricate an edge.
    chan_id: u64,
}

impl Default for SeqChannel {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqChannel {
    /// Fresh channel: both sides start at sequence number 0.
    pub fn new() -> Self {
        Self {
            next_send: 0,
            next_expect: 0,
            duplicates_discarded: 0,
            chan_id: sw26010::trace::next_id(),
        }
    }

    /// Receiver-side check for one arriving copy. Fresh numbers advance
    /// the high-water mark; older numbers are duplicates.
    pub fn accept(&mut self, seq: u64) -> Delivery {
        if seq < self.next_expect {
            self.duplicates_discarded += 1;
            swprof::metrics::counter_add("net.duplicates_discarded", 1);
            Delivery::Duplicate(seq)
        } else {
            // The wire delivers each channel in order, so a fresh copy
            // is always exactly the next expected number.
            debug_assert_eq!(seq, self.next_expect);
            self.next_expect = seq + 1;
            sw26010::trace::emit_chan_recv(self.chan_id, seq);
            Delivery::Fresh(seq)
        }
    }

    /// Send one logical message and account for every copy the wire
    /// delivers. Under an active fault plan, a `NetDelay` hit models
    /// the delayed-then-retransmitted case: the receiver sees two
    /// copies of the same sequence number and must discard the second.
    /// Returns what happened; the payload is applied exactly once
    /// either way.
    pub fn transmit(&mut self) -> TransmitReport {
        let seq = self.next_send;
        self.next_send += 1;
        sw26010::trace::emit_chan_send(self.chan_id, seq);
        let copies: u32 = if swfault::enabled() && swfault::should(swfault::Site::NetDelay) {
            2
        } else {
            1
        };
        let mut duplicates = 0u32;
        for _ in 0..copies {
            if let Delivery::Duplicate(_) = self.accept(seq) {
                duplicates += 1;
            }
        }
        debug_assert_eq!(duplicates, copies - 1, "exactly-once application");
        TransmitReport {
            seq,
            copies_delivered: copies,
            duplicates_discarded: duplicates,
        }
    }

    /// [`transmit`](SeqChannel::transmit) plus causal-trace context
    /// injection: the context is stamped with the sequence number this
    /// transmit will use and returned for the caller to
    /// [`swprof::tel::deliver`] once it knows the wire time. One context per
    /// *logical* message — a delayed-then-retransmitted duplicate
    /// reuses the original's, so discarded copies can never leave an
    /// orphan flow event in the merged trace.
    ///
    /// The context is created *before* the transmit so the fault
    /// decisions (`NetDelay`) are consumed in exactly the same order
    /// as the untraced path — seeded chaos schedules replay
    /// identically with tracing on or off.
    pub fn transmit_traced(
        &mut self,
        label: &'static str,
        from: usize,
        to: usize,
    ) -> (TransmitReport, Option<swprof::tel::TraceContext>) {
        let ctx = swprof::tel::send_seq(label, from, to, self.next_send);
        (self.transmit(), ctx)
    }

    /// Messages applied by the receiver so far.
    pub fn applied(&self) -> u64 {
        self.next_expect
    }

    /// Total duplicate copies this channel has discarded.
    pub fn duplicates_discarded(&self) -> u64 {
        self.duplicates_discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swfault::{FaultPlan, Site};

    #[test]
    fn clean_wire_applies_each_message_once() {
        let mut ch = SeqChannel::new();
        for i in 0..10 {
            let r = ch.transmit();
            assert_eq!(r.seq, i);
            assert_eq!(r.copies_delivered, 1);
            assert_eq!(r.duplicates_discarded, 0);
        }
        assert_eq!(ch.applied(), 10);
        assert_eq!(ch.duplicates_discarded(), 0);
    }

    #[test]
    fn delayed_retransmit_is_discarded_not_double_applied() {
        let plan = FaultPlan {
            net_delay: 1.0,
            ..FaultPlan::with_seed(7)
        };
        let scope = swfault::install(plan);
        let mut ch = SeqChannel::new();
        for i in 0..5 {
            let r = ch.transmit();
            assert_eq!(r.seq, i);
            assert_eq!(r.copies_delivered, 2, "delay => retransmit + original");
            assert_eq!(r.duplicates_discarded, 1);
        }
        let log = scope.finish();
        assert_eq!(log.count(Site::NetDelay), 5);
        // The receiver applied each message exactly once.
        assert_eq!(ch.applied(), 5);
        assert_eq!(ch.duplicates_discarded(), 5);
    }

    #[test]
    fn stale_seq_is_rejected_on_explicit_accept() {
        let mut ch = SeqChannel::new();
        assert_eq!(ch.accept(0), Delivery::Fresh(0));
        assert_eq!(ch.accept(1), Delivery::Fresh(1));
        // A late copy of an already-applied message.
        assert_eq!(ch.accept(0), Delivery::Duplicate(0));
        assert_eq!(ch.accept(1), Delivery::Duplicate(1));
        assert_eq!(ch.applied(), 2);
        assert_eq!(ch.duplicates_discarded(), 2);
    }

    #[test]
    fn discarded_duplicates_leave_no_orphan_flow_events() {
        // Every transmit is delayed => every message arrives twice and
        // the second copy is discarded. The trace must still pair each
        // send with exactly one receive: one flow per *logical*
        // message, none per duplicate copy.
        let session = swprof::tel::Session::begin(0x5e9);
        let plan = FaultPlan {
            net_delay: 1.0,
            ..FaultPlan::with_seed(7)
        };
        let scope = swfault::install(plan);
        let mut ch = SeqChannel::new();
        for i in 0..8 {
            let (report, ctx) = ch.transmit_traced("halo.f", 0, 1);
            assert_eq!(report.duplicates_discarded, 1);
            let ctx = ctx.expect("session active");
            assert_eq!(ctx.seqno, i, "context carries the channel seqno");
            swprof::tel::deliver(&ctx, 100);
        }
        drop(scope.finish());
        let tel = session.finish();
        tel.check_causal().expect("causal");
        assert_eq!(tel.flows.len(), 16, "8 sends + 8 receives, no extras");
        assert_eq!(tel.undelivered_flows(), 0);
        assert_eq!(ch.duplicates_discarded(), 8);
    }

    #[test]
    fn transmit_traced_is_inert_without_a_session() {
        let mut ch = SeqChannel::new();
        let (report, ctx) = ch.transmit_traced("halo.f", 0, 1);
        assert_eq!(report.seq, 0);
        assert!(ctx.is_none());
    }

    #[test]
    fn duplicates_never_fabricate_a_happens_before_edge() {
        use sw26010::trace::{self, EventKind};
        // Every transmit is delayed => two copies per message, but the
        // substrate trace must pair each ChanSend with exactly one
        // ChanRecv of the same (chan, seq): the discarded duplicate
        // emits nothing, so the HB engine can trust every edge it sees.
        let session = trace::Session::begin();
        let plan = FaultPlan {
            net_delay: 1.0,
            ..FaultPlan::with_seed(7)
        };
        let scope = swfault::install(plan);
        let mut ch = SeqChannel::new();
        for _ in 0..4 {
            ch.transmit();
        }
        drop(scope.finish());
        let ev = session.finish();
        let sends: Vec<_> = ev
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChanSend { chan, seq } => Some((chan, seq)),
                _ => None,
            })
            .collect();
        let recvs: Vec<_> = ev
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChanRecv { chan, seq } => Some((chan, seq)),
                _ => None,
            })
            .collect();
        let expect: Vec<_> = (0..4).map(|s| (ch.chan_id, s)).collect();
        assert_eq!(sends, expect);
        assert_eq!(recvs, expect, "one recv per logical message, not per copy");
    }

    #[test]
    fn applied_count_matches_transmits_under_any_delay_rate() {
        for seed in [1u64, 42, 99] {
            let plan = FaultPlan {
                net_delay: 0.5,
                ..FaultPlan::with_seed(seed)
            };
            let scope = swfault::install(plan);
            let mut ch = SeqChannel::new();
            for _ in 0..100 {
                ch.transmit();
            }
            drop(scope.finish());
            assert_eq!(ch.applied(), 100, "seed {seed}: exactly-once broke");
        }
    }
}
