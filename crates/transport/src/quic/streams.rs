//! Per-stream send and receive state.
//!
//! Each QUIC stream is an independent ordered byte stream. The receive
//! side reassembles out-of-order frames *per stream*, which is precisely
//! why one lost packet cannot stall other streams — the transport-level
//! HoL-blocking cure the paper credits H3 with.

use std::collections::BTreeMap;

use h3cdn_sim_core::SimTime;

use crate::conn_id::MsgTag;
use crate::markers::Markers;

/// A frame-sized slice of stream data: `(offset, len, markers ending
/// inside the slice)`.
pub(crate) type StreamSlice = (u64, u64, Markers);

/// Scheduling class of a stream whose priority was never set.
pub(crate) const DEFAULT_CLASS: u8 = 1;

/// Send half of one stream.
#[derive(Debug)]
pub(crate) struct SendStream {
    /// Scheduling class (lower is sent first).
    pub(crate) class: u8,
    /// Total bytes written by the application.
    written: u64,
    /// First byte never yet packetised.
    next_unsent: u64,
    /// Ranges queued for retransmission (offset → len).
    rtx: BTreeMap<u64, u64>,
    /// Message boundaries (end offset → tag), kept for re-sends.
    markers: BTreeMap<u64, MsgTag>,
}

impl Default for SendStream {
    fn default() -> Self {
        SendStream {
            class: DEFAULT_CLASS,
            written: 0,
            next_unsent: 0,
            rtx: BTreeMap::new(),
            markers: BTreeMap::new(),
        }
    }
}

impl SendStream {
    /// Appends an application message.
    pub fn write(&mut self, len: u64, tag: MsgTag) {
        debug_assert!(len > 0, "empty messages are not writable");
        self.written += len;
        self.markers.insert(self.written, tag);
    }

    /// Whether any bytes are pending (new or retransmission).
    pub fn has_pending(&self) -> bool {
        !self.rtx.is_empty() || self.next_unsent < self.written
    }

    /// Bytes pending transmission.
    pub fn pending_bytes(&self) -> u64 {
        let rtx: u64 = self.rtx.values().sum();
        rtx + (self.written - self.next_unsent)
    }

    /// Takes up to `budget` bytes to put in a frame, preferring
    /// retransmissions. Returns `(offset, len, markers)`.
    pub fn take(&mut self, budget: u64) -> Option<StreamSlice> {
        self.take_limited(budget, u64::MAX)
    }

    /// As [`SendStream::take`], but *new* data may not extend past
    /// `flow_limit` (the peer's `MAX_STREAM_DATA`); retransmissions are
    /// always below it.
    pub fn take_limited(&mut self, budget: u64, flow_limit: u64) -> Option<StreamSlice> {
        if budget == 0 {
            return None;
        }
        if let Some((&offset, &len)) = self.rtx.iter().next() {
            self.rtx.remove(&offset);
            let take = len.min(budget);
            if take < len {
                self.rtx.insert(offset + take, len - take);
            }
            return Some((offset, take, self.markers_in(offset, take)));
        }
        if self.next_unsent < self.written && self.next_unsent < flow_limit {
            let offset = self.next_unsent;
            let take = (self.written - offset).min(budget).min(flow_limit - offset);
            self.next_unsent += take;
            return Some((offset, take, self.markers_in(offset, take)));
        }
        None
    }

    /// Highest stream offset handed out for first transmission.
    pub fn sent_watermark(&self) -> u64 {
        self.next_unsent
    }

    /// Re-queues a previously sent range after packet loss.
    pub fn requeue(&mut self, offset: u64, len: u64) {
        // Coalescing is unnecessary for correctness; ranges re-fragment
        // on the next take().
        let entry = self.rtx.entry(offset).or_insert(0);
        *entry = (*entry).max(len);
    }

    fn markers_in(&self, offset: u64, len: u64) -> Markers {
        self.markers
            .range(offset + 1..=offset + len)
            .map(|(&end, &tag)| (end, tag))
            .collect()
    }
}

/// Receive half of one stream.
#[derive(Debug, Default)]
pub(crate) struct RecvStream {
    /// Next in-order byte expected.
    rcv_next: u64,
    /// Out-of-order ranges (offset → len).
    out_of_order: BTreeMap<u64, u64>,
    /// Message boundaries (end → tag) awaiting in-order delivery.
    markers: BTreeMap<u64, MsgTag>,
    /// Total in-order bytes delivered.
    delivered: u64,
}

impl RecvStream {
    /// Ingests one stream frame; returns messages whose final byte is now
    /// delivered in order, with `at` as their delivery time.
    pub fn on_frame(
        &mut self,
        offset: u64,
        len: u64,
        markers: &[(u64, MsgTag)],
        at: SimTime,
    ) -> Vec<(MsgTag, SimTime)> {
        for &(end, tag) in markers {
            // A marker ending inside the already-delivered prefix is a
            // duplicate (its original frame fired it); re-inserting would
            // fire it twice.
            if end > self.rcv_next {
                self.markers.insert(end, tag);
            }
        }
        let end = offset + len;
        if offset <= self.rcv_next {
            if end > self.rcv_next {
                self.rcv_next = end;
                // Merge any now-contiguous buffered ranges.
                while let Some((&o, &l)) = self.out_of_order.iter().next() {
                    if o <= self.rcv_next {
                        self.out_of_order.remove(&o);
                        self.rcv_next = self.rcv_next.max(o + l);
                    } else {
                        break;
                    }
                }
            }
        } else {
            self.out_of_order.insert(offset, len);
        }
        self.delivered = self.rcv_next;
        let mut fired = Vec::new();
        while let Some((&mend, &tag)) = self.markers.iter().next() {
            if mend <= self.rcv_next {
                self.markers.remove(&mend);
                fired.push((tag, at));
            } else {
                break;
            }
        }
        fired
    }

    /// Total in-order bytes received so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_stream_take_respects_budget() {
        let mut s = SendStream::default();
        s.write(1000, MsgTag(1));
        let (off, len, markers) = s.take(400).unwrap();
        assert_eq!((off, len), (0, 400));
        assert!(markers.is_empty(), "message end not in this fragment");
        let (off, len, markers) = s.take(10_000).unwrap();
        assert_eq!((off, len), (400, 600));
        assert_eq!(markers.as_slice(), vec![(1000, MsgTag(1))]);
        assert!(s.take(100).is_none());
    }

    #[test]
    fn retransmissions_take_priority() {
        let mut s = SendStream::default();
        s.write(2000, MsgTag(1));
        let _ = s.take(1000).unwrap(); // bytes 0..1000 "sent"
        s.requeue(0, 1000);
        let (off, len, _) = s.take(600).unwrap();
        assert_eq!((off, len), (0, 600));
        let (off, len, _) = s.take(600).unwrap();
        assert_eq!((off, len), (600, 400), "rest of the requeued range");
        let (off, _, _) = s.take(600).unwrap();
        assert_eq!(off, 1000, "then new data");
    }

    #[test]
    fn take_limited_respects_flow_limit() {
        let mut s = SendStream::default();
        s.write(1000, MsgTag(1));
        let (off, len, _) = s.take_limited(10_000, 400).unwrap();
        assert_eq!((off, len), (0, 400));
        assert!(s.take_limited(10_000, 400).is_none(), "limit reached");
        // Retransmissions below the limit still flow.
        s.requeue(0, 200);
        assert!(s.take_limited(10_000, 400).is_some());
        // Raising the limit releases the rest.
        let (off, len, _) = s.take_limited(10_000, 1000).unwrap();
        assert_eq!((off, len), (400, 600));
        assert_eq!(s.sent_watermark(), 1000);
    }

    #[test]
    fn pending_accounting() {
        let mut s = SendStream::default();
        assert!(!s.has_pending());
        s.write(100, MsgTag(1));
        assert!(s.has_pending());
        assert_eq!(s.pending_bytes(), 100);
        let _ = s.take(100);
        assert!(!s.has_pending());
        s.requeue(0, 40);
        assert_eq!(s.pending_bytes(), 40);
    }

    #[test]
    fn recv_stream_in_order_delivery() {
        let mut r = RecvStream::default();
        let t = SimTime::ZERO;
        let fired = r.on_frame(0, 500, &[(500, MsgTag(7))], t);
        assert_eq!(fired, vec![(MsgTag(7), t)]);
        assert_eq!(r.delivered_bytes(), 500);
    }

    #[test]
    fn recv_stream_buffers_gaps() {
        let mut r = RecvStream::default();
        let t = SimTime::ZERO;
        // Bytes 500..1000 arrive first: nothing fires.
        let fired = r.on_frame(500, 500, &[(1000, MsgTag(1))], t);
        assert!(fired.is_empty());
        assert_eq!(r.delivered_bytes(), 0);
        // The hole fills: delivery advances past both ranges.
        let fired = r.on_frame(0, 500, &[], t);
        assert_eq!(fired, vec![(MsgTag(1), t)]);
        assert_eq!(r.delivered_bytes(), 1000);
    }

    #[test]
    fn duplicate_frames_are_idempotent() {
        let mut r = RecvStream::default();
        let t = SimTime::ZERO;
        let f1 = r.on_frame(0, 300, &[(300, MsgTag(2))], t);
        let f2 = r.on_frame(0, 300, &[(300, MsgTag(2))], t);
        assert_eq!(f1.len(), 1);
        assert!(f2.is_empty(), "marker must fire once");
    }

    #[test]
    fn multiple_messages_fire_in_order() {
        let mut r = RecvStream::default();
        let t = SimTime::ZERO;
        let fired = r.on_frame(0, 900, &[(300, MsgTag(1)), (900, MsgTag(2))], t);
        assert_eq!(fired, vec![(MsgTag(1), t), (MsgTag(2), t)]);
    }
}
