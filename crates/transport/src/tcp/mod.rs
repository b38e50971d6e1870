//! A segment-level, sans-IO TCP implementation.
//!
//! The simulation needs TCP for one reason above all: **strictly in-order
//! delivery**. HTTP/2 multiplexes every stream onto one TCP byte stream,
//! so a single lost segment stalls all of them — the head-of-line blocking
//! whose cost the paper's Fig. 9 sweeps out under 0/0.5/1 % loss. The
//! implementation therefore models, faithfully:
//!
//! * the three-way handshake (SYN / SYN-ACK / ACK), with retransmission,
//! * cumulative acknowledgements with duplicate-ACK fast retransmit,
//! * retransmission timeouts with go-back-N recovery,
//! * congestion control via the shared [`crate::cc`] controllers,
//! * receiver-side in-order reassembly with an out-of-order buffer,
//! * peer receive-window flow control.
//!
//! Payload bytes are abstract: applications write *messages* (a length
//! plus a [`MsgTag`]), the stream carries byte counts, and the receiving
//! side reports [`TcpEvent::Delivered`] when a message's final byte
//! arrives **in order** — exactly when a real kernel would hand those
//! bytes to the process.
//!
//! Deliberate simplifications (documented per DESIGN.md): no FIN
//! teardown (connections are dropped by their owners between page visits,
//! as the paper's methodology clears state between visits), immediate
//! ACKs (no 40 ms delayed-ACK timer), and no Nagle. RST exists in one
//! form only: a server refusing a new connection at admission (the
//! overloaded-edge path); established connections never RST each other.

mod connection;

pub use connection::{TcpConfig, TcpConnection, TcpEvent};

use crate::conn_id::ConnId;
use crate::markers::Markers;

/// TCP/IPv4 header overhead per segment, in bytes.
pub(crate) const TCP_HEADER_BYTES: u64 = 40;

/// A TCP segment on the wire.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// Connection this segment belongs to.
    pub conn: ConnId,
    /// `true` when sent by the connection's client side.
    pub from_client: bool,
    /// SYN flag (handshake).
    pub syn: bool,
    /// RST flag: the receiver must abandon the connection (sent only by
    /// a server refusing admission; carries no payload).
    pub rst: bool,
    /// ACK flag; `ack` is valid when set.
    pub ack_flag: bool,
    /// First payload byte's offset in the sender's stream.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Cumulative acknowledgement: next byte expected from the peer.
    pub ack: u64,
    /// Sender's advertised receive window.
    pub rwnd: u64,
    /// Message boundaries ending within `[seq, seq+len)`: `(end, tag)`.
    pub markers: Markers,
    /// SACK blocks: up to four merged `[start, end)` byte ranges the
    /// receiver holds above the cumulative ACK (RFC 2018).
    pub sack: Vec<(u64, u64)>,
}

impl TcpSegment {
    /// Serialised size on the wire (payload + headers).
    pub fn wire_bytes(&self) -> u64 {
        self.len + TCP_HEADER_BYTES
    }

    /// Whether this segment carries payload or a SYN (i.e. occupies
    /// sequence space / elicits an ACK in our model).
    pub fn is_data_bearing(&self) -> bool {
        self.len > 0 || self.syn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_netsim::NodeId;

    fn conn() -> ConnId {
        ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
    }

    #[test]
    fn wire_bytes_include_header() {
        let seg = TcpSegment {
            conn: conn(),
            from_client: true,
            syn: false,
            rst: false,
            ack_flag: true,
            seq: 0,
            len: 1000,
            ack: 0,
            rwnd: 65535,
            markers: Markers::new(),
            sack: vec![],
        };
        assert_eq!(seg.wire_bytes(), 1040);
    }

    #[test]
    fn data_bearing_classification() {
        let mut seg = TcpSegment {
            conn: conn(),
            from_client: true,
            syn: true,
            rst: false,
            ack_flag: false,
            seq: 0,
            len: 0,
            ack: 0,
            rwnd: 65535,
            markers: Markers::new(),
            sack: vec![],
        };
        assert!(seg.is_data_bearing(), "SYN elicits an ACK");
        seg.syn = false;
        assert!(!seg.is_data_bearing(), "pure ACK");
        seg.len = 1;
        assert!(seg.is_data_bearing());
        // A refusal RST is header-only: it must not occupy sequence
        // space or elicit an ACK from the refused client.
        seg.len = 0;
        seg.rst = true;
        assert!(!seg.is_data_bearing(), "RST elicits nothing");
        assert_eq!(seg.wire_bytes(), TCP_HEADER_BYTES);
    }
}
