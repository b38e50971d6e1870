//! The single packet type carried by the simulated network.

use crate::quic::QuicPacket;
use crate::tcp::TcpSegment;

/// A packet on the simulated wire: either a TCP segment (H1.1/H2 + TLS)
/// or a QUIC packet (H3). `h3cdn-netsim` nodes exchange this type.
#[derive(Debug, Clone)]
pub enum WirePacket {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A QUIC packet.
    Quic(QuicPacket),
}

impl WirePacket {
    /// Serialised wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            WirePacket::Tcp(seg) => seg.wire_bytes(),
            WirePacket::Quic(pkt) => pkt.wire_bytes(),
        }
    }

    /// The connection the packet belongs to.
    pub fn conn_id(&self) -> crate::ConnId {
        match self {
            WirePacket::Tcp(seg) => seg.conn,
            WirePacket::Quic(pkt) => pkt.conn,
        }
    }

    /// Whether the packet was sent by the client side of its connection.
    pub fn from_client(&self) -> bool {
        match self {
            WirePacket::Tcp(seg) => seg.from_client,
            WirePacket::Quic(pkt) => pkt.from_client,
        }
    }
}

impl From<TcpSegment> for WirePacket {
    fn from(seg: TcpSegment) -> Self {
        WirePacket::Tcp(seg)
    }
}

impl From<QuicPacket> for WirePacket {
    fn from(pkt: QuicPacket) -> Self {
        WirePacket::Quic(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn_id::ConnId;
    use h3cdn_netsim::NodeId;

    #[test]
    fn dispatches_to_inner_packet() {
        let conn = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 3);
        let seg = TcpSegment {
            conn,
            from_client: true,
            syn: false,
            rst: false,
            ack_flag: true,
            seq: 0,
            len: 100,
            ack: 0,
            rwnd: 1000,
            markers: crate::Markers::new(),
            sack: vec![],
        };
        let wire: WirePacket = seg.into();
        assert_eq!(wire.wire_bytes(), 140);
        assert_eq!(wire.conn_id(), conn);
        assert!(wire.from_client());
    }

    #[test]
    fn wire_packet_stays_small() {
        // Every packet is moved through link queues and the event queue
        // by value, so its size is copied per hop: inline markers may
        // not grow it past this.
        let size = std::mem::size_of::<WirePacket>();
        assert!(size <= 112, "WirePacket grew to {size} bytes");
    }

    #[test]
    fn quic_variant_dispatches() {
        let conn = ConnId::new(NodeId::from_raw(2), NodeId::from_raw(3), 9);
        let pkt = QuicPacket {
            conn,
            from_client: false,
            pn: 1,
            frames: vec![],
        };
        let wire: WirePacket = pkt.into();
        assert_eq!(wire.wire_bytes(), crate::quic::QUIC_PACKET_OVERHEAD);
        assert!(!wire.from_client());
        assert_eq!(wire.conn_id(), conn);
    }
}
