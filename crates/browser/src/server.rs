//! The server side of a visit: one node per domain, accepting TCP and
//! QUIC connections and answering from its catalog.

use std::sync::Arc;

use h3cdn_cdn::{Admission, EdgeState, EdgeStats, HandshakeKind};
use h3cdn_http::server::{accept, ServerConn};
use h3cdn_http::Catalog;
use h3cdn_netsim::NodeCtx;
use h3cdn_sim_core::units::ByteCount;
use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::quic::{Frame, QuicConfig, QuicPacket};
use h3cdn_transport::tcp::{TcpConfig, TcpSegment};
use h3cdn_transport::{ConnId, Markers, WirePacket};

use crate::host::SortedSet;

/// Stable key for one connection in the edge's admission ledger: the
/// client node and its ephemeral port (the server node is the edge).
fn admission_key(id: ConnId) -> u64 {
    ((id.client.index() as u64) << 32) | u64::from(id.port)
}

/// Synthesises the wire-level refusal for a shed handshake: QUIC
/// CONNECTION_REFUSED or a TCP RST, both header-only.
fn refusal_packet(kind: HandshakeKind, id: ConnId) -> WirePacket {
    match kind {
        HandshakeKind::Quic => WirePacket::Quic(QuicPacket {
            conn: id,
            from_client: false,
            pn: 0,
            frames: vec![Frame::ConnectionRefused],
        }),
        HandshakeKind::Tcp => WirePacket::Tcp(TcpSegment {
            conn: id,
            from_client: false,
            syn: false,
            rst: true,
            ack_flag: false,
            seq: 0,
            len: 0,
            ack: 0,
            rwnd: 0,
            markers: Markers::new(),
            sack: vec![],
        }),
    }
}

/// One accepted connection and its bookkeeping.
#[derive(Debug)]
struct Accepted {
    id: ConnId,
    conn: ServerConn,
    /// The deadline currently indexed in [`ServerHost::timeouts`].
    armed: Option<SimTime>,
    /// Whether its resources have been returned to the edge.
    released: bool,
}

/// Marks an unused entry of [`AcceptTable::index`].
const NO_SLOT: u32 = u32::MAX;

/// The server's connections: a slab in accept order (never removed)
/// reached through a per-client port index. Client ports are small and
/// dense, so the index rows stay short.
#[derive(Debug, Default)]
struct AcceptTable {
    slab: Vec<Accepted>,
    /// `index[client][port]` is the slab slot of the connection from
    /// `client`'s `port`, or [`NO_SLOT`].
    index: Vec<Vec<u32>>,
}

impl AcceptTable {
    fn get_mut(&mut self, id: ConnId) -> Option<&mut Accepted> {
        let row = self.index.get(id.client.index())?;
        let &slot = row.get(id.port as usize)?;
        self.slab.get_mut(slot as usize).filter(|a| a.id == id)
    }

    /// Files a freshly accepted connection.
    fn insert(&mut self, id: ConnId, conn: ServerConn) {
        let (client, port) = (id.client.index(), id.port as usize);
        if self.index.len() <= client {
            self.index.resize_with(client + 1, Vec::new);
        }
        let Some(row) = self.index.get_mut(client) else {
            return;
        };
        if row.len() <= port {
            row.resize(port + 1, NO_SLOT);
        }
        let (Some(entry), Ok(slot)) = (row.get_mut(port), u32::try_from(self.slab.len())) else {
            return;
        };
        *entry = slot;
        self.slab.push(Accepted {
            id,
            conn,
            armed: None,
            released: false,
        });
    }
}

/// A domain's server: accepts connections on demand, one [`ServerConn`]
/// per client connection, all sharing the domain's response catalog.
#[derive(Debug)]
pub(crate) struct ServerHost {
    catalog: Arc<Catalog>,
    tcp_config: TcpConfig,
    quic_config: QuicConfig,
    /// Surcharge applied to QUIC-served (H3) requests.
    h3_extra_processing: SimDuration,
    conns: AcceptTable,
    /// Connections with potentially-pending output (fed a packet or a
    /// fired timer since last drained). The pump polls exactly these.
    dirty: SortedSet<ConnId>,
    /// `(deadline, conn)` pairs mirroring each connection's
    /// `next_timeout()` — the wakeup re-arm reads one key instead of
    /// scanning every connection.
    timeouts: SortedSet<(SimTime, ConnId)>,
    /// Finite-resource admission controller. `None` models the
    /// infinitely provisioned edge of the client-side experiments —
    /// that path is bit-identical to the pre-edge server.
    edge: Option<EdgeState>,
}

impl ServerHost {
    /// Creates a server for one domain.
    pub fn new(
        catalog: Arc<Catalog>,
        tcp_config: TcpConfig,
        quic_config: QuicConfig,
        h3_extra_processing: SimDuration,
    ) -> Self {
        ServerHost {
            catalog,
            tcp_config,
            quic_config,
            h3_extra_processing,
            conns: AcceptTable::default(),
            dirty: SortedSet::default(),
            timeouts: SortedSet::default(),
            edge: None,
        }
    }

    /// Installs a finite-resource admission controller for this edge.
    pub fn set_edge(&mut self, edge: EdgeState) {
        self.edge = Some(edge);
    }

    /// The edge's admission/shedding counters (zeroes when the server
    /// runs without an admission controller).
    pub fn edge_stats(&self) -> EdgeStats {
        self.edge.as_ref().map(|e| *e.stats()).unwrap_or_default()
    }

    /// Handles an incoming packet, accepting a new connection when the
    /// id is unknown.
    pub fn on_packet(&mut self, pkt: WirePacket, ctx: &mut NodeCtx<'_, WirePacket>) {
        let now = ctx.now();
        if let Some(refusal) = self.deliver(pkt, now) {
            let size = ByteCount::new(refusal.wire_bytes());
            ctx.send(refusal.conn_id().client, refusal, size);
            return;
        }
        self.pump(ctx);
    }

    /// Feeds `pkt` to its connection, accepting one when the id is new,
    /// and marks it for the pump. When the edge sheds the handshake
    /// instead, returns the refusal to send back.
    fn deliver(&mut self, pkt: WirePacket, now: SimTime) -> Option<WirePacket> {
        let id = pkt.conn_id();
        if self.conns.get_mut(id).is_none() {
            let kind = match pkt {
                WirePacket::Quic(_) => HandshakeKind::Quic,
                WirePacket::Tcp(_) => HandshakeKind::Tcp,
            };
            // A ticket miss means the edge evicted this client's
            // server-side session state: early data must be rejected
            // (the client pays the 1-RTT downgrade). Hits — and the
            // edgeless path — keep the configured acceptance.
            let mut accept_early_data = self.quic_config.accept_early_data;
            if let Some(edge) = self.edge.as_mut() {
                let verdict = edge.admit(kind, admission_key(id), id.client.index() as u64, now);
                match verdict {
                    Admission::Refused { .. } => {
                        // Refuse explicitly instead of queueing forever:
                        // an immediate wire-level no (CONNECTION_REFUSED
                        // / RST) that the client's resilience stack can
                        // react to within one RTT. A retransmitted
                        // SYN/Initial re-runs admission, so refusals
                        // recover as budgets refill.
                        return Some(refusal_packet(kind, id));
                    }
                    Admission::Admitted { ticket_hit } => {
                        if kind == HandshakeKind::Quic && !ticket_hit {
                            accept_early_data = false;
                        }
                    }
                }
            }
            let extra = match pkt {
                WirePacket::Quic(_) => self.h3_extra_processing,
                WirePacket::Tcp(_) => SimDuration::ZERO,
            };
            let quic_config = QuicConfig {
                accept_early_data,
                ..self.quic_config.clone()
            };
            let conn = accept(
                &pkt,
                id,
                &self.tcp_config,
                &quic_config,
                Arc::clone(&self.catalog),
                extra,
            );
            self.conns.insert(id, conn);
        }
        if let Some(accepted) = self.conns.get_mut(id) {
            accepted.conn.on_packet(pkt, now);
            self.dirty.insert(id);
        }
        None
    }

    /// Fires due timers across connections.
    pub fn on_wakeup(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        let now = ctx.now();
        // Walk the time-ordered index instead of scanning every conn;
        // `on_timeout` only mutates its own connection, so index order is
        // as good as the id order of the old scan.
        while let Some((t, id)) = self.timeouts.first() {
            if t > now {
                break;
            }
            self.timeouts.pop_first();
            let Some(accepted) = self.conns.get_mut(id) else {
                continue;
            };
            accepted.armed = None;
            accepted.conn.on_timeout(now);
            self.dirty.insert(id);
        }
        self.pump(ctx);
    }

    /// Earliest timer across connections.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.timeouts.first().map(|(t, _)| t)
    }

    fn pump(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        let now = ctx.now();
        // A cooked response whose ready time has passed is released by
        // `poll_transmit` regardless of which event woke the node, so
        // every conn at-or-past its deadline must be polled too, not
        // just the ones fed input by this event.
        for (t, id) in self.timeouts.after(None) {
            if t > now {
                break;
            }
            self.dirty.insert(id);
        }
        while let Some(id) = self.dirty.pop_first() {
            let Some(accepted) = self.conns.get_mut(id) else {
                continue;
            };
            while let Some(pkt) = accepted.conn.poll_transmit(now) {
                let size = ByteCount::new(pkt.wire_bytes());
                ctx.send(id.client, pkt, size);
            }
            if let Some(edge) = self.edge.as_mut() {
                if accepted.conn.is_closed() && !accepted.released {
                    // Return the slot/memory to the admission budgets
                    // once per connection; later refusals recover
                    // immediately.
                    accepted.released = true;
                    edge.release(admission_key(id));
                }
            }
            let fresh = accepted.conn.next_timeout();
            if fresh != accepted.armed {
                if let Some(old) = accepted.armed.take() {
                    self.timeouts.remove((old, id));
                }
                if let Some(t) = fresh {
                    self.timeouts.insert((t, id));
                }
                accepted.armed = fresh;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_netsim::NodeId;

    fn syn(conn: ConnId) -> WirePacket {
        WirePacket::Tcp(TcpSegment {
            conn,
            from_client: true,
            syn: true,
            rst: false,
            ack_flag: false,
            seq: 0,
            len: 0,
            ack: 0,
            rwnd: 0,
            markers: Markers::new(),
            sack: vec![],
        })
    }

    #[test]
    fn clients_sharing_a_port_reach_distinct_connections() {
        let mut server = ServerHost::new(
            Arc::new(h3cdn_http::Catalog::new()),
            TcpConfig::default(),
            QuicConfig::default(),
            SimDuration::ZERO,
        );
        let edge = NodeId::from_raw(1);
        let a = ConnId::new(NodeId::from_raw(4), edge, 1);
        let b = ConnId::new(NodeId::from_raw(2), edge, 1);
        for id in [a, b, a] {
            assert!(server.deliver(syn(id), SimTime::ZERO).is_none());
        }
        // The repeated SYN reached `a`'s connection instead of accepting
        // a third one.
        assert_eq!(server.conns.slab.len(), 2);
        assert_eq!(server.conns.get_mut(a).map(|c| c.id), Some(a));
        assert_eq!(server.conns.get_mut(b).map(|c| c.id), Some(b));
        // The pump drains in (client, port) order.
        assert_eq!(server.dirty.pop_first(), Some(b));
        assert_eq!(server.dirty.pop_first(), Some(a));
        assert_eq!(server.dirty.pop_first(), None);
        // An unaccepted port misses.
        assert!(server
            .conns
            .get_mut(ConnId::new(a.client, edge, 2))
            .is_none());
    }
}
