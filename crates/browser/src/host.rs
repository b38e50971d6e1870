//! The node enum driven by the `h3cdn-netsim` engine.

use h3cdn_netsim::{Node, NodeCtx, TransportClass};
use h3cdn_sim_core::SimTime;
use h3cdn_transport::{ConnId, WirePacket};

use crate::client::ClientHost;
use crate::server::ServerHost;

/// The connections a host must poll, as a sorted `Vec`. A host holds a
/// handful to a few dozen connections, so a binary search and a short
/// shift replace the tree search per packet, and every walk stays in
/// `ConnId` order: (server, port) at a client, (client, port) at a
/// server. That order is what keeps the simulation outputs fixed.
#[derive(Debug, Default)]
pub(crate) struct DirtySet {
    ids: Vec<ConnId>,
}

impl DirtySet {
    /// Adds `id` (a no-op when it is already present).
    pub fn insert(&mut self, id: ConnId) {
        if let Err(at) = self.ids.binary_search(&id) {
            self.ids.insert(at, id);
        }
    }

    /// Removes `id` if present.
    pub fn remove(&mut self, id: ConnId) {
        if let Ok(at) = self.ids.binary_search(&id) {
            self.ids.remove(at);
        }
    }

    /// Removes and returns the smallest id.
    pub fn pop_first(&mut self) -> Option<ConnId> {
        if self.ids.is_empty() {
            return None;
        }
        Some(self.ids.remove(0))
    }

    /// Whether no connection is marked.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Marked ids strictly after `cursor` (all of them for `None`),
    /// ascending.
    pub fn after(&self, cursor: Option<ConnId>) -> impl Iterator<Item = ConnId> + '_ {
        let from = cursor.map_or(0, |c| self.ids.partition_point(|&id| id <= c));
        self.ids.get(from..).unwrap_or_default().iter().copied()
    }
}

/// Either side of a visit, as one engine node type. Both sides carry
/// substantial state, so both are boxed to keep the enum (and the
/// engine's node vector) small.
#[derive(Debug)]
pub(crate) enum SimHost {
    /// The browser.
    Client(Box<ClientHost>),
    /// One domain's server.
    Server(Box<ServerHost>),
}

impl Node for SimHost {
    type Packet = WirePacket;

    fn handle_packet(&mut self, packet: WirePacket, ctx: &mut NodeCtx<'_, WirePacket>) {
        match self {
            SimHost::Client(c) => c.on_packet(packet, ctx),
            SimHost::Server(s) => s.on_packet(packet, ctx),
        }
    }

    fn handle_wakeup(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        match self {
            SimHost::Client(c) => c.on_wakeup(ctx),
            SimHost::Server(s) => s.on_wakeup(ctx),
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        match self {
            SimHost::Client(c) => c.next_wakeup(),
            SimHost::Server(s) => s.next_wakeup(),
        }
    }

    fn classify(packet: &WirePacket) -> TransportClass {
        match packet {
            WirePacket::Quic(_) => TransportClass::Udp,
            WirePacket::Tcp(_) => TransportClass::Tcp,
        }
    }

    fn stall_detail(&self) -> Option<String> {
        match self {
            SimHost::Client(c) => c.stall_detail(),
            SimHost::Server(_) => None,
        }
    }
}
