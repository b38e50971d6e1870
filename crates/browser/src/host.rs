//! The node enum driven by the `h3cdn-netsim` engine.

use h3cdn_netsim::{Node, NodeCtx, TransportClass};
use h3cdn_sim_core::SimTime;
use h3cdn_transport::WirePacket;

use crate::client::ClientHost;
use crate::server::ServerHost;

/// A small ordered set as a sorted `Vec`. The hosts keep two per side:
/// the connections to poll (`ConnId`) and the armed connection timers
/// (`(SimTime, ConnId)`). A host holds a handful to a few dozen
/// connections, so a binary search and a short shift replace the tree
/// search and node allocation per packet, and every walk stays in key
/// order: (server, port) at a client, (client, port) at a server, and
/// deadline first for timers. That order is what keeps the simulation
/// outputs fixed.
#[derive(Debug)]
pub(crate) struct SortedSet<T> {
    items: Vec<T>,
}

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet { items: Vec::new() }
    }
}

impl<T: Ord + Copy> SortedSet<T> {
    /// Adds `item` (a no-op when it is already present).
    pub fn insert(&mut self, item: T) {
        if let Err(at) = self.items.binary_search(&item) {
            self.items.insert(at, item);
        }
    }

    /// Removes `item` if present.
    pub fn remove(&mut self, item: T) {
        if let Ok(at) = self.items.binary_search(&item) {
            self.items.remove(at);
        }
    }

    /// The smallest item.
    pub fn first(&self) -> Option<T> {
        self.items.first().copied()
    }

    /// Removes and returns the smallest item.
    pub fn pop_first(&mut self) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        Some(self.items.remove(0))
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items strictly after `cursor` (all of them for `None`), ascending.
    pub fn after(&self, cursor: Option<T>) -> impl Iterator<Item = T> + '_ {
        let from = cursor.map_or(0, |c| self.items.partition_point(|&item| item <= c));
        self.items.get(from..).unwrap_or_default().iter().copied()
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
