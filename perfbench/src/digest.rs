//! Digests of simulated outputs: the correctness check of every run.
//!
//! Only simulated results go in — page load times, HAR timings and
//! flags, packet and queue counters, edge counters, the population
//! summary. Host-side counts (`sim_events`, allocations) stay out: an
//! optimisation may change them without changing what was simulated.

use h3cdn::browser::{ClientOutcome, ResilienceStats, SwarmOutcome, VisitOutcome, VisitStats};
use h3cdn::cdn::EdgeStats;
use h3cdn::har::HarPage;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a sequence of per-operation digests (one pass).
pub fn combine(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &x in digests {
        d.u64(x);
    }
    d.finish()
}

fn har(d: &mut Digest, page: &HarPage) {
    d.u64(page.site as u64);
    d.str(&page.protocol_mode);
    d.f64(page.plt_ms);
    d.u64(page.entries.len() as u64);
    for e in &page.entries {
        d.u64(e.id);
        d.str(&e.protocol);
        d.u64(e.connection);
        d.u64(e.body_bytes);
        d.f64(e.started_ms);
        let t = &e.timing;
        for v in [
            t.blocked_ms,
            t.dns_ms,
            t.connect_ms,
            t.send_ms,
            t.wait_ms,
            t.receive_ms,
        ] {
            d.f64(v);
        }
        d.bool(e.resumed);
        d.bool(e.early_data);
    }
}

fn visit_stats(d: &mut Digest, s: &VisitStats) {
    for v in [
        s.packets_delivered,
        s.packets_lost,
        s.packets_fault_dropped,
        s.packets_dynamics_dropped,
        s.queue.transmitted,
        s.queue.tail_dropped,
        s.queue.aqm_dropped,
        s.queue.sum_sojourn_ns,
        s.queue.max_sojourn_ns,
        s.queue.max_backlog_bytes,
    ] {
        d.u64(v);
    }
}

fn resilience(d: &mut Digest, r: &ResilienceStats) {
    d.u64(r.h3_fallbacks);
    d.u64(r.fallback_wait.as_nanos());
    d.u64(r.conn_retries);
}

fn edge_stats(d: &mut Digest, s: &EdgeStats) {
    for v in [
        s.admitted_tcp,
        s.admitted_quic,
        s.refused_tcp,
        s.refused_quic,
        s.shed_conn_limit,
        s.shed_quic_policy,
        s.shed_memory,
        s.shed_cpu,
        s.ticket_hits,
        s.ticket_misses,
        s.ticket_evictions,
    ] {
        d.u64(v);
    }
}

/// Digest of one `visit_page` outcome.
pub fn visit(o: &VisitOutcome) -> u64 {
    let mut d = Digest::default();
    har(&mut d, &o.har);
    visit_stats(&mut d, &o.stats);
    resilience(&mut d, &o.resilience);
    d.u64(o.tickets.len() as u64);
    d.finish()
}

fn client(d: &mut Digest, c: &ClientOutcome) {
    d.bool(c.completed);
    d.f64(c.plt_ms.unwrap_or(-1.0));
    d.u64(c.pending_requests as u64);
    resilience(d, &c.resilience);
    d.u64(c.broken_quic.len() as u64);
    if let Some(page) = &c.har {
        har(d, page);
    }
}

/// Digest of one `run_swarm` outcome, stranded clients included.
pub fn swarm(o: &SwarmOutcome) -> u64 {
    let mut d = Digest::default();
    d.u64(o.clients.len() as u64);
    for c in &o.clients {
        client(&mut d, c);
    }
    for (name, stats) in &o.edges {
        d.str(name);
        edge_stats(&mut d, stats);
    }
    visit_stats(&mut d, &o.stats);
    d.finish()
}

/// Digest of a serialised population summary.
pub fn text(s: &str) -> u64 {
    let mut d = Digest::default();
    d.str(s);
    d.finish()
}
