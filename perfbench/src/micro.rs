//! Isolated layer microbenchmarks: each calls one layer's public functions in
//! a loop, without the layers above it, checks what it got back, and
//! reports host nanoseconds per unit of work. Every microbenchmark runs
//! `REPS` times inside its own span and reports the median; a
//! calibration follows every repetition.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use h3cdn::http::h2::{H2Client, TcpServer};
use h3cdn::http::h3::{H3Client, QuicServer};
use h3cdn::http::{Catalog, HttpEvent, RequestMeta, ResponseSpec};
use h3cdn::netsim::{Engine, Network, Node, NodeCtx, NodeId, PathSpec};
use h3cdn::sim_core::units::{ByteCount, DataRate};
use h3cdn::sim_core::{EventQueue, SimDuration, SimTime};
use h3cdn::transport::duplex::{Driveable, Duplex};
use h3cdn::transport::quic::QuicConfig;
use h3cdn::transport::tcp::TcpConfig;
use h3cdn::transport::tls::TlsConfig;
use h3cdn::transport::ConnId;
use h3cdn::web::{page_record, PageRecord, PopulationSpec};
use h3cdn::{run_keyed_streaming, RunnerConfig, ShardedJournal};
use h3cdn_analysis::{QuantileSketch, Welford};

use crate::calib::Speed;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::reset_dir;

const REPS: usize = 5;

/// Host cost per unit of every microbenchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub queue_ns_per_op: f64,
    pub pump_ns_per_packet: f64,
    pub h2_bulk_us: f64,
    pub h3_bulk_us: f64,
    pub h2_small_us: f64,
    pub h3_small_us: f64,
    pub h3_lossy_us: f64,
    /// Packets the lossy transfer's pipe swallowed.
    pub lossy_drops: f64,
    pub page_record_ns: f64,
    pub requests_per_record: f64,
    pub append_ns_per_record: f64,
    pub load_ns_per_record: f64,
    pub bytes_per_record: f64,
    pub runner_ns_per_job: f64,
    pub runner_peak_buffered: f64,
    pub sketch_ns_per_insert: f64,
}

impl LayerCosts {
    /// The costs with every host time multiplied by `scale`.
    pub fn scaled(self, scale: f64) -> LayerCosts {
        LayerCosts {
            queue_ns_per_op: self.queue_ns_per_op * scale,
            pump_ns_per_packet: self.pump_ns_per_packet * scale,
            h2_bulk_us: self.h2_bulk_us * scale,
            h3_bulk_us: self.h3_bulk_us * scale,
            h2_small_us: self.h2_small_us * scale,
            h3_small_us: self.h3_small_us * scale,
            h3_lossy_us: self.h3_lossy_us * scale,
            page_record_ns: self.page_record_ns * scale,
            append_ns_per_record: self.append_ns_per_record * scale,
            load_ns_per_record: self.load_ns_per_record * scale,
            runner_ns_per_job: self.runner_ns_per_job * scale,
            sketch_ns_per_insert: self.sketch_ns_per_insert * scale,
            ..self
        }
    }
}

/// Runs `f` `REPS` times inside spans named `name`; returns the median
/// of what it returns (host nanoseconds per unit).
fn reps(
    tracer: &mut Tracer,
    speed: &mut Speed,
    name: &'static str,
    mut f: impl FnMut() -> f64,
) -> f64 {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        v.push(tracer.span(name, &mut f));
        speed.after(t.elapsed().as_nanos() as f64);
    }
    median(&v)
}

fn per_unit_ns(t: Instant, units: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// A deterministic stream of pseudo-random numbers (64-bit LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
}

/// Hold model on the sim-core event queue: 1024 pending events; each
/// step pops the earliest and schedules one 1 µs – 10 ms later.
fn queue(seed: u64) -> f64 {
    const PENDING: u64 = 1024;
    const STEPS: u64 = 500_000;
    let mut rng = Lcg(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for e in 0..PENDING {
        q.schedule(SimTime::from_nanos(1_000 + rng.next() % 10_000_000), e);
    }
    let t = Instant::now();
    let mut last = SimTime::ZERO;
    for _ in 0..STEPS {
        let (at, e) = q.pop().expect("the hold model keeps the queue full");
        assert!(at >= last, "event queue popped out of time order");
        last = at;
        q.schedule(
            at + SimDuration::from_nanos(1_000 + rng.next() % 10_000_000),
            black_box(e),
        );
    }
    per_unit_ns(t, STEPS)
}

/// Echo node for the netsim pump: node 0 sends a burst at t = 0, node 1
/// returns every packet it receives.
#[derive(Debug)]
struct Echo {
    peer: NodeId,
    burst: u32,
    fired: bool,
    received: u64,
}

impl Node for Echo {
    type Packet = u32;

    fn handle_packet(&mut self, packet: u32, ctx: &mut NodeCtx<'_, u32>) {
        self.received += 1;
        if self.burst == 0 {
            ctx.send(self.peer, packet, ByteCount::new(1200));
        }
    }

    fn handle_wakeup(&mut self, ctx: &mut NodeCtx<'_, u32>) {
        self.fired = true;
        for k in 0..self.burst {
            ctx.send(self.peer, k, ByteCount::new(1200));
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        (self.burst > 0 && !self.fired).then_some(SimTime::ZERO)
    }
}

/// Engine + Network echo over a 200 Mbit/s, 10 ms path.
fn pump(seed: u64) -> f64 {
    const BURST: u32 = 2000;
    let mut net = Network::new(seed);
    let a = net.add_node();
    let b = net.add_node();
    net.set_path_symmetric(
        a,
        b,
        PathSpec::with_delay(SimDuration::from_millis(10)).rate(DataRate::from_mbps(200)),
    );
    let nodes = vec![
        Echo {
            peer: b,
            burst: BURST,
            fired: false,
            received: 0,
        },
        Echo {
            peer: a,
            burst: 0,
            fired: false,
            received: 0,
        },
    ];
    let t = Instant::now();
    let mut engine = Engine::new(net, nodes);
    engine.run();
    let routed = engine.network().delivered() + engine.network().lost();
    let ns = per_unit_ns(t, routed);
    let back = engine.node(a).received;
    assert!(
        back > 0 && back + engine.network().lost() >= u64::from(BURST),
        "echo pump lost track of packets"
    );
    ns
}

fn catalog(n: u64, body: u64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    for id in 1..=n {
        cat.register(
            id,
            ResponseSpec {
                header_bytes: 250,
                body_bytes: body,
                processing: SimDuration::ZERO,
                priority: h3cdn::http::types::priority::NORMAL,
            },
        );
    }
    cat.into_shared()
}

/// Shape of one isolated transfer: `n` responses of `body` bytes.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    n: u64,
    body: u64,
}

const BULK: Transfer = Transfer {
    n: 4,
    body: 256 * 1024,
};
const SMALL: Transfer = Transfer {
    n: 64,
    body: 2 * 1024,
};
/// Response bytes of the bulk transfer, KiB.
pub const BULK_KIB: f64 = (BULK.n * BULK.body) as f64 / 1024.0;
/// Response bytes of the small transfer, KiB.
pub const SMALL_KIB: f64 = (SMALL.n * SMALL.body) as f64 / 1024.0;
/// Responses of the small transfer.
pub const SMALL_REQUESTS: f64 = SMALL.n as f64;
/// Client→server and server→client packets the lossy pipe drops.
const LOSSY_A_TO_B: [u64; 3] = [3, 9, 15];
const LOSSY_B_TO_A: [u64; 5] = [20, 60, 100, 140, 180];

fn conn_id() -> ConnId {
    ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
}

/// Drives the pipe to quiescence and checks every response arrived;
/// returns host µs.
fn drive<A, B>(
    mut pipe: Duplex<A, B>,
    n: u64,
    mut poll: impl FnMut(&mut A) -> Option<HttpEvent>,
) -> f64
where
    A: Driveable,
    B: Driveable<Wire = A::Wire>,
{
    let t = Instant::now();
    pipe.run(10_000_000);
    let us = t.elapsed().as_nanos() as f64 / 1e3;
    let mut complete = 0;
    while let Some(ev) = poll(&mut pipe.a) {
        if matches!(ev, HttpEvent::ResponseComplete { .. }) {
            complete += 1;
        }
    }
    assert_eq!(complete, n, "isolated transfer lost responses");
    us
}

/// Mean host µs of `TRANSFERS` runs of one isolated transfer.
fn transfers(mut run: impl FnMut() -> f64) -> f64 {
    const TRANSFERS: usize = 10;
    (0..TRANSFERS).map(|_| run()).sum::<f64>() / TRANSFERS as f64
}

fn h2(shape: Transfer) -> f64 {
    let tcp = TcpConfig {
        initial_rtt: SimDuration::from_millis(40),
        ..TcpConfig::default()
    };
    let client = H2Client::new(conn_id(), tcp.clone(), TlsConfig::default());
    let server = TcpServer::new(
        conn_id(),
        tcp,
        catalog(shape.n, shape.body),
        SimDuration::ZERO,
    );
    let mut pipe = Duplex::new(client, server, SimDuration::from_millis(20));
    pipe.a.connect(SimTime::ZERO);
    for id in 1..=shape.n {
        pipe.a.send_request(RequestMeta {
            id,
            header_bytes: 300,
        });
    }
    drive(pipe, shape.n, H2Client::poll_event)
}

fn h3(shape: Transfer, lossy: bool) -> f64 {
    let quic = QuicConfig {
        initial_rtt: SimDuration::from_millis(40),
        ..QuicConfig::default()
    };
    let client = H3Client::new(conn_id(), quic.clone(), None, false);
    let server = QuicServer::new(
        conn_id(),
        quic,
        catalog(shape.n, shape.body),
        SimDuration::ZERO,
    );
    let mut pipe = Duplex::new(client, server, SimDuration::from_millis(20));
    if lossy {
        pipe = pipe
            .drop_a_to_b(LOSSY_A_TO_B.to_vec())
            .drop_b_to_a(LOSSY_B_TO_A.to_vec());
    }
    pipe.a.connect(SimTime::ZERO);
    for id in 1..=shape.n {
        pipe.a.send_request(RequestMeta {
            id,
            header_bytes: 300,
        });
    }
    drive(pipe, shape.n, H3Client::poll_event)
}

/// Measures every microbenchmark. `work` is a scratch directory for the
/// journal microbenchmark; `workers` and `window` are the population workload's.
pub fn measure(
    seed: u64,
    work: &Path,
    workers: usize,
    window: usize,
    tracer: &mut Tracer,
    speed: &mut Speed,
) -> Result<LayerCosts, String> {
    let mut c = LayerCosts {
        queue_ns_per_op: reps(tracer, speed, "sim_core.EventQueue", || queue(seed)),
        pump_ns_per_packet: reps(tracer, speed, "netsim.Engine.run", || pump(seed)),
        h2_bulk_us: reps(tracer, speed, "transport.Duplex.run.h2_bulk", || {
            transfers(|| h2(BULK))
        }),
        h3_bulk_us: reps(tracer, speed, "transport.Duplex.run.h3_bulk", || {
            transfers(|| h3(BULK, false))
        }),
        h2_small_us: reps(tracer, speed, "transport.Duplex.run.h2_small", || {
            transfers(|| h2(SMALL))
        }),
        h3_small_us: reps(tracer, speed, "transport.Duplex.run.h3_small", || {
            transfers(|| h3(SMALL, false))
        }),
        h3_lossy_us: reps(tracer, speed, "transport.Duplex.run.h3_lossy", || {
            transfers(|| h3(BULK, true))
        }),
        lossy_drops: (LOSSY_A_TO_B.len() + LOSSY_B_TO_A.len()) as f64,
        ..LayerCosts::default()
    };

    // Page records: generated once per repetition; the last set feeds
    // the journal microbenchmark.
    const RECORDS: u64 = 20_000;
    let spec = PopulationSpec::default()
        .with_pages(RECORDS)
        .with_seed(seed);
    let mut encoded: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut requests = 0u64;
    c.page_record_ns = reps(tracer, speed, "web.page_record", || {
        let t = Instant::now();
        let records: Vec<PageRecord> = (0..RECORDS).map(|s| page_record(&spec, s)).collect();
        let ns = per_unit_ns(t, RECORDS);
        requests = records.iter().map(|r| u64::from(r.requests)).sum();
        encoded = records.iter().map(|r| (r.site, r.encode())).collect();
        ns
    });
    c.requests_per_record = requests as f64 / RECORDS as f64;

    let dir = work.join("journal-micro");
    let mut append = Vec::with_capacity(REPS);
    let mut load = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        reset_dir(&dir)?;
        let rep = Instant::now();
        let s = tracer.enter("core.ShardedJournal.append");
        let t = Instant::now();
        let journal = ShardedJournal::open(&dir).map_err(|e| format!("journal open: {e}"))?;
        for (site, bytes) in &encoded {
            journal
                .append(*site, bytes)
                .map_err(|e| format!("journal append: {e}"))?;
        }
        journal
            .finish()
            .map_err(|e| format!("journal finish: {e}"))?;
        append.push(per_unit_ns(t, RECORDS));
        tracer.exit(s);

        let s = tracer.enter("core.ShardedJournal.load");
        let t = Instant::now();
        let loaded = ShardedJournal::load(&dir).map_err(|e| format!("journal load: {e}"))?;
        load.push(per_unit_ns(t, RECORDS));
        tracer.exit(s);
        if loaded.len() != encoded.len()
            || encoded
                .iter()
                .any(|(site, bytes)| loaded.get(site) != Some(bytes))
        {
            return Err("journal load did not return the appended records".to_owned());
        }
        speed.after(rep.elapsed().as_nanos() as f64);
    }
    c.append_ns_per_record = median(&append);
    c.load_ns_per_record = median(&load);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        bytes += entry
            .metadata()
            .map_err(|e| format!("journal size: {e}"))?
            .len();
    }
    c.bytes_per_record = bytes as f64 / RECORDS as f64;
    reset_dir(&dir)?;

    // Streaming runner over trivial jobs at the population workload's
    // worker count and window.
    const JOBS: u64 = 100_000;
    let runner = RunnerConfig::serial().with_jobs(workers);
    let mut peak = 0;
    c.runner_ns_per_job = reps(tracer, speed, "core.run_keyed_streaming", || {
        let jobs: Vec<(u64, _)> = (0..JOBS)
            .map(|k| (k, move || black_box(k.wrapping_mul(31))))
            .collect();
        let mut sum = 0u64;
        let mut next = 0u64;
        let t = Instant::now();
        let stats = run_keyed_streaming(&runner, jobs, window, |k, v: u64| {
            assert_eq!(k, next, "streaming runner delivered out of order");
            next += 1;
            sum = sum.wrapping_add(v);
        });
        let ns = per_unit_ns(t, JOBS);
        assert_eq!(sum, (0..JOBS).map(|k| k * 31).sum::<u64>());
        peak = stats.peak_buffered;
        ns
    });
    c.runner_peak_buffered = peak as f64;

    // Rolling statistics: one Welford push and one sketch push per value.
    const VALUES: u64 = 500_000;
    c.sketch_ns_per_insert = reps(tracer, speed, "analysis.QuantileSketch.push", || {
        let mut rng = Lcg(seed);
        let mut w = Welford::new();
        let mut q = QuantileSketch::new(4, 13, 4);
        let t = Instant::now();
        for _ in 0..VALUES {
            let x = 30.0 + (rng.next() % 3970) as f64;
            w.push(x);
            q.push(x);
        }
        let ns = per_unit_ns(t, VALUES);
        assert_eq!(w.count(), VALUES);
        black_box(q.quantile(0.5));
        ns
    });
    Ok(c)
}
