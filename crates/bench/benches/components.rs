//! Micro-benchmarks of the substrates: corpus generation, full page
//! visits per protocol, raw transport transfers (bulk, and per-packet
//! cost as the number of multiplexed streams grows), and the analysis
//! kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use h3cdn::browser::{visit_page, ProtocolMode, VisitConfig};
use h3cdn::http::h2::{H2Client, TcpServer};
use h3cdn::http::h3::{H3Client, QuicServer};
use h3cdn::http::{Catalog, RequestMeta, ResponseSpec};
use h3cdn::netsim::NodeId;
use h3cdn::sim_core::{SimDuration, SimTime};
use h3cdn::transport::duplex::Duplex;
use h3cdn::transport::quic::QuicConfig;
use h3cdn::transport::tcp::TcpConfig;
use h3cdn::transport::tls::{TicketStore, TlsConfig};
use h3cdn::transport::ConnId;
use h3cdn::web::{generate, WorkloadSpec};
use h3cdn_analysis::{ccdf_points, kmeans};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn transfer_catalog(n: u64, body: u64) -> std::sync::Arc<Catalog> {
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

fn bench_corpus(c: &mut Criterion) {
    c.bench_function("corpus_generate_50_pages", |b| {
        b.iter(|| {
            black_box(generate(
                &WorkloadSpec::default().with_pages(50).with_seed(1),
            ))
        });
    });
}

fn bench_visits(c: &mut Criterion) {
    let corpus = generate(&WorkloadSpec::default().with_pages(3).with_seed(2));
    for (name, mode) in [
        ("visit_page_h2", ProtocolMode::H2Only),
        ("visit_page_h3", ProtocolMode::H3Enabled),
    ] {
        let cfg = VisitConfig::default().with_mode(mode);
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(visit_page(
                    &corpus.pages[0],
                    &corpus.domains,
                    &cfg,
                    TicketStore::new(),
                ))
            });
        });
    }
}

fn conn_id() -> ConnId {
    ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
}

fn requests(n: u64) -> impl Iterator<Item = RequestMeta> {
    (1..=n).map(|id| RequestMeta {
        id,
        header_bytes: 300,
    })
}

/// A transfer of `n` responses of `body` bytes; returns packets sent.
type Transfer = fn(u64, u64) -> u64;

/// One H2 transfer of `n` responses of `body` bytes over a 40 ms RTT
/// pipe; returns the packets both sides sent.
fn h2_transfer(n: u64, body: u64) -> u64 {
    let tcp = TcpConfig {
        initial_rtt: SimDuration::from_millis(40),
        ..TcpConfig::default()
    };
    let client = H2Client::new(conn_id(), tcp.clone(), TlsConfig::default());
    let server = TcpServer::new(conn_id(), tcp, transfer_catalog(n, body), SimDuration::ZERO);
    let mut pipe = Duplex::new(client, server, SimDuration::from_millis(20));
    pipe.a.connect(SimTime::ZERO);
    requests(n).for_each(|r| pipe.a.send_request(r));
    pipe.run(10_000_000);
    assert_eq!(pipe.b.requests_served(), n);
    pipe.wire_items_sent()
}

/// As [`h2_transfer`], over H3.
fn h3_transfer(n: u64, body: u64) -> u64 {
    let quic = QuicConfig {
        initial_rtt: SimDuration::from_millis(40),
        ..QuicConfig::default()
    };
    let client = H3Client::new(conn_id(), quic.clone(), None, false);
    let server = QuicServer::new(
        conn_id(),
        quic,
        transfer_catalog(n, body),
        SimDuration::ZERO,
    );
    let mut pipe = Duplex::new(client, server, SimDuration::from_millis(20));
    pipe.a.connect(SimTime::ZERO);
    requests(n).for_each(|r| pipe.a.send_request(r));
    pipe.run(10_000_000);
    assert_eq!(pipe.b.requests_served(), n);
    pipe.wire_items_sent()
}

fn bench_transports(c: &mut Criterion) {
    c.bench_function("h2_transfer_1mb", |b| {
        b.iter(|| black_box(h2_transfer(8, 128 * 1024)));
    });
    c.bench_function("h3_transfer_1mb", |b| {
        b.iter(|| black_box(h3_transfer(8, 128 * 1024)));
    });
}

/// Many small responses multiplexed on one connection, as on a CDN
/// domain serving a whole page: host time per packet should not grow
/// with the number of concurrent streams.
fn bench_stream_scaling(c: &mut Criterion) {
    let protocols: [(&str, Transfer); 2] = [("h2", h2_transfer), ("h3", h3_transfer)];
    for n in [16, 64, 128] {
        for (proto, transfer) in protocols {
            let name = format!("{proto}_transfer_{n}x2kib");
            let mut spent = Duration::ZERO;
            let mut packets = 0u64;
            c.bench_function(&name, |b| {
                b.iter(|| {
                    let t = Instant::now();
                    packets += black_box(transfer(n, 2 * 1024));
                    spent += t.elapsed();
                });
            });
            println!(
                "{name:<40} per packet: {:.2} µs",
                spent.as_secs_f64() * 1e6 / packets.max(1) as f64
            );
        }
    }
}

fn bench_analysis(c: &mut Criterion) {
    let values: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1000) as f64).collect();
    c.bench_function("ccdf_10k_points", |b| {
        b.iter(|| black_box(ccdf_points(&values)));
    });
    let points: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            (0..58)
                .map(|d| f64::from(u8::from((i + d) % 7 == 0)))
                .collect()
        })
        .collect();
    c.bench_function("kmeans_300x58", |b| {
        b.iter(|| black_box(kmeans(&points, 2, 100, 1)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_corpus, bench_visits, bench_transports, bench_stream_scaling, bench_analysis
}
criterion_main!(benches);
