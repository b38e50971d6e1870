//! The traced run: per-layer metrics, the layer cost model and the
//! span table.

use std::path::Path;
use std::time::Instant;

use crate::alloc::AllocCount;
use crate::calib::Speed;
use crate::micro::{self, LayerCosts};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{self, Campaign, Counts, Workload};
use crate::{run_loop, Args, Kind, LoopResult, Report};

/// Host-time cost model of one simulated operation from its counts and
/// the microbenchmarks' unit costs, in nanoseconds: sim-core events, netsim
/// packets, per-request and per-KiB transfer cost by protocol, and
/// loss recovery per dropped packet. Browser planning has no microbenchmark,
/// so its time stays in the residual.
fn model_ns(c: &Counts, costs: &LayerCosts) -> f64 {
    let per_kb = |bulk_us: f64| bulk_us * 1e3 / micro::BULK_KIB;
    let per_req = |small_us: f64, bulk_us: f64| {
        ((small_us * 1e3 - per_kb(bulk_us) * micro::SMALL_KIB) / micro::SMALL_REQUESTS).max(0.0)
    };
    let h3 = c.h3_requests as f64;
    let other = (c.requests - c.h3_requests) as f64;
    let h3_share = ratio(h3, c.requests as f64);
    let kb = c.body_bytes as f64 / 1024.0;
    let per_drop = ((costs.h3_lossy_us - costs.h3_bulk_us) * 1e3 / costs.lossy_drops).max(0.0);
    c.events as f64 * costs.queue_ns_per_op
        + c.packets as f64 * costs.pump_ns_per_packet
        + h3 * per_req(costs.h3_small_us, costs.h3_bulk_us)
        + other * per_req(costs.h2_small_us, costs.h2_bulk_us)
        + kb * h3_share * per_kb(costs.h3_bulk_us)
        + kb * (1.0 - h3_share) * per_kb(costs.h2_bulk_us)
        + c.drops as f64 * per_drop
}

/// Runs the traced run of `w` and returns its per-layer report and the
/// loops whose operations count as attempted.
pub fn per_layer(
    args: &Args,
    work: &Path,
    w: &mut dyn Workload,
    reference: &[Option<u64>],
) -> Result<(Report, Vec<LoopResult>), String> {
    let len = w.ops_per_pass();
    let half = args.seconds / 2.0;
    let mut off = Tracer::new(false);
    let untraced = run_loop(w, &mut off, Some(reference), len, half);
    let mut tracer = Tracer::new(true);
    let traced = run_loop(w, &mut tracer, Some(reference), len, half);

    // Per-pass host times and the consecutive pass's resumption come
    // from the campaign itself, or from a small campaign probe.
    let probe = if args.kind == Kind::Campaign {
        None
    } else {
        let corpus = workload::corpus(workload::PROBE_PAGES, args.seed, &mut tracer);
        let mut probe = Campaign::new(corpus);
        let plen = probe.ops_per_pass();
        let probe_warm = run_loop(&mut probe, &mut off, None, plen, 0.0);
        let refs = probe_warm.digests();
        let probe_run = run_loop(&mut probe, &mut off, Some(&refs), plen, 0.0);
        Some((probe_warm, probe_run))
    };
    let pass_source = probe.as_ref().map_or(&untraced, |(_, p)| p);
    let pass_ms = |label: &str| {
        let v: Vec<f64> = pass_source
            .ops
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, o)| o.call_ns as f64 / 1e6)
            .collect();
        median(&v) * pass_source.speed.scale()
    };
    let (resumed_pass, _) = pass_source.first_pass_counts(Some("h3_resumed"));

    let mut speed = Speed::default();
    let raw = micro::measure(
        args.seed,
        work,
        workload::population_workers(),
        h3cdn_experiments::population::DEFAULT_WINDOW,
        &mut tracer,
        &mut speed,
    )?;
    // Corpus generation at the campaign's size.
    let mut generate = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(workload::corpus(
            workload::CAMPAIGN_PAGES,
            args.seed,
            &mut tracer,
        ));
        let ns = t.elapsed().as_nanos() as f64;
        generate.push(ns / 1e6);
        speed.after(ns);
    }
    let generate_ms = median(&generate) * speed.scale();
    let costs = raw.scaled(speed.scale());

    // Deterministic counts: the untraced loop's first pass.
    let (c, ops) = untraced.first_pass_counts(None);
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    let allocs = untraced
        .first_pass
        .iter()
        .filter_map(|(_, o)| o.as_ref())
        .fold(AllocCount::default(), |a, o| AllocCount {
            count: a.count + o.call_allocs.count,
            bytes: a.bytes + o.call_allocs.bytes,
        });
    let simulated = c.events > 0;
    // Host time per simulator event: the workload's own calls, or the
    // probe's when the workload simulates nothing.
    let ns_per_event = {
        let src = if simulated { &untraced } else { pass_source };
        let events: u64 = src.ops.iter().map(|(_, o)| o.counts.events).sum();
        ratio(src.call_secs() * 1e9, events as f64) * src.speed.scale()
    };
    let scale = untraced.speed.scale();
    let residual = if simulated {
        let done = || untraced.first_pass.iter().filter_map(|(_, o)| o.as_ref());
        let measured: Vec<f64> = done().map(|o| o.call_ns as f64 * scale).collect();
        let predicted: Vec<f64> = done().map(|o| model_ns(&o.counts, &costs)).collect();
        let m = median(&measured);
        (m - median(&predicted)) / m
    } else {
        // Per page record: generation spread over the workers, then the
        // runner hand-off, the journal append and two rolling-statistic
        // inserts on the sink thread.
        let measured = untraced.call_secs() * 1e9 / untraced.units() as f64 * scale;
        let predicted = costs.page_record_ns / workload::population_workers() as f64
            + costs.append_ns_per_record
            + costs.runner_ns_per_job
            + 2.0 * costs.sketch_ns_per_insert;
        (measured - predicted) / measured
    };

    let mut r = Report::default();
    r.add("sim_core.events_per_visit", per_op(c.events), "count");
    r.add("sim_core.ns_per_event", ns_per_event, "ns");
    r.add("sim_core.queue_ns_per_op", costs.queue_ns_per_op, "ns");
    r.add("netsim.packets_per_visit", per_op(c.packets), "count");
    r.add("netsim.drops_per_visit", per_op(c.drops), "count");
    r.add("netsim.pump_ns_per_packet", costs.pump_ns_per_packet, "ns");
    r.add(
        "transport.connections_per_visit",
        per_op(c.connections),
        "count",
    );
    r.add(
        "transport.resumed_ratio",
        ratio(
            resumed_pass.resumed_connections as f64,
            resumed_pass.connections as f64,
        ),
        "ratio",
    );
    r.add(
        "transport.early_data_ratio",
        ratio(
            resumed_pass.early_data_connections as f64,
            resumed_pass.connections as f64,
        ),
        "ratio",
    );
    r.add("transport.h2_bulk_us", costs.h2_bulk_us, "us");
    r.add("transport.h3_bulk_us", costs.h3_bulk_us, "us");
    r.add("transport.h2_small_us", costs.h2_small_us, "us");
    r.add("transport.h3_small_us", costs.h3_small_us, "us");
    r.add("transport.h3_lossy_us", costs.h3_lossy_us, "us");
    r.add("http.requests_per_visit", per_op(c.requests), "count");
    r.add(
        "http.body_kb_per_visit",
        per_op(c.body_bytes) / 1024.0,
        "KiB",
    );
    r.add(
        "http.h3_share",
        ratio(c.h3_requests as f64, c.requests as f64),
        "ratio",
    );
    r.add("browser.visit_ms_p50.h2", pass_ms("h2"), "ms");
    r.add("browser.visit_ms_p50.h3", pass_ms("h3"), "ms");
    r.add(
        "browser.visit_ms_p50.h3_resumed",
        pass_ms("h3_resumed"),
        "ms",
    );
    r.add("browser.fallbacks_per_swarm", per_op(c.fallbacks), "count");
    r.add("browser.retries_per_swarm", per_op(c.retries), "count");
    r.add(
        "browser.completed_ratio",
        ratio(c.completed_clients as f64, c.clients as f64),
        "ratio",
    );
    r.add("cdn.refused_tcp_per_swarm", per_op(c.refused_tcp), "count");
    r.add(
        "cdn.refused_quic_per_swarm",
        per_op(c.refused_quic),
        "count",
    );
    r.add(
        "cdn.ticket_hit_ratio",
        ratio(
            c.ticket_hits as f64,
            (c.ticket_hits + c.ticket_misses) as f64,
        ),
        "ratio",
    );
    r.add("web.generate_ms", generate_ms, "ms");
    r.add("web.page_record_ns", costs.page_record_ns, "ns");
    r.add(
        "web.requests_per_record",
        costs.requests_per_record,
        "count",
    );
    r.add(
        "core.journal.append_ns_per_record",
        costs.append_ns_per_record,
        "ns",
    );
    r.add(
        "core.journal.load_ns_per_record",
        costs.load_ns_per_record,
        "ns",
    );
    r.add("core.journal.bytes_per_record", costs.bytes_per_record, "B");
    r.add("core.runner.ns_per_job", costs.runner_ns_per_job, "ns");
    r.add(
        "core.runner.peak_buffered",
        costs.runner_peak_buffered,
        "count",
    );
    r.add(
        "analysis.sketch_ns_per_insert",
        costs.sketch_ns_per_insert,
        "ns",
    );
    let (per_visit, per_record) = if simulated {
        ((per_op(allocs.count), per_op(allocs.bytes)), 0.0)
    } else {
        ((0.0, 0.0), ratio(allocs.count as f64, c.units as f64))
    };
    r.add("alloc.count_per_visit", per_visit.0, "count");
    r.add("alloc.bytes_per_visit", per_visit.1, "B");
    r.add("alloc.count_per_record", per_record, "count");
    // Closed-loop throughput including the benchmark's own work, which
    // is where span recording costs show.
    let wall_rate = |l: &LoopResult| l.units() as f64 / l.wall_ns as f64 / l.speed.scale();
    r.add(
        "trace.overhead_ratio",
        wall_rate(&traced) / wall_rate(&untraced),
        "ratio",
    );
    // The share of the measured time the model misses, either way.
    r.add("model.residual_ratio", residual.abs(), "ratio");
    r.print();
    println!("model: measured minus predicted = {residual} of the measured median");

    println!("span self costs (traced loop, probe and microbenchmarks; host time):");
    println!(
        "  {:<40} {:>8} {:>14} {:>14} {:>16}",
        "span", "calls", "self ms", "self allocs", "self alloc B"
    );
    for (name, s) in tracer.self_costs() {
        println!(
            "  {name:<40} {:>8} {:>14.3} {:>14} {:>16}",
            s.calls,
            s.self_ns as f64 / 1e6,
            s.self_allocs,
            s.self_alloc_bytes
        );
    }
    let trace_path = work
        .parent()
        .ok_or("work directory has no parent")?
        .join(format!("trace-{}-seed{}.tsv", args.kind.name(), args.seed));
    tracer
        .write_tsv(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("spans written to {}", trace_path.display());

    let mut loops = vec![untraced, traced];
    if let Some((probe_warm, probe_run)) = probe {
        loops.push(probe_warm);
        loops.push(probe_run);
    }
    Ok((r, loops))
}
