//! The three workloads. Each is a closed loop over a fixed sequence of
//! operations (one pass); the next operation starts when the previous
//! one returns. The seed only shapes the generated inputs.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use h3cdn::browser::{run_swarm, visit_page, ProtocolMode, SwarmConfig, VisitConfig};
use h3cdn::cdn::EdgeConfig;
use h3cdn::har::HarPage;
use h3cdn::netsim::DynamicsProfile;
use h3cdn::sim_core::SimDuration;
use h3cdn::transport::tls::TicketStore;
use h3cdn::web::{generate, Corpus, PopulationSpec, WorkloadSpec};
use h3cdn::{RunDir, RunnerConfig};
use h3cdn_experiments::population;

use crate::alloc::AllocCount;
use crate::digest;
use crate::trace::Tracer;

/// Campaign corpus size: the paper's 325 pages, so one pass is 975
/// visits and a 20 s run has about 5000 samples, ample for its p99.
pub const CAMPAIGN_PAGES: usize = 325;
/// Pages in one swarm pass; every page is one `run_swarm` call.
pub const SWARM_PAGES: usize = 150;
/// The swarm pass is a stratified sample of a corpus this many times
/// larger (see [`Swarm::new`]).
pub const SWARM_STRATA: usize = 4;
/// Simulated clients per swarm page.
pub const SWARM_CLIENTS: usize = 6;
/// Pages in the population spec.
pub const POPULATION_PAGES: u64 = 100_000;
/// Corpus size of the small campaign the traced run of the other
/// workloads uses for the per-pass browser metrics.
pub const PROBE_PAGES: usize = 12;

/// Deterministic counts of one operation. Everything but `events` is a
/// simulated outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Visits, client page loads or page records completed.
    pub units: u64,
    /// Page records read back by a resume (population only).
    pub resumed_units: u64,
    pub events: u64,
    pub packets: u64,
    pub drops: u64,
    pub connections: u64,
    pub resumed_connections: u64,
    pub early_data_connections: u64,
    pub requests: u64,
    pub h3_requests: u64,
    pub body_bytes: u64,
    pub clients: u64,
    pub completed_clients: u64,
    pub fallbacks: u64,
    pub retries: u64,
    pub refused_tcp: u64,
    pub refused_quic: u64,
    pub ticket_hits: u64,
    pub ticket_misses: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.units += o.units;
        self.resumed_units += o.resumed_units;
        self.events += o.events;
        self.packets += o.packets;
        self.drops += o.drops;
        self.connections += o.connections;
        self.resumed_connections += o.resumed_connections;
        self.early_data_connections += o.early_data_connections;
        self.requests += o.requests;
        self.h3_requests += o.h3_requests;
        self.body_bytes += o.body_bytes;
        self.clients += o.clients;
        self.completed_clients += o.completed_clients;
        self.fallbacks += o.fallbacks;
        self.retries += o.retries;
        self.refused_tcp += o.refused_tcp;
        self.refused_quic += o.refused_quic;
        self.ticket_hits += o.ticket_hits;
        self.ticket_misses += o.ticket_misses;
    }

    fn har(&mut self, page: &HarPage) {
        let conns: BTreeSet<u64> = page.entries.iter().map(|e| e.connection).collect();
        let early: BTreeSet<u64> = page
            .entries
            .iter()
            .filter(|e| e.early_data)
            .map(|e| e.connection)
            .collect();
        self.connections += conns.len() as u64;
        self.resumed_connections += page.resumed_connection_count() as u64;
        self.early_data_connections += early.len() as u64;
        self.requests += page.entries.len() as u64;
        self.h3_requests += page.entries_with_protocol("h3").count() as u64;
        self.body_bytes += page.entries.iter().map(|e| e.body_bytes).sum::<u64>();
    }

    fn network(&mut self, s: &h3cdn::browser::VisitStats) {
        self.events += s.sim_events;
        self.packets += s.packets_delivered
            + s.packets_lost
            + s.packets_fault_dropped
            + s.packets_dynamics_dropped;
        self.drops += s.packets_lost + s.packets_dynamics_dropped + s.queue.dropped();
    }
}

/// What one operation returned.
#[derive(Debug, Clone, Copy)]
pub struct OpOutput {
    /// Digest of the simulated outputs.
    pub digest: u64,
    pub counts: Counts,
    /// Host time inside the timed program call.
    pub call_ns: u64,
    /// Allocations made inside the program calls.
    pub call_allocs: AllocCount,
    /// Host time of the resume call (population only).
    pub resume_ns: u64,
}

/// Why an operation did not produce a checked output.
#[derive(Debug)]
pub enum OpError {
    /// The program returned an error the workload does not expect.
    Failed(String),
    /// The program returned outputs that contradict each other.
    Wrong(String),
}

pub trait Workload {
    /// Operations in one pass.
    fn ops_per_pass(&self) -> usize;
    /// Label of the pass operation `i` belongs to.
    fn pass_label(&self, i: usize) -> &'static str;
    /// Runs operation `i` of the pass (`i < ops_per_pass()`).
    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Result<OpOutput, OpError>;
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Generates the paper-calibrated corpus of `pages` pages for `seed`.
pub fn corpus(pages: usize, seed: u64, tracer: &mut Tracer) -> Corpus {
    let spec = WorkloadSpec::default().with_pages(pages).with_seed(seed);
    tracer.span("web.generate", || generate(&spec))
}

/// Isolated H2-only and H3-enabled visits of every page, then a
/// consecutive H3 pass carrying the ticket store forward (0-RTT).
#[derive(Debug)]
pub struct Campaign {
    corpus: Corpus,
    h2: VisitConfig,
    h3: VisitConfig,
    tickets: TicketStore,
}

impl Campaign {
    pub fn new(corpus: Corpus) -> Campaign {
        Campaign {
            corpus,
            h2: VisitConfig::default().with_mode(ProtocolMode::H2Only),
            h3: VisitConfig::default().with_mode(ProtocolMode::H3Enabled),
            tickets: TicketStore::new(),
        }
    }
}

impl Workload for Campaign {
    fn ops_per_pass(&self) -> usize {
        3 * self.corpus.pages.len()
    }

    fn pass_label(&self, i: usize) -> &'static str {
        ["h2", "h3", "h3_resumed"][i / self.corpus.pages.len()]
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Result<OpOutput, OpError> {
        let n = self.corpus.pages.len();
        let page = &self.corpus.pages[i % n];
        let consecutive = i / n == 2;
        if i == 2 * n {
            // The consecutive pass starts from an empty store.
            self.tickets = TicketStore::new();
        }
        let (cfg, tickets) = match i / n {
            0 => (&self.h2, TicketStore::new()),
            1 => (&self.h3, TicketStore::new()),
            _ => (&self.h3, std::mem::take(&mut self.tickets)),
        };
        let (a, t) = (AllocCount::now(), Instant::now());
        let mut out = tracer.span("browser.visit_page", || {
            visit_page(page, &self.corpus.domains, cfg, tickets)
        });
        let (call_ns, call_allocs) = (elapsed_ns(t), AllocCount::since(a));
        let s = tracer.enter("bench.check");
        let d = digest::visit(&out);
        let mut counts = Counts {
            units: 1,
            clients: 1,
            completed_clients: 1,
            fallbacks: out.resilience.h3_fallbacks,
            retries: out.resilience.conn_retries,
            ..Counts::default()
        };
        counts.har(&out.har);
        counts.network(&out.stats);
        if consecutive {
            self.tickets = std::mem::take(&mut out.tickets);
        }
        tracer.exit(s);
        Ok(OpOutput {
            digest: d,
            counts,
            call_ns,
            call_allocs,
            resume_ns: 0,
        })
    }
}

/// One `run_swarm` call per page: a thundering herd of simulated
/// clients against a handshake-CPU-starved edge, over lossy paths with
/// an oscillating bottleneck, with H3→H2 fallback on.
#[derive(Debug)]
pub struct Swarm {
    corpus: Corpus,
    /// Indices of the pages in the pass.
    pages: Vec<usize>,
    cfg: VisitConfig,
    shape: SwarmConfig,
}

impl Swarm {
    /// A swarm over a stratified sample of `corpus`: its pages ordered by
    /// request count, then the middle page of every `SWARM_STRATA`
    /// consecutive ones, in site order. A swarm page's cost grows
    /// steeply with its request count, so a plain sample would make the
    /// pass's total work swing from seed to seed.
    pub fn new(corpus: Corpus) -> Swarm {
        let mut by_size: Vec<usize> = (0..corpus.pages.len()).collect();
        by_size.sort_by_key(|&i| (corpus.pages[i].request_count(), i));
        let mut pages: Vec<usize> = by_size
            .chunks(SWARM_STRATA)
            .map(|stratum| stratum[stratum.len() / 2])
            .collect();
        pages.sort_unstable();
        Swarm {
            corpus,
            pages,
            cfg: VisitConfig::default()
                .with_h3_fallback(true)
                .with_loss_percent(2.0)
                .with_path_dynamics(Some(DynamicsProfile::OscillatingBottleneck)),
            shape: SwarmConfig {
                clients: SWARM_CLIENTS,
                arrival_spacing: SimDuration::ZERO,
                edge: Some(EdgeConfig {
                    cpu_tokens_per_sec: 40,
                    cpu_token_burst: 80,
                    tcp_handshake_tokens: 1,
                    quic_handshake_tokens: 40,
                    ..EdgeConfig::default()
                }),
            },
        }
    }
}

impl Workload for Swarm {
    fn ops_per_pass(&self) -> usize {
        self.pages.len()
    }

    fn pass_label(&self, _: usize) -> &'static str {
        "swarm"
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Result<OpOutput, OpError> {
        let page = &self.corpus.pages[self.pages[i]];
        let (a, t) = (AllocCount::now(), Instant::now());
        let out = tracer.span("browser.run_swarm", || {
            run_swarm(page, &self.corpus.domains, &self.cfg, &self.shape)
        });
        let (call_ns, call_allocs) = (elapsed_ns(t), AllocCount::since(a));
        let out = out.map_err(|e| OpError::Failed(format!("run_swarm: {e}")))?;
        let s = tracer.enter("bench.check");
        let d = digest::swarm(&out);
        let edge = out.edge_totals();
        let mut counts = Counts {
            units: out.clients.len() as u64,
            clients: out.clients.len() as u64,
            completed_clients: out.completed() as u64,
            refused_tcp: edge.refused_tcp,
            refused_quic: edge.refused_quic,
            ticket_hits: edge.ticket_hits,
            ticket_misses: edge.ticket_misses,
            ..Counts::default()
        };
        for c in &out.clients {
            counts.fallbacks += c.resilience.h3_fallbacks;
            counts.retries += c.resilience.conn_retries;
            if let Some(har) = &c.har {
                counts.har(har);
            }
        }
        counts.network(&out.stats);
        tracer.exit(s);
        Ok(OpOutput {
            digest: d,
            counts,
            call_ns,
            call_allocs,
            resume_ns: 0,
        })
    }
}

/// One journaled population run over a fresh run directory, then a
/// resume of the same run, which must read every record back and
/// reproduce the summary.
#[derive(Debug)]
pub struct Population {
    spec: PopulationSpec,
    runner: RunnerConfig,
    run_dir: PathBuf,
}

/// Worker threads of the population workload: at most two, and never
/// more than the host has.
pub fn population_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Population {
    /// Builds the spec and an empty journal directory under `work`.
    pub fn new(seed: u64, work: &std::path::Path) -> Result<Population, String> {
        let spec = PopulationSpec::default()
            .with_pages(POPULATION_PAGES)
            .with_seed(seed);
        spec.validate()?;
        let run_dir = work.join("population-run");
        reset_dir(&run_dir)?;
        Ok(Population {
            spec,
            runner: RunnerConfig::serial().with_jobs(population_workers()),
            run_dir,
        })
    }
}

/// Removes `dir` if present and creates it empty.
pub fn reset_dir(dir: &std::path::Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn summary_json(s: &population::PopulationSummary) -> Result<String, OpError> {
    serde_json::to_string(s).map_err(|e| OpError::Failed(format!("summary: {e}")))
}

impl Workload for Population {
    fn ops_per_pass(&self) -> usize {
        1
    }

    fn pass_label(&self, _: usize) -> &'static str {
        "population"
    }

    fn run(&mut self, _: usize, tracer: &mut Tracer) -> Result<OpOutput, OpError> {
        let s = tracer.enter("bench.reset_journal");
        reset_dir(&self.run_dir).map_err(OpError::Failed)?;
        tracer.exit(s);
        let run = RunDir::at(self.run_dir.clone());
        let window = population::DEFAULT_WINDOW;

        let (a, t) = (AllocCount::now(), Instant::now());
        let (fresh, fresh_stats) = tracer.span("experiments.population.run.fresh", || {
            population::run(&self.spec, &self.runner, window, Some(&run))
        });
        let call_ns = elapsed_ns(t);
        let t = Instant::now();
        let (resumed, resume_stats) = tracer.span("experiments.population.run.resume", || {
            population::run(&self.spec, &self.runner, window, Some(&run))
        });
        let resume_ns = elapsed_ns(t);
        let call_allocs = AllocCount::since(a);

        let s = tracer.enter("bench.check");
        let pages = self.spec.num_pages;
        if fresh_stats.total as u64 != pages {
            return Err(OpError::Failed(format!(
                "fresh run executed {} of {pages} jobs",
                fresh_stats.total
            )));
        }
        // Journal appends report their errors only on stderr; a record
        // that did not reach the journal is re-executed on resume.
        if resume_stats.total != 0 {
            return Err(OpError::Failed(format!(
                "journal incomplete: resume re-executed {} jobs",
                resume_stats.total
            )));
        }
        let (fresh_json, resumed_json) = (summary_json(&fresh)?, summary_json(&resumed)?);
        if fresh_json != resumed_json {
            return Err(OpError::Wrong(
                "resumed summary differs from the fresh run's".to_owned(),
            ));
        }
        let d = digest::text(&fresh_json);
        tracer.exit(s);
        Ok(OpOutput {
            digest: d,
            counts: Counts {
                units: pages,
                resumed_units: pages,
                ..Counts::default()
            },
            call_ns,
            call_allocs,
            resume_ns,
        })
    }
}
