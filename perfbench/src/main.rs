//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload campaign|swarm|population [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Sets the workload up from its seed, runs one warm-up pass that
//! records the digest of every operation's simulated outputs, then
//! either
//!
//! * (`--trace 0`) runs the closed loop for `--seconds` and reports the
//!   end-to-end metrics, or
//! * (`--trace 1`) runs one untraced and one traced loop, the isolated
//!   layer microbenchmarks and the layer cost model, and reports the per-layer
//!   metrics; the spans go to a file next to the binary.
//!
//! Every operation of every pass must reproduce the warm-up digest, and
//! on a seed listed in `expected_digests.txt` the warm-up pass must
//! reproduce the recorded digest; otherwise the run exits with code 1.
//! Host times are reported at reference speed (see `calib.rs`). The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod calib;
mod digest;
mod layers;
mod micro;
mod stats;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use calib::Speed;
use stats::{median, quantile, ratio};
use trace::Tracer;
use workload::{Campaign, Counts, OpError, OpOutput, Population, Swarm, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A run sets the workload up at least `SETUP_MIN_REPS` times and for
/// at least `SETUP_MIN_SECS` of host time (at most `SETUP_MAX_REPS`
/// times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_SECS: f64 = 0.2;
const SETUP_MAX_REPS: usize = 2000;
/// Pass digests recorded for known seeds: `workload seed digest` lines.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Campaign,
    Swarm,
    Population,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Campaign => "campaign",
            Kind::Swarm => "swarm",
            Kind::Population => "population",
        }
    }
}

#[derive(Debug)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |e: String| format!("{flag}: cannot parse {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value.as_str() {
                    "campaign" => Kind::Campaign,
                    "swarm" => Kind::Swarm,
                    "population" => Kind::Population,
                    _ => return Err(format!("unknown workload {value:?}")),
                });
            }
            "--seed" => seed = value.parse().map_err(|e| bad(format!("{e}")))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(format!("{e}")))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required (campaign, swarm or population)")?,
        seed,
        seconds,
        trace,
    })
}

/// Scratch directory of this process: next to the binary, so inside the
/// build directory of the checkout.
fn work_dir(kind: Kind) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the binary has no parent directory")?
        .join("perfbench-work")
        .join(format!("{}-{}", kind.name(), std::process::id()));
    workload::reset_dir(&dir)?;
    Ok(dir)
}

/// Sets the workload up repeatedly; returns the last set-up and the
/// median set-up time, in seconds at reference speed.
fn setup(kind: Kind, seed: u64, work: &Path) -> Result<(Box<dyn Workload>, f64), String> {
    let mut off = Tracer::new(false);
    let mut secs = Vec::new();
    let mut speed = Speed::default();
    let mut last = None;
    let start = Instant::now();
    while secs.len() < SETUP_MIN_REPS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_SECS && secs.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        let w: Box<dyn Workload> = match kind {
            Kind::Campaign => Box::new(Campaign::new(workload::corpus(
                workload::CAMPAIGN_PAGES,
                seed,
                &mut off,
            ))),
            Kind::Swarm => Box::new(Swarm::new(workload::corpus(
                workload::SWARM_PAGES * workload::SWARM_STRATA,
                seed,
                &mut off,
            ))),
            Kind::Population => Box::new(Population::new(seed, work)?),
        };
        let s = t.elapsed().as_secs_f64();
        secs.push(s);
        speed.after(s * 1e9);
        last = Some(w);
    }
    let setup_s = median(&secs) * speed.scale();
    println!(
        "setup: {} s host, {setup_s} s at reference speed (median of {})",
        median(&secs),
        secs.len()
    );
    Ok((last.expect("at least one set-up"), setup_s))
}

/// What a loop over the workload's operations saw.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Completed operations: pass label and output.
    pub ops: Vec<(&'static str, OpOutput)>,
    /// Outputs of the first pass, in pass order (`None` where it failed).
    pub first_pass: Vec<(&'static str, Option<OpOutput>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that contradicted the reference or each other.
    pub wrong: Vec<String>,
    pub wall_ns: u64,
    /// Calibration quanta run after each operation.
    pub speed: Speed,
}

impl LoopResult {
    pub fn units(&self) -> u64 {
        self.ops.iter().map(|(_, o)| o.counts.units).sum()
    }

    /// Host seconds inside the program calls.
    pub fn call_secs(&self) -> f64 {
        self.ops.iter().map(|(_, o)| o.call_ns as f64).sum::<f64>() / 1e9
    }

    /// Host milliseconds of each program call, at reference speed.
    pub fn call_ms(&self) -> Vec<f64> {
        let scale = self.speed.scale();
        self.ops
            .iter()
            .map(|(_, o)| o.call_ns as f64 / 1e6 * scale)
            .collect()
    }

    /// Completed units per host second inside the program calls, at
    /// reference speed.
    pub fn rate(&self) -> f64 {
        self.units() as f64 / self.call_secs() / self.speed.scale()
    }

    /// Counts summed over the first pass, optionally of one pass label;
    /// with the number of operations summed.
    pub fn first_pass_counts(&self, label: Option<&str>) -> (Counts, u64) {
        let mut c = Counts::default();
        let mut ops = 0;
        for (l, o) in &self.first_pass {
            if label.is_some_and(|want| want != *l) {
                continue;
            }
            if let Some(o) = o {
                c.add(&o.counts);
                ops += 1;
            }
        }
        (c, ops)
    }

    /// Digests of the first pass.
    pub fn digests(&self) -> Vec<Option<u64>> {
        self.first_pass
            .iter()
            .map(|(_, o)| o.map(|o| o.digest))
            .collect()
    }
}

/// Runs operations in a closed loop, cycling through the pass, until at
/// least `min_ops` ran and `min_secs` passed. Each operation's digest is
/// checked against `reference` (the warm-up's) where that has one.
pub fn run_loop(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    reference: Option<&[Option<u64>]>,
    min_ops: usize,
    min_secs: f64,
) -> LoopResult {
    let len = w.ops_per_pass();
    let mut r = LoopResult::default();
    let start = Instant::now();
    let mut k = 0usize;
    while k < min_ops || start.elapsed().as_secs_f64() < min_secs {
        let i = k % len;
        let label = w.pass_label(i);
        tracer.set_op(k as u64);
        let depth = tracer.depth();
        let root = tracer.enter("bench.op");
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| w.run(i, tracer)));
        let op_ns = t.elapsed().as_nanos() as f64;
        tracer.unwind_to(depth + 1);
        tracer.exit(root);
        r.attempted += 1;
        let out = match result {
            Ok(Ok(out)) => {
                if let Some(Some(want)) = reference.map(|d| d[i]) {
                    if out.digest != want {
                        r.wrong.push(format!(
                            "{label} op {i}: digest {:016x}, warm-up had {want:016x}",
                            out.digest
                        ));
                    }
                }
                r.ops.push((label, out));
                Some(out)
            }
            Ok(Err(OpError::Wrong(msg))) => {
                r.wrong.push(format!("{label} op {i}: {msg}"));
                None
            }
            Ok(Err(OpError::Failed(msg))) => {
                eprintln!("perfbench: {label} op {i} failed: {msg}");
                r.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("perfbench: {label} op {i} panicked");
                r.failed += 1;
                None
            }
        };
        if k < len {
            r.first_pass.push((label, out));
        }
        r.speed.after(op_ns);
        k += 1;
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r
}

/// The recorded pass digest of `kind` at `seed`, if any.
fn expected_digest(kind: Kind, seed: u64) -> Result<Option<u64>, String> {
    for line in EXPECTED_DIGESTS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, s, d] = fields[..] else {
            return Err(format!("expected_digests.txt: malformed line {line:?}"));
        };
        if name == kind.name() && s.parse::<u64>().ok() == Some(seed) {
            return u64::from_str_radix(d, 16)
                .map(Some)
                .map_err(|e| format!("expected_digests.txt: {e}"));
        }
    }
    Ok(None)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_owned())
}

/// Metrics in print order: name, value, unit.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if k > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// Everything one run measured.
struct Run {
    report: Report,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload campaign|swarm|population \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = run.wrong.is_empty();
    for w in run.wrong.iter().take(20) {
        eprintln!("perfbench: OUTPUT MISMATCH: {w}");
    }
    match run.report.json(correct, run.attempted, run.failed) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Result<Run, String> {
    let work = work_dir(args.kind)?;
    let result = measure(args, &work);
    // Scratch files are not results; the trace file lives one level up.
    std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    result
}

fn measure(args: &Args, work: &Path) -> Result<Run, String> {
    let (mut w, setup_s) = setup(args.kind, args.seed, work)?;
    println!(
        "workload {} seed {}: {} operations per pass",
        args.kind.name(),
        args.seed,
        w.ops_per_pass()
    );

    let mut tracer = Tracer::new(false);
    let len = w.ops_per_pass();
    let warm = run_loop(w.as_mut(), &mut tracer, None, len, 0.0);
    let reference = warm.digests();
    let pass = digest::combine(&reference.iter().map(|d| d.unwrap_or(0)).collect::<Vec<_>>());
    let mut wrong = warm.wrong.clone();
    match expected_digest(args.kind, args.seed)? {
        Some(want) if want != pass => wrong.push(format!(
            "{} seed {}: pass digest {pass:016x}, recorded {want:016x}",
            args.kind.name(),
            args.seed
        )),
        Some(_) => println!("output check: pass digest {pass:016x} matches the recorded digest"),
        None => println!(
            "output check: pass digest {pass:016x} (no recorded digest for this seed; \
             every pass must reproduce it)"
        ),
    }

    let (report, loops) = if args.trace {
        layers::per_layer(args, work, w.as_mut(), &reference)?
    } else {
        let timed = run_loop(w.as_mut(), &mut tracer, Some(&reference), 1, args.seconds);
        let report = end_to_end(args.kind, &timed, setup_s)?;
        (report, vec![timed])
    };
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    for l in &loops {
        attempted += l.attempted;
        failed += l.failed;
        wrong.extend(l.wrong.iter().cloned());
    }
    println!(
        "failed_ratio {} ratio (failed {failed} of {attempted} attempted operations)",
        ratio(failed as f64, attempted as f64)
    );
    Ok(Run {
        report,
        attempted,
        failed,
        wrong,
    })
}

fn end_to_end(kind: Kind, timed: &LoopResult, setup_s: f64) -> Result<Report, String> {
    let ms = timed.call_ms();
    let n = ms.len();
    let mut r = Report::default();
    r.add("setup_s", setup_s, "s");
    r.add("visits_per_s", timed.rate(), "1/s");
    r.add("op_ms_p50", median(&ms), "ms");
    r.add("peak_rss_mb", peak_rss_mb()?, "MiB");
    r.print();
    // Workload-specific figures with their sample counts, and the raw
    // host rate behind the reference-speed one.
    println!(
        "host visits_per_s {} 1/s (reference-speed scale {})",
        timed.units() as f64 / timed.call_secs(),
        timed.speed.scale()
    );
    match kind {
        Kind::Campaign => {
            println!("metric visit_ms_p50 {} ms (n={n})", median(&ms));
            println!("metric visit_ms_p99 {} ms (n={n})", quantile(&ms, 0.99));
        }
        Kind::Swarm => {
            println!("metric swarm_ms_p50 {} ms (n={n})", median(&ms));
            println!("metric swarm_ms_p95 {} ms (n={n})", quantile(&ms, 0.95));
        }
        Kind::Population => {
            let resumed: u64 = timed.ops.iter().map(|(_, o)| o.counts.resumed_units).sum();
            let secs: f64 = timed
                .ops
                .iter()
                .map(|(_, o)| o.resume_ns as f64)
                .sum::<f64>()
                / 1e9;
            println!(
                "metric resume_visits_per_s {} 1/s (n={n} resumes)",
                resumed as f64 / secs / timed.speed.scale()
            );
        }
    }
    Ok(r)
}
