//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function (`<crate>.<fn>`), and around its own work between
//! calls (`bench.*`). A span has a name, a host start and end, a parent
//! and the id of the operation it belongs to; it also records the
//! allocations made while it was open. Spans stay in memory until the
//! run ends. A disabled tracer records nothing and costs one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc::AllocCount;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: AllocCount,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and self allocations of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfCost {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_alloc_bytes: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    /// Open spans: index into `spans` and the allocation count at entry.
    open: Vec<(usize, AllocCount)>,
}

/// Handle of an open span (ignored by a disabled tracer).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        // Reserve up front so recording a span does not allocate inside
        // the spans whose allocations it counts.
        let cap = if enabled { 1 << 20 } else { 0 };
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(if enabled { 64 } else { 0 }),
        }
    }

    /// Sets the operation id of the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().map(|&(i, _)| i),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs: AllocCount::default(),
        });
        self.open.push((idx, AllocCount::now()));
        Open(idx)
    }

    pub fn exit(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        self.close_to(self.open.iter().position(|&(i, _)| i == span.0));
    }

    /// Number of open spans; pass it to [`Tracer::unwind_to`] to close
    /// spans a panic left open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    pub fn unwind_to(&mut self, depth: usize) {
        if self.enabled && depth < self.open.len() {
            self.close_to(Some(depth));
        }
    }

    fn close_to(&mut self, depth: Option<usize>) {
        let Some(depth) = depth else { return };
        let end = self.epoch.elapsed().as_nanos() as u64;
        while self.open.len() > depth {
            let (idx, at_entry) = self.open.pop().expect("open span");
            let span = &mut self.spans[idx];
            span.end_ns = end;
            span.allocs = AllocCount::since(at_entry);
        }
    }

    /// Times `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Self cost per span name: each span's duration and allocations
    /// minus those of its direct children (children of one span never
    /// overlap: the benchmark's calls are sequential).
    pub fn self_costs(&self) -> BTreeMap<&'static str, SelfCost> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![AllocCount::default(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
                child_allocs[p].count += s.allocs.count;
                child_allocs[p].bytes += s.allocs.bytes;
            }
        }
        let mut out: BTreeMap<&'static str, SelfCost> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let c = out.entry(s.name).or_default();
            c.calls += 1;
            c.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
            c.self_allocs += s.allocs.count.saturating_sub(child_allocs[i].count);
            c.self_alloc_bytes += s.allocs.bytes.saturating_sub(child_allocs[i].bytes);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index op parent name start_ns end_ns allocs alloc_bytes`
    /// (`parent` is `-` for a root span).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index\top\tparent\tname\tstart_ns\tend_ns\tallocs\talloc_bytes"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.allocs.count, s.allocs.bytes
            )?;
        }
        out.flush()
    }
}
