//! The traced run's in-memory span recorder.
//!
//! Spans wrap the benchmark's own calls into each crate: one span per
//! simulation slice, farm plan, farm job, merge, render and proof, with
//! the span that caused it as parent. Per-cycle calls are far too many
//! to keep, so they are aggregated into count, total and self time per
//! (workload, level, layer), and kept as full spans only on a sampled
//! subset of cycles. Everything stays in memory until [`Tracer::write`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th cycle of a slice keeps its per-call spans.
pub const SAMPLE_EVERY: usize = 1024;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Count, total and self time of one aggregated call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The recorder. Spans nest through an explicit stack: a span opened
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    aggs: BTreeMap<(String, String), Agg>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close in nesting order");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an already-closed span under the innermost open one.
    pub fn leaf(&mut self, name: &str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
        });
    }

    /// Adds to the aggregate of one (level, layer) call site.
    pub fn aggregate(&mut self, level: &str, layer: &str, add: Agg) {
        let a = self
            .aggs
            .entry((level.to_string(), layer.to_string()))
            .or_default();
        a.count += add.count;
        a.total_ns += add.total_ns;
        a.self_ns += add.self_ns;
    }

    /// Self time of every recorded span: its duration minus the part
    /// its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span and aggregate as one JSON line each.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"workload\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                self.workload, s.name, s.start_ns, s.end_ns
            );
        }
        for ((level, layer), a) in &self.aggs {
            let _ = writeln!(
                out,
                "{{\"aggregate\": \"{layer}\", \"workload\": \"{}\", \"level\": \"{level}\", \
                 \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                self.workload, a.count, a.total_ns, a.self_ns
            );
        }
        std::fs::write(path, out)
    }
}
