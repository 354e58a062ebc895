//! In-memory spans and counters for the traced replay.
//!
//! A span is opened around each call into a layer and closed when the
//! call returns; nesting gives each span its parent. A span's self time
//! is its duration minus its children's, accumulated per layer name as
//! the span closes. Spans are kept in memory (the first
//! [`SPAN_CAP`]; later ones are only aggregated) and written out when
//! the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept for the span file; aggregation covers every span.
pub const SPAN_CAP: usize = 20_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// A span still open on the call stack.
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index into `spans`, when kept.
    kept: Option<u32>,
}

/// Span recorder and counter sink. Single-threaded: the replay runs on
/// the calling thread, so every span lies on the blocking path.
pub struct Tracer {
    epoch: Instant,
    op: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            self_ns: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named after its layer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let start_ns = self.now_ns();
        let parent = self.stack.last().and_then(|open| open.kept);
        let kept = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
        let result = f(self);
        let end_ns = self.now_ns();
        let open = self
            .stack
            .pop()
            .expect("span closed on its own stack frame");
        let duration = end_ns.saturating_sub(open.start_ns);
        *self.self_ns.entry(open.name).or_default() += duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(index) = open.kept {
            self.spans[index as usize].end_ns = end_ns;
        }
        result
    }

    /// Adds to a counter.
    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.counts.entry(counter).or_default() += value;
    }

    /// A counter's total so far.
    pub fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    /// A layer's accumulated self time, in milliseconds.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Every layer's self time, in milliseconds.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.self_ns
            .iter()
            .map(|(&name, &ns)| (name, ns as f64 / 1e6))
    }

    /// Forgets everything recorded so far (set-up work is not ledgered).
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
