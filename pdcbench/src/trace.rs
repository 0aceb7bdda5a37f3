//! Spans and counts recorded around the benchmark's calls into each
//! crate's public functions. Nothing inside the program is instrumented.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span it was opened under, and the id of the job (0 for
//! set-up) it belongs to. Spans stay in memory until the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The job this span belongs to (0 for set-up).
    pub job: u64,
    /// Index of this span within its job.
    pub id: usize,
    /// Index of the enclosing span within the same job.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.compile`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end: u64,
}

impl Span {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// A count taken at a span boundary (steps run, candidates searched, …).
#[derive(Debug, Clone)]
pub struct Count {
    /// Metric name.
    pub name: &'static str,
    /// The counted value.
    pub value: f64,
}

/// Records the spans and counts of one job. A disabled tracer runs the
/// wrapped calls and records nothing.
#[derive(Debug)]
pub struct Tracer {
    job: u64,
    epoch: Instant,
    enabled: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    /// A tracer for job `job` timing against `epoch`.
    pub fn new(job: u64, epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            job,
            epoch,
            enabled,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether this tracer records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            job: self.job,
            id,
            parent: self.open.last().copied(),
            name,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Record a count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push(Count { name, value });
        }
    }

    /// The recorded spans and counts.
    pub fn finish(self) -> (Vec<Span>, Vec<Count>) {
        (self.spans, self.counts)
    }
}

/// Write spans as JSON lines, one span per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"job\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.job, s.id, parent, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
