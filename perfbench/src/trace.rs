//! In-memory span recorder for the traced pass. The benchmark opens a span
//! around each call it makes into a layer; spans are kept in memory and
//! written out when the run ends. Every span's duration also lands in a
//! per-name histogram, and every parent's self time (its duration minus the
//! part its children cover) in another, so medians survive the raw-span cap.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Raw spans kept per recorder; later spans only feed the histograms.
const KEEP: usize = 1 << 16;

pub type SpanId = u32;
const NO_PARENT: SpanId = u32::MAX;

struct Span {
    id: SpanId,
    name: usize,
    parent: SpanId,
    start: u64,
    end: u64,
}

pub struct Tracer {
    epoch: Instant,
    names: &'static [&'static str],
    spans: Vec<Span>,
    next_id: SpanId,
    durations: Vec<Hist>,
    self_times: Vec<Hist>,
    sums: Vec<u64>,
}

/// An open parent span: children report their durations into it.
pub struct Open {
    id: SpanId,
    name: usize,
    start: u64,
    children_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, names: &'static [&'static str]) -> Self {
        Self {
            epoch,
            names,
            spans: Vec::with_capacity(KEEP),
            next_id: 0,
            durations: names.iter().map(|_| Hist::default()).collect(),
            self_times: names.iter().map(|_| Hist::default()).collect(),
            sums: vec![0; names.len()],
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: usize) -> Open {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        Open {
            id,
            name,
            start: self.now(),
            children_ns: 0,
        }
    }

    pub fn close(&mut self, open: Open) {
        let end = self.now();
        let dur = end - open.start;
        self.durations[open.name].record(dur);
        self.sums[open.name] += dur;
        self.self_times[open.name].record(dur.saturating_sub(open.children_ns));
        self.keep(open.id, open.name, NO_PARENT, open.start, end);
    }

    /// Times `f` as a leaf span named `name`, child of `parent` if given.
    pub fn leaf<R>(&mut self, name: usize, parent: Option<&mut Open>, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        let dur = end - start;
        self.durations[name].record(dur);
        self.sums[name] += dur;
        let parent_id = match parent {
            Some(p) => {
                p.children_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.keep(id, name, parent_id, start, end);
        r
    }

    fn keep(&mut self, id: SpanId, name: usize, parent: SpanId, start: u64, end: u64) {
        if self.spans.len() < KEEP {
            self.spans.push(Span {
                id,
                name,
                parent,
                start,
                end,
            });
        }
    }

    pub fn durations(&self, name: usize) -> &Hist {
        &self.durations[name]
    }

    pub fn self_times(&self, name: usize) -> &Hist {
        &self.self_times[name]
    }

    /// Summed duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: usize) -> u64 {
        self.sums[name]
    }

    /// Folds `other`'s histograms and sums into this one; raw spans stay
    /// with the recorder that made them (ids are unique per recorder).
    pub fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.durations.iter_mut().zip(&other.durations) {
            a.merge(b);
        }
        for (a, b) in self.self_times.iter_mut().zip(&other.self_times) {
            a.merge(b);
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
    }

    /// Writes the kept spans as CSV: `id,name,parent,start_ns,end_ns`, with
    /// `parent` empty for a root span. Ids are unique per recorder.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let name = self.names[s.name];
            writeln!(out, "{},{name},{parent},{},{}", s.id, s.start, s.end)?;
        }
        out.flush()
    }
}
