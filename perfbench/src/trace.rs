//! The benchmark's own in-memory span recorder. Spans are recorded from
//! the benchmark's side of each call (around a client request, or around
//! a direct call into one layer's public API) and written out once, at
//! the end of the traced run; the program under test is not touched.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run (each recorder owns a disjoint id range).
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The layer boundary this span times.
    pub name: &'static str,
    /// Nanoseconds since the run's shared origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's shared origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start above `tag << 40`, so recorders created
    /// with distinct tags never collide when merged.
    pub fn new(origin: Instant, tag: u64) -> Self {
        Self {
            origin,
            next_id: (tag << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared origin.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// Nanoseconds from the shared origin to `t`.
    pub fn at_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves an id for a span whose bounds are not known yet (a root
    /// recorded after its children).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved or fresh id.
    pub fn record(&mut self, id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a fresh span; returns its result and duration.
    pub fn time<T>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(id, parent, name, start, end);
        (out, end - start)
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Self time per span name: each span's duration minus the parts its
    /// direct children cover, as `(count, total self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let covered = child_ns.get(&span.id).copied().unwrap_or(0);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes at most `cap` spans of each name as JSON lines.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        for span in &self.spans {
            let n = written.entry(span.name).or_default();
            if *n >= cap {
                continue;
            }
            *n += 1;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new(Instant::now(), 1);
        let root = tracer.reserve();
        tracer.record(tracer.next_id, root, "child", 10, 40);
        tracer.record(root, 0, "root", 0, 100);
        let times = tracer.self_times();
        assert_eq!(times["root"], (1, 70));
        assert_eq!(times["child"], (1, 30));
    }
}
