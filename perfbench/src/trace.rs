//! In-memory spans for the traced run. A span names one call into a
//! layer, with its start, end, parent span and request id; spans are
//! kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        req: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record a span measured apart from its parent's interval (the
    /// benchmark re-issues a layer call that `Server::handle` made
    /// internally): it starts at the parent's start and lasts `dur_ns`.
    pub fn attribute(&mut self, name: &'static str, parent: usize, dur_ns: u64) {
        let p = &self.spans[parent];
        let span = Span {
            name,
            req: p.req,
            parent: Some(parent),
            start_ns: p.start_ns,
            end_ns: p.start_ns + dur_ns,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the
    /// durations of its children.
    pub fn self_ns(&self) -> BTreeMap<&'static str, i128> {
        let mut out: BTreeMap<&'static str, i128> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += i128::from(s.dur_ns());
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= i128::from(s.dur_ns());
            }
        }
        out
    }

    /// Total duration per span name.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.dur_ns();
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        let root = t.record("root", 0, None, t0, t0 + Duration::from_nanos(100));
        t.record(
            "child",
            0,
            Some(root),
            t0 + Duration::from_nanos(10),
            t0 + Duration::from_nanos(40),
        );
        t.attribute("shadow", root, 20);
        let s = t.self_ns();
        assert_eq!(s["root"], 50);
        assert_eq!(s["child"], 30);
        assert_eq!(s["shadow"], 20);
    }
}
