//! Spans recorded around the public calls the benchmark makes, kept in
//! memory and written as JSON lines when the workload ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::quote;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.respond`.
    pub name: &'static str,
    /// Start, from the trace origin.
    pub start: Duration,
    /// End, from the trace origin.
    pub end: Duration,
    /// Id of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the request (timeline event) the span belongs to.
    pub request: Option<usize>,
    /// Whether the call was re-issued serially after the load phase.
    pub shadow: bool,
}

/// The spans of one run, in recording order; a span's id is its index.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose offsets count from now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `instant` as an offset from the trace origin.
    pub fn at(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.origin)
    }

    /// Record a span and return its id.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record a root span covering `start..end`.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.push(Span {
            name,
            start,
            end,
            parent: None,
            request: None,
            shadow: false,
        })
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let optional = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"request\": {}, \"shadow\": {}}}",
                quote(span.name),
                span.start.as_nanos(),
                span.end.as_nanos(),
                optional(span.parent),
                optional(span.request),
                span.shadow
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_are_written_as_json_lines() {
        let mut trace = Trace::new();
        let start = Instant::now();
        let root = trace.root("frontend.submit", start, start + Duration::from_micros(5));
        trace.push(Span {
            name: "service.respond",
            start: Duration::from_micros(1),
            end: Duration::from_micros(4),
            parent: Some(root),
            request: Some(7),
            shadow: false,
        });
        let dir = std::env::temp_dir().join(format!("voicebench-trace-{}", std::process::id()));
        let path = dir.join("w.jsonl");
        trace.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(lines[1].get("request"), Some(&Json::Num(7.0)));
        assert_eq!(lines[1].get("start_ns"), Some(&Json::Num(1000.0)));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}
