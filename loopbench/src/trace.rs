//! In-memory spans recorded around each call into a layer.
//!
//! A span has a name, a start and end relative to the tracer's origin,
//! and the span that was open when it began. Nothing is written while
//! the loop runs; the spans of a run are written out once it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that start from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close in nesting order");
        }
    }

    /// Times `f` as one span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Index the next recorded span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self, range: std::ops::Range<usize>) -> &[Span] {
        &self.spans[range]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span in `spans`: its duration minus the part its
/// direct children cover. `spans` must be a closed, contiguous slice
/// of one tracer whose first span is the root; parent ids are absolute,
/// so `base` is the absolute id of `spans[0]`.
pub fn self_times(spans: &[Span], base: usize) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p >= base {
                child_ns[p - base] += s.end_ns - s.start_ns;
            }
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns - c) as f64 * 1e-9)
        .collect()
}
