//! An in-memory span recorder for the traced run.
//!
//! A span marks one call into a layer's public entry point: its name
//! (`layer.operation`), start and end relative to the recorder's origin,
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory while the workload runs and are written out once it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// `layer.operation`, e.g. `core.ladder`.
    pub name: &'static str,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin (equal to `start` while still open).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans for one thread; recorders of several threads that share
/// an origin merge with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end: start,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans (same origin), renumbering them.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in milliseconds, of the spans called `name` whose
    /// request satisfies `keep`.
    pub fn total_ms(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.request))
            .fold(0.0, |acc, s| acc + s.duration() as f64 / 1e6)
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.start, s.end
            );
        }
        out
    }
}

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (parallel work) count
/// once, and a child running past its parent counts only inside it.
pub fn self_time(spans: &[Span], span: &Span) -> u64 {
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut cursor = span.start;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            union += b - a;
            cursor = b;
        }
    }
    span.duration() - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_time(&spans, &spans[0]), 40);
        assert_eq!(self_time(&spans, &spans[1]), 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 45, 50),
        ];
        assert_eq!(self_time(&spans, &spans[0]), 100 - 70);
    }

    #[test]
    fn grandchildren_and_overhanging_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            // A grandchild is covered by its parent, not subtracted again.
            span(2, Some(1), 10, 20),
            // A child that outlives its parent counts only inside it.
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_time(&spans, &spans[0]), 40);
        assert_eq!(self_time(&spans, &spans[1]), 40);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("core.build", 7, None);
        a.span("arith.ppg", 7, Some(root), || ());
        a.close(root);
        let mut b = Tracer::new(origin);
        let r = b.open("httpd.request", 9, None);
        b.span("serve.cached", 9, Some(r), || ());
        b.close(r);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(self_time(spans, &spans[0]) <= spans[0].duration());
        assert_eq!(a.to_ndjson().lines().count(), 4);
        assert!(a.total_ms("arith.ppg", |r| r == 7) >= 0.0);
    }
}
