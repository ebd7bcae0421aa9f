//! Spans recorded by the benchmark around its calls into the engine.
//!
//! A span is `(name, start, end, parent, request)`: the parent is the phase
//! span that caused the call and the request id is the ordinal of the client
//! call, so the spans of one request share an identifier. Spans stay in
//! memory and are written out once, when the traced pass ends. With tracing
//! off, [`Tracer::call`] runs the closure and nothing else.

// The repository's clippy.toml reserves `std::sync::Mutex` for code inside the
// engine's declared lock order; the harness's span list is outside it.
#![allow(clippy::disallowed_types)]

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer; `ROOT` is "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    requests: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a phase span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no panic holds the span list");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: 0,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn end(&self, id: SpanId) {
        if !self.on || id == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("no panic holds the span list")[id as usize].end_ns = end_ns;
    }

    /// Runs one client call under a span parented to `phase`.
    pub fn call<R>(&self, name: &'static str, phase: SpanId, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let request = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no panic holds the span list")
            .push(Span {
                name,
                start_ns,
                end_ns,
                parent: phase,
                request,
            });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no panic holds the span list"))
    }
}

/// Length of the union of `[start, end)` intervals.
fn cover_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover (children on two client threads may overlap, so the
/// cover is a union, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let clipped = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            children[s.parent as usize].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns().saturating_sub(cover_ns(kids)))
        .collect()
}

/// Total duration and self time per span name, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.duration_ns(), own)),
        }
    }
    rows
}

/// Writes the spans as one JSON document (array of objects).
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("phase", 0, 100, ROOT),
            span("a", 10, 30, 0),
            // Overlaps `a` (a second client thread): the union covers 10..50.
            span("b", 20, 50, 0),
            span("c", 60, 70, 0),
            // A grandchild reduces `c`, not the phase.
            span("d", 62, 66, 3),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 30, 6, 4]);
    }

    #[test]
    fn child_cover_is_clipped_to_the_parent() {
        let spans = vec![span("phase", 10, 20, ROOT), span("late", 15, 40, 0)];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        let p = t.begin("phase", ROOT);
        assert_eq!(t.call("x", p, || 7), 7);
        t.end(p);
        assert!(t.take().is_empty());
    }

    #[test]
    fn tracer_on_parents_calls_to_their_phase() {
        let t = Tracer::new(true);
        let p = t.begin("phase", ROOT);
        t.call("x", p, || ());
        t.call("y", p, || ());
        t.end(p);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[1].request, spans[2].request), (1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
