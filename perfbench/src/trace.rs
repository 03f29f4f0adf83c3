//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each library layer: name, start, end, parent span and request id.
//! They stay in memory until the run ends, when they can be written out
//! as JSON lines. A disabled tracer never reads the clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; `enabled == false` makes every call a no-op.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Reserves room for `n` more spans, so a long traced run does not
    /// pay for growing the buffer inside a timed request.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span; returns `None` when tracing is off.
    pub fn enter(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, request);
        let out = f();
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes up to `limit` spans as JSON lines; returns how many were
    /// written.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.spans.len().min(limit);
        for (id, s) in self.spans[..n].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok(n)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("grandchild", 12, 14, Some(1)),
        ];
        // Children cover [10, 50) and [90, 100): 50 ns of the root.
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn layer_self_times_add_up_to_the_root() {
        let spans = [
            span("train", 0, 1_000, None),
            span("init", 5, 200, Some(0)),
            span("dp", 200, 700, Some(0)),
            span("mstep", 710, 990, Some(0)),
        ];
        let selfs = self_times(&spans);
        let layers: u64 = selfs[1..].iter().sum();
        let outside = selfs[0];
        assert_eq!(outside, 25);
        assert_eq!(layers + outside, spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", None, 1);
        t.exit(id);
        assert_eq!(t.time("y", None, 2, || 7), 7);
        assert!(id.is_none() && t.spans().is_empty());
        t.set_enabled(true);
        let root = t.enter("root", None, 3);
        t.time("child", root, 3, || ());
        t.exit(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
    }
}
