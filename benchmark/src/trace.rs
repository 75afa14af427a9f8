//! In-memory spans recorded *around* the harness's calls into each layer.
//!
//! A span is (name, start, end, parent, episode). Spans nest by call
//! order on the one driver thread, are kept in memory while the workload
//! runs, and are written out as JSON lines when it ends. A span's self
//! time is its duration minus the part its child spans cover. With the
//! tracer disabled `enter`/`exit` do nothing, which is how the untraced
//! pass runs the same code.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Episode the span belongs to; spans of one episode share it.
    pub episode: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    episode: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            episode: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans entered from now on belong to `episode`.
    pub fn set_episode(&mut self, episode: u32) {
        self.episode = episode;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            episode: self.episode,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"episode\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.episode, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children of one parent never overlap (one thread, stack discipline),
/// so the sum of their durations is the part of the parent they cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            episode: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("episode", 0, 100, None),
            span("step", 10, 40, Some(0)), // adjacent siblings …
            span("step", 40, 70, Some(0)),
            span("kernel", 45, 60, Some(2)), // … and a grandchild
            span("other", 200, 230, None),
        ];
        // The grandchild comes off its parent only, not off the root.
        assert_eq!(self_times_ns(&spans), vec![40, 30, 15, 15, 30]);
    }

    #[test]
    fn tracer_nests_by_call_order_and_tags_episodes() {
        let mut t = Tracer::new(true);
        t.set_episode(3);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        t.set_episode(4);
        let next = t.enter("next");
        t.exit(next);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].episode, s[2].episode), (3, 4));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x");
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
