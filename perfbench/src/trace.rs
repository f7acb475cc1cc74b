//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into one of
//! the program's layers: a name, start and end, the span it ran under,
//! and the operation it belongs to. Spans stay in memory until the run
//! ends and are then written out as one JSON document with each span's
//! self time (its duration minus the part its children cover).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation the span belongs to; a root span opens a new one.
    pub op: u32,
    /// The layer call, e.g. `core.par.engine` or `rank1`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Collects spans; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span over `[start, end]` under `parent` (a root
    /// span when `None`, which starts a new operation). Returns its id,
    /// or `None` when tracing is off.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let op = match parent {
            Some(p) => self.spans[p as usize].op,
            None => self.spans.iter().filter(|s| s.parent.is_none()).count() as u32,
        };
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document, each with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.id,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(s, &self.spans),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// `span`'s duration minus the part of it that its direct children
/// cover (overlapping children count once; parts of a child outside the
/// parent do not count).
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    span.end_ns.saturating_sub(span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = [
            span(0, None, 0, 100),
            // Two overlapping children cover 10..50 once.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // One sticking out of the parent counts only inside it.
            span(3, Some(0), 90, 120),
            // A grandchild is its parent's business, not the root's.
            span(4, Some(1), 12, 20),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 40 - 10);
        assert_eq!(self_time_ns(&all[1], &all), 30 - 8);
        assert_eq!(self_time_ns(&all[4], &all), 8);
    }

    #[test]
    fn children_share_their_root_operation() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let a = t.record(None, "a", now, now).unwrap();
        let b = t.record(None, "b", now, now).unwrap();
        let c = t.record(Some(a), "rank0", now, now).unwrap();
        let ops: Vec<u32> = t.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, [0, 1, 0]);
        assert_eq!(t.spans()[c as usize].parent, Some(a));
        assert_ne!(a, b);
        assert!(t.to_json().contains("\"name\": \"rank0\""));
        let mut off = Tracer::new(false);
        assert_eq!(off.record(None, "a", now, now), None);
        assert!(off.spans().is_empty());
    }
}
