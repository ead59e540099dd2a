//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches inside the program: a span is opened and
//! closed in benchmark code, and its self time is its duration minus the
//! part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one request (job, call, batch).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when on; every method is a no-op when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span closes.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Records a span under a fresh id and returns the id.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, name, parent, request, start, end);
        id
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a span recorder panicked").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children that ran in parallel on
/// other threads overlap, so the union, not the sum, is subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += own[&s.id];
    }
    table
}

/// The spans as JSON lines, then the self-time table as text.
pub fn render(spans: &[Span]) -> (String, String) {
    let mut lines = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            lines,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )
        .expect("write to string");
    }
    let mut table = format!(
        "{:<28} {:>9} {:>14} {:>14}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in self_time_table(spans) {
        writeln!(
            table,
            "{name:<28} {count:>9} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        )
        .expect("write to string");
    }
    (lines, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: if parent.is_none() { "call" } else { "block" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two workers' blocks overlap in time under one call span.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 80),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, None, 20, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(1), 90, 140),
        ];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(2), 0, 40),
        ];
        let st = self_times(&spans);
        assert_eq!((st[&1], st[&2], st[&3]), (50, 10, 40));
        let table = self_time_table(&spans);
        assert_eq!(table["call"], (1, 100, 50));
        assert_eq!(table["block"], (2, 90, 50));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        t.span("x", None, 0, now, now);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let id = t.span("x", None, 7, now, now);
        assert_eq!(t.spans()[0].id, id);
        assert_eq!(t.spans()[0].request, 7);
    }
}
