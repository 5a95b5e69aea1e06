//! In-memory span recording for the traced run.
//!
//! Each driver (and the pump thread) owns one [`SpanLog`]: spans are
//! pushed onto a `Vec` with no locking and written out once the run ends.
//! A span names the layer call it times, the op it belongs to, and the
//! span that caused it; an op's root span has no parent.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call (or op) this span times.
    pub name: &'static str,
    /// Id of the op the span belongs to (unique within one log).
    pub op: u64,
    /// Index of the parent span in the same log; `None` for a root.
    pub parent: Option<usize>,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; returns its index for [`Self::close`]
    /// and for children's `parent`.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
        .collect();
    children.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for group in children.chunk_by(|a, b| a.0 == b.0) {
        let parent = &spans[group[0].0];
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for &(_, start, end) in group {
            let start = start.clamp(reach, parent.end_ns);
            let end = end.clamp(start, parent.end_ns);
            covered += end - start;
            reach = reach.max(end);
        }
        out[group[0].0] -= covered;
    }
    out
}

/// Spans whose children do not tile inside them: the children's durations
/// plus the parent's self time differ from the parent's duration, which
/// happens exactly when a child overlaps a sibling or sticks out of its
/// parent. A consistent trace has none.
pub fn unreconciled(spans: &[Span], self_ns: &[u64]) -> usize {
    let mut child_sum = vec![0u64; spans.len()];
    let mut has_child = vec![false; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_sum[p] += span.duration_ns();
            has_child[p] = true;
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| has_child[i] && child_sum[i] + self_ns[i] != s.duration_ns())
        .count()
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes the first `limit` spans of every log as tab-separated lines:
/// `thread op name span parent start_ns end_ns self_ns`. (A fast
/// workload records millions of spans; the cap keeps the file readable.)
pub fn write_tsv(path: &Path, logs: &[(String, &[Span])], limit: usize) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\top\tname\tspan\tparent\tstart_ns\tend_ns\tself_ns"
    )?;
    for (thread, spans) in logs {
        let self_ns = self_times(spans);
        for (i, s) in spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{thread}\t{}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", None, 100, 200),
            span("a", Some(0), 110, 140),
            span("b", Some(0), 150, 190),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns, vec![30, 30, 40]);
        assert_eq!(unreconciled(&spans, &self_ns), 0);
    }

    #[test]
    fn nested_children_count_against_their_own_parent_only() {
        let spans = [
            span("op", None, 0, 100),
            span("mid", Some(0), 10, 90),
            span("leaf", Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn overlapping_children_count_once_and_do_not_reconcile() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
        ];
        let self_ns = self_times(&spans);
        // Union of the children covers 10..80.
        assert_eq!(self_ns[0], 30);
        assert_eq!(unreconciled(&spans, &self_ns), 1);
    }

    #[test]
    fn a_child_outside_its_parent_does_not_reconcile() {
        let spans = [span("op", None, 0, 100), span("late", Some(0), 90, 120)];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[0], 90);
        assert_eq!(unreconciled(&spans, &self_ns), 1);
    }

    #[test]
    fn log_records_nested_spans_in_order() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("op", 7, None);
        let child = log.open("call", 7, Some(root));
        log.close(child);
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(unreconciled(spans, &self_times(spans)), 0);
        assert_eq!(durations(spans, "call").len(), 1);
    }
}
