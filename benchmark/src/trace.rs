//! In-memory spans around the calls into each layer.
//!
//! The harness times every call into the product through a [`Tracer`],
//! traced or not, so both kinds of run execute the same code; a traced run
//! additionally keeps each span (name, start, end, parent, op id — one id
//! per delta or query) and writes them as JSON lines when it ends. Spans
//! are recorded from the benchmark's side of the boundary only: work that
//! happens *inside* one product call is attributed by replaying the same
//! public function outside the timed operation, and such spans are flagged
//! as replays.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(keep: bool) -> Self {
        Self {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn keeps_spans(&self) -> bool {
        self.keep
    }

    /// Starts the next operation (one delta, one ranking round, one timed
    /// query batch); spans opened until the next call carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    fn open(&mut self, name: &'static str, replay: bool) -> Open {
        let started = Instant::now();
        let index = self.keep.then(|| {
            let at = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.stack.last().copied(),
                start_ns: at,
                end_ns: at,
                replay,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.started.elapsed();
        if let Some(index) = open.index {
            self.spans[index].end_ns = self.spans[index].start_ns + elapsed.as_nanos() as u64;
            // Spans close in the order they opened (single thread, lexical
            // nesting), so the top of the stack is this span.
            self.stack.pop();
        }
        elapsed
    }

    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Times a replay: the same public function the product just ran
    /// inside a timed call, run again on a copy outside it.
    pub fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.open(name, true);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.replay
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// For each span called `root`, the share of its duration its direct
/// children cover, in percent.
pub fn child_coverage_pct(spans: &[Span], root: &str) -> Vec<f64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == root && s.duration_ns() > 0)
        .map(|(s, &own)| 100.0 * (1.0 - own as f64 / s.duration_ns() as f64))
        .collect()
}

/// Total self time per span name, in nanoseconds — the blocking-time
/// share table of the README is computed from this.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if !s.replay {
            *by_name.entry(s.name).or_insert(0) += own;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
            replay: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("freshness", None, 0, 100),
            span("engine.apply_delta", Some(0), 0, 60),
            span("serve.publish", Some(0), 60, 95),
            span("inner", Some(2), 70, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 60, 25, 10]);
        assert_eq!(child_coverage_pct(&spans, "freshness"), vec![95.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["freshness"], 5);
        assert_eq!(by_name["serve.publish"], 25);
    }

    #[test]
    fn tracer_nests_spans_and_numbers_ops() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.begin("freshness");
        let ((), _) = t.time("engine.apply_delta", || ());
        let ((), _) = t.time("serve.publish", || ());
        t.end(root);
        let ((), _) = t.replay("replay.graph.apply", || ());
        t.next_op();
        let ((), _) = t.time("freshness", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[3].replay);
        assert_eq!((spans[0].op, spans[4].op), (1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 5);
        assert!(!self_time_by_name(spans).contains_key("replay.graph.apply"));
    }

    #[test]
    fn an_untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
