//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer; the solver's existing phase-span tree (enabled through
//! `SolveOptions::with_trace`) is grafted under the benchmark span that
//! ran the solve. Nothing is written until the run ends.

use crate::stats::{self_times, Interval};
use ldc_sim::json::{json_string, Obj};
use ldc_sim::trace::SpanNode;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. The layer is the part of `name` before the first
/// `.` (`ldc-batch.run_one` belongs to `ldc-batch`).
#[derive(Debug, Clone)]
pub struct Span {
    /// Op this span belongs to; every span of one op shares it.
    pub op: u64,
    /// Layer-qualified span name.
    pub name: String,
    /// Index of the parent span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Thread-safe span sink with one time origin.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &self,
        op: u64,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            op,
            name: name.into(),
            parent,
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
        };
        self.push(span)
    }

    /// Open a span now; [`Recorder::close`] sets its end.
    pub fn open(&self, op: u64, parent: Option<usize>, name: impl Into<String>) -> usize {
        let now = self.ns(Instant::now());
        self.push(Span {
            op,
            name: name.into(),
            parent,
            start: now,
            end: now,
        })
    }

    /// Close a span opened with [`Recorder::open`].
    pub fn close(&self, idx: usize) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span recorder poisoned")[idx].end = now;
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(
        &self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let idx = self.open(op, parent, name);
        let out = f(idx);
        self.close(idx);
        out
    }

    /// Graft a solver span tree under `parent`: each node becomes a span
    /// named `ldc-core.<name>` (bracketed indices such as `[class=2]`
    /// dropped), children laid end to end from the node's start. The
    /// solver only reports merged wall time per node, not start times,
    /// so the layout is synthetic; durations, and hence self times, are
    /// the solver's own.
    pub fn graft_solver_tree(&self, op: u64, parent: usize, root: &SpanNode) {
        let (start, end) = {
            let spans = self.spans.lock().expect("span recorder poisoned");
            (spans[parent].start, spans[parent].end)
        };
        let mut cursor = start;
        for child in &root.children {
            cursor = self.graft(op, parent, child, cursor, end);
        }
    }

    fn graft(&self, op: u64, parent: usize, node: &SpanNode, start: u64, limit: u64) -> u64 {
        let end = (start + node.wall_nanos as u64).min(limit);
        let idx = self.push(Span {
            op,
            name: format!("ldc-core.{}", solver_span_name(&node.name)),
            parent: Some(parent),
            start,
            end,
        });
        let mut cursor = start;
        for child in &node.children {
            cursor = self.graft(op, idx, child, cursor, end);
        }
        end
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// A solver span name without its bracketed index: `phaseI[class=2]` →
/// `phaseI`, `stage[3]` → `stage`.
pub fn solver_span_name(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

/// Self times of a recorded trace, keyed by span name and by layer, plus
/// the traced wall time (summed root durations).
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Self nanoseconds per span name.
    pub by_name: BTreeMap<String, u64>,
    /// Self nanoseconds per layer.
    pub by_layer: BTreeMap<String, u64>,
    /// Summed durations of all root spans.
    pub wall: u64,
    /// Summed self time of every span (equals `wall` when children stay
    /// inside their parents and siblings do not overlap).
    pub total_self: u64,
}

/// Attribute every span's self time to its name and layer.
pub fn self_time_table(spans: &[Span]) -> SelfTimes {
    let intervals: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            parent: s.parent,
            start: s.start,
            end: s.end,
        })
        .collect();
    let mut out = SelfTimes::default();
    for (s, own) in spans.iter().zip(self_times(&intervals)) {
        *out.by_name.entry(s.name.clone()).or_insert(0) += own;
        *out.by_layer.entry(s.layer().to_string()).or_insert(0) += own;
        out.total_self += own;
        if s.parent.is_none() {
            out.wall += s.end - s.start;
        }
    }
    out
}

/// One JSON object per span, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let intervals: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            parent: s.parent,
            start: s.start,
            end: s.end,
        })
        .collect();
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_times(&intervals)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(
            &Obj::new()
                .u64("id", i as u64)
                .u64("op", s.op)
                .raw("parent", &parent)
                .raw("name", &json_string(&s.name))
                .u64("start_ns", s.start)
                .u64("end_ns", s.end)
                .u64("self_ns", own)
                .finish(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grafted_solver_tree_adds_up_to_the_solve_span() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(1000);
        let root = rec.record(1, None, "bench.op", t0, t1);
        let solve = rec.record(1, Some(root), "ldc-core.solve", t0, t1);
        let leaf = |name: &str, wall: u128| SpanNode {
            name: name.into(),
            rounds: 0,
            messages: 0,
            total_bits: 0,
            max_message_bits: 0,
            wall_nanos: wall,
            counters: BTreeMap::new(),
            children: Vec::new(),
        };
        let mut thm = leaf("thm1.1", 600_000);
        thm.children = vec![leaf("phaseI[class=0]", 200_000), leaf("phaseII", 100_000)];
        let mut tree = leaf("run", 0);
        tree.children = vec![thm];
        rec.graft_solver_tree(1, solve, &tree);
        let table = self_time_table(&rec.snapshot());
        assert_eq!(table.wall, 1_000_000);
        assert_eq!(table.total_self, table.wall);
        assert_eq!(table.by_name["ldc-core.solve"], 400_000);
        assert_eq!(table.by_name["ldc-core.thm1.1"], 300_000);
        assert_eq!(table.by_name["ldc-core.phaseI"], 200_000);
        assert_eq!(table.by_layer["ldc-core"], 1_000_000);
        assert_eq!(table.by_layer["bench"], 0);
        assert_eq!(to_jsonl(&rec.snapshot()).lines().count(), 5);
    }
}
