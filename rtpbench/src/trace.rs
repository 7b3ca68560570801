//! In-memory spans and counts of the traced replay.
//!
//! A span records one call the benchmark made into a layer: its op, its
//! name, the span it ran inside, and its start and end. Spans stay in
//! memory and are written out as JSON lines when the replay ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub op: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counts; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<usize>,
    /// The label of every op, indexed by op id.
    pub ops: Vec<&'static str>,
    pub spans: Vec<Span>,
    /// `(op, name, value)`.
    pub counts: Vec<(usize, &'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            ops: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new op; later spans and counts belong to it.
    pub fn next_op(&mut self, label: &'static str) {
        self.ops.push(label);
    }

    fn op(&self) -> usize {
        self.ops.len().saturating_sub(1)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            op: self.op(),
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.stack.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let op = self.op();
            self.counts.push((op, name, value));
        }
    }

    /// Per op with `label`: the summed self time (ns) of each span name,
    /// the summed duration (ns) of each span name, and each count.
    pub fn per_op(&self, label: &str) -> Vec<OpTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<usize, OpTotals> = BTreeMap::new();
        for (op, l) in self.ops.iter().enumerate() {
            if *l == label {
                out.insert(op, OpTotals::default());
            }
        }
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if let Some(t) = out.get_mut(&span.op) {
                *t.self_ns.entry(span.name).or_default() += self_ns as f64;
                *t.total_ns.entry(span.name).or_default() += span.duration_ns() as f64;
            }
        }
        for &(op, name, value) in &self.counts {
            if let Some(t) = out.get_mut(&op) {
                *t.counts.entry(name).or_default() += value;
            }
        }
        out.into_values().collect()
    }

    /// The spans and counts as JSON lines, with each span's self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"op":{},"label":"{}","id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.op, self.ops[s.op], s.name, s.start_ns, s.end_ns
            );
        }
        for &(op, name, value) in &self.counts {
            let _ = writeln!(
                out,
                r#"{{"op":{op},"label":"{}","count":"{name}","value":{value}}}"#,
                self.ops[op]
            );
        }
        out
    }
}

/// What one op spent and counted, by span or count name.
#[derive(Default, Debug)]
pub struct OpTotals {
    pub self_ns: BTreeMap<&'static str, f64>,
    pub total_ns: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

/// Each span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            op,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(0, Some(0), "request", 10, 60),
            span(0, Some(1), "parse", 12, 20),
            span(0, Some(1), "dispatch", 20, 50),
            // Overlapping children count once, and a child sticking out
            // of its parent counts only inside it.
            span(0, Some(0), "model", 55, 90),
            span(0, Some(0), "late", 80, 120),
            span(0, Some(3), "inner", 25, 25),
        ];
        // The root's children cover 10..60, 55..90 and 80..100: 90 of 100.
        assert_eq!(self_times(&spans), vec![10, 50 - 38, 8, 30, 35, 40, 0]);
    }

    #[test]
    fn per_op_sums_by_name_and_skips_other_labels() {
        let mut t = Tracer::new(true);
        t.next_op("setup");
        t.span("a", || {});
        t.next_op("op");
        t.begin("op");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.span("a", || {});
        t.end();
        t.count("bytes", 3.0);
        t.count("bytes", 4.0);
        let totals = t.per_op("op");
        assert_eq!(totals.len(), 1);
        let op = &totals[0];
        assert!(op.self_ns["a"] >= 1e6);
        assert_eq!(op.self_ns["a"] + op.self_ns["op"], op.total_ns["op"]);
        assert_eq!(op.counts["bytes"], 7.0);
        assert_eq!(t.to_jsonl().lines().count(), 6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_op("op");
        t.span("a", || {});
        t.count("c", 1.0);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}
