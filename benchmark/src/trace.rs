//! Spans recorded by the benchmark around each call into a layer's
//! public function.
//!
//! The traced pass wraps every call in `Tracer::span`; a layer's *self
//! time* is its span minus the part its child spans cover. Two kinds of
//! child exist: spans the benchmark timed itself (`src: "call"`), and
//! spans laid in from a duration the program reported about its own
//! interior (`src: "reported"` — `ExecStats` phase times, flush times),
//! because the kernels run inside `Executor::decode` where no outside
//! caller can put a clock. Spans stay in memory and are written to a
//! JSONL file when the pass ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The root span of one operation; its self time is what no layer
/// accounts for.
pub const OP: &str = "op";

/// Raw spans kept for the JSONL file. Self-time totals always cover
/// every span; only the file is capped, so a multi-million-op pass does
/// not write a gigabyte.
const MAX_KEPT_SPANS: usize = 200_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    /// Index of the parent span within its op (`None` for the root).
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub reported: bool,
}

struct Open {
    name: &'static str,
    index: u32,
    parent: Option<u32>,
    start_ns: u64,
    /// `Some` for reported spans, whose end is fixed when they open.
    fixed_end_ns: Option<u64>,
    children_ns: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub spans: u64,
}

pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    next_index: u32,
    op_id: u64,
    kept: Vec<Span>,
    spans: u64,
    totals: BTreeMap<&'static str, LayerTotal>,
    op_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            next_index: 0,
            op_id: 0,
            kept: Vec::new(),
            spans: 0,
            totals: BTreeMap::new(),
            op_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, start_ns: u64, fixed_end_ns: Option<u64>) {
        if self.stack.is_empty() {
            self.op_id += 1;
            self.next_index = 0;
        }
        let parent = self.stack.last().map(|o| o.index);
        self.stack.push(Open {
            name,
            index: self.next_index,
            parent,
            start_ns,
            fixed_end_ns,
            children_ns: 0,
        });
        self.next_index += 1;
    }

    fn close(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let end_ns = open.fixed_end_ns.unwrap_or(now_ns).max(open.start_ns);
        let duration = end_ns - open.start_ns;
        let total = self.totals.entry(open.name).or_default();
        total.self_ns += duration.saturating_sub(open.children_ns);
        total.spans += 1;
        self.spans += 1;
        match self.stack.last_mut() {
            Some(parent) => parent.children_ns += duration,
            None => self.op_ns += duration,
        }
        if self.kept.len() < MAX_KEPT_SPANS {
            self.kept.push(Span {
                name: open.name,
                op_id: self.op_id,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
                reported: open.fixed_end_ns.is_some(),
            });
        }
    }

    /// Times `f` as a span named `name`, nested under whatever span is
    /// open. A span opened with none open starts a new op.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = self.now_ns();
        self.open(name, start, None);
        let result = f(self);
        let end = self.now_ns();
        self.close(end);
        result
    }

    /// Lays a child of `duration_ns` into the open span from a time the
    /// program reported about its own interior, and runs `f` with that
    /// child open so reported times can nest. The child starts where the
    /// parent's earlier children end and is clipped to the parent.
    pub fn reported<R>(
        &mut self,
        name: &'static str,
        duration_ns: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let now = self.now_ns();
        let (start, limit) = match self.stack.last() {
            Some(parent) => (
                parent.start_ns + parent.children_ns,
                parent.fixed_end_ns.unwrap_or(now),
            ),
            None => (now, u64::MAX),
        };
        let end = start.saturating_add(duration_ns).min(limit.max(start));
        self.open(name, start, Some(end));
        let result = f(self);
        self.close(end);
        result
    }

    /// Spans closed so far.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Wall time covered by root spans.
    #[cfg(test)]
    pub fn op_ns(&self) -> u64 {
        self.op_ns
    }

    /// Self time per span name.
    #[cfg(test)]
    pub fn totals(&self) -> &BTreeMap<&'static str, LayerTotal> {
        &self.totals
    }

    /// Each name's self time as a share of all op time. The shares sum
    /// to 1; the root's own share is the time no layer accounts for.
    pub fn shares(&self) -> BTreeMap<&'static str, f64> {
        let op_ns = self.op_ns.max(1) as f64;
        self.totals
            .iter()
            .map(|(name, t)| (*name, t.self_ns as f64 / op_ns))
            .collect()
    }

    /// Share of op time not covered by any child span.
    pub fn unattributed_frac(&self) -> f64 {
        self.shares().get(OP).copied().unwrap_or(0.0)
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"src\":\"{}\"}}",
                s.name,
                s.op_id,
                parent,
                s.start_ns,
                s.end_ns,
                if s.reported { "reported" } else { "call" }
            )?;
        }
        out.flush()
    }

    #[cfg(test)]
    fn kept(&self) -> &[Span] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the tracer with fixed clock readings instead of `Instant`.
    fn synthetic(
        t: &mut Tracer,
        name: &'static str,
        start: u64,
        end: u64,
        f: impl FnOnce(&mut Tracer),
    ) {
        t.open(name, start, None);
        f(t);
        t.close(end);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        // op [0,100) { planner [5,25) ; executor [30,90) { tape [40,80) } }
        synthetic(&mut t, OP, 0, 100, |t| {
            synthetic(t, "core.planner", 5, 25, |_| {});
            synthetic(t, "core.executor", 30, 90, |t| {
                synthetic(t, "core.tape.exec", 40, 80, |_| {});
            });
        });
        let totals = t.totals();
        assert_eq!(totals[OP].self_ns, 100 - 20 - 60);
        assert_eq!(totals["core.planner"].self_ns, 20);
        assert_eq!(totals["core.executor"].self_ns, 60 - 40);
        assert_eq!(totals["core.tape.exec"].self_ns, 40);
        assert_eq!(t.op_ns(), 100);
        assert_eq!(t.spans(), 4);
        let sum: f64 = t.shares().values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((t.unattributed_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ops_accumulate_and_number_their_spans() {
        let mut t = Tracer::new();
        for op in 0..3u64 {
            synthetic(&mut t, OP, op * 10, op * 10 + 8, |t| {
                synthetic(t, "gf", op * 10 + 1, op * 10 + 4, |_| {});
            });
        }
        assert_eq!(t.op_ns(), 24);
        assert_eq!(
            t.totals()["gf"],
            LayerTotal {
                self_ns: 9,
                spans: 3
            }
        );
        let last = t.kept().last().unwrap();
        assert_eq!((last.name, last.op_id, last.parent), (OP, 3, None));
        assert_eq!(t.kept()[0].parent, Some(0));
    }

    #[test]
    fn reported_children_nest_and_clip_to_the_parent() {
        let mut t = Tracer::new();
        t.open(OP, 0, None);
        t.open("core.executor", 10, Some(60));
        // 30 ns reported inside the executor, 20 of them kernels.
        t.reported("core.tape.exec", 30, |t| t.reported("gf", 20, |_| {}));
        // A second reported child asking for more than is left is clipped.
        t.reported("late", 1_000, |_| {});
        t.close(60);
        t.close(100);
        let totals = t.totals();
        assert_eq!(totals["gf"].self_ns, 20);
        assert_eq!(totals["core.tape.exec"].self_ns, 10);
        assert_eq!(totals["late"].self_ns, 20);
        assert_eq!(totals["core.executor"].self_ns, 0);
        assert_eq!(totals[OP].self_ns, 50);
        assert!(t.kept().iter().filter(|s| s.reported).count() == 4);
    }
}
