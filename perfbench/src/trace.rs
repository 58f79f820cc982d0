//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing inside the program is instrumented: the traced replay calls the
//! layers' public functions directly and wraps each call in a span (name,
//! start, end, parent, op id).  Spans stay in memory and are written out as
//! JSON lines when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    /// Index of the span in the tracer's list.
    pub id: usize,
    /// The enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `store.wal.append`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work counted at this boundary (records, bytes, clusters …).
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One replayed operation: its kind, duration and (when traced) root span.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Operation kind, e.g. `anonymize`.
    pub kind: &'static str,
    /// Wall time of the whole operation, seconds.
    pub seconds: f64,
    /// Root span id when the operation was traced.
    pub root: Option<usize>,
}

/// Records spans while enabled; a disabled tracer only times whole ops.
pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    next_op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    ops: RefCell<Vec<OpRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(true),
            next_op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            ops: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turns span recording on or off for the ops that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs one operation of kind `kind`: timed always, and recorded as a
    /// root span (with `f`'s spans beneath it) while enabled.
    pub fn op<T>(&self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.next_op.get();
        self.next_op.set(op + 1);
        let started = Instant::now();
        let (value, root) = if self.enabled.get() {
            let root = self.spans.borrow().len();
            (self.span(kind, f), Some(root))
        } else {
            (f(), None)
        };
        self.ops.borrow_mut().push(OpRecord {
            kind,
            seconds: started.elapsed().as_secs_f64(),
            root,
        });
        value
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper while disabled).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                op: self.next_op.get().saturating_sub(1),
                id,
                parent: self.open.borrow().last().copied(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                count: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let value = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        value
    }

    /// Adds `n` to the count of the innermost open span.
    pub fn count(&self, n: u64) {
        if let Some(&id) = self.open.borrow().last() {
            self.spans.borrow_mut()[id].count += n;
        }
    }

    /// Forgets every recorded span and op (set-up work before the replay).
    pub fn clear(&self) {
        self.spans.borrow_mut().clear();
        self.ops.borrow_mut().clear();
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Every operation run so far.
    pub fn ops(&self) -> Vec<OpRecord> {
        self.ops.borrow().clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    }
}

/// Per-layer totals of one traced operation: span name → (seconds summed
/// over every span of that name under the op, count summed, span count).
pub fn layer_totals(spans: &[Span], root: usize) -> BTreeMap<&'static str, (f64, u64, usize)> {
    let op = spans[root].op;
    let mut totals: BTreeMap<&'static str, (f64, u64, usize)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op == op && s.id != root) {
        let entry = totals.entry(s.name).or_default();
        entry.0 += s.seconds();
        entry.1 += s.count;
        entry.2 += 1;
    }
    totals
}

/// The share of the root span's duration that its direct children do not
/// cover: the time no layer accounts for.
pub fn unattributed_share(spans: &[Span], root: usize) -> f64 {
    let r = &spans[root];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| (s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns)))
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = r.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    let total = r.end_ns - r.start_ns;
    if total == 0 {
        0.0
    } else {
        (total - covered) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_op_and_reconcile() {
        let t = Tracer::default();
        t.op("ingest", || {
            t.span("serve.parse", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("store.wal.append", || {
                t.count(7);
                t.span("inner", || ());
            });
        });
        t.set_enabled(false);
        t.op("ingest", || t.span("serve.parse", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 0));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[2].count, 7);
        let ops = t.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].root, Some(0));
        assert_eq!(ops[1].root, None);
        let share = unattributed_share(&spans, 0);
        assert!((0.0..0.5).contains(&share), "{share}");
        assert_eq!(layer_totals(&spans, 0)["store.wal.append"].1, 7);
    }
}
