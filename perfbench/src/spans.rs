//! The traced run's span recorder.
//!
//! A span is one timed call into a layer: its name, its start and end
//! on the benchmark's monotonic clock, the span that was open around
//! it, and the op it belongs to. Spans stay in memory while the run
//! measures and are written once, at exit, as a Chrome trace-event
//! file (see `perfbench/NOTES.md`, "Reading the span file").
//!
//! A disabled recorder records nothing: [`Recorder::enter`] returns
//! `None` without reading the clock, so the untraced run pays one
//! branch per layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The op id set-up spans carry (set-up round `k` uses `SETUP_OP + k`).
pub const SETUP_OP: u64 = 1 << 48;

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, as `<crate>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or set-up round) the span belongs to.
    pub op: u64,
}

/// Collects spans for the traced run.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts or stops recording; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pass the result to [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` opened, and any span left open inside it
    /// (a panic can unwind past an inner `exit`).
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Closes every span still open; called after an op that panicked.
    pub fn close_all(&mut self) {
        if let Some(&outer) = self.open.first() {
            self.exit(Some(outer));
        }
    }

    /// Self time per span name, in nanoseconds, for every op: each
    /// span's duration minus the durations of its direct children.
    /// Spans of one op are nested on one thread, so children never
    /// overlap and their sum is the covered part of the parent.
    pub fn self_ns(&self) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut by_op: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(children);
            *by_op
                .entry(span.op)
                .or_default()
                .entry(span.name)
                .or_default() += own;
        }
        by_op
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome trace-event JSON: one complete (`X`) event
    /// per span on one host lane, timestamps in microseconds, with the
    /// op id, span id and parent id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"benchmark thread\"}}",
        );
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                span.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.set_op(3);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(inner);
        rec.exit(outer);
        let by_op = rec.self_ns();
        let op = &by_op[&3];
        assert!(op["inner"] >= 2_000_000);
        let outer_span = &rec.spans[0];
        let total = outer_span.end_ns - outer_span.start_ns;
        assert_eq!(op["outer"] + op["inner"], total);
        assert_eq!(rec.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("x");
        rec.exit(id);
        assert_eq!(rec.span("y", || 7), 7);
        assert_eq!(rec.len(), 0);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer");
        let _leaked = rec.enter("inner");
        rec.exit(outer);
        assert!(rec.open.is_empty());
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
