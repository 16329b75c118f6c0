//! Structured, nestable spans.
//!
//! A span is an RAII guard: opening one pushes its identity onto a
//! thread-local stack (so spans opened inside it become children), and
//! dropping it records the elapsed wall-clock time into the registry —
//! a `span.duration_us` histogram labeled with the full path — plus a
//! bounded ring of recent [`SpanEvent`]s for inspection.
//!
//! [`Span::finish`] closes a span the same way and also returns the
//! [`StageCost`] it timed, so a query's profile and its trace are two
//! views of the same clock reads. Every span reads the clock once at
//! open and once at close, both as whole microseconds since one
//! process-wide anchor; its duration is the difference. A child's
//! interval therefore always nests inside its parent's, in the trace
//! and in any profile built from it.
//!
//! Every span carries a process-unique numeric id and its parent's id,
//! so a flat list of [`SpanEvent`]s reconstructs into a tree (see
//! [`crate::trace`]) even when the same path occurs many times — e.g.
//! one `meta.search/dispatch/source` per contacted source.
//!
//! Fan-out workers run on other threads, where the thread-local stack
//! is empty; they use [`crate::Registry::span_under`] with the parent's
//! [`SpanHandle`] to attach to the dispatching span explicitly. The
//! same handle, serialized into a query's trace-context attribute,
//! parents spans across the wire.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;
use starts_proto::StageCost;

use crate::registry::Registry;
use crate::trace::TRACE_FIELD;

/// How many completed spans the ring buffer keeps.
const SPAN_LOG_CAP: usize = 4096;

/// Process-wide span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide time anchor for span start offsets, so spans recorded
/// on different threads (or different registries) are comparable.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Whole microseconds from the anchor to `t`, rounded down (negative
/// for an instant before the anchor).
fn anchor_us(t: Instant) -> i128 {
    let a = anchor();
    match t.checked_duration_since(a) {
        Some(d) => d.as_micros() as i128,
        None => -(a.duration_since(t).as_nanos().div_ceil(1_000) as i128),
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A span's identity: its full path plus its process-unique id. Cheap
/// to clone and `Send`, so it can cross threads (fan-out workers) or
/// the wire (a query's trace-context attribute) to parent spans opened
/// elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanHandle {
    /// Full slash-separated path, e.g. `meta.search/dispatch/source`.
    pub path: String,
    /// Process-unique span id.
    pub id: u64,
}

/// A completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Process-unique span id.
    pub id: u64,
    /// The parent span's id (0 for roots).
    pub parent_id: u64,
    /// Full slash-separated path, e.g. `meta.search/dispatch/source`.
    pub path: String,
    /// The leaf name.
    pub name: String,
    /// The parent path (empty for roots).
    pub parent: String,
    /// Start offset in microseconds since the process time anchor.
    pub start_us: u64,
    /// Elapsed wall-clock microseconds.
    pub duration_us: u64,
    /// Structured fields given at open time.
    pub fields: Vec<(&'static str, String)>,
}

impl SpanEvent {
    /// End offset (start + duration) since the process time anchor.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }

    /// First value of a structured field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Bounded ring of recent [`SpanEvent`]s.
#[derive(Default)]
pub(crate) struct SpanLog {
    ring: Mutex<VecDeque<SpanEvent>>,
}

impl SpanLog {
    fn push(&self, ev: SpanEvent) {
        let mut ring = self.ring.lock();
        if ring.len() == SPAN_LOG_CAP {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    pub(crate) fn recent(&self) -> Vec<SpanEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    pub(crate) fn clear(&self) {
        self.ring.lock().clear();
    }
}

/// An open span; records itself on drop, or on [`Span::finish`].
pub struct Span<'r> {
    reg: &'r Registry,
    id: u64,
    parent_id: u64,
    path: String,
    name: String,
    parent: String,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, String)>,
    closed: bool,
}

impl<'r> Span<'r> {
    pub(crate) fn enter(
        reg: &'r Registry,
        name: &str,
        explicit_parent: Option<SpanHandle>,
        fields: Vec<(&'static str, String)>,
    ) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, parent_id, path) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, parent_id) = match explicit_parent {
                Some(h) => (h.path, h.id),
                None => stack
                    .last()
                    .map(|(p, i)| (p.clone(), *i))
                    .unwrap_or((String::new(), 0)),
            };
            let path = if parent.is_empty() {
                name.to_string()
            } else {
                format!("{parent}/{name}")
            };
            stack.push((path.clone(), id));
            (parent, parent_id, path)
        });
        // Set the anchor before reading the start, so the start offset
        // is never negative.
        anchor();
        let start = Instant::now();
        Span {
            reg,
            id,
            parent_id,
            path,
            name: name.to_string(),
            parent,
            start,
            start_us: anchor_us(start) as u64,
            fields,
            closed: false,
        }
    }

    /// The span's full path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The span's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The span's identity — pass to [`Registry::span_under`] to parent
    /// spans opened on other threads (or across the wire).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            path: self.path.clone(),
            id: self.id,
        }
    }

    /// When the span opened: the origin to [`finish`](Span::finish) a
    /// profile's stages against when this span is the profile's root.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Add a structured field after opening (a value only known once
    /// the work is under way).
    pub fn add_field(&mut self, key: &'static str, value: impl ToString) {
        self.fields.push((key, value.to_string()));
    }

    /// Close the span: record its [`SpanEvent`] exactly as dropping it
    /// would, and return the [`StageCost`] it timed — the same start and
    /// duration, with the start as an offset from `origin` and the
    /// fields (minus the `trace` tag) as stage metadata.
    pub fn finish(mut self, origin: Instant) -> StageCost {
        let end_us = anchor_us(Instant::now()) as u64;
        let mut stage = StageCost::new(
            self.name.clone(),
            (i128::from(self.start_us) - anchor_us(origin)).max(0) as u64,
            end_us.saturating_sub(self.start_us),
        );
        stage.meta = self
            .fields
            .iter()
            .filter(|(k, _)| *k != TRACE_FIELD)
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        self.close(end_us);
        stage
    }

    fn close(&mut self, end_us: u64) {
        self.closed = true;
        let duration_us = end_us.saturating_sub(self.start_us);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // RAII guards drop LIFO; be tolerant of manual `drop()` in
            // odd orders and only pop our own entry.
            if stack.last().map(|(_, i)| *i) == Some(self.id) {
                stack.pop();
            } else if let Some(i) = stack.iter().rposition(|(_, i)| *i == self.id) {
                stack.remove(i);
            }
        });
        self.reg
            .histogram_with("span.duration_us", &[("span", &self.path)])
            .observe(duration_us);
        self.reg.spans.push(SpanEvent {
            id: self.id,
            parent_id: self.parent_id,
            path: std::mem::take(&mut self.path),
            name: std::mem::take(&mut self.name),
            parent: std::mem::take(&mut self.parent),
            start_us: self.start_us,
            duration_us,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.close(anchor_us(Instant::now()) as u64);
        }
    }
}

/// Open a span.
///
/// * `span!("select")` — on the process-wide [`Registry::global`];
/// * `span!(reg, "dispatch", source = id)` — on an explicit registry,
///   with structured fields (each `key = value` pair is captured via
///   `ToString`).
///
/// The returned guard must be bound (`let _span = span!(...)`) — an
/// unbound `let _ = span!(...)` drops immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::Registry::global()
            .span_with($name, vec![$((stringify!($key), $value.to_string())),*])
    };
    ($reg:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        ($reg).span_with($name, vec![$((stringify!($key), $value.to_string())),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let reg = Registry::new();
        {
            let _a = reg.span("outer");
            {
                let _b = reg.span("inner");
            }
            let _c = reg.span("second");
        }
        let events = reg.recent_spans();
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        // Children complete before parents.
        assert_eq!(paths, vec!["outer/inner", "outer/second", "outer"]);
        assert_eq!(events[0].parent, "outer");
        assert_eq!(events[2].parent, "");
        // Parent ids link children to the root; the root has none.
        assert_eq!(events[0].parent_id, events[2].id);
        assert_eq!(events[1].parent_id, events[2].id);
        assert_eq!(events[2].parent_id, 0);
        // Start offsets respect opening order.
        assert!(events[0].start_us >= events[2].start_us);
    }

    #[test]
    fn span_durations_land_in_the_histogram() {
        let reg = Registry::new();
        {
            let _s = reg.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        let h = snap
            .histogram("span.duration_us", &[("span", "work")])
            .expect("span histogram");
        assert_eq!(h.count, 1);
        assert!(h.max >= 2_000, "slept 2ms but recorded {}us", h.max);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let reg = Registry::new();
        let parent_handle = {
            let parent = reg.span("dispatch");
            let handle = parent.handle();
            std::thread::scope(|scope| {
                let reg = &reg;
                let handle = &handle;
                scope.spawn(move || {
                    let _child = reg.span_under("worker", handle, vec![("n", "1".to_string())]);
                });
            });
            handle
        };
        let events = reg.recent_spans();
        let child = events.iter().find(|e| e.name == "worker").unwrap();
        assert_eq!(child.parent, parent_handle.path);
        assert_eq!(child.parent_id, parent_handle.id);
        assert_eq!(child.path, "dispatch/worker");
    }

    #[test]
    fn finish_returns_the_stage_the_event_recorded() {
        let reg = Registry::new();
        let mut root = reg.span_with("root", vec![(TRACE_FIELD, "q-f".to_string())]);
        let origin = root.started();
        let child = reg.span_with("child", vec![("source", "S1".to_string())]);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let child = child.finish(origin);
        root.add_field("results", 3);
        let root = root.finish(origin);
        let events = reg.recent_spans();
        assert_eq!(events.len(), 2, "finishing records once, drop adds nothing");
        let (child_ev, root_ev) = (&events[0], &events[1]);
        assert_eq!(child_ev.parent_id, root_ev.id);
        // Same clock reads: durations are equal, and offsets from the
        // root's start are the events' start differences.
        assert_eq!(child.duration_us, child_ev.duration_us);
        assert!(child.duration_us >= 1_000, "slept 1ms");
        assert_eq!(root.duration_us, root_ev.duration_us);
        assert_eq!(root.start_us, 0);
        assert_eq!(child.start_us, child_ev.start_us - root_ev.start_us);
        assert!(child.end_us() <= root.end_us(), "the child nests");
        // Fields become metadata, minus the trace tag.
        assert_eq!(child.meta, vec![("source".to_string(), "S1".to_string())]);
        assert_eq!(root.meta, vec![("results".to_string(), "3".to_string())]);
        assert_eq!(root_ev.field("results"), Some("3"));
        let snap = reg.snapshot();
        let h = snap.histogram("span.duration_us", &[("span", "root/child")]);
        assert_eq!(h.map(|h| h.count), Some(1));
    }

    #[test]
    fn span_ids_are_unique() {
        let reg = Registry::new();
        {
            let a = reg.span("a");
            let b = reg.span("b");
            assert_ne!(a.id(), b.id());
            assert_ne!(a.id(), 0);
        }
    }

    #[test]
    fn macro_forms() {
        let reg = Registry::new();
        {
            let _s = span!(&reg, "labeled", source = "DB", wave = 2);
        }
        let ev = &reg.recent_spans()[0];
        assert_eq!(ev.name, "labeled");
        assert_eq!(
            ev.fields,
            vec![("source", "DB".to_string()), ("wave", "2".to_string())]
        );
        assert_eq!(ev.field("source"), Some("DB"));
        assert_eq!(ev.field("missing"), None);
        // Global form records on the shared registry.
        let before = Registry::global().recent_spans().len();
        {
            let _s = span!("global-span");
        }
        assert!(Registry::global().recent_spans().len() > before);
    }
}
