//! The benchmark's own span recorder and the per-layer self-time table.
//!
//! Spans are recorded around calls into the layers' public functions
//! from the benchmark's code only; nothing inside the program is
//! instrumented. A span has a name, start, end, parent and request id;
//! spans are kept in memory while the run lasts and written out as JSON
//! Lines when it ends. Recording is off unless [`enable`] was called,
//! so the untraced run pays one atomic load per call site.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans on the request's *blocking path* cover. Under a fan-out span
//! only the child that finished last is on the blocking path: the
//! fan-out waited for it and for nothing else.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root or an orphan (a span
/// recorded on a thread the benchmark does not own, such as a serving
/// pool worker); orphans are joined to their request through `tag`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    pub tag: Option<String>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    /// (current span id, current request id) of this thread.
    static CTX: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// A tag waiting for the span with this id to close.
    static TAG: RefCell<Option<(u64, String)>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording spans.
pub fn enable() {
    now_ns();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back every span recorded so far.
pub fn take() -> Vec<SpanRec> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

fn record<T>(parent: u64, req: u64, name: &'static str, f: impl FnOnce(u64) -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f(0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let saved = CTX.with(|c| c.replace((id, req)));
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    CTX.with(|c| c.set(saved));
    let tag = TAG.with(|t| {
        let mut t = t.borrow_mut();
        match t.as_ref() {
            Some((owner, _)) if *owner == id => t.take().map(|(_, s)| s),
            _ => None,
        }
    });
    SPANS.lock().expect("span buffer poisoned").push(SpanRec {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req,
        tag,
    });
    out
}

/// Run `f` as the root span of request `req`.
pub fn request<T>(req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    record(0, req, name, |_| f())
}

/// Run `f` inside a span nested under this thread's current span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_id(name, |_| f())
}

/// [`span`] that also hands `f` the new span's id (0 when recording is
/// off), for inputs captured for a later replay.
pub fn span_id<T>(name: &'static str, f: impl FnOnce(u64) -> T) -> T {
    let (parent, req) = CTX.with(Cell::get);
    record(parent, req, name, f)
}

/// This thread's (span, request) context, to hand to a spawned thread.
pub fn context() -> (u64, u64) {
    CTX.with(Cell::get)
}

/// Run `f` on this thread under a context taken with [`context`].
pub fn within<T>(ctx: (u64, u64), f: impl FnOnce() -> T) -> T {
    let saved = CTX.with(|c| c.replace(ctx));
    let out = f();
    CTX.with(|c| c.set(saved));
    out
}

/// Tag the innermost open span of this thread (when recording).
pub fn set_tag(tag: impl Into<String>) {
    let (id, _) = CTX.with(Cell::get);
    if id != 0 {
        TAG.with(|t| *t.borrow_mut() = Some((id, tag.into())));
    }
}

/// Write spans as JSON Lines.
pub fn write_jsonl(spans: &[SpanRec], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"tag\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.req,
            s.tag.as_ref().map_or("null".to_string(), |t| format!("\"{t}\"")),
        )?;
    }
    out.flush()
}

/// The spans on the blocking path of every root, with their self time.
#[derive(Debug, Default)]
pub struct BlockingPath {
    /// Roots (requests) walked.
    pub roots: usize,
    /// Sum of root durations.
    pub total_ns: u64,
    /// (span index into the input, self time) for every on-path span.
    pub self_ns: Vec<(usize, i64)>,
}

/// Walk each root's blocking path. Roots are spans named `root`;
/// orphans carrying a tag become children of the span with the same
/// tag; spans named in `fanouts` keep only their last-finishing child.
/// Each on-path span's self time is its duration minus its on-path
/// children's, so the self times of one root sum to its duration.
pub fn blocking_path(spans: &[SpanRec], root: &str, fanouts: &[&str]) -> BlockingPath {
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let tagged: HashMap<&str, usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent != 0 && s.tag.is_some())
        .map(|(i, s)| (s.tag.as_deref().unwrap_or_default(), i))
        .collect();
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent != 0 {
            by_id.get(&s.parent).copied()
        } else {
            s.tag.as_deref().and_then(|t| tagged.get(t).copied())
        };
        if let Some(p) = parent {
            // Only children inside the parent's interval can block it.
            let ps = &spans[p];
            if s.start_ns >= ps.start_ns && s.end_ns <= ps.end_ns {
                children.entry(p).or_default().push(i);
            }
        }
    }
    let mut path = BlockingPath::default();
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 || s.name != root {
            continue;
        }
        path.roots += 1;
        path.total_ns += s.dur_ns();
        stack.push(i);
        while let Some(at) = stack.pop() {
            let kids = children.get(&at).map(Vec::as_slice).unwrap_or_default();
            let on_path: Vec<usize> = if fanouts.contains(&spans[at].name) {
                kids.iter()
                    .copied()
                    .max_by_key(|&k| (spans[k].end_ns, spans[k].id))
                    .into_iter()
                    .collect()
            } else {
                kids.to_vec()
            };
            let covered: u64 = on_path.iter().map(|&k| spans[k].dur_ns()).sum();
            path.self_ns
                .push((at, spans[at].dur_ns() as i64 - covered as i64));
            stack.extend(on_path);
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            req: 1,
            tag: None,
        }
    }

    #[test]
    fn fan_out_keeps_only_the_last_finishing_child() {
        let spans = vec![
            rec(1, 0, "request", 0, 100),
            rec(2, 1, "plan", 0, 10),
            rec(3, 1, "dispatch", 10, 90),
            rec(4, 3, "task", 12, 60),
            rec(5, 3, "task", 12, 85),
            rec(6, 5, "net", 20, 80),
        ];
        let path = blocking_path(&spans, "request", &["dispatch"]);
        assert_eq!((path.roots, path.total_ns), (1, 100));
        let sum: i64 = path.self_ns.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, 100);
        let on_path: Vec<u64> = path.self_ns.iter().map(|&(i, _)| spans[i].id).collect();
        assert!(!on_path.contains(&4), "the faster task is off the path");
        let self_of = |id: u64| {
            path.self_ns
                .iter()
                .find(|&&(i, _)| spans[i].id == id)
                .map(|&(_, ns)| ns)
        };
        assert_eq!(self_of(3), Some(80 - 73)); // dispatch wait
        assert_eq!(self_of(1), Some(100 - 10 - 80)); // unattributed gaps
    }

    #[test]
    fn tagged_orphans_join_their_request() {
        let mut serve = rec(2, 1, "serve", 5, 95);
        serve.tag = Some("q-1".into());
        let mut host = rec(3, 0, "host", 30, 70);
        host.tag = Some("q-1".into());
        let spans = vec![rec(1, 0, "request", 0, 100), serve, host];
        let path = blocking_path(&spans, "request", &["serve"]);
        assert_eq!(path.roots, 1);
        assert_eq!(path.self_ns.len(), 3);
        let sum: i64 = path.self_ns.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recording_nests_spans_and_carries_the_request() {
        // The only test that touches the global recorder.
        enable();
        let inner = request(7, "request", || span("outer", || span_id("inner", |id| id)));
        let spans = take();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("inner").id, inner);
        assert_eq!(by_name("inner").parent, by_name("outer").id);
        assert_eq!(by_name("outer").parent, by_name("request").id);
        assert!(spans.iter().all(|s| s.req == 7));
        // Off again: no spans, ids read 0.
        assert_eq!(span_id("x", |id| id), 0);
        assert!(take().is_empty());
    }
}
