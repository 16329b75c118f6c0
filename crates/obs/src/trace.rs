//! Per-query distributed traces over [`SpanEvent`]s.
//!
//! The metasearcher tags its root `meta.search` span with a
//! `trace = <query id>` field and threads the same id — plus the
//! dispatching span's [`crate::SpanHandle`] — through the `@SQuery`
//! object, so host-side `source.execute` spans parent under the
//! client-side fan-out even though they were recorded on the far side
//! of the wire. This module stitches the resulting flat span log back
//! into a per-query tree:
//!
//! * [`TraceTree::build`] — collect every span belonging to a query id
//!   (tagged directly, or reachable from a tagged span through the
//!   parent-id chain) and link them into [`QueryProfile`]s, whose
//!   `render` and `critical_path` serve traces and profiles alike;
//! * [`write_jsonl`] / [`dump_jsonl`] — a line-per-span JSON sink for
//!   offline analysis (every bench binary honours `--trace-jsonl`).

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use starts_proto::{QueryProfile, StageCost};

use crate::span::SpanEvent;

/// The span field carrying the query id (`trace = q-000001`).
pub const TRACE_FIELD: &str = "trace";

/// Mint a process-unique query id for tracing (`q-000001`, …).
pub fn next_query_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    format!("q-{:06}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// A stitched per-query trace: every span that belongs to one query id,
/// linked by parent span ids into [`QueryProfile`]s — the same tree
/// type a search returns, so `find`, `render` and `critical_path` work
/// on both, and a span tree and a profile of the same query compare
/// stage by stage.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The query id the trace was built for.
    pub query_id: String,
    /// One profile per root span (a span in the trace whose parent is
    /// not), ordered by start time; a healthy metasearch yields exactly
    /// one. Offsets are relative to the root's start, and each stage's
    /// metadata is its span's fields minus the `trace` tag.
    pub roots: Vec<QueryProfile>,
}

impl TraceTree {
    /// Stitch the spans belonging to `query_id` out of a flat span log.
    ///
    /// A span belongs if it carries `trace = query_id` itself, or if it
    /// is reachable from such a span through the parent-id chain —
    /// which is how untagged children (phase spans, `client.query`)
    /// join the tagged root, and how host-side spans that were parented
    /// across the wire join the client-side dispatch.
    pub fn build(query_id: &str, events: &[SpanEvent]) -> TraceTree {
        // Seed: directly tagged spans.
        let mut member_ids: HashSet<u64> = events
            .iter()
            .filter(|e| e.field(TRACE_FIELD) == Some(query_id))
            .map(|e| e.id)
            .collect();
        // Expand: children of members are members, transitively. Spans
        // tagged with a *different* trace id never join.
        let mut children_of: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
        for e in events {
            children_of.entry(e.parent_id).or_default().push(e);
        }
        let mut frontier: Vec<u64> = member_ids.iter().copied().collect();
        while let Some(id) = frontier.pop() {
            for child in children_of.get(&id).into_iter().flatten() {
                let foreign = child.field(TRACE_FIELD).is_some_and(|t| t != query_id);
                if !foreign && member_ids.insert(child.id) {
                    frontier.push(child.id);
                }
            }
        }
        // Link members, each once, in start order; roots are members
        // whose parent is not a member (0, evicted from the ring, or
        // outside the trace) or is the span itself.
        let mut members: Vec<&SpanEvent> = events
            .iter()
            .filter(|e| member_ids.contains(&e.id))
            .collect();
        members.sort_by_key(|e| (e.start_us, e.id));
        let mut kids: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
        let mut roots = Vec::new();
        for e in members {
            if e.parent_id != e.id && member_ids.contains(&e.parent_id) {
                kids.entry(e.parent_id).or_default().push(e);
            } else {
                roots.push(e);
            }
        }
        let mut linked = HashSet::new();
        TraceTree {
            query_id: query_id.to_string(),
            roots: roots
                .into_iter()
                .map(|e| QueryProfile {
                    query_id: query_id.to_string(),
                    root: link(e, e.start_us, &kids, &mut linked),
                })
                .collect(),
        }
    }

    /// Whether the trace is empty (unknown query id).
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// The stage a span timed, offsets rebased on `base`, with its member
/// children. `linked` guards against a span id that occurs twice (a
/// duplicated JSONL line) closing a loop.
fn link(
    e: &SpanEvent,
    base: u64,
    kids: &HashMap<u64, Vec<&SpanEvent>>,
    linked: &mut HashSet<u64>,
) -> StageCost {
    linked.insert(e.id);
    let mut stage = StageCost::new(
        e.name.clone(),
        e.start_us.saturating_sub(base),
        e.duration_us,
    );
    stage.meta = e
        .fields
        .iter()
        .filter(|(k, _)| *k != TRACE_FIELD)
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    for child in kids.get(&e.id).into_iter().flatten() {
        if !linked.contains(&child.id) {
            stage.children.push(link(child, base, kids, linked));
        }
    }
    stage
}

// ---------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------

/// Write span events as JSON Lines: one object per span with `id`,
/// `parent_id`, `path`, `name`, `start_us`, `duration_us`, and a
/// `fields` object. Events stream in log order (oldest first), so the
/// file is `tail -f`-able when written incrementally.
pub fn write_jsonl<W: Write>(events: &[SpanEvent], mut w: W) -> io::Result<()> {
    for e in events {
        let fields: Vec<String> = e
            .fields
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{}\":\"{}\"",
                    crate::export::json_escape(k),
                    crate::export::json_escape(v)
                )
            })
            .collect();
        writeln!(
            w,
            "{{\"id\":{},\"parent_id\":{},\"path\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"duration_us\":{},\"fields\":{{{}}}}}",
            e.id,
            e.parent_id,
            crate::export::json_escape(&e.path),
            crate::export::json_escape(&e.name),
            e.start_us,
            e.duration_us,
            fields.join(",")
        )?;
    }
    Ok(())
}

/// [`write_jsonl`] to a file path; returns the number of events
/// written.
pub fn dump_jsonl(events: &[SpanEvent], path: &Path) -> io::Result<usize> {
    let file = std::fs::File::create(path)?;
    write_jsonl(events, io::BufWriter::new(file))?;
    Ok(events.len())
}

// ---------------------------------------------------------------------
// JSONL source
// ---------------------------------------------------------------------

/// Read span events back from the JSON Lines format [`write_jsonl`]
/// produces. Tolerant by design: sinks append incrementally (the flight
/// recorder's slow-log, `--trace-jsonl` dumps), so a crash can leave a
/// truncated or garbled final line — any line that does not parse into a
/// complete span object is skipped rather than failing the read. The
/// spans that did make it to disk reconstruct into [`TraceTree`]s as
/// usual.
pub fn read_jsonl(text: &str) -> Vec<SpanEvent> {
    text.lines().filter_map(parse_jsonl_line).collect()
}

/// Span field keys are `&'static str` (they come from call sites);
/// events read back from disk intern their keys through a process-wide
/// dedup table, so the leak is bounded by the number of *distinct* keys
/// ever read.
fn intern_field_key(key: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static KEYS: OnceLock<parking_lot::Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = KEYS.get_or_init(|| parking_lot::Mutex::new(HashSet::new()));
    let mut table = table.lock();
    match table.get(key) {
        Some(k) => k,
        None => {
            let leaked: &'static str = Box::leak(key.to_string().into_boxed_str());
            table.insert(leaked);
            leaked
        }
    }
}

struct JsonCursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonCursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        (self.next()? == c).then_some(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    /// A quoted JSON string, unescaped.
    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Some(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = self.b.get(self.i..self.i + 4)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        self.i += 4;
                    }
                    _ => return None,
                },
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let start = self.i - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self.b.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.i = start + len;
                }
            }
        }
    }

    /// An unsigned integer (the only number shape [`write_jsonl`] emits).
    fn number(&mut self) -> Option<u64> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    /// Skip one value of any shape — forward compatibility for keys this
    /// reader does not know.
    fn skip_value(&mut self) -> Option<()> {
        self.skip_ws();
        match self.peek()? {
            b'"' => self.string().map(|_| ()),
            b'{' | b'[' => {
                let (open, close) = if self.peek() == Some(b'{') {
                    (b'{', b'}')
                } else {
                    (b'[', b']')
                };
                self.i += 1;
                let mut depth = 1usize;
                loop {
                    match self.peek()? {
                        b'"' => {
                            self.string()?;
                        }
                        c => {
                            self.i += 1;
                            if c == open {
                                depth += 1;
                            } else if c == close {
                                depth -= 1;
                                if depth == 0 {
                                    return Some(());
                                }
                            }
                        }
                    }
                }
            }
            _ => {
                while matches!(
                    self.peek(),
                    Some(
                        b'0'..=b'9'
                            | b'-'
                            | b'+'
                            | b'.'
                            | b'e'
                            | b'E'
                            | b't'
                            | b'r'
                            | b'u'
                            | b'f'
                            | b'a'
                            | b'l'
                            | b's'
                            | b'n'
                    )
                ) {
                    self.i += 1;
                }
                Some(())
            }
        }
    }
}

fn parse_jsonl_line(line: &str) -> Option<SpanEvent> {
    let mut p = JsonCursor {
        b: line.trim().as_bytes(),
        i: 0,
    };
    p.expect(b'{')?;
    let mut ev = SpanEvent {
        id: 0,
        parent_id: 0,
        path: String::new(),
        name: String::new(),
        parent: String::new(),
        start_us: 0,
        duration_us: 0,
        fields: Vec::new(),
    };
    let (mut has_id, mut has_duration) = (false, false);
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "id" => {
                ev.id = p.number()?;
                has_id = true;
            }
            "parent_id" => ev.parent_id = p.number()?,
            "path" => ev.path = p.string()?,
            "name" => ev.name = p.string()?,
            "start_us" => ev.start_us = p.number()?,
            "duration_us" => {
                ev.duration_us = p.number()?;
                has_duration = true;
            }
            "fields" => {
                p.expect(b'{')?;
                p.skip_ws();
                if p.peek() == Some(b'}') {
                    p.i += 1;
                } else {
                    loop {
                        p.skip_ws();
                        let k = p.string()?;
                        p.skip_ws();
                        p.expect(b':')?;
                        p.skip_ws();
                        let v = p.string()?;
                        ev.fields.push((intern_field_key(&k), v));
                        p.skip_ws();
                        match p.next()? {
                            b',' => continue,
                            b'}' => break,
                            _ => return None,
                        }
                    }
                }
            }
            _ => p.skip_value()?,
        }
        p.skip_ws();
        match p.next()? {
            b',' => continue,
            b'}' => break,
            _ => return None,
        }
    }
    p.skip_ws();
    if p.peek().is_some() {
        return None; // trailing garbage after the closing brace
    }
    // `write_jsonl` does not carry the parent path explicitly; it is
    // derivable (the path minus its leaf segment).
    ev.parent = ev
        .path
        .rsplit_once('/')
        .map(|(parent, _)| parent.to_string())
        .unwrap_or_default();
    (has_id && has_duration && !ev.path.is_empty() && ev.id != 0).then_some(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    /// Simulate the metasearch shape: a tagged root, nested phases, a
    /// cross-thread worker, and a "cross-wire" child attached via a
    /// serialized handle.
    fn record_query(reg: &Registry, qid: &str) {
        let root = reg.span_with("meta.search", vec![(TRACE_FIELD, qid.to_string())]);
        let _ = root.path();
        {
            let _select = reg.span("select");
        }
        let wire_handle = {
            let dispatch = reg.span("dispatch");
            let handle = dispatch.handle();
            let wire = std::thread::scope(|scope| {
                let reg = &reg;
                let handle = handle.clone();
                scope
                    .spawn(move || {
                        let worker =
                            reg.span_under("source", &handle, vec![("source", "S1".to_string())]);
                        worker.handle()
                    })
                    .join()
                    .expect("worker thread")
            });
            wire
        };
        // The "far side of the wire": a span parented by a handle that
        // travelled inside the query object.
        {
            let _host = reg.span_under(
                "source.execute",
                &wire_handle,
                vec![(TRACE_FIELD, qid.to_string())],
            );
            let _rewrite = reg.span("rewrite");
        }
        {
            let _merge = reg.span("merge");
        }
    }

    /// Stages in a subtree, counting its root.
    fn stages(s: &StageCost) -> usize {
        1 + s.children.iter().map(stages).sum::<usize>()
    }

    #[test]
    fn builds_one_tree_per_query_id() {
        let reg = Registry::new();
        record_query(&reg, "q-a");
        record_query(&reg, "q-b");
        let events = reg.recent_spans();
        let tree = TraceTree::build("q-a", &events);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].root.name, "meta.search");
        assert_eq!(tree.roots[0].query_id, "q-a");
        assert_eq!(stages(&tree.roots[0].root), 7);
        // The other query's spans stay out.
        let other = TraceTree::build("q-b", &events);
        assert_eq!(stages(&other.roots[0].root), 7);
        assert!(TraceTree::build("q-none", &events).is_empty());
    }

    #[test]
    fn cross_wire_spans_nest_under_the_dispatch_chain() {
        let reg = Registry::new();
        record_query(&reg, "q-x");
        let tree = TraceTree::build("q-x", &reg.recent_spans());
        let root = &tree.roots[0].root;
        let dispatch = root
            .children
            .iter()
            .find(|c| c.name == "dispatch")
            .expect("dispatch under the root");
        let worker = dispatch
            .children
            .iter()
            .find(|c| c.name == "source")
            .expect("worker under dispatch");
        let host = worker
            .children
            .iter()
            .find(|c| c.name == "source.execute")
            .expect("host span under the worker");
        // The host's own child rides along through the parent chain.
        assert!(host.children.iter().any(|c| c.name == "rewrite"));
    }

    #[test]
    fn roots_are_profiles_with_fields_as_meta() {
        let reg = Registry::new();
        {
            let _root = reg.span_with("meta.search", vec![(TRACE_FIELD, "q-p".to_string())]);
            let _child = reg.span_with("dispatch", vec![("wave", "1".to_string())]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let events = reg.recent_spans();
        let p = &TraceTree::build("q-p", &events).roots[0];
        assert_eq!(p.root.start_us, 0, "rebased on the root's start");
        let dispatch = p.find("dispatch").expect("child stage");
        assert_eq!(dispatch.duration_us, events[0].duration_us);
        assert!(dispatch.duration_us >= 1_000, "slept 1ms");
        assert_eq!(dispatch.start_us, events[0].start_us - events[1].start_us);
        assert_eq!(dispatch.meta_value("wave"), Some("1"));
        // The trace tag is stripped from stage metadata.
        assert!(p.root.meta.is_empty());
        assert!(p.is_consistent());
    }

    #[test]
    fn critical_path_is_chronological_and_rooted() {
        let reg = Registry::new();
        record_query(&reg, "q-c");
        let profile = &TraceTree::build("q-c", &reg.recent_spans()).roots[0];
        let cp = profile.critical_path();
        assert_eq!(cp[0].name, "meta.search");
        for pair in cp.windows(2) {
            assert!(
                pair[1].start_us >= pair[0].start_us,
                "critical path out of order: {}",
                profile.critical_path_summary()
            );
        }
        // The summary names every hop.
        let summary = profile.critical_path_summary();
        assert!(summary.starts_with("meta.search ("), "{summary}");
        assert!(summary.contains(" → "), "{summary}");
    }

    #[test]
    fn orphaned_tagged_spans_become_roots() {
        // A tagged span whose parent fell out of the ring still shows up
        // rather than vanishing.
        let reg = Registry::new();
        {
            let _s = reg.span_under(
                "late",
                &crate::SpanHandle {
                    path: "gone".to_string(),
                    id: 999_999_999,
                },
                vec![(TRACE_FIELD, "q-orphan".to_string())],
            );
        }
        let tree = TraceTree::build("q-orphan", &reg.recent_spans());
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].root.name, "late");
    }

    #[test]
    fn duplicated_span_ids_cannot_loop() {
        // A dump with a repeated id: 5 → 6 → 5 would cycle if linked
        // naively. Each id joins the tree once.
        let ev = |id, parent_id, name: &str| SpanEvent {
            id,
            parent_id,
            path: name.to_string(),
            name: name.to_string(),
            parent: String::new(),
            start_us: id,
            duration_us: 1,
            fields: vec![(TRACE_FIELD, "q-d".to_string())],
        };
        let events = [ev(5, 0, "a"), ev(6, 5, "b"), ev(5, 6, "c")];
        let tree = TraceTree::build("q-d", &events);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(stages(&tree.roots[0].root), 2);
    }

    #[test]
    fn jsonl_emits_one_object_per_span() {
        let reg = Registry::new();
        record_query(&reg, "q-j");
        let events = reg.recent_spans();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), events.len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"duration_us\":"), "{line}");
        }
        assert!(text.contains("\"trace\":\"q-j\""));
    }

    #[test]
    fn jsonl_round_trips_through_the_reader() {
        let reg = Registry::new();
        record_query(&reg, "q-r");
        let events = reg.recent_spans();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let back = read_jsonl(std::str::from_utf8(&buf).unwrap());
        assert_eq!(back, events);
        // The reconstructed events stitch into the same tree.
        let tree = TraceTree::build("q-r", &back);
        assert_eq!(tree.roots, TraceTree::build("q-r", &events).roots);
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        let reg = Registry::new();
        record_query(&reg, "q-t");
        let events = reg.recent_spans();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Simulate a crash mid-append: cut the file inside the last line.
        let cut = text.trim_end().len() - 25;
        let back = read_jsonl(&text[..cut]);
        assert_eq!(back.len(), events.len() - 1);
        assert_eq!(back, events[..events.len() - 1]);
        // The surviving spans still build a (partial but rooted) trace.
        let tree = TraceTree::build("q-t", &back);
        assert!(!tree.is_empty());
    }

    #[test]
    fn garbage_lines_are_skipped() {
        let reg = Registry::new();
        {
            let _s = reg.span_with("solo", vec![(TRACE_FIELD, "q-g".to_string())]);
        }
        let mut buf = Vec::new();
        write_jsonl(&reg.recent_spans(), &mut buf).unwrap();
        let good = String::from_utf8(buf).unwrap();
        let noisy =
            format!("not json at all\n{{\"id\":5}}\n{good}{{\"id\":7,\"path\":\"x\",trailing\n\n");
        let back = read_jsonl(&noisy);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "solo");
        assert_eq!(back[0].field(TRACE_FIELD), Some("q-g"));
    }

    #[test]
    fn reader_unescapes_field_values() {
        let line = r#"{"id":3,"parent_id":0,"path":"a","name":"a","start_us":1,"duration_us":2,"fields":{"note":"line\nbreak \"quoted\" \u0007"}}"#;
        let ev = parse_jsonl_line(line).expect("parses");
        assert_eq!(ev.field("note"), Some("line\nbreak \"quoted\" \u{7}"));
        assert_eq!(ev.parent, "");
    }

    #[test]
    fn query_ids_are_unique_and_ordered() {
        let a = next_query_id();
        let b = next_query_id();
        assert_ne!(a, b);
        assert!(a.starts_with("q-"));
    }
}
