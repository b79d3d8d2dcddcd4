//! Stitching drained span records into trace trees, wait-state
//! profiles, and export formats (Chrome tracing JSON, collapsed
//! flamegraph rollup).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{SpanRecord, WaitClass};

/// One span plus its children, ordered by start time.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, sorted by start time.
    pub children: Vec<SpanNode>,
    /// Resolved cross-trace link target (e.g. the leader's `LogForce`
    /// span a follower waited on), if it was still in a ring at drain
    /// time.
    pub linked: Option<SpanRecord>,
}

impl SpanNode {
    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// A stitched trace: every surviving span of one `trace_id`.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id all spans share.
    pub trace_id: u64,
    /// Root spans (parent 0, or parent overwritten in its ring), sorted
    /// by start time. A fully surviving operation has exactly one.
    pub roots: Vec<SpanNode>,
}

impl TraceTree {
    /// Total number of spans in the tree.
    #[must_use]
    pub fn span_count(&self) -> usize {
        let mut n = 0;
        for r in &self.roots {
            r.walk(&mut |_| n += 1);
        }
        n
    }

    /// Visits every node in the tree (depth first).
    pub fn each_node<'a>(&'a self, mut f: impl FnMut(&'a SpanNode)) {
        for r in &self.roots {
            r.walk(&mut f);
        }
    }

    /// Finds the node for a span id, if present.
    #[must_use]
    pub fn find(&self, span_id: u64) -> Option<&SpanNode> {
        let mut hit = None;
        self.each_node(|n| {
            if n.record.span_id == span_id {
                hit = Some(n);
            }
        });
        hit
    }

    /// Decomposes the trace's total latency into wait classes by
    /// *exclusive* span time: each span contributes its duration minus
    /// the time covered by its own children, bucketed under its
    /// [`WaitClass`]. The buckets sum to ~[`WaitProfile::total_nanos`]
    /// (exactly, when child intervals nest within their parents).
    #[must_use]
    pub fn wait_profile(&self) -> WaitProfile {
        let mut p = WaitProfile::default();
        for r in &self.roots {
            p.total_nanos += r.record.dur_nanos;
        }
        self.each_node(|n| {
            let child_sum: u64 = n.children.iter().map(|c| c.record.dur_nanos).sum();
            let exclusive = n.record.dur_nanos.saturating_sub(child_sum);
            p.by_class[n.record.class as usize] += exclusive;
        });
        p
    }
}

/// Exhaustive wait breakdown of a trace (see
/// [`TraceTree::wait_profile`]). Indexed by `WaitClass as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitProfile {
    /// Sum of root span durations.
    pub total_nanos: u64,
    /// Exclusive nanoseconds per wait class.
    pub by_class: [u64; WaitClass::ALL.len()],
}

impl WaitProfile {
    /// Nanoseconds attributed to one class.
    #[must_use]
    pub fn class_nanos(&self, class: WaitClass) -> u64 {
        self.by_class[class as usize]
    }

    /// Sum across all classes (should track `total_nanos`).
    #[must_use]
    pub fn classified_nanos(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// One-line rendering, e.g. `total=12µs run=4µs force_wait=8µs`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("total={}ns", self.total_nanos);
        for class in WaitClass::ALL {
            let ns = self.class_nanos(class);
            if ns > 0 {
                let _ = write!(s, " {}={}ns", class.name(), ns);
            }
        }
        s
    }
}

/// The result of [`stitch`]: trees for every sampled trace, plus the
/// orphan (trace 0) infrastructure spans that links may resolve into.
#[derive(Debug, Clone, Default)]
pub struct Stitched {
    /// One tree per sampled trace id, sorted by trace id.
    pub trees: Vec<TraceTree>,
    /// Trace-0 spans (work recorded outside any sampled trace).
    pub orphans: Vec<SpanRecord>,
}

impl Stitched {
    /// The tree for one trace id, if any of its spans survived.
    #[must_use]
    pub fn tree(&self, trace_id: u64) -> Option<&TraceTree> {
        self.trees.iter().find(|t| t.trace_id == trace_id)
    }
}

/// Groups drained records by trace id and rebuilds parent/child trees.
/// Spans whose parent was already overwritten in its ring surface as
/// extra roots rather than being dropped; links are resolved against
/// *all* drained spans, including orphans.
#[must_use]
pub fn stitch(records: Vec<SpanRecord>) -> Stitched {
    let by_id: HashMap<u64, SpanRecord> = records.iter().map(|r| (r.span_id, *r)).collect();
    let mut groups: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    let mut orphans = Vec::new();
    for r in records {
        if r.trace_id == 0 {
            orphans.push(r);
        } else {
            groups.entry(r.trace_id).or_default().push(r);
        }
    }
    let mut trees: Vec<TraceTree> = groups
        .into_iter()
        .map(|(trace_id, spans)| {
            let present: HashMap<u64, ()> = spans.iter().map(|r| (r.span_id, ())).collect();
            let mut children: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
            let mut roots = Vec::new();
            for r in spans {
                if r.parent != 0 && present.contains_key(&r.parent) {
                    children.entry(r.parent).or_default().push(r);
                } else {
                    roots.push(r);
                }
            }
            roots.sort_by_key(|r| (r.start_nanos, r.span_id));
            let roots = roots
                .into_iter()
                .map(|r| build_node(r, &mut children, &by_id))
                .collect();
            TraceTree { trace_id, roots }
        })
        .collect();
    trees.sort_by_key(|t| t.trace_id);
    orphans.sort_by_key(|r| (r.start_nanos, r.thread, r.seq));
    Stitched { trees, orphans }
}

fn build_node(
    record: SpanRecord,
    children: &mut HashMap<u64, Vec<SpanRecord>>,
    by_id: &HashMap<u64, SpanRecord>,
) -> SpanNode {
    let mut kids = children.remove(&record.span_id).unwrap_or_default();
    kids.sort_by_key(|r| (r.start_nanos, r.span_id));
    let linked = (record.link != 0)
        .then(|| by_id.get(&record.link).copied())
        .flatten();
    SpanNode {
        record,
        children: kids
            .into_iter()
            .map(|r| build_node(r, children, by_id))
            .collect(),
        linked,
    }
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders stitched traces as a Chrome `chrome://tracing` / Perfetto
/// JSON array of complete (`"ph":"X"`) events. Trace id maps to `pid`,
/// ring (thread) id to `tid`; timestamps are microseconds since the
/// tracer was created.
#[must_use]
pub fn to_chrome_json(stitched: &Stitched) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |r: &SpanRecord| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        push_json_escaped(&mut out, r.kind.name());
        out.push_str("\",\"cat\":\"");
        push_json_escaped(&mut out, r.class.name());
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{},\"tid\":{},\
             \"args\":{{\"span\":{},\"parent\":{},\"a\":{},\"link\":{}}}}}",
            r.start_nanos / 1_000,
            r.start_nanos % 1_000,
            r.dur_nanos / 1_000,
            r.dur_nanos % 1_000,
            r.trace_id,
            r.thread,
            r.span_id,
            r.parent,
            r.a,
            r.link
        );
    };
    for tree in &stitched.trees {
        tree.each_node(|n| emit(&n.record));
    }
    for r in &stitched.orphans {
        emit(r);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders stitched traces as collapsed flamegraph stacks: one
/// `root;child;leaf <exclusive-nanos>` line per distinct stack,
/// aggregated across traces and sorted by weight (heaviest first).
#[must_use]
pub fn render_flame(stitched: &Stitched) -> String {
    let mut stacks: HashMap<String, u64> = HashMap::new();
    fn add(node: &SpanNode, prefix: &str, stacks: &mut HashMap<String, u64>) {
        let path = if prefix.is_empty() {
            node.record.kind.name().to_string()
        } else {
            format!("{prefix};{}", node.record.kind.name())
        };
        let child_sum: u64 = node.children.iter().map(|c| c.record.dur_nanos).sum();
        let exclusive = node.record.dur_nanos.saturating_sub(child_sum);
        *stacks.entry(path.clone()).or_default() += exclusive;
        for c in &node.children {
            add(c, &path, stacks);
        }
    }
    for tree in &stitched.trees {
        for root in &tree.roots {
            add(root, "", &mut stacks);
        }
    }
    let mut lines: Vec<(String, u64)> = stacks.into_iter().collect();
    lines.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::new();
    for (path, nanos) in lines {
        let _ = writeln!(out, "{path} {nanos}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanKind, Tracer};

    fn rec(trace: u64, span: u64, parent: u64, kind: SpanKind, class: WaitClass) -> SpanRecord {
        SpanRecord {
            thread: 0,
            seq: span,
            trace_id: trace,
            span_id: span,
            parent,
            kind,
            class,
            start_nanos: span * 10,
            dur_nanos: 100,
            a: 0,
            link: 0,
        }
    }

    #[test]
    fn stitch_rebuilds_parent_child_structure() {
        let mut root = rec(1, 1, 0, SpanKind::PutAuto, WaitClass::Run);
        root.dur_nanos = 1000;
        let mut commit = rec(1, 2, 1, SpanKind::Commit, WaitClass::Run);
        commit.dur_nanos = 400;
        let wait = rec(1, 3, 2, SpanKind::ForceWait, WaitClass::ForceWait);
        let s = stitch(vec![wait, root, commit]);
        assert_eq!(s.trees.len(), 1);
        let t = &s.trees[0];
        assert_eq!(t.trace_id, 1);
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.roots[0].children.len(), 1);
        assert_eq!(t.roots[0].children[0].children[0].record.span_id, 3);
    }

    #[test]
    fn missing_parent_becomes_extra_root() {
        let child = rec(1, 5, 4, SpanKind::PageMiss, WaitClass::MissIo);
        let s = stitch(vec![child]);
        assert_eq!(s.trees[0].roots.len(), 1);
        assert_eq!(s.trees[0].roots[0].record.span_id, 5);
    }

    #[test]
    fn links_resolve_across_traces_and_orphans() {
        let leader = rec(0, 10, 0, SpanKind::LogForce, WaitClass::ForceWait);
        let mut follower = rec(1, 11, 0, SpanKind::ForceWait, WaitClass::ForceWait);
        follower.link = 10;
        let s = stitch(vec![leader, follower]);
        assert_eq!(s.orphans.len(), 1);
        let node = &s.trees[0].roots[0];
        let linked = node.linked.expect("link must resolve");
        assert_eq!(linked.span_id, 10);
        assert_eq!(linked.kind, SpanKind::LogForce);
    }

    #[test]
    fn wait_profile_uses_exclusive_time() {
        let mut root = rec(1, 1, 0, SpanKind::PutAuto, WaitClass::Run);
        root.dur_nanos = 1000;
        let mut miss = rec(1, 2, 1, SpanKind::PageMiss, WaitClass::MissIo);
        miss.dur_nanos = 300;
        let mut wait = rec(1, 3, 1, SpanKind::ForceWait, WaitClass::ForceWait);
        wait.dur_nanos = 500;
        let s = stitch(vec![root, miss, wait]);
        let p = s.trees[0].wait_profile();
        assert_eq!(p.total_nanos, 1000);
        assert_eq!(p.class_nanos(WaitClass::Run), 200);
        assert_eq!(p.class_nanos(WaitClass::MissIo), 300);
        assert_eq!(p.class_nanos(WaitClass::ForceWait), 500);
        assert_eq!(p.classified_nanos(), 1000);
        assert!(p.render().contains("force_wait=500ns"));
    }

    #[test]
    fn chrome_export_is_wellformed_and_complete() {
        let t = Tracer::new();
        t.set_sample_every(1);
        let ctx = t.sample();
        {
            let root = t.span(ctx, SpanKind::PutAuto, 1, None);
            let _child = t.span(root.ctx(), SpanKind::Descent, 2, None);
        }
        let s = t.drain_trees();
        let json = to_chrome_json(&s);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"put_auto\""));
        assert!(json.contains("\"name\":\"descent\""));
    }

    #[test]
    fn flame_rollup_aggregates_stacks() {
        let mut root = rec(1, 1, 0, SpanKind::PutAuto, WaitClass::Run);
        root.dur_nanos = 1000;
        let mut miss = rec(1, 2, 1, SpanKind::PageMiss, WaitClass::MissIo);
        miss.dur_nanos = 600;
        let s = stitch(vec![root, miss]);
        let flame = render_flame(&s);
        let lines: Vec<&str> = flame.lines().collect();
        assert_eq!(lines[0], "put_auto;page_miss 600");
        assert_eq!(lines[1], "put_auto 400");
    }
}
