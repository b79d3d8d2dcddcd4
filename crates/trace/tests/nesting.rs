//! Property test: any interleaving of sampled operations across threads
//! stitches into trees whose child span intervals nest within their
//! parents, with consistent trace identities.

use proptest::prelude::*;
use spf_trace::{SpanKind, SpanNode, TraceCtx, Tracer};

/// Runs one synthetic operation: a root span with `shape` driving a
/// chain of nested children (depth = code + 1 per entry).
fn run_op(tracer: &Tracer, shape: &[u8]) {
    let ctx = tracer.sample();
    assert!(ctx.sampled(), "sample_every=1 must sample every op");
    let root = tracer.span(ctx, SpanKind::PutAuto, 0, None);
    for &code in shape {
        nest(tracer, root.ctx(), code);
    }
}

fn nest(tracer: &Tracer, ctx: TraceCtx, depth: u8) {
    let kind = match depth % 3 {
        0 => SpanKind::Descent,
        1 => SpanKind::PageMiss,
        _ => SpanKind::Commit,
    };
    let span = tracer.span(ctx, kind, u64::from(depth), None);
    if depth > 0 {
        nest(tracer, span.ctx(), depth - 1);
    }
}

fn assert_nested(parent: &SpanNode) {
    for child in &parent.children {
        assert_eq!(child.record.trace_id, parent.record.trace_id);
        assert_eq!(child.record.parent, parent.record.span_id);
        assert!(
            child.record.start_nanos >= parent.record.start_nanos,
            "child starts before parent: {child:?} under {parent:?}"
        );
        assert!(
            child.record.end_nanos() <= parent.record.end_nanos(),
            "child outlives parent: {child:?} under {parent:?}"
        );
        assert_nested(child);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleaved_ops_yield_nested_trees(
        plans in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0u8..4, 1..5),
                1..8,
            ),
            1..4,
        )
    ) {
        let tracer = Tracer::new();
        tracer.set_sample_every(1);
        std::thread::scope(|s| {
            let tracer = &tracer;
            for ops in &plans {
                s.spawn(move || {
                    for shape in ops {
                        run_op(tracer, shape);
                    }
                });
            }
        });
        let stitched = tracer.drain_trees();
        let total_ops: usize = plans.iter().map(Vec::len).sum();
        prop_assert_eq!(stitched.trees.len(), total_ops, "one tree per sampled op");
        for tree in &stitched.trees {
            // Nothing wrapped at these sizes, so each tree has one root
            // whose interval bounds every descendant.
            prop_assert_eq!(tree.roots.len(), 1);
            prop_assert_eq!(tree.roots[0].record.kind, SpanKind::PutAuto);
            for root in &tree.roots {
                assert_nested(root);
            }
            let p = tree.wait_profile();
            prop_assert_eq!(p.classified_nanos(), p.total_nanos,
                "nested intervals must classify every nanosecond");
        }
    }
}
