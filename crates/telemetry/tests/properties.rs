//! Integration tests for the telemetry crate: span-stack discipline across
//! panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use apdm_telemetry::{
    self as telemetry, current_span, span, span_depth, RecordKind, RingCollector,
};

// ---------------------------------------------------------------------------
// Span nesting and unwind safety
// ---------------------------------------------------------------------------

#[test]
fn span_nesting_tracks_depth() {
    let ring = Rc::new(RingCollector::new(64));
    let _guard = telemetry::install(ring.clone());

    assert_eq!(span_depth(), 0);
    {
        let _outer = span!("outer");
        assert_eq!(span_depth(), 1);
        assert_eq!(current_span().as_deref(), Some("outer"));
        {
            let _inner = span!("inner", device = 3u64);
            assert_eq!(span_depth(), 2);
            assert_eq!(current_span().as_deref(), Some("inner"));
        }
        assert_eq!(span_depth(), 1);
        assert_eq!(current_span().as_deref(), Some("outer"));
    }
    assert_eq!(span_depth(), 0);
    assert_eq!(current_span(), None);

    // Emission order: outer-start, inner-start, inner-end, outer-end, with
    // depths 0, 1, 1, 0.
    let recs = ring.records();
    let shape: Vec<(RecordKind, &str, u64)> = recs
        .iter()
        .map(|r| (r.kind, r.name.as_ref(), r.depth))
        .collect();
    assert_eq!(
        shape,
        vec![
            (RecordKind::SpanStart, "outer", 0),
            (RecordKind::SpanStart, "inner", 1),
            (RecordKind::SpanEnd, "inner", 1),
            (RecordKind::SpanEnd, "outer", 0),
        ]
    );
}

#[test]
fn panic_unwind_restores_span_stack() {
    let ring = Rc::new(RingCollector::new(64));
    let _guard = telemetry::install(ring.clone());

    let result = catch_unwind(AssertUnwindSafe(|| {
        let _outer = span!("unwind.outer");
        let _inner = span!("unwind.inner");
        assert_eq!(span_depth(), 2);
        panic!("deliberate");
    }));
    assert!(result.is_err());

    // The unwind dropped inner before outer, so both closed in order and
    // the thread-local stack is empty again.
    assert_eq!(span_depth(), 0);
    assert_eq!(current_span(), None);
    let ends: Vec<&str> = ring
        .records()
        .iter()
        .filter(|r| r.kind == RecordKind::SpanEnd)
        .map(|r| r.name.as_ref())
        .map(|n| match n {
            "unwind.inner" => "unwind.inner",
            "unwind.outer" => "unwind.outer",
            other => panic!("unexpected span end {other}"),
        })
        .collect();
    assert_eq!(ends, vec!["unwind.inner", "unwind.outer"]);

    // The stack is usable afterwards: a fresh span opens at depth 0.
    let _next = span!("after.unwind");
    assert_eq!(span_depth(), 1);
    assert_eq!(current_span().as_deref(), Some("after.unwind"));
}
