//! Offline trace analysis: rebuild the cross-device span DAG from exported
//! records and reconstruct per-request critical paths.
//!
//! The input is whatever the facade's `apdm::trace_files::import_jsonl`
//! returns — no live dispatch is needed, so a trace recorded on one
//! machine can be analyzed anywhere. Records participate in the DAG when
//! they carry the [`TraceContext`] fields (`trace`/`span`, optional
//! `parent`/`dev`); the `parent` field *is* the happened-before edge,
//! minted by the sender and carried across hops by the context, so edges
//! survive message loss, duplication, and reordering (every delivered copy
//! names its true cause).
//!
//! The **critical path** of a trace is the parent chain ending at the
//! trace's last node in virtual-time order. Per-step latency is the
//! virtual-tick delta to the causally previous step, so the steps
//! *telescope*: their sum is exactly the end-to-end tick latency — the
//! invariant experiment E14 asserts for every traced request.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::context::{TraceContext, FIELD_DEVICE};
use crate::record::{FieldValue, RecordKind, TraceRecord};

/// One node of the span DAG: a record that carried a trace context.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Trace the node belongs to.
    pub trace: u64,
    /// This node's span id.
    pub span: u64,
    /// Causing span id (`0` = root).
    pub parent: u64,
    /// Record name (e.g. `comms.send`, `serve.shard`).
    pub name: String,
    /// Emitting device/node id (`dev` field; 0 when absent).
    pub device: u64,
    /// Virtual tick at emission.
    pub tick: u64,
    /// Virtual sequence number at emission.
    pub seq: u64,
}

/// The span DAG of one export, grouped by trace id.
#[derive(Debug, Default)]
pub struct TraceGraph {
    traces: BTreeMap<u64, Vec<TraceNode>>,
}

impl TraceGraph {
    /// Extract the DAG from exported records. Records without `trace`/`span`
    /// fields (plain spans and events) are ignored; nodes keep emission
    /// order within each trace.
    pub fn build(records: &[TraceRecord]) -> TraceGraph {
        let mut traces: BTreeMap<u64, Vec<TraceNode>> = BTreeMap::new();
        for rec in records {
            if rec.kind == RecordKind::SpanEnd {
                continue; // span ends carry no fields; the start is the node
            }
            let Some(ctx) = TraceContext::from_fields(&rec.fields) else {
                continue;
            };
            let device = rec
                .fields
                .iter()
                .find_map(|(k, v)| match v {
                    FieldValue::U64(n) if k == FIELD_DEVICE => Some(*n),
                    _ => None,
                })
                .unwrap_or(0);
            traces.entry(ctx.trace_id).or_default().push(TraceNode {
                trace: ctx.trace_id,
                span: ctx.span_id,
                parent: ctx.parent_id,
                name: rec.name.to_string(),
                device,
                tick: rec.ts.tick,
                seq: rec.ts.seq,
            });
        }
        TraceGraph { traces }
    }

    /// Trace ids present, ascending.
    pub fn traces(&self) -> Vec<u64> {
        self.traces.keys().copied().collect()
    }

    /// Nodes of one trace in emission order (empty for unknown ids).
    pub fn nodes(&self, trace: u64) -> &[TraceNode] {
        self.traces.get(&trace).map_or(&[], Vec::as_slice)
    }

    /// Total nodes across all traces.
    pub fn node_count(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Every `(trace, span, parent)` whose non-root parent has no node in
    /// the same trace — the integrity check the propagation proptest runs:
    /// a delivered message must always be able to name its cause.
    pub fn unresolved_parents(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for (&trace, nodes) in &self.traces {
            let spans: BTreeSet<u64> = nodes.iter().map(|n| n.span).collect();
            for node in nodes {
                if node.parent != 0 && !spans.contains(&node.parent) {
                    out.push((trace, node.span, node.parent));
                }
            }
        }
        out
    }

    /// Reconstruct the critical path of one trace; `None` for unknown ids.
    pub fn critical_path(&self, trace: u64) -> Option<CriticalPath> {
        let nodes = self.traces.get(&trace)?;
        // Index spans; on duplicate span ids (duplicate deliveries re-emit
        // with fresh slots, so this is defensive) keep the earliest.
        let mut by_span: BTreeMap<u64, &TraceNode> = BTreeMap::new();
        for node in nodes {
            by_span.entry(node.span).or_insert(node);
        }
        // The path ends at the last node in virtual-time order.
        let terminal = nodes.iter().max_by_key(|n| (n.tick, n.seq))?;
        let mut chain = vec![terminal];
        let mut cursor = terminal;
        while cursor.parent != 0 {
            match by_span.get(&cursor.parent) {
                Some(&parent) if !chain.iter().any(|n| n.span == parent.span) => {
                    chain.push(parent);
                    cursor = parent;
                }
                _ => break, // missing or cyclic parent: truncate the chain
            }
        }
        chain.reverse();
        let root_tick = chain.first().map_or(0, |n| n.tick);
        let mut steps = Vec::with_capacity(chain.len());
        let mut prev_tick = root_tick;
        for node in &chain {
            steps.push(PathStep {
                name: node.name.clone(),
                device: node.device,
                tick: node.tick,
                seq: node.seq,
                wait_ticks: node.tick.saturating_sub(prev_tick),
            });
            prev_tick = node.tick;
        }
        let dominant = steps
            .iter()
            .max_by_key(|s| s.wait_ticks)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        let retries = nodes.iter().filter(|n| n.name.contains("retry")).count() as u64;
        let dedups = nodes.iter().filter(|n| n.name.contains("dup")).count() as u64;
        Some(CriticalPath {
            trace,
            total_ticks: terminal.tick.saturating_sub(root_tick),
            steps,
            dominant,
            retries,
            dedups,
        })
    }
}

/// One step on a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Stage/hop name.
    pub name: String,
    /// Device that emitted it.
    pub device: u64,
    /// Virtual tick it happened at.
    pub tick: u64,
    /// Virtual sequence number.
    pub seq: u64,
    /// Ticks spent waiting on the causally previous step (0 at the root).
    pub wait_ticks: u64,
}

/// The reconstructed critical path of one trace. `steps[..].wait_ticks`
/// telescopes: the waits sum exactly to [`total_ticks`](Self::total_ticks).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Trace id.
    pub trace: u64,
    /// End-to-end latency in virtual ticks (terminal tick − root tick).
    pub total_ticks: u64,
    /// Root-first path steps.
    pub steps: Vec<PathStep>,
    /// Name of the step that waited longest (latency dominator).
    pub dominant: String,
    /// Retry attempts observed anywhere in the trace.
    pub retries: u64,
    /// Duplicate deliveries suppressed anywhere in the trace.
    pub dedups: u64,
}

impl CriticalPath {
    /// Render the path as an indented text block for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {:016x}: {} ticks end-to-end, {} steps, dominant: {} ({} retries, {} dedups)",
            self.trace,
            self.total_ticks,
            self.steps.len(),
            self.dominant,
            self.retries,
            self.dedups,
        );
        for step in &self.steps {
            let _ = writeln!(
                out,
                "  +{:>4} ticks  tick {:>5}  dev {:>3}  {}",
                step.wait_ticks, step.tick, step.device, step.name
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceContext;
    use crate::record::{Level, Name, VirtualTs};

    fn node_rec(name: &str, ctx: TraceContext, device: u64, tick: u64, seq: u64) -> TraceRecord {
        let mut fields = Vec::new();
        ctx.push_fields(device, &mut fields);
        TraceRecord {
            kind: RecordKind::Event,
            name: Name::Owned(name.to_string()),
            ts: VirtualTs { tick, seq },
            level: Level::Debug,
            depth: 0,
            dur_ns: None,
            fields,
        }
    }

    /// A three-hop, two-device trace: submit(dev0) → send(dev0) →
    /// recv(dev1) → done(dev1), with one retry sibling off the root.
    fn sample_records() -> (Vec<TraceRecord>, TraceContext) {
        let root = TraceContext::root(7, true);
        let send = root.child(0);
        let retry = root.child(1);
        let recv = send.child(0);
        let done = recv.child(0);
        (
            vec![
                node_rec("req.submit", root, 0, 10, 0),
                node_rec("comms.send", send, 0, 10, 1),
                node_rec("comms.retry", retry, 0, 14, 2),
                node_rec("comms.recv", recv, 1, 16, 3),
                node_rec("req.done", done, 1, 19, 4),
            ],
            root,
        )
    }

    #[test]
    fn graph_extracts_only_context_records() {
        let (mut records, _) = sample_records();
        records.push(TraceRecord {
            kind: RecordKind::Event,
            name: Name::Borrowed("plain"),
            ts: VirtualTs { tick: 1, seq: 9 },
            level: Level::Info,
            depth: 0,
            dur_ns: None,
            fields: Vec::new(),
        });
        let graph = TraceGraph::build(&records);
        assert_eq!(graph.traces().len(), 1);
        assert_eq!(graph.node_count(), 5);
        assert!(graph.unresolved_parents().is_empty());
    }

    #[test]
    fn critical_path_telescopes_to_end_to_end_latency() {
        let (records, root) = sample_records();
        let graph = TraceGraph::build(&records);
        let path = graph.critical_path(root.trace_id).unwrap();
        assert_eq!(path.total_ticks, 9);
        let names: Vec<&str> = path.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["req.submit", "comms.send", "comms.recv", "req.done"]
        );
        let waits: u64 = path.steps.iter().map(|s| s.wait_ticks).sum();
        assert_eq!(waits, path.total_ticks, "decomposition must telescope");
        assert_eq!(path.dominant, "comms.recv"); // 6-tick network hop
        assert_eq!(path.retries, 1);
        assert_eq!(path.dedups, 0);
    }

    #[test]
    fn missing_parent_truncates_and_is_reported() {
        let (mut records, root) = sample_records();
        records.remove(1); // drop the comms.send node: recv's parent vanishes
        let graph = TraceGraph::build(&records);
        let unresolved = graph.unresolved_parents();
        assert_eq!(unresolved.len(), 1);
        let path = graph.critical_path(root.trace_id).unwrap();
        // Chain truncates at the break instead of inventing an edge.
        assert_eq!(path.steps.first().unwrap().name, "comms.recv");
    }
}
