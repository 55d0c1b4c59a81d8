//! # apdm-telemetry — deterministic, zero-dependency observability
//!
//! Lightweight span/event tracing plus a metrics registry for the APDM
//! simulator, built on `std` alone so the workspace keeps its offline,
//! vendored-shim build story.
//!
//! ## Tracing
//!
//! * [`span!`] opens an RAII region; [`event!`] emits a point record.
//!   Both cost one thread-local read and construct *nothing* when no
//!   subscriber is installed.
//! * Timestamps are **virtual** ([`VirtualTs`]): the sim feeds the current
//!   tick via [`set_tick`] and each record draws a monotonic per-thread
//!   sequence number. Two executions of the same deterministic scenario
//!   emit identical `(tick, seq)` streams — the same contract the ledger's
//!   hash chain relies on. Wall-clock durations ([`TraceRecord::dur_ns`])
//!   are profiling metadata outside that contract.
//! * [`Subscriber`]s are pluggable and installed per-thread with
//!   [`install`] (RAII guard). Provided sinks: [`RingCollector`] (bounded
//!   flight recorder), [`StderrSubscriber`] (console progress lines),
//!   [`Fanout`].
//! * Trace files live in the facade crate, `apdm::trace_files`: the
//!   lossless JSONL export and its importer, and the `chrome://tracing` /
//!   Perfetto renderings. This crate stays dependency-free, so it holds no
//!   JSON code.
//!
//! ## Metrics
//!
//! A [`Registry`] hands out named [`Counter`]s, [`Gauge`]s and log2-bucket
//! [`Histogram`]s. Updates are relaxed atomics — no locks, no allocation on
//! the hot path — and [`Registry::render_summary`] prints a percentile
//! table (p50/p90/p99).
//!
//! ## Cross-device tracing, SLOs, analysis
//!
//! * [`TraceContext`] is the compact causal context (trace id, span id,
//!   parent, seeded sampling decision) that rides across `Courier` hops and
//!   through the serve pipeline; [`TraceSampler`] decides head-based
//!   sampling deterministically from `(seed, trace_id)`.
//! * [`SloMonitor`] evaluates [`SloSpec`] objectives (counter ratios,
//!   histogram latency thresholds) over windowed instrument deltas and
//!   emits `slo.eval` burn-rate events.
//! * [`TraceGraph`] rebuilds the cross-device span DAG from an exported
//!   trace, [`TraceGraph::critical_path`] reconstructs per-request critical
//!   paths (waits telescope exactly to end-to-end latency); the facade's
//!   `apdm::trace_files::export_chrome_devices` renders it as one Chrome
//!   track per device.
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use apdm_telemetry as telemetry;
//! use telemetry::{event, span, Level, RingCollector};
//!
//! let collector = Rc::new(RingCollector::new(1024));
//! let guard = telemetry::install(collector.clone());
//!
//! telemetry::set_tick(1);
//! {
//!     let _span = span!("phase.guard", device = 3u64);
//!     event!(Level::Info, "verdict", kind = "deny");
//! }
//!
//! telemetry::with_registry(|reg| reg.histogram("guard.ns").record(250));
//! drop(guard);
//!
//! let records = collector.records();
//! assert_eq!(records.len(), 3); // span_start, event, span_end
//! assert_eq!(records[1].name, "verdict");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod clock;
mod context;
mod metrics;
mod record;
mod slo;
mod span;
mod subscriber;

pub use analyze::{CriticalPath, PathStep, TraceGraph, TraceNode};
pub use clock::{current_tick, reset_clock, set_tick};
pub use context::{
    mix64, trace_id, TraceContext, TraceSampler, CONTEXT_WIRE_LEN, FIELD_DEVICE, FIELD_PARENT,
    FIELD_SPAN, FIELD_TRACE,
};
pub use metrics::{
    bucket_index, bucket_upper_edge, CachedCounter, CachedHistogram, Counter, Gauge, Histogram,
    HistogramSummary, Registry, Sampler, BUCKETS,
};
pub use record::{FieldValue, Level, Name, RecordKind, TraceRecord, VirtualTs};
pub use slo::{SloMonitor, SloSource, SloSpec, SloStatus};
pub use span::{complete_span, current_span, emit_event, enter_span, span_depth, Span};
pub use subscriber::{
    current_registry, emit, enabled, install, install_dispatch, with_registry, Dispatch,
    DispatchGuard, Fanout, RingCollector, StderrSubscriber, Subscriber,
};
