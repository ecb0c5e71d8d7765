//! Zero-dependency observability for the droplet-streaming pipeline.
//!
//! The paper's whole evaluation is metrics-driven — completion time `Tc`,
//! input droplets `I`, waste `W`, storage units `q`, electrode actuations —
//! yet the pipeline had no way to answer "where did the time go, what did
//! this demand cost" except scraping `println!` output. This crate is the
//! missing layer: a std-only [`Recorder`] of **spans** (wall-clock phase
//! timings), **counters**, **gauges** and fixed-bucket **histograms**, a
//! hand-rolled JSON-lines exporter (no serde), and a [`MetricsReport`]
//! aggregator that folds a recorded session into the paper's vocabulary.
//!
//! # Model
//!
//! * A [`Recorder`] is a thread-safe metric store. Libraries record into
//!   the process-wide [`global()`] recorder, which starts **disabled**:
//!   every instrumented hot path first checks an atomic flag and does no
//!   work — and no allocation — until someone (the CLI's `--metrics` flag,
//!   `DMF_OBS=1`, a test) calls [`Recorder::set_enabled`]. Tests and
//!   embedders can also construct private recorders and pass them around.
//! * [`Recorder::span`] returns a guard; dropping it records the elapsed
//!   wall time under the span's name and feeds the `span.<name>` histogram.
//!   The span taxonomy of the pipeline is documented in `DESIGN.md`
//!   (§ Observability): `ratio_approx`, `mixalgo_build`, `forest_build`,
//!   `sched_mms` / `sched_srs`, `sched_storage`, `chip_place`,
//!   `engine_plan`, `engine_realize`, `sim_execute`.
//! * Domain gauges use dotted names with the paper's symbols spelled out:
//!   `plan.storage_peak` (`q`), `plan.waste` (`W`), `plan.mix_splits`
//!   (`Tms`), `plan.inputs` (`I`), `plan.cycles` (`Tc`),
//!   `sim.storage_peak`, `sim.droplet_hops`, `sim.electrode_actuations`…
//! * [`Snapshot`] / [`Recorder::export_jsonl`] serialize a session as
//!   JSON lines (see `json` for the schema and the minimal parser used in
//!   round-trip tests); [`MetricsReport`] renders the human summary table.
//!
//! # Examples
//!
//! ```
//! use dmf_obs::{MetricsReport, Recorder};
//!
//! let rec = Recorder::new();
//! {
//!     let _guard = rec.span("engine_plan");
//!     rec.count("plan.passes", 1);
//!     rec.gauge_max("plan.storage_peak", 5);
//! }
//! let report = MetricsReport::from_recorder(&rec);
//! assert_eq!(report.gauges["plan.storage_peak"], 5);
//! assert_eq!(report.phases[0].name, "engine_plan");
//! let mut jsonl = Vec::new();
//! rec.export_jsonl(&mut jsonl).unwrap();
//! assert!(String::from_utf8(jsonl).unwrap().contains("\"engine_plan\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod profile;
mod recorder;
mod report;
mod table;

pub use profile::{chrome_trace, ProfileNode, ProfileReport};
pub use recorder::{
    current_span, thread_ordinal, Histogram, Recorder, Snapshot, Span, SpanRecord,
    DEFAULT_SPAN_CAPACITY, HIST_BUCKETS,
};
pub use report::{MetricsReport, PhaseLatency};
pub use table::Table;

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder. Starts disabled; instrumented code is a
/// no-op until [`Recorder::set_enabled`]`(true)` is called on it.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::disabled)
}

/// Starts a span on the thread's current sink: the recorder adopted via
/// [`TraceContext::enter`] if one is active, else the [`global`] recorder.
///
/// ```
/// {
///     let _guard = dmf_obs::span!("mms_schedule");
///     // ... phase under measurement ...
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::current_span($name)
    };
}

/// A portable handle to "where spans should go and what they hang under":
/// a sink [`Recorder`] plus a `(trace_id, parent_id)` edge.
///
/// Capture one with [`TraceContext::current`] before handing work to
/// another thread (or build one from an explicit root with
/// [`Recorder::trace_context`]); the receiving thread calls
/// [`TraceContext::enter`] and every span it starts — including
/// [`crate::span!`] call sites deep inside library code — joins the
/// originating trace as children of the captured span.
///
/// ```
/// use dmf_obs::{Recorder, TraceContext};
/// use std::sync::Arc;
///
/// let rec = Arc::new(Recorder::new());
/// let root = rec.span("request");
/// let (trace_id, span_id) = root.ids().unwrap();
/// let ctx = rec.trace_context(trace_id, span_id);
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         let _adopted = ctx.enter();
///         let _work = dmf_obs::span!("worker_phase"); // child of "request"
///     });
/// });
/// drop(root);
/// assert_eq!(rec.trace_spans(trace_id).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    pub(crate) sink: Option<Arc<Recorder>>,
    pub(crate) trace_id: u64,
    pub(crate) parent_id: u64,
}

impl TraceContext {
    /// Captures the calling thread's current position: the adopted sink
    /// (if any) and the innermost open span. With no open span the
    /// context is empty and [`TraceContext::enter`] is a no-op — which
    /// makes capture-and-enter safe to leave in place when tracing is off.
    pub fn current() -> TraceContext {
        let (trace_id, parent_id) = recorder::current_frame().unwrap_or((0, 0));
        TraceContext { sink: recorder::current_sink(), trace_id, parent_id }
    }

    /// An empty context; entering it does nothing.
    pub fn none() -> TraceContext {
        TraceContext::default()
    }

    /// Whether entering this context links new spans into a trace.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// The trace this context belongs to (0 when inactive).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span new children will hang under (0 when inactive).
    pub fn parent_id(&self) -> u64 {
        self.parent_id
    }

    /// Adopts the context on the calling thread until the returned guard
    /// drops: the sink becomes the target of [`crate::span!`], and spans
    /// started meanwhile nest under the context's parent span.
    pub fn enter(&self) -> TraceScope {
        let previous_sink =
            self.sink.as_ref().map(|sink| recorder::swap_sink(Some(Arc::clone(sink))));
        let pushed = if self.trace_id != 0 {
            recorder::push_frame(self.trace_id, self.parent_id);
            Some(self.parent_id)
        } else {
            None
        };
        TraceScope { previous_sink, pushed }
    }
}

/// Guard for an adopted [`TraceContext`]; restores the thread's previous
/// sink and span stack when dropped.
#[must_use = "the context is only adopted while this guard is live"]
#[derive(Debug)]
pub struct TraceScope {
    /// `Some(prev)` when the sink was swapped and must be restored.
    previous_sink: Option<Option<Arc<Recorder>>>,
    /// The frame pushed on enter, identified by its span_id.
    pushed: Option<u64>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(span_id) = self.pushed.take() {
            recorder::pop_frame(span_id);
        }
        if let Some(previous) = self.previous_sink.take() {
            let _ = recorder::swap_sink(previous);
        }
        // Spans recorded under the context reach their recorder when the
        // context is left.
        recorder::flush_pending();
    }
}

/// Formats a nanosecond quantity with an adaptive unit (`ns`, `µs`, `ms`,
/// `s`), keeping three significant digits.
pub fn fmt_ns(ns: u64) -> String {
    let f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", f / 1e6)
    } else {
        format!("{:.2}s", f / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn global_starts_disabled_and_spans_are_inert() {
        // The global recorder must not accumulate anything while disabled.
        let before = global().snapshot();
        {
            let _g = span!("should_not_record");
            global().count("should_not_count", 1);
        }
        let after = global().snapshot();
        assert_eq!(before.spans.len(), after.spans.len());
        assert!(!after.counters.contains_key("should_not_count"));
    }
}
