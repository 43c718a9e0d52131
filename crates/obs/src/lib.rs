//! # afd-obs — observability for asynchronous failure-detector runs
//!
//! Structured tracing, metrics, and trace export for both execution
//! engines in this workspace: the deterministic simulator
//! (`afd-system`) and the threaded runtime (`afd-runtime`).
//!
//! The crate is organised around one hook and three consumers:
//!
//! - [`Observer`] — the trait both engines call once per committed
//!   action, in schedule order (and once at stop). Engines hold an
//!   `Option<Arc<dyn Observer>>`; `None` costs nothing, so benches and
//!   existing callers are unaffected.
//! - [`Metrics`] / [`MetricsObserver`] — a registry of monotonic
//!   counters, gauges, and fixed-bucket histograms recording event
//!   rates per kind and location, per-channel in-flight depth, and FD
//!   query/response latency.
//! - [`TraceRecorder`] + the [`export`] module — capture the stamped
//!   schedule and write it as JSONL (one action per line; byte-identical
//!   across runs for simulator traces) or as a Chrome
//!   `chrome://tracing` / Perfetto-loadable JSON file.
//! - [`detector_qos`] — post-hoc detector quality-of-service analysis:
//!   convergence index, post-crash detection latency, false-suspicion
//!   and wrong-leader intervals.
//!
//! Everything is std-only; JSON is produced and parsed by the tiny
//! [`json`] kernel rather than an external dependency.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use afd_core::{Action, Loc, Stamped};
//! use afd_obs::{dispatch, Metrics, MetricsObserver, TraceRecorder, Fanout, Observer};
//!
//! let metrics = Arc::new(Metrics::new());
//! let trace = Arc::new(TraceRecorder::new());
//! let obs = Fanout::new(vec![
//!     Arc::new(MetricsObserver::new(metrics.clone())),
//!     trace.clone(),
//! ]);
//!
//! // An engine would do this per committed action:
//! dispatch(&obs, Stamped::logical(0, Action::Crash(Loc(1))));
//! obs.on_stop(1, "example");
//!
//! assert_eq!(trace.len(), 1);
//! assert_eq!(metrics.counter("crashes").get(), 1);
//! let jsonl = afd_obs::export::write_jsonl(&trace.snapshot());
//! assert!(jsonl.starts_with("{\"seq\":0"));
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod qos;
pub mod seen;

pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsObserver, MetricsSnapshot,
};
pub use observer::{dispatch, Fanout, NullObserver, Observer, TraceRecorder};
pub use qos::{detector_qos, CrashDetection, InaccuracyInterval, QosReport};
pub use seen::SeenSeqs;
