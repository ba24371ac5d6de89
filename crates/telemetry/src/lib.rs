//! # contra-telemetry — deterministic observability primitives
//!
//! The storage and export layer behind the simulator's telemetry
//! recorder (`contra_sim::recorder`) and the compiler's pipeline
//! profiler. Dependency-free by design: it must be embeddable in the
//! engine's hot path without dragging anything into the build, and its
//! exports must be **byte-deterministic** — the same run always renders
//! the same file, which is what lets CI `cmp` two traces.
//!
//! Three pillars:
//!
//! * [`TraceEvent`] + [`EventRing`] — a bounded, allocation-free
//!   structured event buffer (Chrome trace-event phases: instant,
//!   begin/end span, counter), exported as Perfetto-loadable Chrome
//!   trace JSON ([`TelemetryReport`]).
//! * [`MetricsRegistry`] — counters, capped time series and log₂-bucket
//!   histograms with stable (insertion-order) export as CSV.
//! * [`Profiler`] / [`PipelineProfile`] — scoped wall-clock spans over a
//!   staged pipeline (the policy compiler), with an explicit residual
//!   `other` stage so the stages always sum to the measured total.
//!
//! Timestamps are raw `u64` nanoseconds rather than a shared `Time`
//! newtype so the crate sits *below* `contra-sim` in the dependency
//! graph.

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod ring;

pub use chrome::{chrome_trace_json, json_escape, ts_us};
pub use event::{ArgVal, Phase, TraceEvent, MAX_ARGS};
pub use json::validate_json;
pub use metrics::{MetricsRegistry, SeriesId, SERIES_POINT_CAP};
pub use profile::{PipelineProfile, Profiler};
pub use report::TelemetryReport;
pub use ring::EventRing;
