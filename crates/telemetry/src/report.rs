//! [`TelemetryReport`]: everything one run's recorder captured, with
//! the export surface the report binary and CI artifacts use.

use crate::chrome;
use crate::event::TraceEvent;
use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;

/// The recorder's output for one run: the drained event ring, track
/// naming metadata, and the metrics registry.
#[derive(Debug)]
pub struct TelemetryReport {
    /// Trace events in chronological order.
    pub events: Vec<TraceEvent>,
    /// Events the bounded ring evicted before the run ended (0 means
    /// the trace is complete).
    pub events_evicted: u64,
    /// Track id → display name (links, switches, flows).
    pub track_names: Vec<(u64, String)>,
    /// The time-series/counter/histogram store.
    pub metrics: MetricsRegistry,
    /// Display name for the trace's process row.
    pub process_name: String,
}

impl TelemetryReport {
    /// The full Chrome trace-event JSON document (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        chrome::chrome_trace_json(&self.events, &self.track_names, &self.process_name)
    }

    /// The metrics as CSV (see [`MetricsRegistry::to_csv`]).
    pub fn metrics_csv(&self) -> String {
        self.metrics.to_csv()
    }

    /// Event counts grouped by name, in name order — the trace's table
    /// of contents for human-readable reports.
    pub fn event_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.name).or_insert(0) += 1;
        }
        counts
    }
}
