//! [`SimConfig`]: everything a [`crate::Simulator`] is parameterized by.

use crate::packet::{HDR_BYTES, MSS, PROBE_PERIOD};
use crate::recorder::TelemetryConfig;
use crate::time::Time;

/// Drop-tail queue capacity of every link, in bytes (§6.3: 1000 MSS).
pub const QUEUE_CAPACITY_BYTES: u32 = 1000 * (MSS + HDR_BYTES);

/// Engine configuration. Defaults follow §6.3 of the paper where one
/// exists.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Utilization estimator window (default: 2× the probe period).
    pub util_tau: Time,
    /// Hard stop: events after this instant are not processed.
    pub stop_at: Time,
    /// Sample fabric queue occupancy this often (Fig 13); `None` disables.
    pub queue_sample_every: Option<Time>,
    /// TCP minimum/initial retransmission timeout.
    pub min_rto: Time,
    /// Bucket width for UDP goodput timelines (Fig 14).
    pub udp_bucket: Time,
    /// Record per-packet switch paths; enables exact loop accounting
    /// (§6.5) and policy-compliance checks in tests. Costs memory per
    /// in-flight packet, so off by default.
    pub trace_paths: bool,
    /// Runs the runtime invariant auditor: packet conservation, pool and
    /// trace-table leak freedom, queue-occupancy bounds, dead-epoch
    /// detection — checked at every fault epoch and at end of run. Pure
    /// observation (stats are byte-identical either way); costs a few
    /// counter bumps per hop plus a scan per check. On by default in
    /// debug builds.
    pub audit: bool,
    /// Runs the telemetry recorder ([`crate::recorder::Recorder`]):
    /// structured trace events into a bounded ring plus cadence-sampled
    /// time-series metrics. Pure observation like the auditor — stats
    /// are byte-identical either way. `None` (default) disables it.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            util_tau: Time(2 * PROBE_PERIOD.0),
            stop_at: Time::ms(100),
            queue_sample_every: None,
            min_rto: Time::ms(1),
            udp_bucket: Time::ms(1),
            trace_paths: false,
            audit: cfg!(debug_assertions),
            telemetry: None,
        }
    }
}
