//! [`SimConfig`]: everything a [`crate::Simulator`] is parameterized by.

use crate::packet::{HDR_BYTES, MSS, PROBE_PERIOD};
use crate::recorder::TelemetryConfig;
use crate::stats::QUEUE_SAMPLE_CAP;
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
    /// Hard cap on retained [`crate::stats::QueueSample`] entries.
    /// Sampling keeps running past the cap (the schedule — and thus
    /// `events_processed` — is unchanged); overflow is counted in
    /// [`crate::SimStats::queue_samples_capped`] instead of growing the
    /// vec without bound. Default: [`QUEUE_SAMPLE_CAP`].
    pub queue_sample_cap: usize,
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
    /// debug builds; the `CONTRA_SIM_AUDIT` env var overrides this at
    /// construction (`0`/`off`/`false` forces it off, anything else on).
    pub audit: bool,
    /// Runs the telemetry recorder ([`crate::recorder::Recorder`]):
    /// structured trace events into a bounded ring plus cadence-sampled
    /// time-series metrics. Pure observation like the auditor — stats
    /// are byte-identical either way. `None` (default) disables it; the
    /// `CONTRA_TELEM` env var overrides this at construction
    /// (`0`/`off`/`false` forces it off, anything else enables default
    /// knobs).
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            util_tau: Time(2 * PROBE_PERIOD.0),
            stop_at: Time::ms(100),
            queue_sample_every: None,
            queue_sample_cap: QUEUE_SAMPLE_CAP,
            min_rto: Time::ms(1),
            udp_bucket: Time::ms(1),
            trace_paths: false,
            audit: cfg!(debug_assertions),
            telemetry: None,
        }
    }
}

impl SimConfig {
    /// Applies the process environment, which wins over the fields:
    /// `CONTRA_SIM_AUDIT` sets `audit`; `CONTRA_TELEM` clears
    /// `telemetry` when off and, when on, enables the default knobs
    /// unless explicit ones are already set. [`crate::Simulator::new`]
    /// calls this.
    pub fn apply_env(&mut self) {
        if let Some(audit) = env_flag("CONTRA_SIM_AUDIT") {
            self.audit = audit;
        }
        match env_flag("CONTRA_TELEM") {
            Some(true) => {
                self.telemetry.get_or_insert_with(TelemetryConfig::default);
            }
            Some(false) => self.telemetry = None,
            None => {}
        }
    }
}

/// An on/off environment variable: `None` when unset.
fn env_flag(name: &str) -> Option<bool> {
    std::env::var(name).ok().map(|raw| parse_flag(&raw))
}

/// `0`, `off`, `false`, `no` and the empty string are off, any other
/// value is on.
fn parse_flag(raw: &str) -> bool {
    !matches!(
        raw.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "off" | "false" | "no"
    )
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    #[test]
    fn flag_values() {
        for off in ["", "0", "off", "OFF", " false ", "No"] {
            assert!(!parse_flag(off), "{off:?} must read as off");
        }
        for on in ["1", "on", "true", "yes", "2", "full"] {
            assert!(parse_flag(on), "{on:?} must read as on");
        }
    }
}
