//! [`MetricsRegistry`]: counters, capped time series and log₂-bucket
//! histograms, with stable insertion-order export.
//!
//! Metrics are identified by a static metric name plus a per-entity key
//! (link name, switch name, flow id). Lookups hash; hot producers cache
//! the returned [`SeriesId`] and append by index. Exports render in
//! first-registration order — deterministic by construction, since the
//! engine registers metrics in its own deterministic order.

use std::collections::HashMap;

/// Points one series holds before it stops recording (and counts the
/// overflow instead) — the documented cap that keeps a pathological run
/// from growing without bound. At the default 100 µs cadence this is
/// over half an hour of simulated time per series.
pub const SERIES_POINT_CAP: usize = 1 << 20;

/// Stable handle to one time series (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(pub(crate) usize);

#[derive(Debug)]
struct Series {
    name: &'static str,
    key: String,
    points: Vec<(u64, f64)>,
    capped: u64,
}

#[derive(Debug)]
struct Counter {
    name: &'static str,
    key: String,
    value: u64,
}

#[derive(Debug)]
struct Histogram {
    name: &'static str,
    key: String,
    /// Bucket `i` counts samples with `floor(log₂(v)) == i - 1`
    /// (bucket 0 holds zeros).
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

/// The metrics store: see the module docs.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: Vec<Series>,
    series_idx: HashMap<(&'static str, String), usize>,
    counters: Vec<Counter>,
    counter_idx: HashMap<(&'static str, String), usize>,
    hists: Vec<Histogram>,
    hist_idx: HashMap<(&'static str, String), usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The handle for series `name`/`key`, registering it if new. Hot
    /// producers call this once and then use [`MetricsRegistry::push_id`].
    pub fn series(&mut self, name: &'static str, key: &str) -> SeriesId {
        if let Some(&i) = self.series_idx.get(&(name, key.to_string())) {
            return SeriesId(i);
        }
        let i = self.series.len();
        self.series.push(Series {
            name,
            key: key.to_string(),
            points: Vec::new(),
            capped: 0,
        });
        self.series_idx.insert((name, key.to_string()), i);
        SeriesId(i)
    }

    /// Appends a point to a series by handle, honoring
    /// [`SERIES_POINT_CAP`].
    #[inline]
    pub fn push_id(&mut self, id: SeriesId, ts_ns: u64, value: f64) {
        let s = &mut self.series[id.0];
        if s.points.len() < SERIES_POINT_CAP {
            s.points.push((ts_ns, value));
        } else {
            s.capped += 1;
        }
    }

    /// Convenience: resolve-and-push in one call (cold paths).
    pub fn push(&mut self, name: &'static str, key: &str, ts_ns: u64, value: f64) {
        let id = self.series(name, key);
        self.push_id(id, ts_ns, value);
    }

    /// The points of a series, if it exists.
    pub fn points(&self, name: &'static str, key: &str) -> Option<&[(u64, f64)]> {
        self.series_idx
            .get(&(name, key.to_string()))
            .map(|&i| self.series[i].points.as_slice())
    }

    /// Adds to a monotonic counter.
    pub fn inc(&mut self, name: &'static str, key: &str, by: u64) {
        if let Some(&i) = self.counter_idx.get(&(name, key.to_string())) {
            self.counters[i].value += by;
            return;
        }
        let i = self.counters.len();
        self.counters.push(Counter {
            name,
            key: key.to_string(),
            value: by,
        });
        self.counter_idx.insert((name, key.to_string()), i);
    }

    /// A counter's current value (0 if never incremented).
    pub fn counter(&self, name: &'static str, key: &str) -> u64 {
        self.counter_idx
            .get(&(name, key.to_string()))
            .map_or(0, |&i| self.counters[i].value)
    }

    /// Records one sample into a log₂-bucket histogram.
    pub fn observe(&mut self, name: &'static str, key: &str, value: u64) {
        let i = match self.hist_idx.get(&(name, key.to_string())) {
            Some(&i) => i,
            None => {
                let i = self.hists.len();
                self.hists.push(Histogram {
                    name,
                    key: key.to_string(),
                    buckets: [0; 65],
                    count: 0,
                    sum: 0,
                });
                self.hist_idx.insert((name, key.to_string()), i);
                i
            }
        };
        let h = &mut self.hists[i];
        let bucket = (64 - value.leading_zeros()) as usize;
        h.buckets[bucket] += 1;
        h.count += 1;
        h.sum += value;
    }

    /// Total points held across every series.
    pub fn total_points(&self) -> usize {
        self.series.iter().map(|s| s.points.len()).sum()
    }

    /// Iterates every series as `(name, key, points)`, in registration
    /// order.
    pub fn points_iter(&self) -> impl Iterator<Item = (&'static str, &str, &[(u64, f64)])> {
        self.series
            .iter()
            .map(|s| (s.name, s.key.as_str(), s.points.as_slice()))
    }

    /// Renders everything as CSV with a `kind` discriminator column:
    /// `kind,metric,key,x,value` — series rows use `x` = timestamp (ns),
    /// histogram rows use `x` = bucket upper bound, counter rows leave
    /// `x` empty.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("kind,metric,key,x,value\n");
        for c in &self.counters {
            let _ = writeln!(out, "counter,{},{},,{}", c.name, csv_field(&c.key), c.value);
        }
        for s in &self.series {
            for (ts, v) in &s.points {
                let _ = writeln!(out, "series,{},{},{ts},{v:.6}", s.name, csv_field(&s.key));
            }
            if s.capped > 0 {
                let _ = writeln!(
                    out,
                    "series_capped,{},{},,{}",
                    s.name,
                    csv_field(&s.key),
                    s.capped
                );
            }
        }
        for h in &self.hists {
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                // Bucket b holds values in [2^(b-1), 2^b); upper bound 2^b - 1
                // (bucket 0 holds exactly zero, bucket 64 tops out at u64::MAX).
                let hi: u64 = match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
                let _ = writeln!(out, "hist,{},{},{hi},{n}", h.name, csv_field(&h.key));
            }
            let _ = writeln!(
                out,
                "hist_count,{},{},,{}",
                h.name,
                csv_field(&h.key),
                h.count
            );
            let _ = writeln!(out, "hist_sum,{},{},,{}", h.name, csv_field(&h.key), h.sum);
        }
        out
    }
}

/// Quotes a CSV field when it contains a delimiter.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip_and_cap() {
        let mut m = MetricsRegistry::new();
        let id = m.series("link_util", "a→b");
        m.push_id(id, 100, 0.5);
        m.push_id(id, 200, 0.75);
        assert_eq!(m.points("link_util", "a→b").unwrap().len(), 2);
        assert_eq!(m.total_points(), 2);
        // Same (name, key) resolves to the same series.
        assert_eq!(m.series("link_util", "a→b"), id);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("drops", "QueueFull", 2);
        m.inc("drops", "QueueFull", 3);
        m.inc("drops", "LinkDown", 1);
        assert_eq!(m.counter("drops", "QueueFull"), 5);
        assert_eq!(m.counter("drops", "LinkDown"), 1);
        assert_eq!(m.counter("drops", "TtlExpired"), 0);
    }

    #[test]
    fn histogram_log2_buckets() {
        let mut m = MetricsRegistry::new();
        for v in [0, 1, 1, 3, 1500] {
            m.observe("qdepth", "a→b", v);
        }
        let csv = m.to_csv();
        // 0 → bucket 0 (hi 0); 1 → bucket 1 (hi 1); 3 → bucket 2 (hi 3);
        // 1500 → bucket 11 (hi 2047).
        assert!(csv.contains("hist,qdepth,a→b,0,1"));
        assert!(csv.contains("hist,qdepth,a→b,1,2"));
        assert!(csv.contains("hist,qdepth,a→b,3,1"));
        assert!(csv.contains("hist,qdepth,a→b,2047,1"));
        assert!(csv.contains("hist_count,qdepth,a→b,,5"));
    }
}
