//! Metric vectors — the dynamic path state carried by probes.
//!
//! A probe's `mv` field (Fig 7) accumulates the base metrics a policy reads:
//! bottleneck utilization (combined by `max`), latency (combined by `+`) and
//! hop count (combined by `+1`). The compiler computes which attributes a
//! policy actually needs (its [`MetricBasis`]) so probe headers carry only
//! those fields; the semantics here are shared by the compiler's static
//! evaluation, the runtime dataplane, and the test oracles.

use crate::ast::Attr;

/// The value of all three base metrics for some (partial) path.
///
/// Indexed by [`Attr::index`]: `[util, lat_seconds, len_hops]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricVec {
    vals: [f64; 3],
}

impl MetricVec {
    /// The initial metric vector carried by a freshly generated probe
    /// (`INITMVEC` in Fig 7): zero utilization, zero latency, zero hops.
    pub fn zero() -> MetricVec {
        MetricVec { vals: [0.0; 3] }
    }

    /// Builds a vector from explicit components (tests, oracles).
    pub fn new(util: f64, lat: f64, len: f64) -> MetricVec {
        MetricVec {
            vals: [util, lat, len],
        }
    }

    /// `UPDATEMVEC`: extends the path by one link with the given egress
    /// utilization and one-way latency (seconds). Utilization combines by
    /// maximum (bottleneck), latency by sum, length by counting.
    pub fn extend(&self, link_util: f64, link_lat: f64) -> MetricVec {
        MetricVec {
            vals: [
                self.vals[0].max(link_util),
                self.vals[1] + link_lat,
                self.vals[2] + 1.0,
            ],
        }
    }

    /// Reads one attribute.
    pub fn get(&self, a: Attr) -> f64 {
        self.vals[a.index()]
    }

    /// All three components.
    pub fn raw(&self) -> [f64; 3] {
        self.vals
    }
}

/// Which base metrics a policy reads; controls probe header layout and
/// probe size accounting (§6.5 traffic overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricBasis {
    uses: [bool; 3],
}

impl MetricBasis {
    /// Marks an attribute as used.
    pub fn insert(&mut self, a: Attr) {
        self.uses[a.index()] = true;
    }

    /// Whether an attribute is in the basis.
    pub fn contains(&self, a: Attr) -> bool {
        self.uses[a.index()]
    }

    /// Number of metrics carried in probe headers.
    pub fn len(&self) -> usize {
        self.uses.iter().filter(|&&u| u).count()
    }

    /// True when the policy reads no dynamic metric at all (purely static
    /// preferences such as the Propane-style failover policy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The attributes in canonical order.
    pub fn attrs(self) -> impl Iterator<Item = Attr> + Clone {
        Attr::ALL.into_iter().filter(move |&a| self.contains(a))
    }

    /// Bytes one probe spends on metric fields: 4 bytes per carried metric
    /// (fixed-point), matching the compact probes the paper targets.
    pub fn probe_metric_bytes(&self) -> usize {
        4 * self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_combines_correctly() {
        let mv = MetricVec::zero()
            .extend(0.3, 10e-6)
            .extend(0.1, 5e-6)
            .extend(0.5, 1e-6);
        assert_eq!(mv.get(Attr::Util), 0.5);
        assert!((mv.get(Attr::Lat) - 16e-6).abs() < 1e-12);
        assert_eq!(mv.get(Attr::Len), 3.0);
    }

    #[test]
    fn util_is_bottleneck_max() {
        let mv = MetricVec::zero().extend(0.9, 0.0).extend(0.2, 0.0);
        assert_eq!(mv.get(Attr::Util), 0.9);
    }

    #[test]
    fn basis_accounting() {
        let mut b = MetricBasis::default();
        assert!(b.is_empty());
        b.insert(Attr::Util);
        b.insert(Attr::Util);
        b.insert(Attr::Len);
        assert_eq!(b.len(), 2);
        assert_eq!(b.attrs().collect::<Vec<_>>(), [Attr::Util, Attr::Len]);
        assert_eq!(b.probe_metric_bytes(), 8);
        assert!(!b.contains(Attr::Lat));
    }
}
