//! Rank values — what a policy assigns to a path.
//!
//! A Contra policy is a *path-ranking function* (§2): it maps every path to
//! a rank, and switches prefer lower ranks. Ranks are lexicographic vectors
//! of finite reals, with a distinguished top element ∞ meaning "path
//! forbidden" (no path is preferred to a path with rank ∞, and traffic is
//! dropped rather than sent on one).

use std::cmp::Ordering;
use std::fmt;

/// A totally ordered path rank: either a lexicographic vector of finite
/// reals, or ∞.
///
/// Vectors of different lengths compare by zero-padding the shorter one —
/// this matches the intuition that a scalar rank `r` and a tuple `(r, …)`
/// agree on their common prefix. Policies produced by normalization always
/// compare same-length vectors, so padding only matters for hand-built
/// ranks in tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Rank {
    /// A finite rank; lower is better. Every component is finite.
    Finite(Vec<f64>),
    /// The worst possible rank: the path may not be used.
    Inf,
}

/// [`Rank::tuple`] straight from the components.
impl FromIterator<f64> for Rank {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Rank {
        Rank::tuple(iter.into_iter().collect())
    }
}

impl Rank {
    /// A scalar finite rank.
    pub fn scalar(v: f64) -> Rank {
        assert!(v.is_finite(), "scalar rank must be finite, got {v}");
        Rank::Finite(vec![v])
    }

    /// A tuple rank. Any non-finite component collapses the whole rank to ∞
    /// (a path that is forbidden on one criterion is forbidden outright).
    pub fn tuple(vs: Vec<f64>) -> Rank {
        if vs.iter().all(|v| v.is_finite()) {
            Rank::Finite(vs)
        } else {
            Rank::Inf
        }
    }

    /// Whether this is the ∞ rank.
    pub fn is_inf(&self) -> bool {
        matches!(self, Rank::Inf)
    }

    /// The components if finite.
    pub fn values(&self) -> Option<&[f64]> {
        match self {
            Rank::Finite(v) => Some(v),
            Rank::Inf => None,
        }
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Rank::Inf, Rank::Inf) => Ordering::Equal,
            (Rank::Inf, Rank::Finite(_)) => Ordering::Greater,
            (Rank::Finite(_), Rank::Inf) => Ordering::Less,
            (Rank::Finite(a), Rank::Finite(b)) => {
                let n = a.len().max(b.len());
                for i in 0..n {
                    let x = a.get(i).copied().unwrap_or(0.0);
                    let y = b.get(i).copied().unwrap_or(0.0);
                    debug_assert!(x.is_finite() && y.is_finite());
                    match x.partial_cmp(&y).expect("rank components are finite") {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
        }
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rank::Inf => write!(f, "∞"),
            Rank::Finite(v) if v.len() == 1 => write!(f, "{}", v[0]),
            Rank::Finite(v) => {
                write!(f, "(")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_dominates() {
        assert!(Rank::scalar(1e18) < Rank::Inf);
        assert!(Rank::Inf == Rank::Inf);
        assert!(Rank::tuple(vec![0.0, f64::INFINITY]).is_inf());
    }

    #[test]
    fn lexicographic_order() {
        assert!(Rank::tuple(vec![0.0, 9.0]) < Rank::tuple(vec![1.0, 0.0]));
        assert!(Rank::tuple(vec![1.0, 2.0]) < Rank::tuple(vec![1.0, 3.0]));
        assert_eq!(
            Rank::tuple(vec![1.0, 2.0]).cmp(&Rank::tuple(vec![1.0, 2.0])),
            Ordering::Equal
        );
    }

    #[test]
    fn zero_padding_on_unequal_lengths() {
        assert_eq!(
            Rank::scalar(1.0).cmp(&Rank::tuple(vec![1.0, 0.0])),
            Ordering::Equal
        );
        assert!(Rank::scalar(1.0) < Rank::tuple(vec![1.0, 0.5]));
        assert!(Rank::tuple(vec![1.0, -0.5]) < Rank::scalar(1.0));
    }

    /// Width is unbounded: a rank wider than any policy writes orders,
    /// equals and collapses to ∞ like any other.
    #[test]
    fn wide_tuples_compare() {
        let wide = |last: f64| (0..7).map(f64::from).chain([last]).collect::<Rank>();
        assert_eq!(wide(1.0).values().unwrap().len(), 8);
        assert!(wide(1.0) < wide(2.0));
        assert_eq!(wide(1.0), wide(1.0));
        assert!(wide(f64::INFINITY).is_inf());
        let narrow = Rank::tuple(vec![0.0, 1.0, 2.0]);
        assert!(narrow < wide(0.0));
        assert_eq!(
            (0..4).map(f64::from).collect::<Rank>(),
            Rank::tuple(vec![0.0, 1.0, 2.0, 3.0])
        );
        assert_eq!(wide(0.5).to_string(), "(0, 1, 2, 3, 4, 5, 6, 0.5)");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rank::scalar(2.5).to_string(), "2.5");
        assert_eq!(Rank::tuple(vec![1.0, 2.0]).to_string(), "(1, 2)");
        assert_eq!(Rank::Inf.to_string(), "∞");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scalar_rejects_infinite() {
        let _ = Rank::scalar(f64::INFINITY);
    }
}
