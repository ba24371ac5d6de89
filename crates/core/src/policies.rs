//! The policy catalogue of Figure 3 — the nine policies the paper draws
//! from the literature, as source-text constructors.
//!
//! Waypoints and link endpoints are parameters because they are switch
//! names that must exist in the target topology.

/// P1 — shortest path routing (RIP-style).
pub fn shortest_path() -> String {
    "minimize(path.len)".to_string()
}

/// P2 — minimum utilization (Hula-style). The paper's "MU" policy in §6.
pub fn min_util() -> String {
    "minimize(path.util)".to_string()
}

/// P3 — widest shortest paths: least-utilized first, length as tie-break.
/// Non-isotonic (the compiler warns); kept verbatim from the catalogue.
pub fn widest_shortest() -> String {
    "minimize((path.util, path.len))".to_string()
}

/// P4 — shortest widest paths: fewest hops first, utilization tie-break.
pub fn shortest_widest() -> String {
    "minimize((path.len, path.util))".to_string()
}

/// P5 — waypointing through either of two middleboxes. The paper's "WP"
/// policy in §6 (three regular expressions after normalization).
pub fn waypoint(f1: &str, f2: &str) -> String {
    format!("minimize(if .*({f1}+{f2}).* then path.util else inf)")
}

/// P6 — link preference: only paths crossing link X–Y are allowed.
pub fn link_preference(x: &str, y: &str) -> String {
    format!("minimize(if .*{x} {y}.* then path.util else inf)")
}

/// P7 — weighted link: add 10 to the rank of paths crossing X–Y, otherwise
/// plain shortest paths.
pub fn weighted_link(x: &str, y: &str) -> String {
    format!("minimize((if .*{x} {y}.* then 10 else 0) + path.len)")
}

/// P8 — source-local preference: X routes on utilization, everyone else on
/// latency. Decomposes into two probe subpolicies.
pub fn source_local(x: &str) -> String {
    format!("minimize(if {x} .* then path.util else path.lat)")
}

/// P9 — congestion-aware routing: least-utilized paths while the network is
/// light (< 80% bottleneck utilization), shortest paths under heavy load.
/// The paper's "CA" policy in §6; non-isotonic, decomposed into two pids.
pub fn congestion_aware() -> String {
    "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))".to_string()
}

/// Propane-style failover preference: use `A B D`, else `A C D`, else drop.
pub fn failover(primary: &[&str], backup: &[&str]) -> String {
    format!(
        "minimize(if {} then 0 else if {} then 1 else inf)",
        primary.join(" "),
        backup.join(" ")
    )
}

/// All nine catalogue policies instantiated with the given switch names,
/// labelled as in Figure 3 — handy for exhaustive compile tests.
pub fn catalogue(f1: &str, f2: &str, x: &str, y: &str) -> Vec<(&'static str, String)> {
    vec![
        ("P1 shortest path", shortest_path()),
        ("P2 minimum utilization", min_util()),
        ("P3 widest shortest", widest_shortest()),
        ("P4 shortest widest", shortest_widest()),
        ("P5 waypointing", waypoint(f1, f2)),
        ("P6 link preference", link_preference(x, y)),
        ("P7 weighted link", weighted_link(x, y)),
        ("P8 source-local", source_local(x)),
        ("P9 congestion-aware", congestion_aware()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_policy;

    #[test]
    fn all_catalogue_policies_parse() {
        for (name, src) in catalogue("F1", "F2", "X", "Y") {
            parse_policy(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn failover_builder() {
        let src = failover(&["A", "B", "D"], &["A", "C", "D"]);
        assert_eq!(
            src,
            "minimize(if A B D then 0 else if A C D then 1 else inf)"
        );
        parse_policy(&src).unwrap();
    }
}
