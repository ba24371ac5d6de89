//! The switch SRAM model behind Figure 10.
//!
//! The paper reports "switch state" per generated program: the memory the
//! runtime tables need, which grows with the number of destinations, the
//! switch's product-graph tags, and the policy's probe subpolicies. The
//! dataplane-resident flowlet and loop-detection tables are fixed-size
//! register arrays, as on real hardware: [`FLOWLET_ENTRIES`] and
//! [`LOOP_ENTRIES`] slots, the sizes the emitted program declares and
//! the simulated switch allocates.

use contra_core::{CompiledPolicy, FLOWLET_ENTRIES, LOOP_ENTRIES};
use contra_topology::NodeId;

/// Byte-level accounting of one switch's runtime state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateModel {
    /// FwdT: destinations × local tags × pids rows.
    pub fwdt_bytes: usize,
    /// BestT: one row per destination.
    pub best_bytes: usize,
    /// Policy-aware flowlet registers (fixed).
    pub flowlet_bytes: usize,
    /// Loop-detection registers (fixed).
    pub loop_bytes: usize,
    /// Static NEXTPGNODE/multicast configuration.
    pub static_bytes: usize,
}

impl StateModel {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.fwdt_bytes + self.best_bytes + self.flowlet_bytes + self.loop_bytes + self.static_bytes
    }

    /// Total kilobytes (the Fig 10 unit).
    pub fn total_kb(&self) -> f64 {
        self.total() as f64 / 1000.0
    }
}

/// Sizes the runtime state of `switch` under the compiled policy.
pub fn switch_state(cp: &CompiledPolicy, switch: NodeId) -> StateModel {
    let prog = &cp.programs[&switch];
    let dests = cp.destinations.len();
    let tags = prog.tags.len().max(1);
    let pids = cp.num_pids().max(1);
    let metrics = cp.basis.len();

    // FwdT row: key (dst 2B + tag 2B + pid 1B) + mv (4B per metric) +
    // ntag 2B + nhop port 1B + version 4B + timestamp 4B.
    let fwdt_row = 2 + 2 + 1 + 4 * metrics + 2 + 1 + 4 + 4;
    let fwdt_bytes = dests * tags * pids * fwdt_row;

    // BestT row: dst 2B key + (tag 2B, pid 1B) value.
    let best_bytes = dests * (2 + 2 + 1);

    // Flowlet row: key hash 4B + nhop 1B + ntag 2B + timestamp 4B.
    let flowlet_bytes = FLOWLET_ENTRIES * (4 + 1 + 2 + 4);

    // Loop row: hash 4B + maxttl 1B + minttl 1B + timestamp 4B.
    let loop_bytes = LOOP_ENTRIES * (4 + 1 + 1 + 4);

    // Static program config: NEXTPGNODE rows (in-tag 2B → local tag 2B) and
    // multicast fan-out rows (tag 2B → port 1B + next tag 2B).
    let next_rows = cp.next_pg_node(switch).len();
    let mcast_rows: usize = prog.tags.iter().map(|v| cp.pg.succs(v).len()).sum();
    let static_bytes = next_rows * 4 + mcast_rows * 5;

    StateModel {
        fwdt_bytes,
        best_bytes,
        flowlet_bytes,
        loop_bytes,
        static_bytes,
    }
}

/// The maximum per-switch state across the whole fabric — the number the
/// Fig 10 series report.
pub fn max_switch_state_kb(cp: &CompiledPolicy) -> f64 {
    cp.programs
        .keys()
        .map(|&s| switch_state(cp, s).total_kb())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_core::Compiler;
    use contra_topology::generators;

    #[test]
    fn state_grows_with_topology_size() {
        let mut prev = 0.0;
        for k in [4usize, 8] {
            let topo = generators::fat_tree(k, 0, generators::LinkSpec::default());
            let cp = Compiler::new(&topo)
                .compile_str("minimize(path.util)")
                .unwrap();
            let kb = max_switch_state_kb(&cp);
            assert!(kb > prev, "k={k}: {kb} kB");
            prev = kb;
        }
    }

    #[test]
    fn waypointing_needs_more_state_than_mu() {
        let topo = generators::fat_tree(4, 0, generators::LinkSpec::default());
        let c = Compiler::new(&topo);
        let mu = max_switch_state_kb(&c.compile_str("minimize(path.util)").unwrap());
        let wp = max_switch_state_kb(
            &c.compile_str("minimize(if .*(core0+core1).* then path.util else inf)")
                .unwrap(),
        );
        let ca = max_switch_state_kb(
            &c.compile_str(
                "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
            )
            .unwrap(),
        );
        assert!(wp > mu, "WP {wp} kB vs MU {mu} kB");
        assert!(ca > mu, "CA {ca} kB vs MU {mu} kB");
    }

    #[test]
    fn state_is_well_under_modern_switch_sram() {
        // The paper: ≤ ~70 kB at 500 switches, "a tiny fraction" of tens
        // of MB of SRAM.
        let topo = generators::fat_tree(10, 0, generators::LinkSpec::default());
        let cp = Compiler::new(&topo)
            .compile_str("minimize(path.util)")
            .unwrap();
        let kb = max_switch_state_kb(&cp);
        assert!(kb < 200.0, "{kb} kB");
    }
}
