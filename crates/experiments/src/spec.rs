//! Textual topology specs.
//!
//! The one-line syntax of the `contra compile` / `contra lint` commands:
//!
//! * `fat-tree:K` — K-ary fat-tree (switches only; K even, ≥ 2),
//! * `leaf-spine:LEAVES,SPINES,HOSTS_PER_LEAF` (each ≥ 1),
//! * `abilene` — the §6.4 backbone (40 Gbps),
//! * `random:N` — connected random graph with ~2N extra edges (seed 42;
//!   N ≥ 2),
//! * `zoo:FILE` — a Topology-Zoo GraphML file.
//!
//! Sizes the generators would `assert!` on are rejected here, as
//! [`SpecError::Malformed`]: a spec is outside input. So is a spec of
//! more than [`MAX_SPEC_NODES`] nodes, as [`SpecError::TooLarge`], or with
//! a switch of more than [`MAX_SPEC_PORTS`] ports, as
//! [`SpecError::TooManyPorts`]. The generated families are counted in
//! closed form, with checked arithmetic, before anything is built; a
//! random or zoo graph's ports are its largest degree once built.

use contra_topology::{generators, zoo, Topology};

/// Most nodes a spec may describe. The emitted P4 header names the
/// destination switch in a `bit<16>` field (`dst_sw`), so a compiled
/// program can address no more switch ids than this.
pub const MAX_SPEC_NODES: usize = 1 << 16;

/// Most ports a switch of a spec may have, one per cable, hosts' included.
/// The emitted program names a port in `port_t` = `bit<9>`, and port 0 is
/// the CPU's.
pub const MAX_SPEC_PORTS: usize = (1 << 9) - 1;

/// Why a spec failed to parse.
#[derive(Debug)]
pub enum SpecError {
    /// Unknown family or malformed parameters.
    Malformed(String),
    /// The spec describes more than [`MAX_SPEC_NODES`] nodes: `nodes` of
    /// them, or `None` if the count overflows `usize`.
    TooLarge { spec: String, nodes: Option<usize> },
    /// A switch of the spec has `ports` ports, more than
    /// [`MAX_SPEC_PORTS`].
    TooManyPorts { spec: String, ports: usize },
    /// A `zoo:` file could not be read or parsed.
    Zoo(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed(s) => write!(
                f,
                "bad topology spec {s:?} (expected fat-tree:K | leaf-spine:L,S,H | abilene | random:N | zoo:FILE)"
            ),
            SpecError::TooLarge { spec, nodes } => {
                write!(f, "topology spec {spec:?} has ")?;
                match nodes {
                    Some(n) => write!(f, "{n} nodes")?,
                    None => write!(f, "more than {} nodes", usize::MAX)?,
                }
                write!(
                    f,
                    ", more than the {MAX_SPEC_NODES} the emitted header's bit<16> dst_sw can address"
                )
            }
            SpecError::TooManyPorts { spec, ports } => write!(
                f,
                "topology spec {spec:?} has a switch of {ports} ports, more than the \
                 {MAX_SPEC_PORTS} the emitted program's bit<9> port_t can number"
            ),
            SpecError::Zoo(e) => write!(f, "zoo topology: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses a topology spec string.
pub fn parse_topology_spec(spec: &str) -> Result<Topology, SpecError> {
    let default = generators::LinkSpec::default();
    let malformed = || SpecError::Malformed(spec.to_string());
    let fits = |nodes: Option<usize>| match nodes {
        Some(n) if n <= MAX_SPEC_NODES => Ok(()),
        nodes => Err(SpecError::TooLarge {
            spec: spec.to_string(),
            nodes,
        }),
    };
    if let Some(k) = spec.strip_prefix("fat-tree:") {
        let k: usize = k.parse().map_err(|_| malformed())?;
        if k < 2 || !k.is_multiple_of(2) {
            return Err(malformed());
        }
        fits(
            k.checked_mul(k)
                .and_then(|k2| k2.checked_mul(5))
                .map(|n| n / 4),
        )?;
        // Aggregation and core switches have k ports, edge switches k / 2.
        ports_fit(spec, k)?;
        Ok(generators::fat_tree(k, 0, default))
    } else if let Some(rest) = spec.strip_prefix("leaf-spine:") {
        let parts: Vec<usize> = rest
            .split(',')
            .map(|p| p.parse().map_err(|_| malformed()))
            .collect::<Result<_, _>>()?;
        if parts.len() != 3 || parts.contains(&0) {
            return Err(malformed());
        }
        fits(
            parts[0]
                .checked_mul(parts[2])
                .and_then(|hosts| hosts.checked_add(parts[0]))
                .and_then(|n| n.checked_add(parts[1])),
        )?;
        // A leaf has a port per spine and per host, a spine one per leaf;
        // each count is within the node count just bounded.
        ports_fit(spec, (parts[1] + parts[2]).max(parts[0]))?;
        Ok(generators::leaf_spine(
            parts[0], parts[1], parts[2], default, default,
        ))
    } else if spec == "abilene" {
        Ok(generators::abilene(40e9))
    } else if let Some(n) = spec.strip_prefix("random:") {
        let n: usize = n.parse().map_err(|_| malformed())?;
        if n < 2 {
            return Err(malformed());
        }
        fits(Some(n))?;
        degree_fits(spec, generators::random_connected(n, 2 * n, default, 42))
    } else if let Some(path) = spec.strip_prefix("zoo:") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Zoo(format!("reading {path}: {e}")))?;
        let topo = zoo::parse_graphml(&text, 10e9, 1_000_000)
            .map_err(|e| SpecError::Zoo(e.to_string()))?;
        fits(Some(topo.num_nodes()))?;
        degree_fits(spec, topo)
    } else {
        Err(malformed())
    }
}

/// Whether a switch of `ports` ports fits [`MAX_SPEC_PORTS`].
fn ports_fit(spec: &str, ports: usize) -> Result<(), SpecError> {
    if ports <= MAX_SPEC_PORTS {
        return Ok(());
    }
    let spec = spec.to_string();
    Err(SpecError::TooManyPorts { spec, ports })
}

/// `topo`, if its largest switch degree fits [`MAX_SPEC_PORTS`].
fn degree_fits(spec: &str, topo: Topology) -> Result<Topology, SpecError> {
    let degree = |s| topo.out_links(s).len();
    let ports = topo.switches().into_iter().map(degree).max();
    ports_fit(spec, ports.unwrap_or(0)).map(|()| topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_to_the_right_sizes() {
        assert_eq!(
            parse_topology_spec("fat-tree:4").unwrap().num_switches(),
            20
        );
        assert_eq!(parse_topology_spec("abilene").unwrap().num_switches(), 11);
        let ls = parse_topology_spec("leaf-spine:2,2,3").unwrap();
        assert_eq!(ls.num_switches(), 4);
        assert_eq!(ls.hosts().len(), 6);
        assert_eq!(parse_topology_spec("random:30").unwrap().num_switches(), 30);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let shapeless = ["", "fat-tree:", "leaf-spine:4,2", "mesh:9", "random:x"];
        // Well-formed numbers the generators would panic on (or, for the
        // empty fabric, silently accept).
        let out_of_range = [
            "fat-tree:0",
            "fat-tree:3",
            "random:0",
            "random:1",
            "leaf-spine:0,0,0",
            "leaf-spine:4,0,8",
        ];
        for bad in shapeless.iter().chain(&out_of_range) {
            assert!(
                matches!(parse_topology_spec(bad), Err(SpecError::Malformed(_))),
                "{bad:?} must be rejected as malformed"
            );
        }
    }

    /// A count past the header's reach is refused before anything is
    /// built, named in the error, and overflow is a count too large to say.
    #[test]
    fn specs_past_the_header_are_too_large() {
        for (spec, count) in [
            ("random:99999999999", Some(99_999_999_999)),
            ("random:65537", Some(65_537)),
            ("fat-tree:4000", Some(20_000_000)),
            ("fat-tree:230", Some(66_125)),
            ("fat-tree:8589934592", None),
            ("leaf-spine:1,1,65535", Some(65_537)),
            ("leaf-spine:4294967296,1,4294967296", None),
        ] {
            match parse_topology_spec(spec) {
                Err(SpecError::TooLarge { spec: s, nodes }) => {
                    assert_eq!((s.as_str(), nodes), (spec, count));
                }
                other => panic!("{spec}: {other:?}"),
            }
        }
        let err = parse_topology_spec("random:99999999999").unwrap_err();
        assert_eq!(
            err.to_string(),
            "topology spec \"random:99999999999\" has 99999999999 nodes, more than the \
             65536 the emitted header's bit<16> dst_sw can address"
        );
        let err = parse_topology_spec("fat-tree:8589934592").unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("has more than {} nodes", usize::MAX)),
            "{err}"
        );
        // 256 leaves × (1 + 254 hosts) + 256 spines, every switch within
        // its ports: leaves 510, spines 256.
        let largest = parse_topology_spec("leaf-spine:256,256,254").unwrap();
        assert_eq!(largest.num_nodes(), MAX_SPEC_NODES);
    }

    /// A switch with more ports than `port_t` can number is refused, named
    /// with its count: in closed form for the generated fabrics (so
    /// `leaf-spine:20000,25000,1`'s 5 × 10⁸ cables are never built), by
    /// degree for the graphs that must be built first.
    #[test]
    fn specs_past_the_port_field_are_refused() {
        for (spec, count) in [
            ("leaf-spine:20000,25000,1", 25_001),
            ("leaf-spine:1,1,65534", 65_535),
            ("leaf-spine:2,500,12", 512),
            ("leaf-spine:512,1,1", 512),
        ] {
            match parse_topology_spec(spec) {
                Err(SpecError::TooManyPorts { spec: s, ports }) => {
                    assert_eq!((s.as_str(), ports), (spec, count));
                }
                other => panic!("{spec}: {other:?}"),
            }
        }
        for fits in ["leaf-spine:2,500,11", "leaf-spine:511,1,1", "fat-tree:20"] {
            assert!(parse_topology_spec(fits).is_ok(), "{fits}");
        }
        // Built graphs: a star of 600 switches has a hub of 599 ports.
        let mut star = Topology::builder();
        let hub = star.switch("hub");
        for i in 1..600 {
            let leaf = star.switch(&format!("n{i}"));
            star.biline(hub, leaf, 10e9, 1_000);
        }
        match degree_fits("zoo:star", star.build()) {
            Err(SpecError::TooManyPorts { ports, .. }) => assert_eq!(ports, 599),
            other => panic!("{other:?}"),
        }
    }
}
