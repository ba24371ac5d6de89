//! The P4₁₆ emitter: one v1model program per switch.
//!
//! The program is rendered from the switch's compiled `SwitchProgram`, the
//! IR that `contra-dataplane`'s `ContraSwitch` runs in simulation, but it
//! encodes only part of that behaviour today: the product-graph edges
//! (`NEXTPGNODE`), the probe multicast groups, the register arrays and
//! their sizes, and an ingress that maps a probe's tag and writes `FwdT`
//! unconditionally. The version check, the rank comparison (the policy's
//! `f`), `BestT` updates, flowlet pinning, failure expiry and loop breaking
//! are not emitted; the simulated switch is the protocol, and ROADMAP item
//! 2 is making the program encode it.
//!
//! Layout of one program:
//!
//! * headers: ethernet, the Contra data tag (`dst_sw`, `tag`, `pid`, TTL)
//!   and the probe header (`origin`, `pid`, `version`, `tag`, one 32-bit
//!   fixed-point field per metric in the policy's basis);
//! * parser: selects data vs probe by ethertype;
//! * `NEXTPGNODE` as a const-entry table (static product-graph edges);
//! * probe multicast as a const-entry table mapping a local virtual node
//!   to a multicast group, with group membership emitted as a trailing
//!   control-plane comment block;
//! * `FwdT`/`BestT`/flowlet/loop-detection state as register arrays
//!   (dataplane-writable, like Hula's): sizes from the same model as
//!   Fig 10 ([`crate::state`]);
//! * an ingress control laid out as Fig 7's `PROCESSPROBE` /
//!   `SWIFORWARDPKT`, without the parts named above.
//!
//! # How the text is written
//!
//! About 5.5 kB of every program is the same for every switch and every
//! policy: the headers but the metric fields, the parser, the register
//! declarations, the two tables but their entries, the ingress and egress
//! controls and the `main` instantiation. That text lives in a few
//! pre-indented `&'static str` blocks, each pushed whole. Between the
//! blocks go the lines that vary, in program order:
//!
//! * the three header comments (the policy is the one `fmt` call) and the
//!   four size constants;
//! * per carried metric, its probe field, its `FwdT` register and its two
//!   ingress lines — whole static lines chosen by the metric
//!   (`metric_text`);
//! * the `NEXTPGNODE` and `probe_multicast` const entries;
//! * the control-plane comments: multicast group members, the probe
//!   origin and the port map.
//!
//! Every number in them is appended by `push_num`, a decimal-digit
//! writer; every block and line is indented by hand, four spaces per open
//! brace. The layout test in `crates/bench/tests/validate_reference.rs`
//! checks that indentation against the brace depth on every program of the
//! lint corpus.
//!
//! Every block and every metric line starts right after a line break and
//! ends with one, and all of them are listed in `STATIC_TEXT`: `validate`
//! takes such text by comparison instead of reading it (see its module
//! doc), so new static text costs validation one comparison. A block
//! written anywhere but at a line start is read byte by byte again, and
//! fails the unit test `validation_skips_every_static_block`.

use contra_core::{Attr, CompiledPolicy, FLOWLET_ENTRIES, LOOP_ENTRIES};
use contra_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Emits the P4₁₆ program for one switch.
pub fn emit_switch_program(cp: &CompiledPolicy, switch: NodeId) -> String {
    emit_with(cp, switch, &mut Vec::new())
}

/// [`emit_switch_program`] with `ports` as scratch for the port map, so
/// that [`emit_all`] reuses one buffer across its programs.
fn emit_with(cp: &CompiledPolicy, switch: NodeId, ports: &mut Vec<NodeId>) -> String {
    let prog = &cp.programs[&switch];
    let next_pg_node = cp.next_pg_node(switch);
    let pg = &cp.pg;
    let metrics = cp.basis.attrs();
    // The multicast groups: the tags with a probe fan-out, in tag order.
    let groups = || prog.tags.iter().filter(|&v| !pg.succs(v).is_empty());

    // Port numbering: neighbours in node-id order (see `port_of`).
    ports.clear();
    let fanout = prog.tags.iter().flat_map(|v| pg.succs(v));
    ports.extend(fanout.map(|&w| pg.vnode(w).switch));
    ports.extend(next_pg_node.iter().map(|&(v, _)| pg.vnode(v).switch));
    ports.sort_unstable();
    ports.dedup();

    let dests = cp.destinations.len().max(1);
    let tags = prog.tags.len().max(1);
    let pids = cp.num_pids().max(1);
    let fwdt_size = dests * tags * pids;

    // The returned text is the one heap block a program costs (the port
    // map's buffer is the caller's, the metric basis is walked in place),
    // and it is sized so that none of the 1,710 programs the
    // `policy_ladder` workload emits grows it: 500 bytes cover the header
    // comments with a policy of about 100 characters.
    let group_count = groups().count();
    let members: usize = prog.tags.iter().map(|v| pg.succs(v).len()).sum();
    let mut out = String::with_capacity(
        FIXED_LEN
            + 500
            + 240 * cp.basis.len()
            + 46 * next_pg_node.len()
            + 80 * group_count
            + 40 * members
            + 14 * ports.len(),
    );
    let o = &mut out;

    o.push_str("// Contra-generated P4_16 program for switch sw (node ");
    push_num(o, switch.0 as usize);
    o.push_str(")\n// policy: ");
    write!(o, "{}", cp.policy).expect("writing to a String cannot fail");
    o.push_str("\n// tags: ");
    push_num(o, tags);
    o.push_str(", pids: ");
    push_num(o, pids);
    o.push_str(", destinations: ");
    push_num(o, dests);
    o.push_str(", metric basis: [");
    for (i, m) in metrics.clone().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        o.push_str(metric_text(m).name);
    }
    o.push_str("]\n");
    o.push_str(PRELUDE);
    o.push_str(FWDT_SIZE_DECL);
    push_num(o, fwdt_size);
    o.push_str(";\nconst bit<32> BEST_SIZE = ");
    push_num(o, dests);
    o.push_str(";\nconst bit<32> FLOWLET_SIZE = ");
    push_num(o, FLOWLET_ENTRIES);
    o.push_str(";\nconst bit<32> LOOP_SIZE = ");
    push_num(o, LOOP_ENTRIES);
    o.push_str(";\n\n");

    o.push_str(HEADERS);
    for m in metrics.clone() {
        o.push_str(metric_text(m).field);
    }
    o.push_str(PARSER);
    for m in metrics.clone() {
        o.push_str(metric_text(m).register);
    }
    o.push_str(REGISTERS_AND_NEXTPGNODE);
    if !next_pg_node.is_empty() {
        o.push_str("        const entries = {\n");
        for (from, to) in next_pg_node {
            o.push_str("            ");
            push_num(o, from.0 as usize);
            o.push_str(": set_next_pg_node(");
            push_num(o, to.0 as usize);
            o.push_str(");\n");
        }
        o.push_str("        }\n");
    }
    o.push_str(PROBE_MULTICAST);
    if group_count > 0 {
        o.push_str("        const entries = {\n");
        for (i, v) in groups().enumerate() {
            o.push_str("            ");
            push_num(o, v.0 as usize);
            o.push_str(": set_probe_mcast(");
            push_num(o, i + 1);
            o.push_str(");\n");
        }
        o.push_str("        }\n");
    }
    o.push_str(INGRESS_APPLY);
    for m in metrics.clone() {
        o.push_str(metric_text(m).ingress);
    }
    o.push_str(INGRESS_REST_AND_MAIN);

    // ---- control-plane companion data ------------------------------------
    for (i, v) in groups().enumerate() {
        o.push_str("// mcast-group ");
        push_num(o, i + 1);
        o.push_str(" (vnode ");
        push_num(o, v.0 as usize);
        o.push_str("): ");
        for (j, &w) in pg.succs(v).iter().enumerate() {
            let n = pg.vnode(w).switch;
            o.push_str(if j > 0 { ", port " } else { "port " });
            push_num(o, port_of(ports, n));
            o.push_str(" (to node ");
            push_num(o, n.0 as usize);
            o.push_str(", vnode ");
            push_num(o, w.0 as usize);
            o.push(')');
        }
        o.push('\n');
    }
    if let Some(v0) = prog.sending_vnode {
        o.push_str("// probe origin: vnode ");
        push_num(o, v0.0 as usize);
        o.push_str(" every probe period, one probe per pid (0..");
        push_num(o, pids - 1);
        o.push_str(")\n");
    }
    // The port map, as the `Debug` of a list of strings: `["4→1", "7→2"]`.
    o.push_str("// ports: [");
    for (i, n) in ports.iter().enumerate() {
        o.push_str(if i > 0 { ", \"" } else { "\"" });
        push_num(o, n.0 as usize);
        o.push('→');
        push_num(o, i + 1);
        o.push('"');
    }
    o.push_str("]\n");
    out
}

/// Appends `n` in decimal.
fn push_num(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // ASCII digits are one-byte chars: no UTF-8 check to pass.
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// The port facing neighbour `n`: `ports` lists the neighbours in port
/// order, port 0 is the CPU's.
fn port_of(ports: &[NodeId], n: NodeId) -> usize {
    1 + ports.binary_search(&n).expect("a neighbour has a port")
}

/// What one carried metric writes, each a whole line or two.
struct MetricText {
    /// Its name in the header comment's basis (the `Debug` of [`Attr`]).
    name: &'static str,
    /// Its probe-header field.
    field: &'static str,
    /// Its `FwdT` register.
    register: &'static str,
    /// Its two lines in the probe branch of the ingress: the fold, as a
    /// comment, and the register write.
    ingress: &'static str,
}

const fn metric_text(a: Attr) -> MetricText {
    match a {
        Attr::Util => MetricText {
            name: "Util",
            field: "    bit<32> m_util;   // fixed-point metric\n",
            register: "register<bit<32>>(FWDT_SIZE) fwdt_m_util;\n",
            ingress:
                "            // m_util = max(m_util, port_util[smeta.ingress_port]) — bottleneck
            fwdt_m_util.write(meta.fwdt_index, hdr.probe.m_util);\n",
        },
        Attr::Lat => MetricText {
            name: "Lat",
            field: "    bit<32> m_lat;   // fixed-point metric\n",
            register: "register<bit<32>>(FWDT_SIZE) fwdt_m_lat;\n",
            ingress: "            // m_lat = m_lat + port_lat[smeta.ingress_port]
            fwdt_m_lat.write(meta.fwdt_index, hdr.probe.m_lat);\n",
        },
        Attr::Len => MetricText {
            name: "Len",
            field: "    bit<32> m_len;   // fixed-point metric\n",
            register: "register<bit<32>>(FWDT_SIZE) fwdt_m_len;\n",
            ingress: "            // m_len = m_len + 1
            fwdt_m_len.write(meta.fwdt_index, hdr.probe.m_len);\n",
        },
    }
}

/// The bytes of every program that the static blocks and the `FWDT_SIZE`
/// declaration write.
const FIXED_LEN: usize = PRELUDE.len()
    + FWDT_SIZE_DECL.len()
    + HEADERS.len()
    + PARSER.len()
    + REGISTERS_AND_NEXTPGNODE.len()
    + PROBE_MULTICAST.len()
    + INGRESS_APPLY.len()
    + INGRESS_REST_AND_MAIN.len();

/// The text the emitter pushes whole: the seven blocks and every metric's
/// lines. Each is written right after a line break and ends with one,
/// which is what lets `validate` take it by comparison instead of reading
/// it (see its module doc).
pub(crate) const STATIC_TEXT: [&str; 16] = {
    let [u, l, n] = [
        metric_text(Attr::Util),
        metric_text(Attr::Lat),
        metric_text(Attr::Len),
    ];
    [
        PRELUDE,
        HEADERS,
        PARSER,
        REGISTERS_AND_NEXTPGNODE,
        PROBE_MULTICAST,
        INGRESS_APPLY,
        INGRESS_REST_AND_MAIN,
        u.field,
        u.register,
        u.ingress,
        l.field,
        l.register,
        l.ingress,
        n.field,
        n.register,
        n.ingress,
    ]
};

/// After the header comments, up to the size constants.
const PRELUDE: &str = "#include <core.p4>
#include <v1model.p4>

typedef bit<9> port_t;
const bit<16> ETHERTYPE_CONTRA_DATA = 0x88B5;
const bit<16> ETHERTYPE_CONTRA_PROBE = 0x88B6;
";

/// Up to the value of `FWDT_SIZE`, which ends the line.
const FWDT_SIZE_DECL: &str = "const bit<32> FWDT_SIZE = ";

/// The headers, up to the probe header's metric fields.
const HEADERS: &str = "header ethernet_t {
    bit<48> dst_addr;
    bit<48> src_addr;
    bit<16> ether_type;
}
header contra_data_t {
    bit<16> dst_sw;   // destination switch id
    bit<16> tag;      // product-graph virtual node
    bit<8>  pid;      // probe subpolicy id
    bit<8>  ttl;
    bit<32> fid;      // flowlet hash
}
header contra_probe_t {
    bit<16> origin;   // probe-originating switch
    bit<8>  pid;
    bit<32> version;  // per-origin round number (§5.1)
    bit<16> tag;      // sender's virtual node
";

/// The rest of the headers and the parser, up to the per-metric `FwdT`
/// registers.
const PARSER: &str = "}
struct headers_t {
    ethernet_t ethernet;
    contra_data_t data;
    contra_probe_t probe;
}
struct meta_t {
    bit<16> local_tag;
    bit<32> fwdt_index;
    bit<1>  from_host;
}

parser ContraParser(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.ether_type) {
            ETHERTYPE_CONTRA_DATA: parse_data;
            ETHERTYPE_CONTRA_PROBE: parse_probe;
            default: accept;
        }
    }
    state parse_data {
        pkt.extract(hdr.data);
        transition accept;
    }
    state parse_probe {
        pkt.extract(hdr.probe);
        transition accept;
    }
}

// FwdT: one slot per (destination, tag, pid); dataplane-written.
";

/// The other registers and the ingress up to `NEXTPGNODE`'s entries.
const REGISTERS_AND_NEXTPGNODE: &str = "register<bit<32>>(FWDT_SIZE) fwdt_version;
register<bit<16>>(FWDT_SIZE) fwdt_ntag;
register<bit<9>>(FWDT_SIZE)  fwdt_nhop;
register<bit<48>>(FWDT_SIZE) fwdt_updated;
// BestT: per destination, the winning (tag, pid).
register<bit<16>>(BEST_SIZE) best_tag;
register<bit<8>>(BEST_SIZE)  best_pid;
// Policy-aware flowlet table (§5.3), keyed h(tag, pid, fid).
register<bit<9>>(FLOWLET_SIZE)  flowlet_nhop;
register<bit<16>>(FLOWLET_SIZE) flowlet_ntag;
register<bit<48>>(FLOWLET_SIZE) flowlet_ts;
// Loop detection (§5.5): TTL drift per packet hash.
register<bit<8>>(LOOP_SIZE)  loop_max_ttl;
register<bit<8>>(LOOP_SIZE)  loop_min_ttl;
register<bit<48>>(LOOP_SIZE) loop_ts;

control ContraIngress(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t smeta) {
    action drop() {
        mark_to_drop(smeta);
    }
    action set_next_pg_node(bit<16> tag) {
        meta.local_tag = tag;
    }

    // NEXTPGNODE (static product-graph edges into this switch).
    table next_pg_node {
        key = {
            hdr.probe.tag: exact;
        }
        actions = { set_next_pg_node; drop; }
        default_action = drop();
";

/// From the end of `NEXTPGNODE` to `probe_multicast`'s entries.
const PROBE_MULTICAST: &str = "    }

    action set_probe_mcast(bit<16> group) {
        smeta.mcast_grp = group;
    }
    // Probe re-multicast along product-graph edges (one group per local vnode).
    table probe_multicast {
        key = {
            meta.local_tag: exact;
        }
        actions = { set_probe_mcast; drop; }
        default_action = drop();
";

/// From the end of `probe_multicast` to the per-metric `FwdT` writes.
const INGRESS_APPLY: &str = "    }

    action forward(port_t port, bit<16> ntag) {
        smeta.egress_spec = port;
        hdr.data.tag = ntag;
        hdr.data.ttl = hdr.data.ttl - 1;
    }

    apply {
        if (hdr.probe.isValid()) {
            // PROCESSPROBE (Fig 7): map tag, fold ingress-port metrics,
            // version-check (§5.1), retention compare, register update,
            // then re-multicast. Index = h(origin, local_tag, pid).
            next_pg_node.apply();
            hash(meta.fwdt_index, HashAlgorithm.crc32, 32w0,
                 { hdr.probe.origin, meta.local_tag, hdr.probe.pid }, FWDT_SIZE);
";

/// The rest of the program, up to the control-plane comments.
const INGRESS_REST_AND_MAIN: &str = "            fwdt_version.write(meta.fwdt_index, hdr.probe.version);
            fwdt_ntag.write(meta.fwdt_index, hdr.probe.tag);
            fwdt_nhop.write(meta.fwdt_index, smeta.ingress_port);
            fwdt_updated.write(meta.fwdt_index, smeta.ingress_global_timestamp);
            hdr.probe.tag = meta.local_tag;
            probe_multicast.apply();
        }
        else if (hdr.data.isValid()) {
            // SWIFORWARDPKT with policy-aware flowlets (§5.3), failure
            // expiry (§5.4) and TTL-drift loop breaking (§5.5).
            if (meta.from_host == 1) {
                best_tag.read(hdr.data.tag, (bit<32>)hdr.data.dst_sw);
                best_pid.read(hdr.data.pid, (bit<32>)hdr.data.dst_sw);
            }
            hash(meta.fwdt_index, HashAlgorithm.crc32, 32w0,
                 { hdr.data.dst_sw, hdr.data.tag, hdr.data.pid }, FWDT_SIZE);
            bit<9> nhop;
            bit<16> ntag;
            fwdt_nhop.read(nhop, meta.fwdt_index);
            fwdt_ntag.read(ntag, meta.fwdt_index);
            forward(nhop, ntag);
        }
        else {
            drop();
        }
    }
}

control ContraEgress(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t smeta) {
    apply {
        // Probes carry updated metrics out; egress port utilization is
        // folded in by the traffic manager's counters.
    }
}
control ContraDeparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.data);
        pkt.emit(hdr.probe);
    }
}
control ContraVerifyChecksum(inout headers_t hdr, inout meta_t meta) {
    apply { }
}
control ContraComputeChecksum(inout headers_t hdr, inout meta_t meta) {
    apply { }
}

V1Switch(ContraParser(), ContraVerifyChecksum(), ContraIngress(), ContraEgress(), ContraComputeChecksum(), ContraDeparser()) main;

// ---- control-plane configuration (multicast groups) ----
";

/// Emits programs for every switch, keyed by switch name.
pub fn emit_all(cp: &CompiledPolicy, topo: &contra_topology::Topology) -> BTreeMap<String, String> {
    let mut ports = Vec::new();
    cp.programs
        .keys()
        .map(|&s| (topo.node(s).name.clone(), emit_with(cp, s, &mut ports)))
        .collect()
}
