//! The P4₁₆ emitter: one v1model program per switch.
//!
//! The generated program is the hardware rendering of what
//! `contra-dataplane` interprets in simulation — both are produced from
//! the same `SwitchProgram` IR, which is the repo's substitute for running
//! bmv2: the simulated behaviour *is* the behaviour the P4 encodes.
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
//! * ingress control mirroring Fig 7's `PROCESSPROBE`/`SWIFORWARDPKT`
//!   with the §5 refinements.

use crate::writer::CodeWriter;
use contra_core::{Attr, CompiledPolicy, VNodeId, FLOWLET_ENTRIES, LOOP_ENTRIES};
use contra_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// Emits the P4₁₆ program for one switch.
pub fn emit_switch_program(cp: &CompiledPolicy, switch: NodeId) -> String {
    let prog = &cp.programs[&switch];
    let metrics = cp.basis.attrs();

    // Port numbering: neighbours in node-id order (see `port_of`).
    let mut ports: Vec<NodeId> = prog
        .multicast
        .values()
        .flat_map(|v| v.iter().map(|&(n, _)| n))
        .collect();
    ports.extend(prog.next_pg_node.keys().map(|v| cp.pg.vnode(*v).switch));
    ports.sort_unstable();
    ports.dedup();

    let dests = cp.destinations.len().max(1);
    let tags = prog.tags.len().max(1);
    let pids = cp.num_pids().max(1);
    let fwdt_size = dests * tags * pids;

    // The fixed text is about 6.5 kB; the rest grows with the tables.
    let members: usize = prog.multicast.values().map(Vec::len).sum();
    let mut w = CodeWriter::with_capacity(
        6_800
            + 200 * metrics.len()
            + 44 * prog.next_pg_node.len()
            + 80 * prog.multicast.len()
            + 40 * members
            + 12 * ports.len(),
    );
    w.linef(format_args!(
        "// Contra-generated P4_16 program for switch sw (node {})",
        switch.0
    ));
    w.linef(format_args!("// policy: {}", cp.policy));
    w.linef(format_args!(
        "// tags: {tags}, pids: {pids}, destinations: {dests}, metric basis: {metrics:?}"
    ));
    w.line("#include <core.p4>");
    w.line("#include <v1model.p4>");
    w.blank();
    w.line("typedef bit<9> port_t;");
    w.line("const bit<16> ETHERTYPE_CONTRA_DATA = 0x88B5;");
    w.line("const bit<16> ETHERTYPE_CONTRA_PROBE = 0x88B6;");
    w.linef(format_args!("const bit<32> FWDT_SIZE = {fwdt_size};"));
    w.linef(format_args!("const bit<32> BEST_SIZE = {dests};"));
    w.linef(format_args!(
        "const bit<32> FLOWLET_SIZE = {FLOWLET_ENTRIES};"
    ));
    w.linef(format_args!("const bit<32> LOOP_SIZE = {LOOP_ENTRIES};"));
    w.blank();

    // ---- headers -------------------------------------------------------
    w.open("header ethernet_t {");
    w.line("bit<48> dst_addr;");
    w.line("bit<48> src_addr;");
    w.line("bit<16> ether_type;");
    w.close("}");
    w.open("header contra_data_t {");
    w.line("bit<16> dst_sw;   // destination switch id");
    w.line("bit<16> tag;      // product-graph virtual node");
    w.line("bit<8>  pid;      // probe subpolicy id");
    w.line("bit<8>  ttl;");
    w.line("bit<32> fid;      // flowlet hash");
    w.close("}");
    w.open("header contra_probe_t {");
    w.line("bit<16> origin;   // probe-originating switch");
    w.line("bit<8>  pid;");
    w.line("bit<32> version;  // per-origin round number (§5.1)");
    w.line("bit<16> tag;      // sender's virtual node");
    for m in &metrics {
        w.linef(format_args!(
            "bit<32> m_{};   // fixed-point metric",
            attr_field(*m)
        ));
    }
    w.close("}");
    w.open("struct headers_t {");
    w.line("ethernet_t ethernet;");
    w.line("contra_data_t data;");
    w.line("contra_probe_t probe;");
    w.close("}");
    w.open("struct meta_t {");
    w.line("bit<16> local_tag;");
    w.line("bit<32> fwdt_index;");
    w.line("bit<1>  from_host;");
    w.close("}");
    w.blank();

    // ---- parser --------------------------------------------------------
    w.open("parser ContraParser(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t smeta) {");
    w.open("state start {");
    w.line("pkt.extract(hdr.ethernet);");
    w.open("transition select(hdr.ethernet.ether_type) {");
    w.line("ETHERTYPE_CONTRA_DATA: parse_data;");
    w.line("ETHERTYPE_CONTRA_PROBE: parse_probe;");
    w.line("default: accept;");
    w.close("}");
    w.close("}");
    w.open("state parse_data {");
    w.line("pkt.extract(hdr.data);");
    w.line("transition accept;");
    w.close("}");
    w.open("state parse_probe {");
    w.line("pkt.extract(hdr.probe);");
    w.line("transition accept;");
    w.close("}");
    w.close("}");
    w.blank();

    // ---- registers (runtime tables, Fig 7 + §5) --------------------------
    w.line("// FwdT: one slot per (destination, tag, pid); dataplane-written.");
    for m in &metrics {
        w.linef(format_args!(
            "register<bit<32>>(FWDT_SIZE) fwdt_m_{};",
            attr_field(*m)
        ));
    }
    w.line("register<bit<32>>(FWDT_SIZE) fwdt_version;");
    w.line("register<bit<16>>(FWDT_SIZE) fwdt_ntag;");
    w.line("register<bit<9>>(FWDT_SIZE)  fwdt_nhop;");
    w.line("register<bit<48>>(FWDT_SIZE) fwdt_updated;");
    w.line("// BestT: per destination, the winning (tag, pid).");
    w.line("register<bit<16>>(BEST_SIZE) best_tag;");
    w.line("register<bit<8>>(BEST_SIZE)  best_pid;");
    w.line("// Policy-aware flowlet table (§5.3), keyed h(tag, pid, fid).");
    w.line("register<bit<9>>(FLOWLET_SIZE)  flowlet_nhop;");
    w.line("register<bit<16>>(FLOWLET_SIZE) flowlet_ntag;");
    w.line("register<bit<48>>(FLOWLET_SIZE) flowlet_ts;");
    w.line("// Loop detection (§5.5): TTL drift per packet hash.");
    w.line("register<bit<8>>(LOOP_SIZE)  loop_max_ttl;");
    w.line("register<bit<8>>(LOOP_SIZE)  loop_min_ttl;");
    w.line("register<bit<48>>(LOOP_SIZE) loop_ts;");
    w.blank();

    // ---- ingress -------------------------------------------------------
    w.open("control ContraIngress(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t smeta) {");
    w.open("action drop() {");
    w.line("mark_to_drop(smeta);");
    w.close("}");
    w.open("action set_next_pg_node(bit<16> tag) {");
    w.line("meta.local_tag = tag;");
    w.close("}");
    w.blank();
    w.line("// NEXTPGNODE (static product-graph edges into this switch).");
    w.open("table next_pg_node {");
    w.open("key = {");
    w.line("hdr.probe.tag: exact;");
    w.close("}");
    w.line("actions = { set_next_pg_node; drop; }");
    w.line("default_action = drop();");
    if !prog.next_pg_node.is_empty() {
        w.open("const entries = {");
        for (from, to) in &prog.next_pg_node {
            w.linef(format_args!("{}: set_next_pg_node({});", from.0, to.0));
        }
        w.close("}");
    }
    w.close("}");
    w.blank();
    w.open("action set_probe_mcast(bit<16> group) {");
    w.line("smeta.mcast_grp = group;");
    w.close("}");
    w.line("// Probe re-multicast along product-graph edges (one group per local vnode).");
    w.open("table probe_multicast {");
    w.open("key = {");
    w.line("meta.local_tag: exact;");
    w.close("}");
    w.line("actions = { set_probe_mcast; drop; }");
    w.line("default_action = drop();");
    if !prog.multicast.is_empty() {
        w.open("const entries = {");
        for (i, v) in prog.multicast.keys().enumerate() {
            w.linef(format_args!("{}: set_probe_mcast({});", v.0, i + 1));
        }
        w.close("}");
    }
    w.close("}");
    w.blank();
    w.open("action forward(port_t port, bit<16> ntag) {");
    w.line("smeta.egress_spec = port;");
    w.line("hdr.data.tag = ntag;");
    w.line("hdr.data.ttl = hdr.data.ttl - 1;");
    w.close("}");
    w.blank();
    w.open("apply {");
    w.open("if (hdr.probe.isValid()) {");
    w.line("// PROCESSPROBE (Fig 7): map tag, fold ingress-port metrics,");
    w.line("// version-check (§5.1), retention compare, register update,");
    w.line("// then re-multicast. Index = h(origin, local_tag, pid).");
    w.line("next_pg_node.apply();");
    w.line("hash(meta.fwdt_index, HashAlgorithm.crc32, 32w0,");
    w.line("     { hdr.probe.origin, meta.local_tag, hdr.probe.pid }, FWDT_SIZE);");
    for m in &metrics {
        let f = attr_field(*m);
        match m {
            Attr::Util => w.linef(format_args!(
                "// m_{f} = max(m_{f}, port_util[smeta.ingress_port]) — bottleneck"
            )),
            Attr::Lat => w.linef(format_args!(
                "// m_{f} = m_{f} + port_lat[smeta.ingress_port]"
            )),
            Attr::Len => w.linef(format_args!("// m_{f} = m_{f} + 1")),
        }
        w.linef(format_args!(
            "fwdt_m_{f}.write(meta.fwdt_index, hdr.probe.m_{f});"
        ));
    }
    w.line("fwdt_version.write(meta.fwdt_index, hdr.probe.version);");
    w.line("fwdt_ntag.write(meta.fwdt_index, hdr.probe.tag);");
    w.line("fwdt_nhop.write(meta.fwdt_index, smeta.ingress_port);");
    w.line("fwdt_updated.write(meta.fwdt_index, smeta.ingress_global_timestamp);");
    w.line("hdr.probe.tag = meta.local_tag;");
    w.line("probe_multicast.apply();");
    w.close("}");
    w.open("else if (hdr.data.isValid()) {");
    w.line("// SWIFORWARDPKT with policy-aware flowlets (§5.3), failure");
    w.line("// expiry (§5.4) and TTL-drift loop breaking (§5.5).");
    w.line("if (meta.from_host == 1) {");
    w.line("    best_tag.read(hdr.data.tag, (bit<32>)hdr.data.dst_sw);");
    w.line("    best_pid.read(hdr.data.pid, (bit<32>)hdr.data.dst_sw);");
    w.line("}");
    w.line("hash(meta.fwdt_index, HashAlgorithm.crc32, 32w0,");
    w.line("     { hdr.data.dst_sw, hdr.data.tag, hdr.data.pid }, FWDT_SIZE);");
    w.line("bit<9> nhop;");
    w.line("bit<16> ntag;");
    w.line("fwdt_nhop.read(nhop, meta.fwdt_index);");
    w.line("fwdt_ntag.read(ntag, meta.fwdt_index);");
    w.line("forward(nhop, ntag);");
    w.close("}");
    w.open("else {");
    w.line("drop();");
    w.close("}");
    w.close("}");
    w.close("}");
    w.blank();

    // ---- egress + plumbing ----------------------------------------------
    w.open("control ContraEgress(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t smeta) {");
    w.open("apply {");
    w.line("// Probes carry updated metrics out; egress port utilization is");
    w.line("// folded in by the traffic manager's counters.");
    w.close("}");
    w.close("}");
    w.open("control ContraDeparser(packet_out pkt, in headers_t hdr) {");
    w.open("apply {");
    w.line("pkt.emit(hdr.ethernet);");
    w.line("pkt.emit(hdr.data);");
    w.line("pkt.emit(hdr.probe);");
    w.close("}");
    w.close("}");
    w.open("control ContraVerifyChecksum(inout headers_t hdr, inout meta_t meta) {");
    w.line("apply { }");
    w.close("}");
    w.open("control ContraComputeChecksum(inout headers_t hdr, inout meta_t meta) {");
    w.line("apply { }");
    w.close("}");
    w.blank();
    w.line("V1Switch(ContraParser(), ContraVerifyChecksum(), ContraIngress(), ContraEgress(), ContraComputeChecksum(), ContraDeparser()) main;");
    w.blank();

    // ---- control-plane companion data ------------------------------------
    w.line("// ---- control-plane configuration (multicast groups) ----");
    for (i, (v, targets)) in prog.multicast.iter().enumerate() {
        w.linef(format_args!(
            "// mcast-group {} (vnode {}): {}",
            i + 1,
            v.0,
            Members {
                targets,
                ports: &ports
            }
        ));
    }
    if let Some(v0) = prog.sending_vnode {
        w.linef(format_args!(
            "// probe origin: vnode {} every probe period, one probe per pid (0..{})",
            v0.0,
            pids - 1
        ));
    }
    w.linef(format_args!("// ports: {}", PortMap(&ports)));
    w.finish()
}

/// The port facing neighbour `n`: `ports` lists the neighbours in port
/// order, port 0 is the CPU's.
fn port_of(ports: &[NodeId], n: NodeId) -> usize {
    1 + ports.binary_search(&n).expect("a neighbour has a port")
}

/// One multicast group's members as the control-plane block lists them:
/// `port 1 (to node 4, vnode 9), port 2 (…)`.
struct Members<'a> {
    targets: &'a [(NodeId, VNodeId)],
    ports: &'a [NodeId],
}

impl fmt::Display for Members<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(n, w)) in self.targets.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let port = port_of(self.ports, n);
            write!(f, "{sep}port {port} (to node {}, vnode {})", n.0, w.0)?;
        }
        Ok(())
    }
}

/// The port map, written as the `Debug` of a list of strings:
/// `["4→1", "7→2"]`.
struct PortMap<'a>(&'a [NodeId]);

impl fmt::Display for PortMap<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, n) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            write!(f, "{sep}\"{}→{}\"", n.0, i + 1)?;
        }
        f.write_str("]")
    }
}

fn attr_field(a: Attr) -> &'static str {
    match a {
        Attr::Util => "util",
        Attr::Lat => "lat",
        Attr::Len => "len",
    }
}

/// Emits programs for every switch, keyed by switch name.
pub fn emit_all(cp: &CompiledPolicy, topo: &contra_topology::Topology) -> BTreeMap<String, String> {
    cp.programs
        .keys()
        .map(|&s| (topo.node(s).name.clone(), emit_switch_program(cp, s)))
        .collect()
}
