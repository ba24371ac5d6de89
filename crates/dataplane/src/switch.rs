//! The Contra switch: the runtime interpretation of one synthesized
//! per-device program (Fig 7, refined per §5).
//!
//! Responsibilities, in paper order:
//!
//! * `INITPROBE`/`MULTICASTPROBE` — originate versioned probes every probe
//!   period for every decomposed subpolicy (`pid`), starting at this
//!   switch's probe-sending virtual node.
//! * `PROCESSPROBE` — map the incoming tag through `NEXTPGNODE`, fold the
//!   arrival port's utilization/latency into the metric vector, update
//!   `FwdT` under the version discipline of §5.1 (newer version always
//!   wins; same version must improve the retention rank), refresh `BestT`,
//!   and re-multicast along product-graph edges.
//!
//!   Ranks are compared as machine words: the compiled policy's
//!   [`contra_core::RankProgram`] turns a metric vector into a
//!   [`RankKey`] ordered as the policy's rank, and a row stores its
//!   retention key and its full-policy key from the moment it is written,
//!   so a rejected probe costs one key and a BestT rescan costs none.
//!   `NEXTPGNODE` and the fan-out are sorted arrays built at install.
//! * `SWIFORWARDPKT` — stamp host-originated packets from `BestT`, then
//!   forward by `(dst, tag, pid)` through the policy-aware flowlet table
//!   (§5.3), expiring pins through silent (failed) next hops (§5.4) and
//!   breaking loops detected by TTL drift (§5.5).

use crate::tables::{
    BestTable, FlowletEntry, FlowletKey, FlowletTable, FwdEntry, FwdKey, FwdTable, LoopTable,
};
use contra_core::{CompiledPolicy, MetricVec, RankKey, VNodeId, FLOWLET_ENTRIES, LOOP_ENTRIES};
use contra_sim::{
    Packet, PacketKind, Probe, SwitchCtx, SwitchLogic, Time, Verdict, EXPIRY_PERIODS,
    FAILURE_PERIODS, FLOWLET_TIMEOUT, PROBE_BASE_BYTES, PROBE_PERIOD,
};
use contra_topology::NodeId;
use std::sync::Arc;

/// TTL drift (δ = maxttl − minttl) that triggers a flowlet flush (§5.5).
/// Must exceed the legitimate path-length spread.
const LOOP_DELTA_THRESHOLD: u8 = 6;

/// Tunables of the runtime protocol: the timings
/// [`DataplaneConfig::for_policy`] derives from the compiled policy, and
/// the one table size an experiment sweeps. Paper values as defaults.
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Probe generation period ([`PROBE_PERIOD`]; must respect the §5.2
    /// floor of 0.5 × max RTT — see [`DataplaneConfig::for_policy`]).
    pub probe_period: Time,
    /// Flowlet idle timeout ([`FLOWLET_TIMEOUT`]).
    pub flowlet_timeout: Time,
    /// Aging window for loop-detection rows.
    pub loop_age_out: Time,
    /// Register slots of the policy-aware flowlet table (rounded up to a
    /// power of two; [`FLOWLET_ENTRIES`], the emitted program's size,
    /// unless an experiment sweeps it). Like SRAM on the switch, the
    /// table never grows: exceeding it makes flowlets alias (counted,
    /// not fatal).
    pub flowlet_slots: usize,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            probe_period: PROBE_PERIOD,
            flowlet_timeout: FLOWLET_TIMEOUT,
            loop_age_out: Time::ms(1),
            flowlet_slots: FLOWLET_ENTRIES,
        }
    }
}

impl DataplaneConfig {
    /// Defaults with the probe period raised to the compiled policy's §5.2
    /// floor (0.5 × max switch RTT) when the topology demands it — WANs
    /// like Abilene need periods in milliseconds, not microseconds.
    pub fn for_policy(cp: &CompiledPolicy) -> DataplaneConfig {
        let mut cfg = DataplaneConfig::default();
        let floor = Time(cp.min_probe_period_ns);
        if cfg.probe_period < floor {
            cfg.probe_period = floor;
            // Scale the flowlet timeout with the probe period so WAN pins
            // outlive a probing round, as in the datacenter configuration.
            cfg.flowlet_timeout = Time(floor.0.saturating_mul(4) / 5);
            cfg.loop_age_out = Time(floor.0.saturating_mul(4));
        }
        cfg
    }
}

/// One switch running the synthesized Contra program.
pub struct ContraSwitch {
    pub(crate) cp: Arc<CompiledPolicy>,
    switch: NodeId,
    /// `NEXTPGNODE`, sorted by incoming probe tag: `(incoming tag, this
    /// switch's virtual node)`.
    next_pg: Vec<(VNodeId, VNodeId)>,
    /// The switch's first virtual node: tag `t` is `VNodeId(tag_base + t)`.
    tag_base: u32,
    /// Probe fan-out of tag `t`: `fanout[fan_first[t]..fan_first[t + 1]]`.
    fan_first: Vec<u32>,
    fanout: Vec<NodeId>,
    sending_vnode: Option<VNodeId>,
    /// Wire size of every probe of the policy.
    probe_size: u32,
    cfg: DataplaneConfig,
    fwdt: FwdTable,
    best: BestTable,
    flowlets: FlowletTable,
    loops: LoopTable,
    /// Last probe heard from each neighbor, indexed by node id (failure
    /// detection, §5.4; `Time::ZERO` = never heard), sized at install to
    /// the highest switch id. Consulted per packet, so it is a flat
    /// array, not a map.
    last_probe_from: Vec<Time>,
    /// Own origin version counter (§5.1).
    version: u32,
    /// Probes originated + forwarded (overhead accounting in tests).
    pub probes_sent: u64,
    /// Forwarding-table writes (accepted probe updates) — control-plane
    /// churn, sampled by the telemetry recorder.
    pub table_updates: u64,
}

impl ContraSwitch {
    /// Creates the switch program for `switch`, flattening its static
    /// tables (`NEXTPGNODE`, the fan-out) into sorted arrays.
    pub fn new(cp: Arc<CompiledPolicy>, switch: NodeId, cfg: DataplaneConfig) -> ContraSwitch {
        let prog = cp
            .programs
            .get(&switch)
            .unwrap_or_else(|| panic!("no compiled program for {switch}"));
        let tag_base = prog.tags.first().map_or(0, |v| v.0);
        debug_assert!(
            (prog.tags.iter()).zip(tag_base..).all(|(v, id)| v.0 == id),
            "a switch's virtual nodes have consecutive ids"
        );
        let mut fan_first = Vec::with_capacity(prog.tags.len() + 1);
        let mut fanout = Vec::new();
        fan_first.push(0);
        for v in &prog.tags {
            let to = prog.multicast.get(v).into_iter().flatten();
            fanout.extend(to.map(|&(nbr, _)| nbr));
            fan_first.push(fanout.len() as u32);
        }
        let switches = cp
            .programs
            .keys()
            .next_back()
            .map_or(0, |n| n.0 as usize + 1);
        ContraSwitch {
            switch,
            next_pg: prog.next_pg_node.iter().map(|(&i, &v)| (i, v)).collect(),
            tag_base,
            fan_first,
            fanout,
            sending_vnode: prog.sending_vnode,
            probe_size: PROBE_BASE_BYTES + cp.basis.probe_metric_bytes() as u32,
            fwdt: FwdTable::new(
                &cp.destinations,
                VNodeId(tag_base),
                prog.tags.len(),
                cp.num_pids(),
            ),
            best: BestTable::default(),
            flowlets: FlowletTable::with_slots(cfg.flowlet_slots),
            loops: LoopTable::with_slots(LOOP_ENTRIES),
            last_probe_from: vec![Time::ZERO; switches],
            version: 0,
            probes_sent: 0,
            table_updates: 0,
            cfg,
            cp,
        }
    }

    /// The neighbours probes at this switch's virtual node `v` go to.
    fn fanout_of(&self, v: VNodeId) -> &[NodeId] {
        let t = (v.0 - self.tag_base) as usize;
        &self.fanout[self.fan_first[t] as usize..self.fan_first[t + 1] as usize]
    }

    fn expiry(&self) -> Time {
        Time(self.cfg.probe_period.0 * EXPIRY_PERIODS)
    }

    /// §5.4: a next hop is considered failed when no probe has arrived
    /// from it for [`FAILURE_PERIODS`] probe periods.
    fn nhop_failed(&self, nhop: NodeId, now: Time) -> bool {
        let last = self
            .last_probe_from
            .get(nhop.0 as usize)
            .copied()
            .unwrap_or(Time::ZERO);
        now.saturating_sub(last) > Time(self.cfg.probe_period.0 * FAILURE_PERIODS)
    }

    fn entry_valid(&self, e: &FwdEntry, now: Time) -> bool {
        now.saturating_sub(e.updated) <= self.expiry() && !self.nhop_failed(e.nhop, now)
    }

    /// Recomputes the best row for `dst` over all valid FwdT rows: the
    /// first minimum of the stored full keys, in `(tag, pid)` order.
    fn rescan_best(&mut self, dst: NodeId, now: Time) -> Option<FwdKey> {
        let mut best: Option<(&RankKey, FwdKey)> = None;
        for (k, e) in self.fwdt.rows_for(dst) {
            if !self.entry_valid(e, now) || e.full.is_inf() {
                continue;
            }
            match best {
                Some((b, _)) if *b <= e.full => {}
                _ => best = Some((&e.full, k)),
            }
        }
        match best.map(|(_, k)| k) {
            Some(k) => {
                self.best.set(dst, k);
                Some(k)
            }
            None => {
                self.best.clear(dst);
                None
            }
        }
    }

    /// The validated BestT lookup used for host-originated packets.
    fn best_key(&mut self, dst: NodeId, now: Time) -> Option<FwdKey> {
        if let Some(k) = self.best.get(dst).copied() {
            if let Some(e) = self.fwdt.get(&k) {
                if self.entry_valid(e, now) && !e.full.is_inf() {
                    return Some(k);
                }
            }
        }
        self.rescan_best(dst, now)
    }

    /// Rows held in `(FwdT, BestT)` — what the Fig 10 state model charges
    /// `dests × tags × pids` and `dests` rows for.
    pub fn table_rows(&self) -> (usize, usize) {
        (self.fwdt.len(), self.best.len())
    }

    /// Slots allocated to the `(flowlet, loop)` register arrays.
    pub fn register_slots(&self) -> (usize, usize) {
        (self.flowlets.slots(), self.loops.slots())
    }

    /// `PROCESSPROBE`.
    fn process_probe(&mut self, ctx: &mut SwitchCtx<'_>, p: &Probe, from: NodeId) {
        let now = ctx.now;
        // Any probe from `from` proves the cable is alive.
        if let Some(last) = self.last_probe_from.get_mut(from.0 as usize) {
            *last = now;
        }

        // A probe that has looped back to its own origin describes a path
        // *through* the destination — but traffic is delivered on first
        // arrival at the destination switch, so such paths can never be
        // realized (and advertising them would let sources pick routes
        // whose real prefix violates the policy). Drop it.
        if p.origin == self.switch {
            return;
        }

        // NEXTPGNODE: probes whose tag cannot step into this switch's
        // pruned product graph die here — they cannot lead to any
        // finite-rank path.
        let Ok(at) = (self.next_pg).binary_search_by_key(&VNodeId(p.tag), |&(i, _)| i) else {
            return;
        };
        let n = self.next_pg[at].1;
        // UPDATEMVEC: fold in this switch's egress toward the neighbor the
        // probe arrived from — the first link of the traffic path.
        let (util, lat) = ctx.util_lat_to(from);
        let mv = MetricVec::new(p.mv[0], p.mv[1], p.mv[2]).extend(util, lat);

        let key = FwdKey {
            dst: p.origin,
            tag: n,
            pid: p.pid,
        };
        // Keyed at most once: against the incumbent's stored key when it
        // comes to that, else when the row is written.
        let mut retention = None;
        let accept = match self.fwdt.get(&key) {
            None => true,
            Some(e) => {
                if p.version < e.version {
                    // §5.1: outdated rounds are discarded outright — this is
                    // what breaks the Fig 4(b-e) persistent loop.
                    false
                } else if p.version > e.version && e.nhop == from {
                    // Fresh round from the *incumbent* next hop refreshes
                    // the row even if the metric worsened (otherwise stale
                    // good news would pin traffic forever). Restricting the
                    // unconditional take-over to the incumbent is what
                    // keeps rows from flapping to whichever probe of a new
                    // round happens to arrive first — an earlier version of
                    // this code accepted any newer-version probe and paid
                    // for it in transient loops and reordering every round.
                    true
                } else {
                    // Strict improvement (Fig 7's f-comparison, on the
                    // integer keys, with the hop-count tie-break) or, as a
                    // last resort, an incumbent that has gone silent or
                    // outlived the metric-expiration window — accept
                    // whatever is fresh (§5.4).
                    let ours = retention.insert(self.cp.ranks.retention_key(p.pid as usize, &mv));
                    *ours < e.retention
                        || self.nhop_failed(e.nhop, now)
                        || now.saturating_sub(e.updated) > self.expiry()
                }
            }
        };
        if !accept {
            return;
        }
        self.table_updates += 1;
        let retention =
            retention.unwrap_or_else(|| self.cp.ranks.retention_key(p.pid as usize, &mv));
        self.fwdt.insert(
            key,
            FwdEntry {
                mv,
                retention,
                full: self.cp.ranks.full_key(n, &mv),
                ntag: VNodeId(p.tag),
                nhop: from,
                version: p.version,
                updated: now,
            },
        );
        self.rescan_best(p.origin, now);

        // Re-multicast along product-graph edges with the updated vector
        // and our own tag, carrying the origin's version through (no
        // fan-out clone: probe processing is per-packet work).
        let probe = Probe {
            tag: n.0,
            mv: mv.raw(),
            ..*p
        };
        let fanout = self.fanout_of(n);
        for &nbr in fanout {
            ctx.send(
                nbr,
                Packet::probe(self.switch, nbr, probe, self.probe_size, now),
            );
        }
        self.probes_sent += fanout.len() as u64;
    }

    /// `SWIFORWARDPKT` with policy-aware flowlets, failure expiry and loop
    /// breaking: re-stamps `tag`/`pid` in the header and picks the port.
    fn forward(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, from: NodeId) -> Verdict {
        let now = ctx.now;
        if pkt.dst_switch == ctx.switch {
            return Verdict::Forward(pkt.dst_host);
        }

        // §5.5: TTL-drift loop detection. δ grows without bound only when
        // packets of this flow(let) revisit this switch.
        let delta = self
            .loops
            .observe(pkt.flow_hash, pkt.ttl, now, self.cfg.loop_age_out);
        if delta >= LOOP_DELTA_THRESHOLD {
            self.flowlets.flush_fid(pkt.flow_hash);
            self.loops.reset(pkt.flow_hash);
            ctx.note_loop_break();
        }

        // Fig 7: packets fresh from a host are stamped from BestT. Only a
        // packet's source host injects it, so that is `fromHost`.
        let (tag, pid) = if from == pkt.src_host {
            match self.best_key(pkt.dst_switch, now) {
                Some(k) => (k.tag, k.pid),
                None => return Verdict::NoRoute,
            }
        } else {
            (VNodeId(pkt.tag), pkt.pid)
        };

        // §5.3: policy-aware flowlet pinning, keyed (tag, pid, fid).
        let flkey = FlowletKey {
            tag,
            pid,
            fid: pkt.flow_hash,
        };
        if let Some((nhop, ntag)) = self
            .flowlets
            .lookup_touch(flkey, now, self.cfg.flowlet_timeout)
        {
            if !self.nhop_failed(nhop, now) {
                pkt.tag = ntag.0;
                pkt.pid = pid;
                return Verdict::Forward(nhop);
            }
            // §5.4: next hop silent — expire every pin through it so
            // traffic reroutes now rather than at flowlet timeout (the
            // flush also undoes the speculative `last` refresh).
            self.flowlets.flush_nhop(nhop);
        }

        let key = FwdKey {
            dst: pkt.dst_switch,
            tag,
            pid,
        };
        match self.fwdt.get(&key) {
            Some(e) if self.entry_valid(e, now) => {
                let (nhop, ntag) = (e.nhop, e.ntag);
                self.flowlets.pin(
                    flkey,
                    FlowletEntry {
                        nhop,
                        ntag,
                        last: now,
                    },
                );
                pkt.tag = ntag.0;
                pkt.pid = pid;
                Verdict::Forward(nhop)
            }
            _ => Verdict::NoRoute,
        }
    }
}

impl SwitchLogic for ContraSwitch {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, from: NodeId) -> Verdict {
        if let PacketKind::Probe(p) = &pkt.kind {
            self.process_probe(ctx, p, from);
            return Verdict::Consume;
        }
        self.forward(ctx, pkt, from)
    }

    /// `INITPROBE`: originate one probe per subpolicy per period, tagged
    /// with the probe-sending virtual node and a fresh version.
    fn on_tick(&mut self, ctx: &mut SwitchCtx<'_>) {
        let Some(v0) = self.sending_vnode else {
            return;
        };
        self.version += 1;
        let now = ctx.now;
        let pids = self.cp.num_pids();
        let fanout = self.fanout_of(v0);
        for pid in 0..pids as u8 {
            let probe = Probe {
                origin: self.switch,
                pid,
                version: self.version,
                tag: v0.0,
                mv: MetricVec::zero().raw(),
            };
            for &nbr in fanout {
                ctx.send(
                    nbr,
                    Packet::probe(self.switch, nbr, probe, self.probe_size, now),
                );
            }
        }
        self.probes_sent += (pids * fanout.len()) as u64;
    }

    fn tick_interval(&self) -> Option<Time> {
        Some(self.cfg.probe_period)
    }

    fn register_collisions(&self) -> (u64, u64) {
        (self.flowlets.collisions(), self.loops.collisions())
    }

    fn control_churn(&self) -> (u64, u64) {
        (self.probes_sent, self.table_updates)
    }
}
