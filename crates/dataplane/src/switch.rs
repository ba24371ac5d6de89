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
//!   `NEXTPGNODE` and the fan-out are read from the compiled policy where
//!   they lie ([`CompiledPolicy::next_pg_node`] and the product graph's
//!   successor rows), and so is the destination numbering FwdT and BestT
//!   are indexed by ([`CompiledPolicy::destination_index`], read once per
//!   probe or packet): a switch holds no copy of its program.
//! * `SWIFORWARDPKT` — stamp host-originated packets from `BestT`, then
//!   forward by `(dst, tag, pid)` through the policy-aware flowlet table
//!   (§5.3), expiring pins through silent (failed) next hops (§5.4) and
//!   breaking loops detected by TTL drift (§5.5).
//!
//! A [`ContraSwitch`] is three parts. Its *program view* is everything
//! fixed at install: the compiled policy (tags, `NEXTPGNODE`, fan-out,
//! destination numbering, rank functions), the switch, its probe-sending
//! virtual node, the probe size and the [`DataplaneConfig`]. Its *state*
//! is one plain value, [`SwitchState`]: the four tables, the §5.4 clock
//! and the §5.1 version, `Clone`, `Eq` and `Hash`, and nothing else. Its
//! *counters* are one [`SwitchCounters`], read off it through
//! [`SwitchLogic::counters`], which no state comparison reads.
//! The state holds no `f64` and no shared pointer: a row keeps its metric
//! vector only as the integer rank keys every reader compares, so equal
//! states route alike and −0.0 and +0.0 cannot split them.

use crate::tables::{
    BestTable, FlowletEntry, FlowletKey, FlowletTable, FwdEntry, FwdKey, FwdTable, LoopTable,
};
use contra_core::{
    CompiledPolicy, MetricVec, ProductGraph, RankKey, VNodeId, FLOWLET_ENTRIES, LOOP_ENTRIES,
};
use contra_sim::{
    silent, Packet, PacketKind, Probe, ProbeClock, SwitchCounters, SwitchCtx, SwitchLogic, Time,
    Verdict, EXPIRY_PERIODS, FLOWLET_TIMEOUT, PROBE_BASE_BYTES, PROBE_PERIOD,
};
use contra_topology::{NodeId, Topology};
use std::sync::Arc;

/// TTL drift (δ = maxttl − minttl) that triggers a flowlet flush (§5.5).
/// Must exceed the legitimate path-length spread.
pub const LOOP_DELTA_THRESHOLD: u8 = 6;

/// The runtime protocol's configuration, set by nothing outside this
/// crate: the timings [`DataplaneConfig::for_policy`] derives from the
/// compiled policy and the one table size an experiment sweeps
/// ([`crate::Contra::with_flowlet_slots`]).
///
/// ```compile_fail,E0616
/// # fn f(cp: &contra_core::CompiledPolicy) {
/// let mut cfg = contra_dataplane::DataplaneConfig::for_policy(cp);
/// cfg.probe_period = contra_sim::Time::ZERO; // below the §5.2 floor
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Probe generation period: [`PROBE_PERIOD`], or the §5.2 floor of
    /// 0.5 × max RTT where that is longer.
    pub(crate) probe_period: Time,
    /// Flowlet idle timeout ([`FLOWLET_TIMEOUT`], scaled with the period).
    pub(crate) flowlet_timeout: Time,
    /// Aging window for loop-detection rows.
    pub(crate) loop_age_out: Time,
    /// Register slots of the policy-aware flowlet table (rounded up to a
    /// power of two; [`FLOWLET_ENTRIES`], the emitted program's size,
    /// unless an experiment sweeps it). Like SRAM on the switch, the
    /// table never grows and each flowlet has one slot: a pin over
    /// another flowlet's live pin displaces it (counted as a live entry
    /// displaced, not fatal), and the displaced flowlet is routed afresh
    /// at its next packet. The modelled size is fixed at install; the
    /// host memory behind it is allocated at the table's first write.
    pub(crate) flowlet_slots: usize,
}

impl DataplaneConfig {
    /// The paper's timings, with the probe period raised to the compiled
    /// policy's §5.2 floor (0.5 × max switch RTT) when the topology
    /// demands it — WANs like Abilene need periods in milliseconds, not
    /// microseconds — and [`FLOWLET_ENTRIES`] flowlet slots.
    pub fn for_policy(cp: &CompiledPolicy) -> DataplaneConfig {
        let floor = Time(cp.min_probe_period_ns);
        let (probe_period, flowlet_timeout, loop_age_out) = if floor <= PROBE_PERIOD {
            (PROBE_PERIOD, FLOWLET_TIMEOUT, Time::ms(1))
        } else {
            // Scale the flowlet timeout with the probe period so WAN pins
            // outlive a probing round, as in the datacenter configuration.
            let scaled = |num: u64, den: u64| Time(floor.0.saturating_mul(num) / den);
            (floor, scaled(4, 5), scaled(4, 1))
        };
        DataplaneConfig {
            probe_period,
            flowlet_timeout,
            loop_age_out,
            flowlet_slots: FLOWLET_ENTRIES,
        }
    }

    /// The probe period every switch ticks at.
    pub fn probe_period(&self) -> Time {
        self.probe_period
    }
}

/// The neighbours probes at virtual node `v` go to: the switches of `v`'s
/// product-graph successors.
fn fanout_of(pg: &ProductGraph, v: VNodeId) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
    pg.succs(v).iter().map(|&w| pg.vnode(w).switch)
}

/// The protocol state of one Contra switch (Fig 7, §5): what its program
/// reads and writes, as one plain value, and nothing its compiled program
/// fixes. Two switches of one program whose states are equal forward
/// alike from here on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwitchState {
    /// `FwdT`.
    pub fwdt: FwdTable,
    /// `BestT`.
    pub best: BestTable,
    /// The policy-aware flowlet registers (§5.3).
    pub flowlets: FlowletTable,
    /// The TTL-drift loop registers (§5.5).
    pub loops: LoopTable,
    /// When each neighbour was last heard (§5.4).
    pub heard: ProbeClock,
    /// Own origin version counter (§5.1).
    pub version: u32,
}

/// One switch running the synthesized Contra program: its program view,
/// its [`SwitchState`] and its counters.
#[derive(Clone)]
pub struct ContraSwitch {
    pub(crate) cp: Arc<CompiledPolicy>,
    switch: NodeId,
    sending_vnode: Option<VNodeId>,
    /// Wire size of every probe of the policy.
    probe_size: u32,
    cfg: DataplaneConfig,
    state: SwitchState,
    counters: SwitchCounters,
}

impl ContraSwitch {
    /// Creates the switch program for `switch` of `topo`. Its static
    /// tables (`NEXTPGNODE`, the fan-out, the destination numbering) stay
    /// in the compiled policy and are read there; install allocates the
    /// §5.4 clock, one entry per neighbouring switch, and the FwdT, BestT,
    /// flowlet and loop storage appears at each table's first write.
    pub fn new(
        cp: Arc<CompiledPolicy>,
        topo: &Topology,
        switch: NodeId,
        cfg: DataplaneConfig,
    ) -> ContraSwitch {
        let prog = cp
            .programs
            .get(&switch)
            .unwrap_or_else(|| panic!("no compiled program for {switch}"));
        let tag_base = prog.tags.first().map_or(0, |v| v.0);
        let dests = cp.destinations.len();
        let state = SwitchState {
            fwdt: FwdTable::new(dests, VNodeId(tag_base), prog.tags.len(), cp.num_pids()),
            best: BestTable::with_rows(dests),
            flowlets: FlowletTable::with_slots(cfg.flowlet_slots),
            loops: LoopTable::with_slots(LOOP_ENTRIES),
            heard: ProbeClock::new(topo, switch),
            version: 0,
        };
        ContraSwitch {
            switch,
            sending_vnode: prog.sending_vnode,
            probe_size: PROBE_BASE_BYTES + cp.basis.probe_metric_bytes() as u32,
            state,
            counters: SwitchCounters::default(),
            cfg,
            cp,
        }
    }

    /// The protocol state: the tables the Fig 10 state model charges
    /// for (`dests × tags × pids` FwdT rows, `dests` BestT rows, the
    /// modelled register slots), the §5.4 clock and the version.
    pub fn state(&self) -> &SwitchState {
        &self.state
    }

    /// `dst`'s number among the policy's destinations: its FwdT and BestT
    /// row. `None` for a node that is no destination.
    #[inline]
    fn dest(&self, dst: NodeId) -> Option<u32> {
        let d = *self.cp.destination_index().get(dst.0 as usize)?;
        (d != u32::MAX).then_some(d)
    }

    fn expiry(&self) -> Time {
        Time(self.cfg.probe_period.0 * EXPIRY_PERIODS)
    }

    /// A row is valid until it expires or its next hop falls silent
    /// (§5.4). It was written when that hop was last heard, so the clock
    /// is read only once the row is older than the failure window.
    fn entry_valid(&self, e: &FwdEntry, now: Time) -> bool {
        let period = self.cfg.probe_period;
        now.saturating_sub(e.updated) <= self.expiry()
            && !(silent(e.updated, now, period) && self.state.heard.failed(e.nhop, now, period))
    }

    /// Recomputes the best row for destination number `dst` over all
    /// valid FwdT rows: the first minimum of the stored full keys, in
    /// `(tag, pid)` order.
    fn rescan_best(&mut self, dst: u32, now: Time) -> Option<FwdKey> {
        let mut best: Option<(&RankKey, FwdKey)> = None;
        for (k, e) in self.state.fwdt.rows_for(dst) {
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
                self.state.best.set(dst, k);
                Some(k)
            }
            None => {
                self.state.best.clear(dst);
                None
            }
        }
    }

    /// The validated BestT lookup used for host-originated packets.
    fn best_key(&mut self, dst: u32, now: Time) -> Option<FwdKey> {
        if let Some(k) = self.state.best.get(dst).copied() {
            if let Some(e) = self.state.fwdt.get(&k) {
                if self.entry_valid(e, now) && !e.full.is_inf() {
                    return Some(k);
                }
            }
        }
        self.rescan_best(dst, now)
    }

    /// `PROCESSPROBE`.
    fn process_probe(&mut self, ctx: &mut SwitchCtx<'_>, p: &Probe, from: NodeId) {
        let now = ctx.now;
        self.state.heard.heard(from, now);

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
        let next_pg = self.cp.next_pg_node(self.switch);
        let Ok(at) = next_pg.binary_search_by_key(&VNodeId(p.tag), |&(i, _)| i) else {
            return;
        };
        let n = next_pg[at].1;
        // Every probe origin is a destination: only destinations send.
        let Some(dst) = self.dest(p.origin) else {
            return;
        };
        // UPDATEMVEC: fold in this switch's egress toward the neighbor the
        // probe arrived from — the first link of the traffic path.
        let (util, lat) = ctx.util_lat_to(from);
        let mv = MetricVec::new(p.mv[0], p.mv[1], p.mv[2]).extend(util, lat);

        let key = FwdKey {
            dst,
            tag: n,
            pid: p.pid,
        };
        // Keyed at most once: against the incumbent's stored key when it
        // comes to that, else when the row is written.
        let mut retention = None;
        let accept = match self.state.fwdt.get(&key) {
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
                    *ours < e.retention || !self.entry_valid(e, now)
                }
            }
        };
        if !accept {
            return;
        }
        self.counters.table_updates += 1;
        let retention =
            retention.unwrap_or_else(|| self.cp.ranks.retention_key(p.pid as usize, &mv));
        self.state.fwdt.insert(
            key,
            FwdEntry {
                retention,
                full: self.cp.ranks.full_key(n, &mv),
                ntag: VNodeId(p.tag),
                nhop: from,
                version: p.version,
                updated: now,
            },
        );
        self.rescan_best(dst, now);

        // Re-multicast along product-graph edges with the updated vector
        // and our own tag, carrying the origin's version through (no
        // fan-out clone: probe processing is per-packet work).
        let probe = Probe {
            tag: n.0,
            mv: mv.raw(),
            ..*p
        };
        let fanout = fanout_of(&self.cp.pg, n);
        let sent = fanout.len() as u64;
        for nbr in fanout {
            ctx.send(
                nbr,
                Packet::probe(self.switch, nbr, probe, self.probe_size, now),
            );
        }
        self.counters.probes_sent += sent;
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
        let (delta, displaced) =
            (self.state.loops).observe(pkt.flow_hash, pkt.ttl, now, self.cfg.loop_age_out);
        self.counters.loops_displaced += u64::from(displaced);
        if delta >= LOOP_DELTA_THRESHOLD {
            self.state.flowlets.flush_fid(pkt.flow_hash);
            self.state.loops.reset(pkt.flow_hash);
            self.counters.loop_breaks += 1;
        }

        // Fig 7: packets fresh from a host are stamped from BestT. Only a
        // packet's source host injects it, so that is `fromHost`.
        let (dst, tag, pid) = if from == pkt.src_host {
            let dst = self.dest(pkt.dst_switch);
            match dst.and_then(|d| self.best_key(d, now)) {
                Some(k) => (Some(k.dst), k.tag, k.pid),
                None => return Verdict::NoRoute,
            }
        } else {
            (None, VNodeId(pkt.tag), pkt.pid)
        };

        // §5.3: policy-aware flowlet pinning, keyed (tag, pid, fid).
        let flkey = FlowletKey {
            tag,
            pid,
            fid: pkt.flow_hash,
        };
        if let Some((nhop, ntag)) =
            (self.state.flowlets).lookup_touch(flkey, now, self.cfg.flowlet_timeout)
        {
            if !self.state.heard.failed(nhop, now, self.cfg.probe_period) {
                pkt.tag = ntag.0;
                pkt.pid = pid;
                return Verdict::Forward(nhop);
            }
            // §5.4: next hop silent — expire every pin through it so
            // traffic reroutes now rather than at flowlet timeout (the
            // flush also undoes the speculative `last` refresh).
            self.state.flowlets.flush_nhop(nhop);
        }

        // A transit packet needs its destination's number only when no
        // pin holds.
        let Some(dst) = dst.or_else(|| self.dest(pkt.dst_switch)) else {
            return Verdict::NoRoute;
        };
        match self.state.fwdt.get(&FwdKey { dst, tag, pid }) {
            Some(e) if self.entry_valid(e, now) => {
                let (nhop, ntag) = (e.nhop, e.ntag);
                let pin = FlowletEntry {
                    nhop,
                    ntag,
                    last: now,
                };
                let displaced = (self.state.flowlets).pin(flkey, pin, self.cfg.flowlet_timeout);
                self.counters.flowlets_displaced += u64::from(displaced);
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
        self.state.version += 1;
        let now = ctx.now;
        let pids = self.cp.num_pids();
        let fanout = fanout_of(&self.cp.pg, v0);
        let sent = (pids * fanout.len()) as u64;
        for pid in 0..pids as u8 {
            let probe = Probe {
                origin: self.switch,
                pid,
                version: self.state.version,
                tag: v0.0,
                mv: MetricVec::zero().raw(),
            };
            for nbr in fanout.clone() {
                ctx.send(
                    nbr,
                    Packet::probe(self.switch, nbr, probe, self.probe_size, now),
                );
            }
        }
        self.counters.probes_sent += sent;
    }

    fn tick_interval(&self) -> Option<Time> {
        Some(self.cfg.probe_period)
    }

    fn counters(&self) -> SwitchCounters {
        self.counters
    }
}
