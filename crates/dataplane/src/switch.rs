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
//! * `SWIFORWARDPKT` — stamp host-originated packets from `BestT`, then
//!   forward by `(dst, tag, pid)` through the policy-aware flowlet table
//!   (§5.3), expiring pins through silent (failed) next hops (§5.4) and
//!   breaking loops detected by TTL drift (§5.5).

use crate::tables::{
    BestTable, FlowletEntry, FlowletKey, FlowletTable, FwdEntry, FwdKey, FwdTable, LoopTable,
};
use contra_core::{
    CompiledPolicy, MetricVec, Rank, SwitchProgram, VNodeId, FLOWLET_ENTRIES, LOOP_ENTRIES,
};
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
    cp: Arc<CompiledPolicy>,
    switch: NodeId,
    /// This switch's own copy of `cp.programs[&switch]`: its tables are
    /// read two to three times per probe, too often to search the
    /// per-switch map each time.
    prog: SwitchProgram,
    cfg: DataplaneConfig,
    fwdt: FwdTable,
    best: BestTable,
    flowlets: FlowletTable,
    loops: LoopTable,
    /// Last probe heard from each neighbor, indexed by node id (failure
    /// detection, §5.4; `Time::ZERO` = never heard). Consulted per packet,
    /// so it is a flat array, not a map.
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
    /// Creates the switch program for `switch`.
    pub fn new(cp: Arc<CompiledPolicy>, switch: NodeId, cfg: DataplaneConfig) -> ContraSwitch {
        let prog = cp
            .programs
            .get(&switch)
            .unwrap_or_else(|| panic!("no compiled program for {switch}"))
            .clone();
        let flowlet_slots = cfg.flowlet_slots;
        ContraSwitch {
            cp,
            switch,
            prog,
            cfg,
            fwdt: FwdTable::default(),
            best: BestTable::default(),
            flowlets: FlowletTable::with_slots(flowlet_slots),
            loops: LoopTable::with_slots(LOOP_ENTRIES),
            last_probe_from: Vec::new(),
            version: 0,
            probes_sent: 0,
            table_updates: 0,
        }
    }

    fn probe_size(&self) -> u32 {
        PROBE_BASE_BYTES + self.cp.basis.probe_metric_bytes() as u32
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

    fn note_probe_from(&mut self, from: NodeId, now: Time) {
        let i = from.0 as usize;
        if i >= self.last_probe_from.len() {
            self.last_probe_from.resize(i + 1, Time::ZERO);
        }
        self.last_probe_from[i] = now;
    }

    fn entry_valid(&self, e: &FwdEntry, now: Time) -> bool {
        now.saturating_sub(e.updated) <= self.expiry() && !self.nhop_failed(e.nhop, now)
    }

    /// Rank of a FwdT row under the *full* policy (the `s(·)` of Fig 7).
    fn full_rank_of(&self, key: &FwdKey, e: &FwdEntry) -> Rank {
        self.cp.full_rank(key.tag, &e.mv)
    }

    /// Retention order for FwdT updates: the subpolicy's rank with the hop
    /// count as final tie-break. Max-combined metrics produce *ties* (two
    /// paths sharing a bottleneck), and tied rows frozen by the
    /// strict-improvement rule can point at each other — a tie cycle the
    /// walk of next hops never escapes. Probes always carry `len` (the
    /// paper notes Contra "carr[ies] the path length as well as the
    /// utilization"), and breaking ties toward shorter paths makes every
    /// next-hop chain strictly length-decreasing, hence cycle-free, while
    /// choosing only among retention-equivalent (equally good) paths.
    fn retention_key(&self, pid: u8, mv: &MetricVec) -> (Rank, u64) {
        (
            self.cp.retention_rank(pid as usize, mv),
            mv.get(contra_core::Attr::Len) as u64,
        )
    }

    /// Recomputes the best row for `dst` over all valid FwdT rows.
    fn rescan_best(&mut self, dst: NodeId, now: Time) -> Option<FwdKey> {
        let mut best: Option<(Rank, FwdKey)> = None;
        for (k, e) in self.fwdt.rows_for(dst) {
            if !self.entry_valid(e, now) {
                continue;
            }
            let r = self.full_rank_of(k, e);
            if r.is_inf() {
                continue;
            }
            match &best {
                Some((br, _)) if *br <= r => {}
                _ => best = Some((r, *k)),
            }
        }
        match best {
            Some((_, k)) => {
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
    pub fn best_key(&mut self, dst: NodeId, now: Time) -> Option<FwdKey> {
        if let Some(k) = self.best.get(dst).copied() {
            if let Some(e) = self.fwdt.get(&k) {
                if self.entry_valid(e, now) && !self.full_rank_of(&k, e).is_inf() {
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

    /// Raw FwdT lookup (protocol test harnesses).
    pub fn fwd_lookup(&self, key: &FwdKey) -> Option<&FwdEntry> {
        self.fwdt.get(key)
    }

    /// `PROCESSPROBE`.
    fn process_probe(&mut self, ctx: &mut SwitchCtx<'_>, p: &Probe, from: NodeId) {
        let now = ctx.now;
        // Any probe from `from` proves the cable is alive.
        self.note_probe_from(from, now);

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
        let Some(&n) = self.prog.next_pg_node.get(&VNodeId(p.tag)) else {
            return;
        };
        // UPDATEMVEC: fold in this switch's egress toward the neighbor the
        // probe arrived from — the first link of the traffic path.
        let mv =
            MetricVec::new(p.mv[0], p.mv[1], p.mv[2]).extend(ctx.util_to(from), ctx.lat_to(from));

        let key = FwdKey {
            dst: p.origin,
            tag: n,
            pid: p.pid,
        };
        // Ranked at most once: against the incumbent's stored key when it
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
                    // Strict improvement (Fig 7's f-comparison, with the
                    // hop-count tie-break) or, as a last resort, an
                    // incumbent that has gone silent or outlived the
                    // metric-expiration window — accept whatever is
                    // fresh (§5.4).
                    let ours = retention.insert(self.retention_key(p.pid, &mv));
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
        let retention = retention.unwrap_or_else(|| self.retention_key(p.pid, &mv));
        self.fwdt.insert(
            key,
            FwdEntry {
                mv,
                retention,
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
        if let Some(fanout) = self.prog.multicast.get(&n) {
            let probe = Probe {
                tag: n.0,
                mv: mv.raw(),
                ..*p
            };
            let size = self.probe_size();
            for &(nbr, _w) in fanout {
                ctx.send(nbr, Packet::probe(self.switch, nbr, probe, size, now));
            }
            self.probes_sent += fanout.len() as u64;
        }
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

        // Fig 7: packets fresh from a host are stamped from BestT.
        let (tag, pid) = if !ctx.is_switch(from) {
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
        let Some(v0) = self.prog.sending_vnode else {
            return;
        };
        self.version += 1;
        let now = ctx.now;
        let Some(fanout) = self.prog.multicast.get(&v0) else {
            return;
        };
        let pids = self.cp.num_pids();
        let size = self.probe_size();
        for pid in 0..pids as u8 {
            let probe = Probe {
                origin: self.switch,
                pid,
                version: self.version,
                tag: v0.0,
                mv: MetricVec::zero().raw(),
            };
            for &(nbr, _w) in fanout {
                ctx.send(nbr, Packet::probe(self.switch, nbr, probe, size, now));
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
