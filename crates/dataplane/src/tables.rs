//! Runtime tables of the synthesized switch programs.
//!
//! These are the mutable structures the paper's P4 programs keep in
//! registers/SRAM: the forwarding table `FwdT`, the best-choice table
//! `BestT`, the policy-aware flowlet table (§5.3) and the TTL-delta loop
//! detection table (§5.5). The static configuration (tags, `NEXTPGNODE`,
//! multicast fan-out) lives in `contra_core::SwitchProgram`.
//!
//! Layout follows the hardware the paper targets, not convenience maps:
//! `FwdT`/`BestT` are dense arrays indexed by destination (a Tofino match
//! table hits in O(1), and the software hot path gets the same by direct
//! indexing), while the flowlet and loop tables are **fixed-size
//! hash-indexed register arrays** with deterministic Fx hashing and a
//! bounded probe window. As on the switch, the arrays do not grow: when a
//! key's window holds no empty slot the oldest entry is overwritten and
//! the event is counted — hash collisions are a modeled artifact of the
//! design, not an error. Both arrays have the size the emitted program
//! declares and Fig 10 charges for: [`contra_core::FLOWLET_ENTRIES`] (the
//! default of [`crate::DataplaneConfig::flowlet_slots`]) and
//! [`contra_core::LOOP_ENTRIES`].

use contra_core::{MetricVec, Rank, VNodeId};
use contra_sim::{FxHasher64, Time};
use contra_topology::NodeId;
use std::hash::Hasher;

/// Key of a forwarding-table row: `[dst*, tag*, pid*]` in Fig 6(e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FwdKey {
    /// Traffic destination (a switch).
    pub dst: NodeId,
    /// Product-graph virtual node of *this* switch.
    pub tag: VNodeId,
    /// Probe subpolicy id.
    pub pid: u8,
}

/// Value of a forwarding-table row: `[mv, ntag, nhop]` plus the §5.1
/// version number and the update timestamp for metric expiration (§5.4).
#[derive(Debug, Clone)]
pub struct FwdEntry {
    /// Metric vector of the best known path through `nhop`.
    pub mv: MetricVec,
    /// The row's retention order — the subpolicy's rank of `mv`, then
    /// its hop count — kept beside it because every same-version probe
    /// is compared against the incumbent's, and most lose.
    pub retention: (Rank, u64),
    /// Tag to write into packets before sending (the next switch's vnode).
    pub ntag: VNodeId,
    /// The next hop itself.
    pub nhop: NodeId,
    /// Version of the probe that installed this entry.
    pub version: u32,
    /// When the entry was last refreshed.
    pub updated: Time,
}

/// The forwarding table of one switch: rows bucketed by destination in a
/// dense array (grown to the highest destination seen at install time),
/// each bucket sorted by `(tag, pid)` and binary-searched. Per-packet
/// lookups touch one contiguous bucket instead of walking a tree over
/// every `(dst, tag, pid)` triple on the switch.
#[derive(Debug, Default)]
pub struct FwdTable {
    rows: Vec<Vec<(FwdKey, FwdEntry)>>,
    len: usize,
}

impl FwdTable {
    #[inline]
    fn bucket(&self, dst: NodeId) -> Option<&Vec<(FwdKey, FwdEntry)>> {
        self.rows.get(dst.0 as usize)
    }

    /// Row lookup.
    pub fn get(&self, key: &FwdKey) -> Option<&FwdEntry> {
        let bucket = self.bucket(key.dst)?;
        bucket
            .binary_search_by_key(&(key.tag, key.pid), |(k, _)| (k.tag, k.pid))
            .ok()
            .map(|i| &bucket[i].1)
    }

    /// Inserts/overwrites a row.
    pub fn insert(&mut self, key: FwdKey, entry: FwdEntry) {
        let dst = key.dst.0 as usize;
        if dst >= self.rows.len() {
            self.rows.resize_with(dst + 1, Vec::new);
        }
        let bucket = &mut self.rows[dst];
        match bucket.binary_search_by_key(&(key.tag, key.pid), |(k, _)| (k.tag, k.pid)) {
            Ok(i) => bucket[i].1 = entry,
            Err(i) => {
                bucket.insert(i, (key, entry));
                self.len += 1;
            }
        }
    }

    /// All rows for one destination (every tag and pid, in `(tag, pid)`
    /// order — the order the replaced `BTreeMap` range scan produced).
    pub fn rows_for(&self, dst: NodeId) -> impl Iterator<Item = (&FwdKey, &FwdEntry)> {
        self.bucket(dst).into_iter().flatten().map(|(k, e)| (k, e))
    }

    /// Number of rows (state accounting).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// `BestT`: per destination, the key of the currently best FwdT row —
/// a dense array indexed by destination.
#[derive(Debug, Default)]
pub struct BestTable {
    best: Vec<Option<FwdKey>>,
    len: usize,
}

impl BestTable {
    /// Current best key for a destination.
    pub fn get(&self, dst: NodeId) -> Option<&FwdKey> {
        self.best.get(dst.0 as usize)?.as_ref()
    }

    /// Records the best key.
    pub fn set(&mut self, dst: NodeId, key: FwdKey) {
        let i = dst.0 as usize;
        if i >= self.best.len() {
            self.best.resize(i + 1, None);
        }
        if self.best[i].replace(key).is_none() {
            self.len += 1;
        }
    }

    /// Drops the record (e.g. the entry went stale).
    pub fn clear(&mut self, dst: NodeId) {
        if let Some(slot) = self.best.get_mut(dst.0 as usize) {
            if slot.take().is_some() {
                self.len -= 1;
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// How many consecutive slots a register array probes before declaring a
/// collision. Hardware register arrays probe exactly one slot; a short
/// window keeps the software model allocation-free while making aliasing
/// rare enough to stay an artifact instead of a behavior.
const PROBE_WINDOW: usize = 8;

/// Values stored in a [`RegisterArray`] expose their recency so eviction
/// under register pressure can target the stalest entry.
trait Stamped {
    fn stamp(&self) -> Time;
}

/// The shared register-array machinery behind [`FlowletTable`] and
/// [`LoopTable`]: a fixed-size power-of-two slot array, probed linearly
/// over a bounded window from a hash-derived start. The array never
/// grows; when a key's window holds no empty slot, the stalest entry is
/// overwritten and the collision counted — the hardware model (one
/// overwritable register per index) lives here, in exactly one place.
/// Entries are removed only when touched, so an occupied slot may hold
/// an expired pin or an aged-out row: the count is of overwrites, not of
/// live state lost.
#[derive(Debug)]
struct RegisterArray<K, V> {
    slots: Vec<Option<(K, V)>>,
    /// `64 - log2(slots)`: hash bits are taken from the top, where the
    /// Fx multiply concentrates entropy.
    shift: u32,
    live: usize,
    collisions: u64,
}

impl<K: Copy + Eq, V: Stamped> RegisterArray<K, V> {
    fn with_slots(requested: usize) -> RegisterArray<K, V> {
        let n = requested.next_power_of_two().max(PROBE_WINDOW * 2);
        RegisterArray {
            slots: (0..n).map(|_| None).collect(),
            shift: 64 - n.trailing_zeros(),
            live: 0,
            collisions: 0,
        }
    }

    #[inline]
    fn start(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    #[inline]
    fn idx(&self, start: usize, probe: usize) -> usize {
        (start + probe) & (self.slots.len() - 1)
    }

    /// The slot index holding `key`, if present in its probe window.
    /// Deletions leave holes (no tombstones), so the scan never
    /// early-exits on an empty slot.
    #[inline]
    fn find(&self, hash: u64, key: K) -> Option<usize> {
        let start = self.start(hash);
        (0..PROBE_WINDOW)
            .map(|p| self.idx(start, p))
            .find(|&i| matches!(&self.slots[i], Some((k, _)) if *k == key))
    }

    /// Empties a slot.
    fn clear(&mut self, i: usize) {
        if self.slots[i].take().is_some() {
            self.live -= 1;
        }
    }

    /// Writes `key → val` into the first empty slot of the window, or —
    /// register pressure — over the stalest occupant (collision
    /// counted). The caller has already ruled out a slot for `key`.
    fn write(&mut self, hash: u64, key: K, val: V) {
        let start = self.start(hash);
        let mut empty: Option<usize> = None;
        let mut stalest: usize = self.idx(start, 0);
        let mut stalest_stamp = Time(u64::MAX);
        for p in 0..PROBE_WINDOW {
            let i = self.idx(start, p);
            match &self.slots[i] {
                Some((_, v)) => {
                    if v.stamp() < stalest_stamp {
                        stalest_stamp = v.stamp();
                        stalest = i;
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(i);
                    }
                }
            }
        }
        match empty {
            Some(i) => {
                self.slots[i] = Some((key, val));
                self.live += 1;
            }
            None => {
                // Register pressure: alias onto the stalest entry, exactly
                // the overwrite a one-slot hardware register would do.
                self.collisions += 1;
                self.slots[stalest] = Some((key, val));
            }
        }
    }

    fn flush_where(&mut self, pred: impl Fn(&K, &V) -> bool) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            if matches!(slot, Some((k, v)) if pred(k, v)) {
                *slot = None;
                removed += 1;
            }
        }
        self.live -= removed;
        removed
    }
}

/// Key of the policy-aware flowlet table: `[tag*, pid*, fid*]` (§5.3) —
/// one pinned decision per flowlet *and* policy constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowletKey {
    /// Virtual-node tag the packets arrive with.
    pub tag: VNodeId,
    /// Probe subpolicy id.
    pub pid: u8,
    /// Flowlet id: hash of the flow five-tuple.
    pub fid: u64,
}

impl FlowletKey {
    /// Deterministic Fx fold of the key fields (stable across runs and
    /// platforms — the engine's byte-identical contract extends to table
    /// indexing).
    #[inline]
    fn slot_hash(&self) -> u64 {
        let mut h = FxHasher64::default();
        h.write_u64(self.fid);
        h.write_u32(self.tag.0);
        h.write_u8(self.pid);
        h.finish()
    }
}

/// A pinned flowlet decision.
#[derive(Debug, Clone)]
pub struct FlowletEntry {
    /// Pinned next hop.
    pub nhop: NodeId,
    /// Pinned next tag.
    pub ntag: VNodeId,
    /// Timestamp of the last packet that used the entry.
    pub last: Time,
}

impl Stamped for FlowletEntry {
    fn stamp(&self) -> Time {
        self.last
    }
}

/// The flowlet table: a fixed-size open-addressed register array.
#[derive(Debug)]
pub struct FlowletTable {
    arr: RegisterArray<FlowletKey, FlowletEntry>,
}

impl FlowletTable {
    /// A table with (at least) `slots` register slots, rounded up to a
    /// power of two.
    pub fn with_slots(slots: usize) -> FlowletTable {
        FlowletTable {
            arr: RegisterArray::with_slots(slots),
        }
    }

    /// Combined lookup-and-refresh for the forwarding fast path: a live
    /// hit — present and within `timeout` of `now` — gets its `last`
    /// stamped to `now` in place (one window scan) and returns the pinned
    /// decision. Expired entries are removed on access.
    pub fn lookup_touch(
        &mut self,
        key: FlowletKey,
        now: Time,
        timeout: Time,
    ) -> Option<(NodeId, VNodeId)> {
        let i = self.arr.find(key.slot_hash(), key)?;
        let (_, e) = self.arr.slots[i]
            .as_mut()
            .expect("find returned a live slot");
        if now.saturating_sub(e.last) <= timeout {
            e.last = now;
            return Some((e.nhop, e.ntag));
        }
        self.arr.clear(i);
        None
    }

    /// Pins (or refreshes) a decision. When every slot in the key's probe
    /// window holds a foreign entry, the stalest one (oldest `last`) is
    /// overwritten and the collision counted.
    pub fn pin(&mut self, key: FlowletKey, entry: FlowletEntry) {
        let hash = key.slot_hash();
        match self.arr.find(hash, key) {
            Some(i) => self.arr.slots[i] = Some((key, entry)),
            None => self.arr.write(hash, key, entry),
        }
    }

    /// Removes every pin of flowlet `fid` (loop breaking flushes the
    /// offending flowlet across all policy constraints, §5.5).
    pub fn flush_fid(&mut self, fid: u64) -> usize {
        self.arr.flush_where(|k, _| k.fid == fid)
    }

    /// Removes every pin through a next hop (failure handling, §5.4).
    pub fn flush_nhop(&mut self, nhop: NodeId) -> usize {
        self.arr.flush_where(|_, e| e.nhop == nhop)
    }

    /// Pins written over an occupied slot because the key's window had
    /// no empty one (the modeled register-collision artifact). The
    /// occupant may be past `flowlet_timeout`: an expired pin leaves its
    /// slot only when looked up or flushed, so this is an upper bound on
    /// the live pins displaced.
    pub fn collisions(&self) -> u64 {
        self.arr.collisions
    }

    /// Register slots allocated.
    pub fn slots(&self) -> usize {
        self.arr.slots.len()
    }

    /// Number of live pins.
    pub fn len(&self) -> usize {
        self.arr.live
    }

    /// Whether no flowlet is currently pinned.
    pub fn is_empty(&self) -> bool {
        self.arr.live == 0
    }
}

/// Loop-detection row: min/max TTL observed for one packet hash (§5.5).
#[derive(Debug, Clone)]
pub struct LoopRow {
    /// Largest TTL seen.
    pub max_ttl: u8,
    /// Smallest TTL seen.
    pub min_ttl: u8,
    /// Last update (for aging).
    pub last: Time,
}

/// The loop-detection table: `{pkt_hash*, maxttl, minttl}` as a fixed-size
/// register array. δ = max−min grows without bound only if packets
/// revisit this switch.
#[derive(Debug)]
pub struct LoopTable {
    arr: RegisterArray<u64, LoopRow>,
}

impl Stamped for LoopRow {
    fn stamp(&self) -> Time {
        self.last
    }
}

impl LoopTable {
    /// A table with (at least) `slots` register slots, rounded up to a
    /// power of two.
    pub fn with_slots(slots: usize) -> LoopTable {
        LoopTable {
            arr: RegisterArray::with_slots(slots),
        }
    }

    /// Records one observation; returns the current δ. Rows older than
    /// `age_out` restart from scratch; a row evicted by register pressure
    /// restarts too (a fresh hardware register reads as "no drift yet").
    pub fn observe(&mut self, hash: u64, ttl: u8, now: Time, age_out: Time) -> u8 {
        let mixed = contra_sim::fx_mix64(hash);
        if let Some(i) = self.arr.find(mixed, hash) {
            let (_, row) = self.arr.slots[i]
                .as_mut()
                .expect("find returned a live slot");
            if now.saturating_sub(row.last) > age_out {
                row.max_ttl = ttl;
                row.min_ttl = ttl;
            } else {
                row.max_ttl = row.max_ttl.max(ttl);
                row.min_ttl = row.min_ttl.min(ttl);
            }
            row.last = now;
            return row.max_ttl - row.min_ttl;
        }
        self.arr.write(
            mixed,
            hash,
            LoopRow {
                max_ttl: ttl,
                min_ttl: ttl,
                last: now,
            },
        );
        0
    }

    /// Clears one row after a loop break so detection restarts fresh.
    pub fn reset(&mut self, hash: u64) {
        if let Some(i) = self.arr.find(contra_sim::fx_mix64(hash), hash) {
            self.arr.clear(i);
        }
    }

    /// Observations written over an occupied slot because the hash's
    /// window had no empty one. The occupant may be older than
    /// `loop_age_out`: a row that is never seen again keeps its slot, so
    /// this is an upper bound on the tracked rows displaced.
    pub fn collisions(&self) -> u64 {
        self.arr.collisions
    }

    /// Register slots allocated.
    pub fn slots(&self) -> usize {
        self.arr.slots.len()
    }

    /// Number of tracked hashes.
    pub fn len(&self) -> usize {
        self.arr.live
    }

    /// Whether no hash is currently tracked.
    pub fn is_empty(&self) -> bool {
        self.arr.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_core::{FLOWLET_ENTRIES, LOOP_ENTRIES};

    fn key(dst: u32, tag: u32, pid: u8) -> FwdKey {
        FwdKey {
            dst: NodeId(dst),
            tag: VNodeId(tag),
            pid,
        }
    }

    #[test]
    fn fwd_rows_for_scans_one_destination() {
        let mut t = FwdTable::default();
        let e = FwdEntry {
            mv: MetricVec::zero(),
            retention: (Rank::scalar(0.0), 0),
            ntag: VNodeId(0),
            nhop: NodeId(9),
            version: 1,
            updated: Time::ZERO,
        };
        t.insert(key(1, 0, 0), e.clone());
        t.insert(key(1, 2, 1), e.clone());
        t.insert(key(2, 0, 0), e);
        assert_eq!(t.rows_for(NodeId(1)).count(), 2);
        assert_eq!(t.rows_for(NodeId(2)).count(), 1);
        assert_eq!(t.rows_for(NodeId(3)).count(), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn fwd_rows_iterate_in_tag_pid_order() {
        let mut t = FwdTable::default();
        let e = FwdEntry {
            mv: MetricVec::zero(),
            retention: (Rank::scalar(0.0), 0),
            ntag: VNodeId(0),
            nhop: NodeId(9),
            version: 1,
            updated: Time::ZERO,
        };
        for (tag, pid) in [(2u32, 0u8), (0, 1), (1, 0), (0, 0)] {
            t.insert(key(7, tag, pid), e.clone());
        }
        let order: Vec<(u32, u8)> = t
            .rows_for(NodeId(7))
            .map(|(k, _)| (k.tag.0, k.pid))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn fwd_insert_overwrites_in_place() {
        let mut t = FwdTable::default();
        let mut e = FwdEntry {
            mv: MetricVec::zero(),
            retention: (Rank::scalar(0.0), 0),
            ntag: VNodeId(0),
            nhop: NodeId(9),
            version: 1,
            updated: Time::ZERO,
        };
        t.insert(key(1, 0, 0), e.clone());
        e.version = 2;
        t.insert(key(1, 0, 0), e);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key(1, 0, 0)).unwrap().version, 2);
    }

    #[test]
    fn flowlet_expiry_and_flush() {
        let mut t = FlowletTable::with_slots(FLOWLET_ENTRIES);
        let k = FlowletKey {
            tag: VNodeId(0),
            pid: 0,
            fid: 42,
        };
        t.pin(
            k,
            FlowletEntry {
                nhop: NodeId(5),
                ntag: VNodeId(1),
                last: Time::ZERO,
            },
        );
        // Live within the timeout.
        assert_eq!(
            t.lookup_touch(k, Time::us(100), Time::us(200)),
            Some((NodeId(5), VNodeId(1)))
        );
        // Expired after it.
        assert!(t.lookup_touch(k, Time::us(400), Time::us(200)).is_none());
        assert_eq!(t.len(), 0, "expired entry is evicted");

        // Flush by fid and by nhop.
        t.pin(
            k,
            FlowletEntry {
                nhop: NodeId(5),
                ntag: VNodeId(1),
                last: Time::ZERO,
            },
        );
        assert_eq!(t.flush_fid(42), 1);
        t.pin(
            k,
            FlowletEntry {
                nhop: NodeId(5),
                ntag: VNodeId(1),
                last: Time::ZERO,
            },
        );
        assert_eq!(t.flush_nhop(NodeId(5)), 1);
        assert_eq!(t.flush_nhop(NodeId(5)), 0);
    }

    #[test]
    fn flowlet_touch_extends_life() {
        let mut t = FlowletTable::with_slots(FLOWLET_ENTRIES);
        let [touched, idle] = [1, 2].map(|fid| FlowletKey {
            tag: VNodeId(0),
            pid: 0,
            fid,
        });
        for k in [touched, idle] {
            t.pin(
                k,
                FlowletEntry {
                    nhop: NodeId(5),
                    ntag: VNodeId(1),
                    last: Time::ZERO,
                },
            );
        }
        // The hit at 150 µs restamps the pin, so it is still live at 300 µs;
        // the pin nobody used since time zero is not.
        assert!(t
            .lookup_touch(touched, Time::us(150), Time::us(200))
            .is_some());
        assert!(t
            .lookup_touch(touched, Time::us(300), Time::us(200))
            .is_some());
        assert!(t.lookup_touch(idle, Time::us(300), Time::us(200)).is_none());
    }

    #[test]
    fn flowlet_register_pressure_evicts_stalest_and_counts() {
        // A tiny array (16 slots) so 17+ distinct fids must alias.
        let mut t = FlowletTable::with_slots(1);
        assert_eq!(t.slots(), PROBE_WINDOW * 2);
        for fid in 0..64u64 {
            t.pin(
                FlowletKey {
                    tag: VNodeId(0),
                    pid: 0,
                    fid,
                },
                FlowletEntry {
                    nhop: NodeId(1),
                    ntag: VNodeId(0),
                    last: Time(fid),
                },
            );
        }
        assert!(t.collisions() > 0, "64 pins into 16 slots must collide");
        assert!(t.len() <= 16);
        // The table still answers lookups for *some* recent pin.
        let hits = (0..64u64)
            .filter(|&fid| {
                t.lookup_touch(
                    FlowletKey {
                        tag: VNodeId(0),
                        pid: 0,
                        fid,
                    },
                    Time(100),
                    Time(10_000),
                )
                .is_some()
            })
            .count();
        assert_eq!(hits, t.len());
    }

    #[test]
    fn loop_table_delta_grows_on_revisits() {
        let mut t = LoopTable::with_slots(LOOP_ENTRIES);
        let age = Time::ms(1);
        // Stable path: same TTL every time → δ = 0.
        assert_eq!(t.observe(7, 60, Time::us(1), age), 0);
        assert_eq!(t.observe(7, 60, Time::us(2), age), 0);
        // Packets revisiting after a loop have lower TTLs → δ grows.
        assert_eq!(t.observe(7, 57, Time::us(3), age), 3);
        assert_eq!(t.observe(7, 54, Time::us(4), age), 6);
        // Aging resets the window.
        assert_eq!(t.observe(7, 40, Time::ms(10), age), 0);
        t.reset(7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn loop_table_pressure_restarts_rows() {
        let mut t = LoopTable::with_slots(1);
        let age = Time::ms(1);
        for h in 0..64u64 {
            t.observe(h, 60, Time(h + 1), age);
        }
        assert!(t.collisions() > 0);
        assert!(t.len() <= 16);
    }

    #[test]
    fn best_table_roundtrip() {
        let mut b = BestTable::default();
        assert!(b.get(NodeId(1)).is_none());
        b.set(NodeId(1), key(1, 0, 0));
        assert_eq!(b.get(NodeId(1)), Some(&key(1, 0, 0)));
        b.clear(NodeId(1));
        assert!(b.get(NodeId(1)).is_none());
        assert!(b.is_empty());
    }
}
