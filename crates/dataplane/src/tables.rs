//! Runtime tables of the synthesized switch programs: the protocol state.
//!
//! These are the mutable structures the paper's P4 programs keep in
//! registers/SRAM: the forwarding table `FwdT`, the best-choice table
//! `BestT`, the policy-aware flowlet table (§5.3) and the TTL-delta loop
//! detection table (§5.5). What the compiler fixes (tags, `NEXTPGNODE`,
//! the multicast fan-out, the destination numbering) is no table's: it
//! is the compiled policy's, and `ContraSwitch` reads it there. A
//! destination reaches FwdT and BestT as its number, its position in the
//! policy's destinations, which the switch looks up once per probe or
//! packet.
//!
//! All four tables sit on one row store: a fixed number of rows, each
//! empty or written, allocated whole at the store's first write. Its
//! length, equality and hash read only the written rows, so a store
//! nobody wrote equals and hashes like an allocated all-empty one, and
//! every table is a plain value that derives `Eq` and `Hash`. The tables
//! hold state only: a write that displaces a live register entry says
//! so, and the switch keeps the counts beside its other counters.
//!
//! Layout follows the hardware the paper targets, not convenience maps.
//! `FwdT` is one dense array per switch at the P4 index
//! `dst × tags × pids + tag × pids + pid`, with `dst` the destination's
//! number and `tag` the switch-local tag (a Tofino register read at a
//! computed index, and the same one indexed load in software); `BestT`
//! is a dense array with one row per destination.
//! The flowlet and loop tables are **fixed-size direct-mapped register
//! arrays** with deterministic Fx hashing: each key has exactly one slot,
//! the top bits of its hash, as in the emitted program's
//! `register<…>(SIZE)` declarations. As on the switch, the arrays do not
//! grow. A slot keeps its occupant's key (Fig 10's state model charges
//! the 4 B key hash), so another key's entry there is a miss, and a
//! write over it replaces it. That write displaces the occupant when it
//! was still live (a pin within the flowlet timeout, a loop row younger
//! than its age-out); overwriting an expired occupant or a key's own row
//! does not. Two concurrently live keys on one slot displace each other
//! on every alternation, so the displacements follow how live keys pair
//! up on slots, not the table size alone. Both arrays have the size the
//! emitted program declares and Fig 10 charges for:
//! [`contra_core::FLOWLET_ENTRIES`] (what
//! [`crate::DataplaneConfig::for_policy`] sets `flowlet_slots` to) and
//! [`contra_core::LOOP_ENTRIES`]. That modelled size is fixed from
//! install on; host memory for it appears at an array's first write, so
//! a switch that only handles probes never holds its registers.

use contra_core::{RankKey, VNodeId};
use contra_sim::{FxHasher64, Time};
use contra_topology::NodeId;
use std::hash::{Hash, Hasher};

/// The one row store under every table: `n` rows, each empty or written,
/// allocated whole at the first write. Its length, equality and hash read
/// only the written rows, so an unwritten store equals and hashes like an
/// all-empty one of the same size.
#[derive(Debug, Clone)]
struct Rows<T> {
    /// Empty until the first write, then `n` rows.
    rows: Vec<Option<T>>,
    n: usize,
    /// Written rows.
    len: usize,
}

impl<T> Rows<T> {
    fn new(n: usize) -> Rows<T> {
        Rows {
            rows: Vec::new(),
            n,
            len: 0,
        }
    }

    fn get(&self, i: usize) -> Option<&T> {
        self.rows.get(i)?.as_ref()
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.rows.get_mut(i)?.as_mut()
    }

    /// Writes row `i`, which must be below `n`.
    fn set(&mut self, i: usize, row: T) {
        if self.rows.is_empty() {
            self.rows = (0..self.n).map(|_| None).collect();
        }
        if self.rows[i].replace(row).is_none() {
            self.len += 1;
        }
    }

    /// Empties row `i`.
    fn clear(&mut self, i: usize) {
        if self.rows.get_mut(i).and_then(Option::take).is_some() {
            self.len -= 1;
        }
    }

    /// Empties every row `pred` holds for; returns how many.
    fn clear_where(&mut self, pred: impl Fn(&T) -> bool) -> usize {
        let mut removed = 0;
        for row in &mut self.rows {
            if row.as_ref().is_some_and(&pred) {
                *row = None;
                removed += 1;
            }
        }
        self.len -= removed;
        removed
    }

    /// The written rows with their indices.
    fn written(&self) -> impl Iterator<Item = (usize, &T)> {
        let rows = self.rows.iter().enumerate();
        rows.filter_map(|(i, row)| Some((i, row.as_ref()?)))
    }
}

impl<T: PartialEq> PartialEq for Rows<T> {
    fn eq(&self, other: &Rows<T>) -> bool {
        self.n == other.n && self.len == other.len && self.written().eq(other.written())
    }
}

impl<T: Eq> Eq for Rows<T> {}

impl<T: Hash> Hash for Rows<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.n, self.len).hash(state);
        self.written().for_each(|row| row.hash(state));
    }
}

/// Key of a forwarding-table row: `[dst*, tag*, pid*]` in Fig 6(e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FwdKey {
    /// The traffic destination's number: its position in the compiled
    /// policy's `destinations`.
    pub dst: u32,
    /// Product-graph virtual node of *this* switch.
    pub tag: VNodeId,
    /// Probe subpolicy id.
    pub pid: u8,
}

/// Value of a forwarding-table row: Fig 6(e)'s `[mv, ntag, nhop]`, with
/// the metric vector kept as the two keys every reader compares, plus the
/// §5.1 version number and the update timestamp for metric expiration
/// (§5.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FwdEntry {
    /// The row's retention key — the subpolicy's rank of its metric
    /// vector, then its hop count — which every same-version probe is
    /// compared against, and most lose to.
    pub retention: RankKey,
    /// The full-policy key of the metric vector at this row's tag:
    /// BestT's order, computed once at write (it depends on the tag and
    /// the vector alone).
    pub full: RankKey,
    /// Tag to write into packets before sending (the next switch's vnode).
    pub ntag: VNodeId,
    /// The next hop itself.
    pub nhop: NodeId,
    /// Version of the probe that installed this entry.
    pub version: u32,
    /// When the entry was last refreshed.
    pub updated: Time,
}

/// The forwarding table of one switch: one dense array at the P4 index
/// `dst × tags × pids + tag × pids + pid`, where `dst` is the
/// destination's number and `tag` numbers the switch's virtual nodes
/// from its first. A destination's rows are contiguous and in ascending
/// `(tag, pid)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FwdTable {
    rows: Rows<FwdEntry>,
    /// The switch's first virtual node; its tags are `base..base + tags`.
    base: u32,
    tags: usize,
    pids: usize,
}

impl FwdTable {
    /// An empty table for traffic to `dests` destinations at a switch
    /// whose virtual nodes are the `tags` consecutive ids from `base`,
    /// under `pids` subpolicies.
    pub fn new(dests: usize, base: VNodeId, tags: usize, pids: usize) -> FwdTable {
        FwdTable {
            rows: Rows::new(dests * tags * pids),
            base: base.0,
            tags,
            pids,
        }
    }

    /// The P4 index of `key`; `None` for a tag of another switch, a `pid`
    /// the policy does not have or a destination number out of range,
    /// which have no row.
    #[inline]
    fn index(&self, key: &FwdKey) -> Option<usize> {
        let tag = key.tag.0.wrapping_sub(self.base) as usize;
        let pid = key.pid as usize;
        if tag >= self.tags || pid >= self.pids {
            return None;
        }
        let i = key.dst as usize * self.tags * self.pids + tag * self.pids + pid;
        (i < self.rows.n).then_some(i)
    }

    /// Row lookup.
    pub fn get(&self, key: &FwdKey) -> Option<&FwdEntry> {
        self.rows.get(self.index(key)?)
    }

    /// Inserts/overwrites a row. A key [`FwdTable::get`] cannot find is
    /// not stored.
    pub fn insert(&mut self, key: FwdKey, entry: FwdEntry) {
        if let Some(i) = self.index(&key) {
            self.rows.set(i, entry);
        }
    }

    /// All rows for destination number `dst`, in ascending `(tag, pid)` —
    /// the order BestT's first-minimum tie-break depends on.
    pub fn rows_for(&self, dst: u32) -> impl Iterator<Item = (FwdKey, &FwdEntry)> {
        let (base, pids, stride) = (self.base, self.pids, self.tags * self.pids);
        let start = dst as usize * stride;
        let rows = (self.rows.rows.get(start..start + stride)).unwrap_or_default();
        rows.iter().enumerate().filter_map(move |(i, row)| {
            let entry = row.as_ref()?;
            let key = FwdKey {
                dst,
                tag: VNodeId(base + (i / pids) as u32),
                pid: (i % pids) as u8,
            };
            Some((key, entry))
        })
    }

    /// Number of rows (state accounting).
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }
}

/// `BestT`: per destination, the key of the currently best FwdT row —
/// a dense array indexed by destination number.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BestTable {
    best: Rows<FwdKey>,
}

impl BestTable {
    /// An empty table for `dests` destinations.
    pub fn with_rows(dests: usize) -> BestTable {
        BestTable {
            best: Rows::new(dests),
        }
    }

    /// Current best key for destination number `dst`.
    pub fn get(&self, dst: u32) -> Option<&FwdKey> {
        self.best.get(dst as usize)
    }

    /// Records the best key for destination number `dst`.
    pub fn set(&mut self, dst: u32, key: FwdKey) {
        self.best.set(dst as usize, key);
    }

    /// Drops the record (e.g. the entry went stale).
    pub fn clear(&mut self, dst: u32) {
        self.best.clear(dst as usize);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.best.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.best.len == 0
    }
}

/// A fixed-size register array, direct-mapped: [`FlowletTable`] and
/// [`LoopTable`]. A power-of-two row store of `(key, value)` slots, where
/// a key's one slot is the top bits of its hash, as in the emitted
/// program's `register<…>(SIZE)` arrays. The array never grows and keeps
/// each occupant's key, so a foreign occupant is a miss. A write over a
/// *live* foreign occupant displaces it and says so; a write over an
/// expired one (each table's own timeout decides) does not. Entries are
/// removed only when touched, so an occupied slot may hold an expired
/// pin or an aged-out row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Registers<K, V> {
    slots: Rows<(K, V)>,
    /// `64 - log2(n)`: hash bits are taken from the top, where the Fx
    /// multiply concentrates entropy (64 for a single slot).
    shift: u32,
}

impl<K: Copy + Eq, V> Registers<K, V> {
    /// An array of (at least) `requested` slots, rounded up to a power
    /// of two (one slot for 0 or 1).
    pub fn with_slots(requested: usize) -> Registers<K, V> {
        let n = requested.next_power_of_two();
        Registers {
            slots: Rows::new(n),
            shift: 64 - n.trailing_zeros(),
        }
    }

    /// The one slot of `hash`.
    #[inline]
    fn slot(&self, hash: u64) -> usize {
        hash.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// `key`'s slot, if it holds `key`.
    #[inline]
    fn find(&self, hash: u64, key: K) -> Option<usize> {
        let i = self.slot(hash);
        matches!(self.slots.get(i), Some((k, _)) if *k == key).then_some(i)
    }

    /// Writes `key → val` into `key`'s slot; returns whether it displaced
    /// a foreign occupant for which `live` holds — exactly the overwrite
    /// a one-slot hardware register does. Two concurrently live keys on
    /// one slot displace each other on every alternation, so
    /// displacements need not fall monotonically as the array grows.
    fn write(&mut self, hash: u64, key: K, val: V, live: impl Fn(&V) -> bool) -> bool {
        let i = self.slot(hash);
        let displaced = matches!(self.slots.get(i), Some((k, v)) if *k != key && live(v));
        self.slots.set(i, (key, val));
        displaced
    }

    /// Register slots the array models (allocated at its first write).
    pub fn slots(&self) -> usize {
        self.slots.n
    }

    /// Whether the slots are in host memory (the array was written).
    #[cfg(test)]
    pub(crate) fn materialized(&self) -> bool {
        !self.slots.rows.is_empty()
    }

    /// Number of entries held (an expired pin or an aged-out row counts
    /// until it is touched, flushed or overwritten).
    pub fn len(&self) -> usize {
        self.slots.len
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.slots.len == 0
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowletEntry {
    /// Pinned next hop.
    pub nhop: NodeId,
    /// Pinned next tag.
    pub ntag: VNodeId,
    /// Timestamp of the last packet that used the entry.
    pub last: Time,
}

/// The flowlet table: pins keyed `[tag*, pid*, fid*]`.
pub type FlowletTable = Registers<FlowletKey, FlowletEntry>;

impl FlowletTable {
    /// Combined lookup-and-refresh for the forwarding fast path: a live
    /// hit — present and within `timeout` of `now` — gets its `last`
    /// stamped to `now` in place (one slot read) and returns the pinned
    /// decision. An expired pin of `key` is removed on access; another
    /// key's pin in the slot is a miss and stays.
    pub fn lookup_touch(
        &mut self,
        key: FlowletKey,
        now: Time,
        timeout: Time,
    ) -> Option<(NodeId, VNodeId)> {
        let i = self.find(key.slot_hash(), key)?;
        let (_, e) = self.slots.get_mut(i).expect("find returned a live slot");
        if now.saturating_sub(e.last) <= timeout {
            e.last = now;
            return Some((e.nhop, e.ntag));
        }
        self.slots.clear(i);
        None
    }

    /// Pins (or refreshes) a decision in the key's slot, stamped
    /// `entry.last`. Returns whether it displaced a foreign pin there
    /// that was still live — used within `timeout` of `entry.last`.
    pub fn pin(&mut self, key: FlowletKey, entry: FlowletEntry, timeout: Time) -> bool {
        let now = entry.last;
        self.write(key.slot_hash(), key, entry, |e| {
            now.saturating_sub(e.last) <= timeout
        })
    }

    /// Removes every pin of flowlet `fid` (loop breaking flushes the
    /// offending flowlet across all policy constraints, §5.5).
    pub fn flush_fid(&mut self, fid: u64) -> usize {
        self.slots.clear_where(|(k, _)| k.fid == fid)
    }

    /// Removes every pin through a next hop (failure handling, §5.4).
    pub fn flush_nhop(&mut self, nhop: NodeId) -> usize {
        self.slots.clear_where(|(_, e)| e.nhop == nhop)
    }
}

/// Loop-detection row: min/max TTL observed for one packet hash (§5.5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopRow {
    /// Largest TTL seen.
    pub max_ttl: u8,
    /// Smallest TTL seen.
    pub min_ttl: u8,
    /// Last update (for aging).
    pub last: Time,
}

impl LoopRow {
    /// A row that has seen one packet: no drift yet.
    fn fresh(ttl: u8, now: Time) -> LoopRow {
        LoopRow {
            max_ttl: ttl,
            min_ttl: ttl,
            last: now,
        }
    }
}

/// The loop-detection table: `{pkt_hash*, maxttl, minttl}`. δ = max−min
/// grows without bound only if packets revisit this switch.
pub type LoopTable = Registers<u64, LoopRow>;

impl LoopTable {
    /// Records one observation; returns the current δ and whether the
    /// observation displaced a live row. Rows older than `age_out`
    /// restart from scratch; so does a hash whose slot holds another
    /// hash's row (a fresh hardware register reads as "no drift yet"),
    /// which displaces that row if it is not yet aged out.
    pub fn observe(&mut self, hash: u64, ttl: u8, now: Time, age_out: Time) -> (u8, bool) {
        let mixed = contra_sim::fx_mix64(hash);
        if let Some(i) = self.find(mixed, hash) {
            return (self.fold(i, ttl, now, age_out), false);
        }
        let fresh = LoopRow::fresh(ttl, now);
        let displaced = self.write(mixed, hash, fresh, |row| {
            now.saturating_sub(row.last) <= age_out
        });
        (0, displaced)
    }

    /// Folds an observation into the live row at slot `i`; returns δ.
    fn fold(&mut self, i: usize, ttl: u8, now: Time, age_out: Time) -> u8 {
        let (_, row) = self.slots.get_mut(i).expect("a live slot");
        if now.saturating_sub(row.last) > age_out {
            *row = LoopRow::fresh(ttl, now);
        } else {
            row.max_ttl = row.max_ttl.max(ttl);
            row.min_ttl = row.min_ttl.min(ttl);
            row.last = now;
        }
        row.max_ttl - row.min_ttl
    }

    /// Clears one row after a loop break so detection restarts fresh.
    pub fn reset(&mut self, hash: u64) {
        if let Some(i) = self.find(contra_sim::fx_mix64(hash), hash) {
            self.slots.clear(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_core::{FLOWLET_ENTRIES, LOOP_ENTRIES};

    fn key(dst: u32, tag: u32, pid: u8) -> FwdKey {
        FwdKey {
            dst,
            tag: VNodeId(tag),
            pid,
        }
    }

    /// A table for three destinations.
    fn fwd_table(base: u32, tags: usize, pids: usize) -> FwdTable {
        FwdTable::new(3, VNodeId(base), tags, pids)
    }

    /// A row carrying the keys a one-pid policy gives the zero vector.
    fn entry(version: u32) -> FwdEntry {
        let mut t = contra_topology::Topology::builder();
        let (a, b) = (t.switch("A"), t.switch("B"));
        t.biline(a, b, 10e9, 1_000);
        let cp = contra_core::Compiler::new(&t.build())
            .compile_str("minimize(path.util)")
            .unwrap();
        let mv = contra_core::MetricVec::zero();
        FwdEntry {
            retention: cp.ranks.retention_key(0, &mv),
            full: cp.ranks.full_key(VNodeId(0), &mv),
            ntag: VNodeId(0),
            nhop: NodeId(9),
            version,
            updated: Time::ZERO,
        }
    }

    /// A destination's rows are one contiguous run of the array.
    #[test]
    fn fwd_rows_for_scans_one_destination() {
        let mut t = fwd_table(10, 3, 2);
        let e = entry(1);
        t.insert(key(0, 10, 0), e.clone());
        t.insert(key(0, 12, 1), e.clone());
        t.insert(key(1, 10, 0), e);
        assert_eq!(t.rows_for(0).count(), 2);
        assert_eq!(t.rows_for(1).count(), 1);
        // Unwritten, or past the last destination.
        for dst in [2, 3, 9] {
            assert_eq!(t.rows_for(dst).count(), 0);
        }
        assert_eq!(t.len(), 3);
        // A number past the last destination, another switch's tag and a
        // pid the policy lacks have no row.
        for k in [key(3, 10, 0), key(0, 13, 0), key(0, 9, 0), key(0, 10, 2)] {
            t.insert(k, entry(1));
        }
        assert_eq!(t.len(), 3);
        assert!(t.get(&key(0, 13, 0)).is_none() && t.get(&key(3, 10, 0)).is_none());
    }

    /// Rows come out in ascending `(tag, pid)` whatever order they were
    /// written in: every permutation of six writes, by Heap's algorithm.
    #[test]
    fn fwd_rows_iterate_in_tag_pid_order() {
        let mut cells: Vec<(u32, u8)> = vec![(7, 1), (5, 0), (6, 1), (5, 1), (7, 0), (6, 0)];
        let mut expected = cells.clone();
        expected.sort();
        let e = entry(1);
        let check = |order: &[(u32, u8)]| {
            let mut t = fwd_table(5, 3, 2);
            for &(tag, pid) in order {
                t.insert(key(2, tag, pid), e.clone());
            }
            let got: Vec<(u32, u8)> = t.rows_for(2).map(|(k, _)| (k.tag.0, k.pid)).collect();
            assert_eq!(got, expected, "written in order {order:?}");
            assert!(t.rows_for(2).all(|(k, _)| t.get(&k).is_some()));
        };
        let n = cells.len();
        let mut c = vec![0; n];
        check(&cells);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                cells.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                check(&cells);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    /// FwdT and BestT hold no rows until their first write, which
    /// allocates all of them; later writes do not grow them.
    #[test]
    fn fwd_and_best_rows_appear_whole_at_the_first_write() {
        let mut t = fwd_table(10, 3, 2);
        assert_eq!((t.rows.rows.capacity(), t.rows_for(2).count()), (0, 0));
        t.insert(key(1, 11, 1), entry(1));
        assert_eq!(t.rows.rows.len(), 3 * 3 * 2);
        let rows = (t.rows.rows.as_ptr(), t.rows.rows.capacity());
        t.insert(key(2, 12, 1), entry(1));
        assert_eq!((t.rows.rows.as_ptr(), t.rows.rows.capacity()), rows);
        assert_eq!(t.len(), 2);

        let mut b = BestTable::with_rows(5);
        assert_eq!(b.best.rows.capacity(), 0);
        b.set(1, key(1, 11, 1));
        assert_eq!(b.best.rows.len(), 5);
        let best = (b.best.rows.as_ptr(), b.best.rows.capacity());
        b.set(4, key(4, 12, 1));
        assert_eq!((b.best.rows.as_ptr(), b.best.rows.capacity()), best);
    }

    /// A written BestT holds one row per destination of the policy, not
    /// one per node id up to the highest destination: on fat-tree(4) with
    /// a host per edge switch the eight destinations are edge switches
    /// whose ids run past 8.
    #[test]
    fn best_rows_are_one_per_destination() {
        use contra_topology::generators;
        let topo = generators::fat_tree(4, 1, generators::LinkSpec::default());
        let compiler = contra_core::Compiler::new(&topo);
        let cp = std::sync::Arc::new(compiler.compile_str("minimize(path.util)").unwrap());
        let cfg = crate::DataplaneConfig::for_policy(&cp);
        let mut h = crate::ProtocolHarness::new(&topo, cp.clone(), cfg);
        h.run_rounds(3);
        assert_eq!(cp.destinations.len(), 8);
        for sw in topo.switches() {
            let best = &h.switch(sw).state().best;
            assert!(!best.is_empty(), "{sw}");
            assert_eq!(best.best.rows.len(), cp.destinations.len(), "{sw}");
        }
    }

    #[test]
    fn fwd_insert_overwrites_in_place() {
        let mut t = fwd_table(0, 1, 1);
        t.insert(key(1, 0, 0), entry(1));
        t.insert(key(1, 0, 0), entry(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key(1, 0, 0)).unwrap().version, 2);
    }

    /// A flowlet key of tag 0, pid 0.
    fn flowlet(fid: u64) -> FlowletKey {
        FlowletKey {
            tag: VNodeId(0),
            pid: 0,
            fid,
        }
    }

    /// A pin to `nhop` (next tag 1), last used at `last`.
    fn pinned(nhop: u32, last: Time) -> FlowletEntry {
        FlowletEntry {
            nhop: NodeId(nhop),
            ntag: VNodeId(1),
            last,
        }
    }

    /// A key other than `k` whose hash takes `k`'s slot in `t`.
    fn slot_mate(t: &FlowletTable, k: FlowletKey) -> FlowletKey {
        let slot = |k: FlowletKey| t.slot(k.slot_hash());
        (k.fid + 1..)
            .map(flowlet)
            .find(|&m| slot(m) == slot(k))
            .unwrap()
    }

    /// A hash other than `h` whose row takes `h`'s slot in `t`.
    fn loop_mate(t: &LoopTable, h: u64) -> u64 {
        let slot = |h: u64| t.slot(contra_sim::fx_mix64(h));
        (h + 1..).find(|&m| slot(m) == slot(h)).unwrap()
    }

    #[test]
    fn flowlet_expiry_and_flush() {
        let mut t = FlowletTable::with_slots(FLOWLET_ENTRIES);
        let (k, timeout) = (flowlet(42), Time::us(200));
        t.pin(k, pinned(5, Time::ZERO), timeout);
        // Live within the timeout.
        assert_eq!(
            t.lookup_touch(k, Time::us(100), timeout),
            Some((NodeId(5), VNodeId(1)))
        );
        // Expired after it.
        assert!(t.lookup_touch(k, Time::us(400), timeout).is_none());
        assert_eq!(t.len(), 0, "expired entry is evicted");

        // Flush by fid and by nhop.
        t.pin(k, pinned(5, Time::ZERO), timeout);
        assert_eq!(t.flush_fid(42), 1);
        t.pin(k, pinned(5, Time::ZERO), timeout);
        assert_eq!(t.flush_nhop(NodeId(5)), 1);
        assert_eq!(t.flush_nhop(NodeId(5)), 0);
    }

    #[test]
    fn flowlet_touch_extends_life() {
        let mut t = FlowletTable::with_slots(FLOWLET_ENTRIES);
        let (touched, idle, timeout) = (flowlet(1), flowlet(2), Time::us(200));
        for k in [touched, idle] {
            t.pin(k, pinned(5, Time::ZERO), timeout);
        }
        // The hit at 150 µs restamps the pin, so it is still live at 300 µs;
        // the pin nobody used since time zero is not.
        assert!(t.lookup_touch(touched, Time::us(150), timeout).is_some());
        assert!(t.lookup_touch(touched, Time::us(300), timeout).is_some());
        assert!(t.lookup_touch(idle, Time::us(300), timeout).is_none());
    }

    /// One register per index: a second live key on a slot displaces the
    /// first, which then misses, and the write says so. Re-pinning a
    /// key's own row is no displacement.
    #[test]
    fn live_keys_sharing_a_slot_displace_each_other() {
        let mut t = FlowletTable::with_slots(16);
        let timeout = Time::us(200);
        let first = flowlet(0);
        let second = slot_mate(&t, first);
        assert!(!t.pin(first, pinned(1, Time::ZERO), timeout));
        assert!(t.pin(second, pinned(2, Time::us(10)), timeout));
        assert_eq!(t.lookup_touch(first, Time::us(20), timeout), None);
        assert_eq!(
            t.lookup_touch(second, Time::us(20), timeout),
            Some((NodeId(2), VNodeId(1))),
            "a foreign key's miss leaves the occupant in place"
        );
        assert_eq!(t.len(), 1);
        assert!(!t.pin(second, pinned(3, Time::us(30)), timeout));
        assert_eq!(t.len(), 1);
    }

    /// Overwriting an expired pin, or a loop row older than `age_out`,
    /// displaces nothing live; overwriting a live row does.
    #[test]
    fn expired_occupants_are_overwritten_uncounted() {
        let mut t = FlowletTable::with_slots(16);
        let timeout = Time::us(200);
        let first = flowlet(0);
        let second = slot_mate(&t, first);
        t.pin(first, pinned(1, Time::ZERO), timeout);
        assert!(!t.pin(second, pinned(2, Time::us(300)), timeout));
        assert_eq!(t.len(), 1);
        assert!(t.lookup_touch(second, Time::us(300), timeout).is_some());

        let mut l = LoopTable::with_slots(16);
        let age = Time::ms(1);
        let (a, b) = (7, loop_mate(&l, 7));
        l.observe(a, 60, Time::us(1), age);
        assert_eq!(l.observe(b, 60, Time::ms(10), age), (0, false));
        assert_eq!(l.len(), 1);
        // `b` is live when `a` comes back, so this one displaces it.
        assert_eq!(l.observe(a, 50, Time::ms(10) + Time::us(1), age), (0, true));
        assert_eq!(l.len(), 1);
    }

    /// A one-slot table (and a zero-slot request) is one working register.
    #[test]
    fn a_single_slot_holds_and_answers_one_key() {
        for n in [0, 1] {
            let mut t = FlowletTable::with_slots(n);
            assert_eq!(t.slots(), 1);
            t.pin(flowlet(9), pinned(4, Time::ZERO), Time::us(200));
            assert_eq!(
                t.lookup_touch(flowlet(9), Time::us(1), Time::us(200)),
                Some((NodeId(4), VNodeId(1)))
            );
            let mut l = LoopTable::with_slots(n);
            assert_eq!(l.slots(), 1);
            assert_eq!(l.observe(9, 60, Time::us(1), Time::ms(1)), (0, false));
            assert_eq!(l.observe(9, 57, Time::us(2), Time::ms(1)), (3, false));
            assert_eq!(l.len(), 1);
        }
    }

    /// An array nobody wrote answers every read as an all-empty one: the
    /// same misses, and flushes and resets that remove nothing; it equals
    /// one and stays unallocated. The first write allocates all `n`
    /// slots, displaces nothing and counts one live entry.
    #[test]
    fn registers_materialize_on_the_first_write() {
        let (timeout, age) = (Time::us(200), Time::ms(1));
        let mut lazy = FlowletTable::with_slots(FLOWLET_ENTRIES);
        let mut full = lazy.clone();
        full.slots.rows = (0..FLOWLET_ENTRIES).map(|_| None).collect();
        for t in [&mut lazy, &mut full] {
            assert_eq!(t.lookup_touch(flowlet(3), Time::us(1), timeout), None);
            assert_eq!((t.flush_fid(3), t.flush_nhop(NodeId(5))), (0, 0));
        }
        assert_eq!((lazy.materialized(), &lazy), (false, &full));
        assert!(!lazy.pin(flowlet(3), pinned(5, Time::ZERO), timeout));
        assert_eq!(lazy.slots.rows.len(), FLOWLET_ENTRIES);
        assert_eq!((lazy.slots(), lazy.len()), (FLOWLET_ENTRIES, 1));
        assert_eq!(
            lazy.lookup_touch(flowlet(3), Time::us(1), timeout),
            Some((NodeId(5), VNodeId(1)))
        );

        let mut lazy = LoopTable::with_slots(LOOP_ENTRIES);
        let mut full = lazy.clone();
        full.slots.rows = (0..LOOP_ENTRIES).map(|_| None).collect();
        for t in [&mut lazy, &mut full] {
            t.reset(7);
        }
        assert_eq!((lazy.materialized(), &lazy), (false, &full));
        assert_eq!(lazy.observe(7, 60, Time::us(1), age), (0, false));
        assert_eq!(lazy.slots.rows.len(), LOOP_ENTRIES);
        assert_eq!((lazy.slots(), lazy.len()), (LOOP_ENTRIES, 1));
        assert_eq!(lazy.observe(7, 57, Time::us(2), age), (3, false));
    }

    /// Random pin / lookup / flush / observe / reset streams on 16-slot
    /// tables against a `HashMap` oracle of what was last pinned or seen
    /// per key: every flowlet hit returns the key's last pin, used within
    /// the timeout; a live key misses only when another key was pinned
    /// over its slot since (the oracle forgets those); a loop δ never
    /// exceeds the oracle's (a displaced row restarts later, never
    /// earlier); `len()` is the occupied slots; and no table displaces
    /// more than it was written.
    #[test]
    fn registers_match_a_hashmap_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let (mut fl, mut lp) = (FlowletTable::with_slots(16), LoopTable::with_slots(16));
        let mut pins: HashMap<FlowletKey, FlowletEntry> = HashMap::new();
        let mut rows: HashMap<u64, LoopRow> = HashMap::new();
        let (timeout, age_out) = (Time(40), Time(60));
        let (mut now, mut writes, mut observations, mut hits) = (Time::ZERO, 0, 0, 0);
        let (mut fl_displaced, mut lp_displaced) = (0, 0);
        for _ in 0..20_000 {
            now += Time(rng.gen_range(0u64..4));
            let fid = rng.gen_range(0u64..48);
            let key = FlowletKey {
                tag: VNodeId(rng.gen_range(0u32..2)),
                pid: 0,
                fid,
            };
            let nhop = NodeId(rng.gen_range(0u32..4));
            match rng.gen_range(0u32..8) {
                0..=2 => {
                    fl_displaced += u64::from(fl.pin(key, pinned(nhop.0, now), timeout));
                    let slot = |k: &FlowletKey| fl.slot(k.slot_hash());
                    pins.retain(|k, _| slot(k) != slot(&key));
                    pins.insert(key, pinned(nhop.0, now));
                    writes += 1;
                }
                3 => match fl.lookup_touch(key, now, timeout) {
                    Some(hit) => {
                        let pin = pins.get_mut(&key).expect("a hit was pinned");
                        assert_eq!(hit, (pin.nhop, pin.ntag));
                        assert!(now.saturating_sub(pin.last) <= timeout);
                        pin.last = now;
                        hits += 1;
                    }
                    None => assert!(pins
                        .get(&key)
                        .is_none_or(|p| now.saturating_sub(p.last) > timeout)),
                },
                4 => {
                    fl.flush_fid(fid);
                    pins.retain(|k, _| k.fid != fid);
                }
                5 => {
                    fl.flush_nhop(nhop);
                    pins.retain(|_, p| p.nhop != nhop);
                }
                6 => {
                    let ttl = rng.gen_range(50u8..64);
                    let (delta, displaced) = lp.observe(fid, ttl, now, age_out);
                    lp_displaced += u64::from(displaced);
                    let row = rows
                        .entry(fid)
                        .and_modify(|r| {
                            if now.saturating_sub(r.last) > age_out {
                                *r = LoopRow::fresh(ttl, now);
                            }
                        })
                        .or_insert_with(|| LoopRow::fresh(ttl, now));
                    (row.max_ttl, row.min_ttl) = (row.max_ttl.max(ttl), row.min_ttl.min(ttl));
                    row.last = now;
                    assert!(delta <= row.max_ttl - row.min_ttl);
                    observations += 1;
                }
                _ => {
                    lp.reset(fid);
                    rows.remove(&fid);
                }
            }
            assert_eq!(fl.len(), fl.slots.written().count());
            assert_eq!(lp.len(), lp.slots.written().count());
            assert!(fl_displaced <= writes && lp_displaced <= observations);
        }
        assert!(
            fl_displaced > 0 && lp_displaced > 0 && hits > 0,
            "the stream must hit register pressure and still hit pins"
        );
    }

    #[test]
    fn loop_table_delta_grows_on_revisits() {
        let mut t = LoopTable::with_slots(LOOP_ENTRIES);
        let age = Time::ms(1);
        let mut delta = |ttl, now| t.observe(7, ttl, now, age).0;
        // Stable path: same TTL every time → δ = 0.
        assert_eq!(delta(60, Time::us(1)), 0);
        assert_eq!(delta(60, Time::us(2)), 0);
        // Packets revisiting after a loop have lower TTLs → δ grows.
        assert_eq!(delta(57, Time::us(3)), 3);
        assert_eq!(delta(54, Time::us(4)), 6);
        // Aging resets the window.
        assert_eq!(delta(40, Time::ms(10)), 0);
        t.reset(7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn loop_table_pressure_restarts_rows() {
        let mut t = LoopTable::with_slots(1);
        let age = Time::ms(1);
        let mut displaced = 0;
        for h in 0..64u64 {
            let (delta, d) = t.observe(h, 60 - h as u8 % 4, Time(h + 1), age);
            assert_eq!(delta, 0);
            displaced += u32::from(d);
        }
        assert_eq!((displaced, t.len()), (63, 1));
    }

    #[test]
    fn best_table_roundtrip() {
        let mut b = BestTable::with_rows(5);
        assert!(b.get(1).is_none());
        b.set(1, key(1, 0, 0));
        assert_eq!(b.get(1), Some(&key(1, 0, 0)));
        b.clear(1);
        assert!(b.get(1).is_none());
        assert!(b.is_empty());
    }
}
