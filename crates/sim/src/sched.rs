//! The event scheduler: a hierarchical timing wheel, plus the binary heap
//! that is its reference model.
//!
//! The engine's contract is a **total order**: events pop in ascending
//! `(at, key)`, where the 64-bit `key` encodes an event *class* in its
//! top bits and a class-specific discriminator below:
//!
//! * **Arrivals** ([`TimingWheel::push_at_key`], key < 2^30, with the
//!   push counter appended in the low bits) carry a caller-chosen key —
//!   the engine uses the directed link index, so same-instant arrivals
//!   on different links order by a property of the schedule itself
//!   rather than by when their events happened to be pushed.
//! * **Timers** ([`TimingWheel::push`], class 1) order by the monotone
//!   push counter — same-instant timers drain in push order.
//!
//! There is no third class. Serializer completions used to be one,
//! sorting last in their instant so that an observer at a packet boundary
//! saw the boundary as not yet crossed; a completion is no event any
//! more, and that rule now lives in [`crate::link`], which performs a
//! hand-over only for a clock strictly past it.
//!
//! Under that order every run is byte-identical. A `BinaryHeap` delivers
//! it at O(log n) per operation — and WAN and fat-tree scenarios keep
//! 10⁴–10⁵ events pending, so every push and pop sifts through ~17 levels
//! of cold cache lines. The [`TimingWheel`] delivers the same order at
//! amortized O(1): near-future events land in fine-grained buckets,
//! far-future events in coarser levels that cascade down as the clock
//! advances, and events beyond the horizon wait in a small overflow heap.
//!
//! The engine runs on the wheel. Its reference model, a plain binary
//! heap, lives in `crates/sim/tests/sched_diff.rs`, which drives random
//! event streams of both classes through both and requires identical pop
//! sequences.
//!
//! ## Wheel geometry
//!
//! * [`LEVELS`] = 3 levels of [`SLOTS`] = 256 buckets each.
//! * Level 0 buckets are 2^[`BASE_SHIFT`] = 512 ns wide, so level 0 spans
//!   ~131 µs — datacenter serialization/propagation events resolve here.
//! * Each coarser level widens buckets 256×: level 1 spans ~33.5 ms (WAN
//!   propagation, probe periods), level 2 ~8.6 s (TCP RTOs, far timers).
//! * Beyond level 2 lies the overflow `BinaryHeap`, drained back into the
//!   wheel as the horizon advances. With the engine filtering events past
//!   `stop_at`, overflow is practically never touched.
//!
//! ## Storage
//!
//! * A level-0 bucket is a contiguous `Vec` of unsorted entries. When the
//!   clock reaches it, it is sorted ascending once and becomes the *run*,
//!   a `VecDeque` drained from the front; the previous run's buffer goes
//!   back into the bucket, so neither step allocates. Sorting
//!   ~bucket-sized runs is where the asymptotic win comes from: the heap's
//!   log(pending) becomes log(bucket occupancy).
//! * A level-0 bucket that must grow goes straight to the largest
//!   capacity any level-0 bucket has grown to so far, doubling at least.
//!   Buckets fill alike, so each of the 256 grows about once to the
//!   working set's bucket size instead of through every power of two
//!   below it: replaying a seed-1 `fabric_probe` run's scheduler trace
//!   allocates 339 times, against 1,887 when every bucket doubled on its
//!   own. Each bucket keeps its own buffer. A shared stack of spare
//!   buffers, lent to whichever bucket fills next, was measured and
//!   rejected: at ~3 entries per bucket (`wan_tcp`) its push and pop per
//!   bucket cost more time than the allocations saved, and it allocated
//!   more.
//! * A push behind the drain front (a same-instant event scheduled while
//!   its bucket drains) is inserted into the run at its rank. It is never
//!   earlier than the last pop, so it lands inside the opened bucket.
//! * Level-1 and level-2 buckets are only ever walked whole, by a cascade,
//!   so each is the head of a singly linked list through one shared slab
//!   of entries, with a free list: a coarse bucket owns no buffer of its
//!   own, and the slab grows only to the peak coarse occupancy.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the level-0 bucket width in nanoseconds (512 ns).
pub const BASE_SHIFT: u32 = 9;
/// log2 of the bucket count per level (256 buckets).
pub const SLOT_BITS: u32 = 8;
/// Buckets per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels below the overflow heap.
pub const LEVELS: usize = 3;

const SLOT_MASK: u64 = (SLOTS as u64) - 1;
const WORDS: usize = SLOTS / 64;
/// The empty list in the coarse slab.
const NIL: u32 = u32::MAX;

#[inline]
const fn level_shift(lvl: usize) -> u32 {
    BASE_SHIFT + SLOT_BITS * lvl as u32
}

/// Caller-chosen arrival keys ([`TimingWheel::push_at_key`]) must lie
/// below this bound; the scheduler appends its monotone push counter in
/// the low 32 bits (so equal caller keys at one instant drain in push
/// order — e.g. two live arrivals on one link across a down/up flap)
/// and the composed key must stay below the timer class at `2^62`.
pub const ARRIVAL_KEY_LIMIT: u64 = 1 << 30;
/// Class tag of plain-push timer events.
const TIMER_CLASS: u64 = 1 << 62;

/// One scheduled event: the instant, the class-encoding tie-breaker, the
/// payload. Ordered by `(at, key)` — the engine's total order.
#[derive(Debug, Clone)]
pub struct SchedEntry<T> {
    /// When the event fires.
    pub at: Time,
    /// Tie-break key (see the module docs for the class encoding).
    pub key: u64,
    /// The event payload.
    pub ev: T,
}

impl<T> PartialEq for SchedEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<T> Eq for SchedEntry<T> {}
impl<T> PartialOrd for SchedEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for SchedEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// Scheduler occupancy/behavior counters, surfaced in `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Peak number of pending events over the run.
    pub peak_pending: u64,
    /// Entries re-filed from a coarser wheel level into a finer one as the
    /// clock advanced.
    pub cascades: u64,
    /// Entries that landed beyond the wheel horizon in the overflow heap.
    pub overflow_pushes: u64,
}

/// Hierarchical timing wheel preserving exact `(at, seq)` pop order.
///
/// Invariants (all times in ns):
///
/// * `cur` is a level-0 bucket boundary; every pending event with
///   `at < cur` sits in `run`, sorted ascending by `(at, key)`.
/// * A level-`l` bucket with absolute index `s` (i.e. covering
///   `[s << shift_l, (s+1) << shift_l)`) is occupied only for
///   `s ∈ [cur >> shift_l, (cur >> shift_l) + SLOTS)`, so the ring index
///   `s & SLOT_MASK` is unambiguous.
/// * Coarse buckets never contain events of the coarse bucket `cur` is in:
///   placement always picks the finest level that can hold the event.
/// * Every slab slot is either on exactly one coarse bucket's list and
///   holds an entry, or on the free list and holds `None`.
/// * Overflow entries all lie at or beyond every wheel entry's bucket.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// `near[s & SLOT_MASK]`: unsorted entries of one level-0 bucket.
    near: Vec<Vec<SchedEntry<T>>>,
    /// The largest capacity a level-0 bucket has grown to: the next
    /// bucket that must grow goes straight there.
    near_high: usize,
    /// `coarse[l - 1][s & SLOT_MASK]`: the first slab slot of a level-`l`
    /// bucket's list, or `NIL`.
    coarse: [[u32; SLOTS]; LEVELS - 1],
    /// The entries of every coarse bucket, linked through `next`.
    slab: Vec<Slot<T>>,
    /// Head of the list of free slab slots, or `NIL`.
    free: u32,
    /// Per-level bucket-occupancy bitmaps (`SLOTS` bits each).
    occ: [[u64; WORDS]; LEVELS],
    /// The opened level-0 bucket plus stragglers, ascending by
    /// `(at, key)` and popped from the front.
    run: VecDeque<SchedEntry<T>>,
    /// Drain front: a level-0 boundary; everything earlier is in `run`.
    cur: u64,
    /// Events beyond the level-`LEVELS-1` horizon.
    overflow: BinaryHeap<Reverse<SchedEntry<T>>>,
    len: usize,
    seq: u64,
    peak: usize,
    cascades: u64,
    overflow_pushes: u64,
}

/// One coarse-slab slot: a bucket's entry and the next slot of its list
/// (or, when free, `None` and the next free slot).
#[derive(Debug)]
struct Slot<T> {
    entry: Option<SchedEntry<T>>,
    next: u32,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel {
            near: (0..SLOTS).map(|_| Vec::new()).collect(),
            near_high: 0,
            coarse: [[NIL; SLOTS]; LEVELS - 1],
            slab: Vec::new(),
            free: NIL,
            occ: [[0; WORDS]; LEVELS],
            run: VecDeque::new(),
            cur: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            peak: 0,
            cascades: 0,
            overflow_pushes: 0,
        }
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel at time 0.
    pub fn new() -> TimingWheel<T> {
        TimingWheel::default()
    }

    /// Schedules a timer-class event at `at`. `at` must be no earlier
    /// than the `at` of the last popped event (the discrete-event
    /// contract; the engine never schedules into the past).
    pub fn push(&mut self, at: Time, ev: T) {
        self.seq += 1;
        let key = TIMER_CLASS | self.seq;
        self.push_entry(SchedEntry { at, key, ev });
    }

    /// Schedules an arrival-class event with a caller-chosen tie-break
    /// key (`key < 2^30`): same-instant arrivals order by key, ahead of
    /// every timer at that instant; equal keys drain in push order (the
    /// counter in the low bits breaks the tie).
    pub fn push_at_key(&mut self, at: Time, key: u64, ev: T) {
        debug_assert!(key < ARRIVAL_KEY_LIMIT, "arrival key overflows its class");
        self.seq += 1;
        let key = (key << 32) | (self.seq & 0xFFFF_FFFF);
        self.push_entry(SchedEntry { at, key, ev });
    }

    fn push_entry(&mut self, entry: SchedEntry<T>) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.place(entry);
    }

    /// Pops the `(at, key)`-minimal pending event.
    pub fn pop(&mut self) -> Option<SchedEntry<T>> {
        loop {
            if let Some(e) = self.run.pop_front() {
                self.len -= 1;
                return Some(e);
            }
            if self.len == 0 {
                return None;
            }
            // Pick the earliest occupied bucket across levels. On equal
            // starts the coarser bucket wins: its window covers the finer
            // one, so it must cascade before the finer bucket drains.
            let mut best: Option<(usize, u64)> = None;
            for lvl in 0..LEVELS {
                if let Some(abs) = self.first_occupied(lvl) {
                    let start = abs << level_shift(lvl);
                    match best {
                        Some((blvl, babs)) if (babs << level_shift(blvl)) < start => {}
                        _ => best = Some((lvl, abs)),
                    }
                }
            }
            let Some((lvl, abs)) = best else {
                // Wheel empty: jump the clock to the overflow head and
                // refill everything within the new horizon.
                let head = self.overflow.peek().expect("len > 0, wheels empty").0.at.0;
                self.cur = self.cur.max(head >> BASE_SHIFT << BASE_SHIFT);
                let horizon = ((self.cur >> level_shift(LEVELS - 1)) + SLOTS as u64)
                    << level_shift(LEVELS - 1);
                self.pull_overflow(horizon);
                continue;
            };
            let shift = level_shift(lvl);
            let start = abs << shift;
            let end = start + (1 << shift);
            if matches!(self.overflow.peek(), Some(Reverse(e)) if e.at.0 < end) {
                // Rare: the horizon moved past overflow entries. Re-place
                // them before committing to this bucket.
                self.cur = self.cur.max(start);
                self.pull_overflow(end);
                continue;
            }
            self.cur = self.cur.max(start);
            let idx = (abs & SLOT_MASK) as usize;
            self.occ[lvl][idx / 64] &= !(1u64 << (idx % 64));
            if lvl == 0 {
                // Reached: sort once and advance the drain front past this
                // bucket. The drained run's buffer becomes the emptied
                // bucket; both conversions keep their allocation.
                debug_assert!(self.run.is_empty());
                let mut bucket = std::mem::take(&mut self.near[idx]);
                bucket.sort_unstable_by_key(|e| (e.at, e.key));
                let drained = std::mem::replace(&mut self.run, VecDeque::from(bucket));
                self.near[idx] = Vec::from(drained);
                self.cur = end;
            } else {
                // Cascade one coarse bucket into finer levels, freeing
                // each slot before its entry is placed again.
                let mut i = std::mem::replace(&mut self.coarse[lvl - 1][idx], NIL);
                while i != NIL {
                    let slot = &mut self.slab[i as usize];
                    let entry = slot.entry.take().expect("a listed slot holds an entry");
                    let next = std::mem::replace(&mut slot.next, self.free);
                    self.free = i;
                    self.cascades += 1;
                    self.place(entry);
                    i = next;
                }
            }
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupancy counters.
    pub fn counters(&self) -> SchedCounters {
        SchedCounters {
            peak_pending: self.peak as u64,
            cascades: self.cascades,
            overflow_pushes: self.overflow_pushes,
        }
    }

    /// Files an entry into the run / the finest fitting level / overflow.
    fn place(&mut self, entry: SchedEntry<T>) {
        let at = entry.at.0;
        if at < self.cur {
            // Inside the already-drained window (a same-instant push
            // during a bucket drain): joins the run at its rank.
            let rank = (entry.at, entry.key);
            let pos = self.run.partition_point(|e| (e.at, e.key) < rank);
            self.run.insert(pos, entry);
            return;
        }
        for lvl in 0..LEVELS {
            let shift = level_shift(lvl);
            if (at >> shift) - (self.cur >> shift) < SLOTS as u64 {
                let idx = ((at >> shift) & SLOT_MASK) as usize;
                self.occ[lvl][idx / 64] |= 1u64 << (idx % 64);
                if lvl == 0 {
                    let bucket = &mut self.near[idx];
                    if bucket.len() == bucket.capacity() {
                        // Grow once, to the high-water mark, doubling at
                        // least (the floor a `Vec` would grow by itself).
                        let want = self.near_high.max(2 * bucket.len()).max(4);
                        bucket.reserve_exact(want - bucket.len());
                        self.near_high = bucket.capacity();
                    }
                    bucket.push(entry);
                } else {
                    let head = &mut self.coarse[lvl - 1][idx];
                    let slot = Slot {
                        entry: Some(entry),
                        next: *head,
                    };
                    *head = if self.free == NIL {
                        let i = u32::try_from(self.slab.len())
                            .ok()
                            .filter(|&i| i != NIL)
                            .expect("coarse slab indices stay below NIL");
                        self.slab.push(slot);
                        i
                    } else {
                        let i = self.free;
                        self.free = std::mem::replace(&mut self.slab[i as usize], slot).next;
                        i
                    };
                }
                return;
            }
        }
        self.overflow_pushes += 1;
        self.overflow.push(Reverse(entry));
    }

    /// Re-places overflow entries with `at < bound` into the wheel.
    /// `bound` must be within the current horizon so they cannot bounce
    /// back to overflow.
    fn pull_overflow(&mut self, bound: u64) {
        while matches!(self.overflow.peek(), Some(Reverse(e)) if e.at.0 < bound) {
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// The smallest occupied absolute bucket index of a level, scanning
    /// the occupancy bitmap one rotation from the bucket holding `cur`.
    fn first_occupied(&self, lvl: usize) -> Option<u64> {
        let base = self.cur >> level_shift(lvl);
        let p0 = (base & SLOT_MASK) as usize;
        let occ = &self.occ[lvl];
        let (w0, b0) = (p0 / 64, p0 % 64);
        for k in 0..=WORDS {
            let wi = (w0 + k) % WORDS;
            let mut w = occ[wi];
            if k == 0 {
                w &= !0u64 << b0;
            } else if k == WORDS {
                w &= (1u64 << b0) - 1; // wrapped tail of the first word
            }
            if w != 0 {
                let p = wi * 64 + w.trailing_zeros() as usize;
                let dist = (p + SLOTS - p0) as u64 & SLOT_MASK;
                return Some(base + dist);
            }
        }
        None
    }

    /// Coarse-slab slots, and how many of them hold an entry.
    #[cfg(test)]
    fn coarse_slab(&self) -> (usize, usize) {
        let held = self.slab.iter().filter(|s| s.entry.is_some()).count();
        (self.slab.len(), held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a scheduler completely, asserting the pop order is
    /// non-decreasing in `(at, seq)`.
    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at.0, e.key, e.ev));
        }
        assert!(out.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        out
    }

    #[test]
    fn same_instant_pops_in_push_order() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.push(Time(1_000), i);
        }
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cross_level_order_is_global() {
        let mut w = TimingWheel::new();
        // One event per scale: level 0, level 1, level 2, overflow.
        w.push(Time::us(1), 0);
        w.push(Time::ms(5), 1);
        w.push(Time::ms(500), 2);
        w.push(Time(30_000_000_000), 3); // 30 s — beyond the wheel horizon
        w.push(Time(100), 4);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, vec![4, 0, 1, 2, 3]);
        assert!(w.counters().overflow_pushes >= 1);
        assert!(w.counters().cascades >= 2);
    }

    #[test]
    fn pushes_during_drain_join_current_bucket() {
        let mut w = TimingWheel::new();
        w.push(Time(100), 0);
        w.push(Time(100), 1);
        let first = w.pop().unwrap();
        assert_eq!(first.ev, 0);
        // Same instant as the event being handled: must still pop before
        // anything later, after the already-queued same-instant event.
        w.push(Time(100), 2);
        w.push(Time(101), 3);
        w.push(Time::ms(1), 4);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_gaps_and_bucket_boundaries() {
        let mut w = TimingWheel::new();
        // Straddle level-0 bucket edges and level-1 boundaries exactly.
        let g0 = 1u64 << BASE_SHIFT;
        let g1 = 1u64 << level_shift(1);
        for (i, &at) in [g0 - 1, g0, g0 + 1, g1 - 1, g1, g1 + 1, 7 * g1, 200 * g1]
            .iter()
            .enumerate()
        {
            w.push(Time(at), i as u32);
        }
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn counters_track_peak_occupancy() {
        let mut q = TimingWheel::new();
        for i in 0..50u32 {
            q.push(Time(i as u64 * 10), i);
        }
        for _ in 0..20 {
            q.pop();
        }
        assert_eq!(q.len(), 30);
        assert_eq!(q.counters().peak_pending, 50);
    }

    /// A level-0 bucket that must grow goes straight to the largest
    /// capacity any bucket has grown to: after one bucket held `N`
    /// entries, an empty one takes `N` with a single allocation.
    #[test]
    fn level0_bucket_grows_once_to_the_high_water() {
        const N: u32 = 100;
        let mut w = TimingWheel::new();
        for i in 0..N {
            w.push(Time(1_000), i);
        }
        assert_eq!(drain(&mut w).len(), N as usize);
        let at = Time(1_000 + (10 << BASE_SHIFT));
        let idx = ((at.0 >> BASE_SHIFT) & SLOT_MASK) as usize;
        assert_eq!(w.near[idx].capacity(), 0, "a bucket nothing was filed in");
        w.push(at, 0);
        let grown = w.near[idx].capacity();
        assert!(grown >= N as usize, "first push grew the bucket to {grown}");
        for i in 1..N {
            w.push(at, i);
        }
        assert_eq!(w.near[idx].capacity(), grown, "the bucket grew again");
        assert_eq!(drain(&mut w).len(), N as usize);
    }

    /// A long stream that keeps a bounded number of events in the coarse
    /// levels: every cascade frees its slots, so the slab never grows past
    /// the most entries it held at once.
    #[test]
    fn coarse_pool_reuses_freed_slots() {
        let mut w = TimingWheel::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut ahead = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            200_000 + state % 25_000_000 // 200 µs – 25 ms: level 1
        };
        for i in 0..64u32 {
            w.push(Time(ahead()), i);
        }
        let mut peak_held = 0;
        for _ in 0..20_000 {
            let e = w.pop().expect("the stream never drains");
            w.push(Time(e.at.0 + ahead()), e.ev);
            let (slots, held) = w.coarse_slab();
            peak_held = peak_held.max(held);
            assert!(
                slots <= peak_held,
                "{slots} slots for at most {peak_held} entries"
            );
        }
        assert!(peak_held <= 64);
        assert!(w.counters().cascades > 10_000);
    }
}
