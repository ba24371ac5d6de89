//! Differential property test: the timing wheel is observationally equal
//! to the binary heap, its reference model.
//!
//! The engine's contract is that events pop in strictly ascending
//! `(at, key)` order. These properties drive identical randomized event
//! streams — interleaved pushes of both classes (keyed arrivals, timers)
//! and pops, deltas spanning every wheel level and the overflow heap,
//! heavy same-instant ties with equal arrival keys — through
//! [`HeapQueue`] and [`TimingWheel`] and require the popped sequences to
//! be identical element by element. The engine only ever runs on the
//! wheel, so this is the one place its order is checked against an
//! independent implementation.

use contra_sim::sched::ARRIVAL_KEY_LIMIT;
use contra_sim::{SchedEntry, Time, TimingWheel};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Class tag of plain-push timer events (the wheel's composed-key
/// encoding, restated).
const TIMER_CLASS: u64 = 1 << 62;

/// The reference model: one `BinaryHeap` over all pending events, with
/// the wheel's public API.
struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<SchedEntry<T>>>,
    seq: u64,
}

impl<T> HeapQueue<T> {
    fn new() -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// A timer-class event: same-instant timers drain in push order.
    fn push(&mut self, at: Time, ev: T) {
        self.seq += 1;
        let key = TIMER_CLASS | self.seq;
        self.heap.push(Reverse(SchedEntry { at, key, ev }));
    }

    /// An arrival-class event: same-instant arrivals order by `key`,
    /// ahead of every timer; equal keys drain in push order.
    fn push_at_key(&mut self, at: Time, key: u64, ev: T) {
        assert!(key < ARRIVAL_KEY_LIMIT, "arrival key overflows its class");
        self.seq += 1;
        let key = (key << 32) | (self.seq & 0xFFFF_FFFF);
        self.heap.push(Reverse(SchedEntry { at, key, ev }));
    }

    fn pop(&mut self) -> Option<SchedEntry<T>> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Mixed-scale delay from two random words: picks a regime (sub-bucket,
/// level 0, level 1, level 2, beyond-horizon) and a delta inside it, so
/// streams exercise bucket boundaries, cascades and the overflow path.
fn delta(class: u8, raw: u64) -> u64 {
    match class % 16 {
        0..=5 => raw % 512,             // inside one level-0 bucket
        6..=8 => raw % 130_000,         // across level-0 buckets
        9..=11 => raw % 33_000_000,     // level 1 (WAN delays, probes)
        12 | 13 => raw % 8_000_000_000, // level 2 (RTOs, far timers)
        14 => raw % 60_000_000_000,     // beyond the horizon: overflow
        _ => 0,                         // exact same-instant tie
    }
}

/// The arrival key an op's `kind` byte selects: a handful of small keys
/// (so equal keys at one instant are common) at either end of the
/// class's range `[0, ARRIVAL_KEY_LIMIT)`.
fn arrival_key(kind: u8) -> u64 {
    let small = (kind >> 2) as u64 % 4;
    if kind & 0x80 == 0 {
        small
    } else {
        ARRIVAL_KEY_LIMIT - 1 - small
    }
}

/// Runs one op stream through both schedulers, returning both pop logs.
/// An op is `(class, raw, kind)`: `class` picks pop vs push and the
/// delay regime, `raw` the delay, `kind` the push class and arrival key.
#[allow(clippy::type_complexity)]
fn run_stream(ops: &[(u8, u64, u8)]) -> (Vec<(Time, u64, u32)>, Vec<(Time, u64, u32)>) {
    let mut wheel = TimingWheel::new();
    let mut heap = HeapQueue::new();
    let mut wheel_log = Vec::new();
    let mut heap_log = Vec::new();
    let mut now = 0u64;
    let mut log = |w: Option<SchedEntry<u32>>, h: Option<SchedEntry<u32>>| {
        if let Some(e) = w {
            wheel_log.push((e.at, e.key, e.ev));
        }
        if let Some(e) = h {
            heap_log.push((e.at, e.key, e.ev));
        }
    };
    for (i, &(class, raw, kind)) in ops.iter().enumerate() {
        if class % 4 == 3 {
            // Pop from both; the earlier of push/pop mix keeps queues
            // nonempty often enough to interleave meaningfully.
            let (w, h) = (wheel.pop(), heap.pop());
            if let Some(e) = &w {
                now = e.at.0; // discrete-event clock: time only advances
            }
            log(w, h);
        } else {
            let at = Time(now + delta(class, raw));
            let ev = i as u32;
            if kind % 2 == 0 {
                wheel.push(at, ev);
                heap.push(at, ev);
            } else {
                wheel.push_at_key(at, arrival_key(kind), ev);
                heap.push_at_key(at, arrival_key(kind), ev);
            }
        }
    }
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        if w.is_none() && h.is_none() {
            break;
        }
        log(w, h);
    }
    assert!(wheel.is_empty() && heap.is_empty());
    (wheel_log, heap_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical random streams pop identically, element by element.
    #[test]
    fn wheel_matches_heap_on_random_streams(
        ops in proptest::collection::vec((0u8..=255, 0u64..u64::MAX, 0u8..=255), 0..3000),
    ) {
        let (wheel_log, heap_log) = run_stream(&ops);
        prop_assert_eq!(&wheel_log, &heap_log);
        // And the clock never runs backwards. (Keys need not ascend
        // across pops: an arrival pushed at the instant of a timer that
        // already popped carries a smaller key than it.)
        prop_assert!(wheel_log.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Tie-heavy streams (every push lands on one of a handful of
    /// instants) exercise the class order and the seq tie-break
    /// specifically.
    #[test]
    fn wheel_matches_heap_under_heavy_ties(
        ops in proptest::collection::vec((0u8..=3, 0u64..4, 0u8..=255), 0..1500),
    ) {
        // class ∈ {0..3}: pops every 4th op on average, deltas tiny and
        // highly collident.
        let (wheel_log, heap_log) = run_stream(&ops);
        prop_assert_eq!(&wheel_log, &heap_log);
    }
}

/// Pops both schedulers to empty, asserting they agree element by
/// element, and returns the payloads in pop order.
fn drain_both(wheel: &mut TimingWheel<u32>, heap: &mut HeapQueue<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    loop {
        match (wheel.pop(), heap.pop()) {
            (None, None) => return out,
            (Some(a), Some(b)) => {
                assert_eq!((a.at, a.key, a.ev), (b.at, b.key, b.ev));
                out.push(a.ev);
            }
            (a, b) => panic!("one scheduler ran dry first: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn interleaved_push_pop_matches_heap() {
    // A fixed but irregular schedule driven through both schedulers.
    let mut wheel = TimingWheel::new();
    let mut heap = HeapQueue::new();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut now = 0u64;
    for i in 0..20_000u32 {
        let delta = match rnd() % 10 {
            0..=5 => rnd() % 2_000,      // sub-bucket to level 0
            6 | 7 => rnd() % 300_000,    // level 0/1
            8 => rnd() % 40_000_000,     // level 1/2
            _ => rnd() % 20_000_000_000, // level 2 + overflow
        };
        wheel.push(Time(now + delta), i);
        heap.push(Time(now + delta), i);
        if rnd() % 3 == 0 {
            let (a, b) = (wheel.pop().unwrap(), heap.pop().unwrap());
            assert_eq!((a.at, a.key, a.ev), (b.at, b.key, b.ev));
            now = a.at.0;
        }
    }
    drain_both(&mut wheel, &mut heap);
    assert_eq!(wheel.len(), 0);
}

/// Stragglers — pushes behind the drain front, at an instant no earlier
/// than the last pop — land at their rank in the opened bucket: at the
/// front instant (behind its timers, ahead of its later arrivals), before
/// the run's last entry, after it, and into a run already drained empty.
#[test]
fn stragglers_land_at_their_rank() {
    /// Both schedulers, fed the same pushes, checked on every pop.
    struct Both(TimingWheel<u32>, HeapQueue<u32>, u32);
    impl Both {
        fn push(&mut self, at: u64, key: Option<u64>) {
            self.2 += 1;
            if let Some(k) = key {
                self.0.push_at_key(Time(at), k, self.2);
                self.1.push_at_key(Time(at), k, self.2);
            } else {
                self.0.push(Time(at), self.2);
                self.1.push(Time(at), self.2);
            }
        }
        fn pop(&mut self) -> u64 {
            let (a, b) = (self.0.pop().unwrap(), self.1.pop().unwrap());
            assert_eq!((a.at, a.key, a.ev), (b.at, b.key, b.ev));
            a.at.0
        }
    }
    let mut q = Both(TimingWheel::new(), HeapQueue::new(), 0);
    // One level-0 bucket, [1024, 1536): a run of timers and arrivals.
    for &(at, key) in &[
        (1_100, None),
        (1_100, Some(5)),
        (1_200, None),
        (1_200, Some(1)),
        (1_300, Some(9)),
        (1_400, None),
    ] {
        q.push(at, key);
    }
    let front = q.pop(); // opens the bucket
    assert_eq!(front, 1_100);
    q.push(front, None); // the front instant, a timer
    q.push(front, Some(7)); // the front instant, an arrival
    q.push(1_250, Some(0)); // before the run's last entry
    q.push(1_200, Some(2)); // between two queued entries
    q.push(1_500, None); // after the run's last entry
    q.push(1_535, Some(3)); // the bucket's last instant
    while q.0.len() > 1 {
        q.pop();
    }
    let last = q.pop();
    assert_eq!(last, 1_535);
    // The run is empty but the front has not moved: stragglers start a
    // new run, ahead of the next bucket.
    q.push(2_000, None);
    q.push(last, None);
    q.push(last, Some(4));
    q.push(last, Some(1));
    assert_eq!(drain_both(&mut q.0, &mut q.1).len(), 4);
}

/// Runs the body once against each scheduler type, bound to `$q`.
macro_rules! on_both {
    ($q:ident => $body:block) => {{
        {
            let mut $q = TimingWheel::new();
            $body
        }
        {
            let mut $q = HeapQueue::new();
            $body
        }
    }};
}

/// Same-instant arrivals with *equal* caller keys (one link's pre-flap
/// in-flight packet + a post-recovery packet) drain in push order,
/// identically on both schedulers — the composed key's low bits carry the
/// push counter, so no two entries ever compare equal and pop order can
/// never fall to implementation whims.
#[test]
fn equal_arrival_keys_drain_in_push_order() {
    on_both!(q => {
        let t = Time::us(7);
        for i in 0..50u32 {
            q.push_at_key(t, 3, i); // same instant, same link key
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.ev)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    });
}

/// The class order at one instant: arrivals (by key), then timers (push
/// order) — on both schedulers.
#[test]
fn classes_order_arrivals_then_timers() {
    on_both!(q => {
        let t = Time::us(3);
        q.push(t, 10u32); // a timer pushed first...
        q.push_at_key(t, 7, 1);
        q.push(t, 11);
        q.push_at_key(t, 2, 0); // ...the arrival with the smallest key last
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.ev)).collect();
        assert_eq!(order, vec![0, 1, 10, 11]);
    });
}
