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
use contra_sim::{HeapQueue, SchedEntry, Time, TimingWheel};
use proptest::prelude::*;

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
