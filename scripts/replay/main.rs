//! The scheduler replay of `scripts/replay.sh`: two versions of
//! `crates/sim/src/sched.rs`, compiled side by side as the modules
//! `parent` and `change`, fed the same recorded traces through their
//! public API in alternating reps within one process.
//!
//!   replay REPS TRACE...
//!
//! A trace is what `record.patch` writes: little-endian `[at, key]`
//! pairs, a pop with bit 63 of `key` set. A recorded key at or above the
//! timer class (2^62) is a `push`; any other is `push_at_key(at, key >>
//! 32)`, and the push counter then reproduces every composed key. Every
//! pop must return the recorded `(at, key)`; a difference exits 1.
//!
//! Per trace it prints each side's median replay time [quartiles], the
//! heap allocations of one replay, the median paired ratio change /
//! parent [IQR], and an A/A line: the parent against itself, replayed as
//! a third member of every rep, the floor the ratio has to clear.
#![allow(dead_code, unused_imports)]

mod change;
mod parent;
mod time;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use time::Time;

/// Heap allocations and reallocations, counted the way
/// `contra_benchmark`'s `allocs_per_run` counts them.
struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The engine's event payload, mirrored field for field (node and link
/// ids are `u32` newtypes there), so that entries have its size and its
/// `Option` niche.
#[derive(Debug)]
enum Event {
    Arrive { node: u32, from: u32, pkt: u32 },
    TrainHead { link: u32, epoch: u64 },
    Tick { node: u32 },
    FlowStart { flow: u32 },
    RtoCheck { flow: u32, epoch: u64 },
    UdpSend { flow: u32 },
    CableFault { a: u32, b: u32, down: bool },
    QueueSample,
}

const POP: u64 = 1 << 63;
const TIMER_CLASS: u64 = 1 << 62;

/// A replay through one module's wheel: `Err(i)` names the first op
/// whose pop differs from the recording.
macro_rules! replay_with {
    ($name:ident, $module:ident) => {
        fn $name(trace: &[[u64; 2]]) -> Result<(), usize> {
            let mut wheel = $module::TimingWheel::<Event>::new();
            for (i, &[at, key]) in trace.iter().enumerate() {
                if key & POP != 0 {
                    match wheel.pop() {
                        Some(e) if e.at == Time(at) && e.key == key & !POP => {}
                        _ => return Err(i),
                    }
                } else if key >= TIMER_CLASS {
                    wheel.push(Time(at), Event::Tick { node: i as u32 });
                } else {
                    let pkt = i as u32;
                    let ev = Event::Arrive {
                        node: pkt,
                        from: 0,
                        pkt,
                    };
                    wheel.push_at_key(Time(at), key >> 32, ev);
                }
            }
            Ok(())
        }
    };
}
replay_with!(replay_parent, parent);
replay_with!(replay_change, change);

type Replay = fn(&[[u64; 2]]) -> Result<(), usize>;

/// One replay: seconds and allocations. Exits 1 on a differing pop.
fn timed(side: &str, name: &str, f: Replay, trace: &[[u64; 2]]) -> (f64, u64) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let done = std::hint::black_box(f)(trace);
    let secs = t0.elapsed().as_secs_f64();
    if let Err(i) = done {
        eprintln!("replay: {side} pops differently from the recording of {name} at op {i}");
        std::process::exit(1);
    }
    (secs, ALLOCS.load(Ordering::Relaxed) - allocs)
}

/// Median and quartiles, linear between order statistics (Python's
/// `statistics.quantiles(method="inclusive")`).
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.5), at(0.25), at(0.75)]
}

fn read_trace(path: &str) -> Vec<[u64; 2]> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("replay: {path}: {e}");
        std::process::exit(2);
    });
    if !bytes.len().is_multiple_of(16) {
        eprintln!(
            "replay: {path}: {} bytes is not a whole number of records",
            bytes.len()
        );
        std::process::exit(2);
    }
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
    bytes
        .chunks_exact(16)
        .map(|r| [word(&r[..8]), word(&r[8..])])
        .collect()
}

fn main() {
    assert_eq!(std::mem::size_of::<Event>(), 16);
    assert_eq!(
        std::mem::size_of::<parent::SchedEntry<Event>>(),
        std::mem::size_of::<change::SchedEntry<Event>>()
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: usize = match args.first().map(|r| r.parse()) {
        Some(Ok(n)) if n > 0 && args.len() > 1 => n,
        _ => {
            eprintln!("usage: replay REPS TRACE...");
            std::process::exit(2);
        }
    };
    for path in &args[1..] {
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or(path.clone(), |s| s.to_string_lossy().into_owned());
        let trace = read_trace(path);
        let pops = trace.iter().filter(|r| r[1] & POP != 0).count();
        // The warm-up rep counts allocations; the timed reps rotate the
        // order of the three members.
        let (_, parent_allocs) = timed("parent", &name, replay_parent, &trace);
        let (_, change_allocs) = timed("change", &name, replay_change, &trace);
        let members: [(&str, Replay); 3] = [
            ("parent", replay_parent),
            ("change", replay_change),
            ("parent", replay_parent),
        ];
        let mut secs = [Vec::new(), Vec::new(), Vec::new()];
        for rep in 0..reps {
            for k in 0..3 {
                let m = (rep + k) % 3;
                secs[m].push(timed(members[m].0, &name, members[m].1, &trace).0);
            }
        }
        let ratio =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x / y).collect() };
        let line = |label: &str, q: [f64; 3]| {
            println!("  {label:<22}{:.3} [{:.3}, {:.3}]", q[0], q[1], q[2])
        };
        println!(
            "{name}: {} ops ({} pushes, {pops} pops), {reps} reps, every pop as recorded",
            trace.len(),
            trace.len() - pops
        );
        for (label, s, allocs) in [
            ("parent", &secs[0], parent_allocs),
            ("change", &secs[1], change_allocs),
        ] {
            let q = quartiles(s);
            println!(
                "  {label:<22}{:.4} s [{:.4}, {:.4}]  allocations per replay {allocs}",
                q[0], q[1], q[2]
            );
        }
        line("change / parent", quartiles(&ratio(&secs[1], &secs[0])));
        line("A/A parent / parent", quartiles(&ratio(&secs[2], &secs[0])));
    }
}
