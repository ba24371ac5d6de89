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
//! pop must return the recorded `(at, key)`; a difference exits 1. What
//! it prints per trace is `bench::compare`'s summary.
#![allow(dead_code, unused_imports)]

mod bench;
mod change;
mod parent;
mod time;

use time::Time;

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

fn main() {
    assert_eq!(std::mem::size_of::<Event>(), 16);
    assert_eq!(
        std::mem::size_of::<parent::SchedEntry<Event>>(),
        std::mem::size_of::<change::SchedEntry<Event>>()
    );
    let (reps, paths) = bench::args();
    for path in &paths {
        let trace = bench::read_trace::<2>(path);
        let pops = trace.iter().filter(|r| r[1] & POP != 0).count();
        let header = format!(
            "{} ops ({} pushes, {pops} pops), {reps} reps, every pop as recorded",
            trace.len(),
            trace.len() - pops
        );
        let name = bench::name(path);
        bench::compare(&name, &header, reps, &trace, replay_parent, replay_change);
    }
}
