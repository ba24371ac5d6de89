//! The link replay of `scripts/replay.sh --layer link`: two versions of
//! `crates/sim/src/link.rs`, compiled side by side as the modules
//! `parent` and `change` over the working tree's `time.rs` and a two-item
//! `packet` shim, fed the same recorded link operations in alternating
//! reps within one process.
//!
//!   replay REPS TRACE...
//!
//! A trace is what `record_link.patch` writes: four little-endian words
//! per operation (the table in its `link_record.rs`). Every `accept`
//! must report the recorded busy start, arrival kind and instant, every
//! `pop_train` the recorded slot and next head, every settle the
//! recorded queued bytes, every utilization read the recorded bits, and
//! every failure the recorded train; a difference exits 1. What it prints
//! per trace is `bench::compare`'s summary.
//!
//! A link fails through an adapter written for its version's API, chosen
//! when the replay is compiled: `--cfg parent_detach_train` for a
//! `link.rs` whose `set_down` hands the queue away and whose
//! `detach_train` empties the rest; otherwise `set_down` drains the train.
#![allow(dead_code, unused_imports)]

mod bench;
mod change;
mod packet;
mod parent;
mod time;

use packet::PktRef;
use time::Time;

const NEW: u64 = 0;
const ACCEPT: u64 = 1;
const POP: u64 = 2;
const SETTLE: u64 = 3;
const UTIL: u64 = 4;
const DOWN: u64 = 5;
const UP: u64 = 6;

/// The recorder's fold of a train taken off a failing link: an entry on
/// the wire with its arrival, a flushed one with 0.
fn fold(h: u64, at: u64, slot: u32) -> u64 {
    (h ^ at.rotate_left(17) ^ slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `[on wire << 32 | flushed, fold]` of the train taken off a failing
/// link: its entries in order, an on-wire one with its arrival.
fn down_words(train: impl Iterator<Item = (Option<Time>, u32)>) -> [u64; 2] {
    let (mut h, mut counts) = (0, 0);
    for (at, slot) in train {
        h = fold(h, at.map_or(0, |at| at.0), slot);
        counts += if at.is_some() { 1 << 32 } else { 1 };
    }
    [counts, h]
}

/// A replay through one module's links: `Err(i)` names the first record
/// whose result differs. `$down` fails a link the way its API does.
macro_rules! replay_with {
    ($name:ident, $module:ident, $down:ident) => {
        fn $name(trace: &[[u64; 4]]) -> Result<(), usize> {
            use $module::{Arrival, LinkState};
            let mut links: Vec<LinkState> = Vec::new();
            for (i, &[head, w1, w2, w3]) in trace.iter().enumerate() {
                let (link, aux, now) = ((head >> 32 & 0xFF_FFFF) as usize, head as u32, Time(w1));
                let same = match head >> 56 {
                    NEW => {
                        links.push(LinkState::new(f64::from_bits(w1), Time(w2), aux, Time(w3)));
                        true
                    }
                    ACCEPT => {
                        let pkt = PktRef {
                            slot: aux,
                            size_bytes: w2 as u32,
                        };
                        let word = match links[link].accept(pkt, now) {
                            Err(reason) => reason as u64,
                            Ok((busy_start, arrival)) => {
                                let (kind, at) = match arrival {
                                    Arrival::Alone(at) => (1, at.0),
                                    Arrival::Head(at) => (2, at.0),
                                    Arrival::Behind => (3, 0),
                                };
                                kind << 62 | (busy_start as u64) << 61 | at
                            }
                        };
                        word == w3
                    }
                    POP => {
                        let (slot, next) = links[link].pop_train(now);
                        slot == aux && next.map_or(u64::MAX, |t| t.0) == w2
                    }
                    SETTLE => {
                        links[link].settle(now);
                        links[link].queued_bytes() as u64 == w2
                    }
                    UTIL => links[link].utilization(now).to_bits() == w2,
                    DOWN => {
                        links[link].settle(now);
                        $down(&mut links[link]) == [w2, w3]
                    }
                    UP => {
                        links[link].set_up();
                        true
                    }
                    _ => false,
                };
                if !same {
                    return Err(i);
                }
            }
            Ok(())
        }
    };
}

/// Fails a link whose `set_down` returns the flushed queue and whose
/// `detach_train` empties what is on the wire.
#[cfg(parent_detach_train)]
fn down_parent(link: &mut parent::LinkState) -> [u64; 2] {
    let flushed = link.set_down();
    let on_wire = link.detach_train().map(|(at, slot)| (Some(at), slot));
    down_words(on_wire.chain(flushed.iter().map(|pkt| (None, pkt.slot))))
}

/// Fails a link whose `set_down` drains its train, on-wire entries first.
macro_rules! down_by_drain {
    ($name:ident, $module:ident) => {
        fn $name(link: &mut $module::LinkState) -> [u64; 2] {
            let on_wire = link.train_on_wire();
            let train = link.set_down().enumerate();
            down_words(train.map(|(k, (at, pkt))| ((k < on_wire).then_some(at), pkt.slot)))
        }
    };
}
#[cfg(not(parent_detach_train))]
down_by_drain!(down_parent, parent);
down_by_drain!(down_change, change);

replay_with!(replay_parent, parent, down_parent);
replay_with!(replay_change, change, down_change);

fn main() {
    let (reps, paths) = bench::args();
    for path in &paths {
        let trace = bench::read_trace::<4>(path);
        let count = |op| trace.iter().filter(|r| r[0] >> 56 == op).count();
        let header = format!(
            "{} ops ({} links, {} accepts, {} pops, {} settles, {} utilization reads, \
             {} downs), {reps} reps, every result as recorded",
            trace.len(),
            count(NEW),
            count(ACCEPT),
            count(POP),
            count(SETTLE),
            count(UTIL),
            count(DOWN),
        );
        let name = bench::name(path);
        bench::compare(&name, &header, reps, &trace, replay_parent, replay_change);
    }
}
