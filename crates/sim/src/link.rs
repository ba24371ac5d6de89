//! Link state: drop-tail queues, serialization, and utilization estimation.
//!
//! Each directed link owns a FIFO byte-bounded queue (default 1000 MSS, the
//! paper's buffer size) and a Hula-style decaying utilization estimator
//! that the dataplane reads when updating probe metric vectors.
//!
//! ## Serializers are arithmetic
//!
//! A link is FIFO, fixed-rate and never pre-empts, so the instant a queued
//! packet starts serializing — its *hand-over* — is known the moment the
//! link accepts it: the instant the serializer frees after everything
//! accepted before it. The engine therefore schedules no completion
//! event. `LinkState::accept` settles the link and computes the packet's
//! arrival from that arithmetic. A packet that finds nothing of the
//! link's outstanding — serializer idle, train empty — is an ordinary
//! arrival event and touches no deque; any other joins the link's
//! *train*, its one deque of `(arrival, packet)` in serialization order:
//! the first `on_wire` are on the wire, the rest are the queue. The engine
//! keeps only the head scheduled. Arrivals on a train strictly increase,
//! so feeding them to the scheduler one at a time changes no pop order; a
//! WAN link's thousands of in-flight packets wait there, not in the
//! scheduler.
//!
//! **Settling.** What a completion event used to change — `on_wire` and
//! `queued_bytes`, the estimator feed, the busy flag — is brought up to
//! date by `LinkState::settle` at the next touch of the link: it hands
//! over every waiting packet whose turn has passed, in order, at the same
//! integer nanoseconds the completions fired at; a hand-over moves no
//! packet. `pop_train` settles first if nothing is on the wire by the
//! link's count, since the head it takes left the queue before it
//! arrived, though nothing may have touched the link since.
//!
//! **Strictness.** A hand-over at instant S is visible to events *after*
//! S only: `settle(now)` performs those with `S < now`. This is where the
//! old "a completion sorts last in its instant" rule of the scheduler now
//! lives — a packet offered at the very instant the serializer frees still
//! queues behind it, and a queue sample at S still counts the packet that
//! starts at S. (The engine's last settle, at end of run, is inclusive of
//! `stop_at`, as the last completions were.)
//!
//! **Reads are pure.** Switch logic reads links through `&[LinkState]`
//! and cannot settle them, so [`LinkState::utilization`] replays the
//! hand-overs not yet settled on a copy of the estimator: the value — to
//! the bit — that settling first would have produced.
//!
//! Driven by hand ([`LinkState::enqueue`], [`LinkState::start_tx`],
//! [`LinkState::tx_done`] — micro-benchmarks, and the test-only reference
//! model that *does* schedule completions), a link is the plain state
//! machine it always was: `start_tx` takes its packet off the train, which
//! holds the queue alone.

use crate::packet::{PktRef, WireSize};
use crate::time::{tx_time, Time};
use std::collections::vec_deque::{Drain, VecDeque};

/// Decaying byte counter: `u ← u·(1 − Δt/τ) + size`, reset after a full
/// idle window. Normalized against `bandwidth · τ` this estimates link
/// utilization on the probe timescale — exactly the estimator Hula uses,
/// which Contra's `path.util` inherits.
#[derive(Debug, Clone)]
pub struct UtilEstimator {
    bytes: f64,
    last: Time,
    tau: Time,
    /// `bandwidth · τ / 8`: what the link sends in a window at capacity.
    window_bytes: f64,
}

impl UtilEstimator {
    /// New estimator with averaging window `tau` for a link of the given
    /// capacity.
    pub fn new(bandwidth_bps: f64, tau: Time) -> UtilEstimator {
        assert!(tau.0 > 0, "estimator window must be positive");
        UtilEstimator {
            bytes: 0.0,
            last: Time::ZERO,
            tau,
            window_bytes: bandwidth_bps * tau.as_secs_f64() / 8.0,
        }
    }

    fn decay(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last);
        if dt >= self.tau {
            self.bytes = 0.0;
        } else {
            self.bytes *= 1.0 - dt.0 as f64 / self.tau.0 as f64;
        }
        self.last = self.last.max(now);
    }

    /// Records a transmission of `size` bytes at `now`.
    pub fn on_tx(&mut self, size: u32, now: Time) {
        self.decay(now);
        self.bytes += size as f64;
    }

    /// Forces the estimator to read exactly `util` for a link of the given
    /// capacity when sampled at `at`. For protocol harnesses and fault
    /// injection in tests — production code only feeds [`UtilEstimator::on_tx`].
    pub fn force_utilization(&mut self, bandwidth_bps: f64, util: f64, at: Time) {
        assert!(util >= 0.0 && util.is_finite());
        self.last = at;
        self.bytes = util * bandwidth_bps * self.tau.as_secs_f64() / 8.0;
    }

    /// Estimated utilization in `[0, ~2]`, decayed to `now`.
    pub fn utilization(&self, now: Time) -> f64 {
        let dt = now.saturating_sub(self.last);
        if dt >= self.tau {
            return 0.0;
        }
        let decayed = self.bytes * (1.0 - dt.0 as f64 / self.tau.0 as f64);
        decayed / self.window_bytes
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Tail drop: the queue was full.
    QueueFull,
    /// The link was down.
    LinkDown,
    /// TTL reached zero (forwarding loop safety net).
    TtlExpired,
    /// The routing logic had no usable entry / policy forbade the path.
    NoRoute,
}

/// Runtime state of one directed link. Generic over what it queues,
/// of which it reads only the wire size ([`WireSize`]): the engine's
/// links queue [`PktRef`] pool slots, the default.
#[derive(Debug, Clone)]
pub struct LinkState<P = PktRef> {
    /// Capacity (bits/second), copied from the topology.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: Time,
    /// Queue capacity in bytes.
    pub qcap_bytes: u32,
    /// Bytes of packets whose serialization has not started (drop-tail
    /// capacity and queue-occupancy sampling both measure this).
    queued_bytes: u32,
    /// Whether a packet is being serialized — as far as the link has been
    /// told: once nothing is queued, `busy` outlives `busy_until` until the
    /// next `enqueue` looks at the clock.
    busy: bool,
    /// When the packet in service leaves the serializer: the next
    /// hand-over instant while anything is queued.
    busy_until: Time,
    /// When the serializer frees after everything accepted so far —
    /// `busy_until` plus the serialization of the whole queue. Kept by
    /// `accept`; meaningless on a link driven by hand.
    tail_free: Time,
    /// The packets on the wire, then the queue, as `(arrival, packet)` in
    /// serialization order; `Time::ZERO` when queued by hand. Here, not
    /// beside the engine's links, so the transmit path tests its emptiness
    /// on a cache line it already holds.
    train: VecDeque<(Time, P)>,
    /// How many of the train's first entries are on the wire.
    on_wire: usize,
    /// Link up/down.
    pub up: bool,
    /// Utilization estimator fed by transmissions on this link.
    pub estimator: UtilEstimator,
    /// Lifetime counters.
    pub bytes_tx: u64,
    /// Packets dropped at this link's queue.
    pub drops: u64,
    /// Bumped on every `set_down`, so the train-head event scheduled
    /// before a failure can be recognized as stale.
    pub epoch: u64,
    /// Last `(size, tx_time)` computed for this link. Capacity is fixed
    /// for a link's lifetime and traffic on one *directed* link is
    /// near-homogeneous (full segments one way, ACKs the other), so this
    /// one-entry memo removes the floating-point round from almost every
    /// serialization. Pure memoization: identical values, byte-identical
    /// schedules.
    tx_memo: (u32, Time),
}

/// What `enqueue` decided.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet queued; the link was idle, so serialization of this packet
    /// starts immediately — caller must schedule `start_tx`.
    StartTx,
    /// Packet queued behind others.
    Queued,
    /// Packet dropped.
    Dropped(DropReason),
}

impl<P: WireSize> LinkState<P> {
    /// Fresh link state.
    pub fn new(bandwidth_bps: f64, delay: Time, qcap_bytes: u32, tau: Time) -> LinkState<P> {
        LinkState {
            bandwidth_bps,
            delay,
            qcap_bytes,
            queued_bytes: 0,
            busy: false,
            busy_until: Time::ZERO,
            tail_free: Time::ZERO,
            train: VecDeque::new(),
            on_wire: 0,
            up: true,
            estimator: UtilEstimator::new(bandwidth_bps, tau),
            bytes_tx: 0,
            drops: 0,
            epoch: 0,
            // Size 0 never occurs (every packet carries headers), so the
            // sentinel can never mask a real lookup.
            tx_memo: (0, Time::ZERO),
        }
    }

    /// Admission of `bytes` at `now`: the link must be up and the queue
    /// have room. An admitted packet reports whether it takes the
    /// serializer from idle.
    #[inline]
    fn admit(&mut self, bytes: u32, now: Time) -> Result<bool, DropReason> {
        if !self.up {
            self.drops += 1;
            return Err(DropReason::LinkDown);
        }
        // A busy period nothing queues behind ends by the clock. At
        // `busy_until` itself it has not ended: a hand-over is visible
        // after its instant only, so this packet still finds the
        // serializer taken.
        if self.busy && self.on_wire == self.train.len() && now > self.busy_until {
            self.busy = false;
        }
        if self.queued_bytes + bytes > self.qcap_bytes {
            self.drops += 1;
            return Err(DropReason::QueueFull);
        }
        Ok(!std::mem::replace(&mut self.busy, true))
    }

    /// Puts `bytes` on the serializer at `now`; returns their
    /// transmission time, through the one-entry memo.
    #[inline]
    fn serialize(&mut self, bytes: u32, now: Time) -> Time {
        self.estimator.on_tx(bytes, now);
        self.bytes_tx += bytes as u64;
        let t = memo_tx(&mut self.tx_memo, bytes, self.bandwidth_bps);
        self.busy_until = now + t;
        t
    }

    /// Hands the queue's head to the serializer at `now`: it stays on
    /// the train, now on the wire.
    #[inline]
    fn hand_over(&mut self, now: Time) -> Time {
        let bytes = self.train[self.on_wire].1.wire_bytes();
        self.on_wire += 1;
        self.queued_bytes -= bytes;
        self.serialize(bytes, now)
    }

    /// Offers a packet to the queue at `now`.
    pub fn enqueue(&mut self, pkt: P, now: Time) -> EnqueueOutcome {
        match self.admit(pkt.wire_bytes(), now) {
            Err(reason) => EnqueueOutcome::Dropped(reason),
            Ok(starts) => {
                self.queued_bytes += pkt.wire_bytes();
                self.train.push_back((Time::ZERO, pkt));
                if starts {
                    EnqueueOutcome::StartTx
                } else {
                    EnqueueOutcome::Queued
                }
            }
        }
    }

    /// Begins serializing the head packet at `now`. Returns the packet and
    /// its transmission time; it arrives `delay` after that.
    pub fn start_tx(&mut self, now: Time) -> Option<(P, Time)> {
        debug_assert!(self.busy && self.on_wire == 0, "driven by hand");
        let t = (self.on_wire < self.train.len()).then(|| self.hand_over(now))?;
        self.on_wire -= 1;
        self.train.pop_front().map(|(_, pkt)| (pkt, t))
    }

    /// Performs every hand-over strictly before `now`: each queued packet
    /// whose turn has come starts at the instant the serializer freed for
    /// it. Tests the queue before the clock — most links, most of the
    /// time, have nothing waiting.
    #[inline]
    pub(crate) fn settle(&mut self, now: Time) {
        while self.on_wire < self.train.len() && self.busy_until < now {
            self.hand_over(self.busy_until);
        }
    }

    /// For a caller that schedules completions itself: the serializer
    /// finished a packet. Returns `true` if another packet is waiting
    /// (caller should `start_tx` again).
    pub fn tx_done(&mut self) -> bool {
        self.busy = self.on_wire < self.train.len();
        self.busy
    }

    /// Takes the link down, discarding every packet whose serialization
    /// had not started (counted in `drops`), and empties the train in
    /// place: returns its entries in serialization order, those on the
    /// wire first, then the flushed ones.
    pub fn set_down(&mut self) -> Drain<'_, (Time, P)> {
        self.up = false;
        self.busy = false;
        self.epoch += 1;
        self.drops += (self.train.len() - self.on_wire) as u64;
        self.queued_bytes = 0;
        self.on_wire = 0;
        self.train.drain(..)
    }

    /// Brings the link back up.
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Estimated utilization at `now`, as if the link had been settled
    /// first: hand-overs before `now` that are still owed are replayed on
    /// a copy of the estimator.
    pub fn utilization(&self, now: Time) -> f64 {
        if self.on_wire == self.train.len() || self.busy_until >= now {
            return self.estimator.utilization(now);
        }
        let mut estimator = self.estimator.clone();
        let (mut at, mut memo) = (self.busy_until, self.tx_memo);
        for pkt in self.audit_queue() {
            if at >= now {
                break;
            }
            let bytes = pkt.wire_bytes();
            estimator.on_tx(bytes, at);
            at += memo_tx(&mut memo, bytes, self.bandwidth_bps);
        }
        estimator.utilization(now)
    }

    /// Bytes awaiting serialization, as of the last settle.
    pub fn queued_bytes(&self) -> u32 {
        self.queued_bytes
    }

    /// Packets awaiting serialization, as of the last settle.
    pub fn queue_len(&self) -> usize {
        self.train.len() - self.on_wire
    }

    /// How many train entries are on the wire: handed over, as of the
    /// last settle, and not arrived.
    pub(crate) fn train_on_wire(&self) -> usize {
        self.on_wire
    }

    /// Queued packets, head first: the train's entries that have not
    /// started (auditor view).
    pub(crate) fn audit_queue(&self) -> impl ExactSizeIterator<Item = &P> {
        let queue = self.on_wire..;
        self.train.range(queue).map(|(_, pkt)| pkt)
    }
}

/// Serialization time of `bytes` at `bandwidth_bps` through a one-entry
/// memo of the last answer.
#[inline]
fn memo_tx(memo: &mut (u32, Time), bytes: u32, bandwidth_bps: f64) -> Time {
    if memo.0 != bytes {
        *memo = (bytes, tx_time(bytes, bandwidth_bps));
    }
    memo.1
}

/// How the arrival of a packet a link accepted gets scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Serializer idle, train empty: nothing of this link's is
    /// outstanding, so the packet is an ordinary arrival event at this
    /// instant and no train entry.
    Alone(Time),
    /// First on the train: the entry to schedule, for this instant.
    Head(Time),
    /// On the train behind its head: scheduled when it gets there.
    Behind,
}

/// The engine's side of a link: acceptance with the arrival computed up
/// front, and the train.
impl LinkState {
    /// Settles the link and offers it the packet at `now`. An accepted
    /// packet reports whether it took the serializer from idle to busy,
    /// and its [`Arrival`].
    #[inline]
    pub(crate) fn accept(&mut self, pkt: PktRef, now: Time) -> Result<(bool, Arrival), DropReason> {
        self.settle(now);
        let (bytes, first) = (pkt.size_bytes, self.train.is_empty());
        let busy_start = self.admit(bytes, now)?;
        self.tail_free = match busy_start {
            true => now + self.serialize(bytes, now),
            false => self.tail_free + memo_tx(&mut self.tx_memo, bytes, self.bandwidth_bps),
        };
        let arrival = self.tail_free + self.delay;
        match (busy_start, first) {
            (true, true) => return Ok((true, Arrival::Alone(arrival))),
            // Idle, with packets still in flight: on the wire, behind them.
            (true, false) => self.on_wire += 1,
            (false, _) => self.queued_bytes += bytes,
        }
        self.train.push_back((arrival, pkt));
        let scheduled = [Arrival::Behind, Arrival::Head(arrival)][first as usize];
        Ok((busy_start, scheduled))
    }

    /// Takes the head off the train — its arrival event fired at `now` —
    /// and returns its slot with the arrival of the new head, the next
    /// entry to schedule. The head was handed over before `now`; if
    /// nothing has settled that hand-over yet — nothing is on the wire by
    /// the link's count — settling comes first.
    #[inline]
    pub(crate) fn pop_train(&mut self, now: Time) -> (u32, Option<Time>) {
        if self.on_wire == 0 {
            self.settle(now);
        }
        debug_assert!(self.train_on_wire() > 0, "the head was handed over");
        let (arrival, pkt) = self.train.pop_front().expect("a scheduled head");
        self.on_wire -= 1;
        debug_assert_eq!(arrival, now);
        (pkt.slot, self.train.front().map(|&(next, _)| next))
    }

    /// The `k`-th train entry, head first, as `(arrival, slot)`.
    pub(crate) fn train_entry(&self, k: usize) -> (Time, u32) {
        (self.train[k].0, self.train[k].1.slot)
    }

    /// The train, head first (auditor view).
    pub(crate) fn audit_train(&self) -> impl ExactSizeIterator<Item = (Time, u32)> + '_ {
        self.train.iter().map(|&(arrival, pkt)| (arrival, pkt.slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(slot: u32, size_bytes: u32) -> PktRef {
        PktRef { slot, size_bytes }
    }

    #[test]
    fn estimator_decays_to_zero() {
        let mut e = UtilEstimator::new(10e9, Time::us(100));
        // Saturate a 10 Gbps link for the whole window: 125 kB / 100 µs.
        e.on_tx(125_000, Time::ZERO);
        let u0 = e.utilization(Time::ZERO);
        assert!((u0 - 1.0).abs() < 1e-9, "{u0}");
        let u_half = e.utilization(Time::us(50));
        assert!((u_half - 0.5).abs() < 1e-9, "{u_half}");
        assert_eq!(e.utilization(Time::us(100)), 0.0);
    }

    #[test]
    fn estimator_accumulates() {
        let mut e = UtilEstimator::new(10e9, Time::us(100));
        for i in 0..10 {
            e.on_tx(12_500, Time::us(i * 10));
        }
        let u = e.utilization(Time::us(90));
        assert!(u > 0.5 && u < 1.1, "{u}");
    }

    #[test]
    fn queue_tail_drop() {
        let mut l = LinkState::new(10e9, Time::us(1), 3_000, Time::us(100));
        assert_eq!(
            l.enqueue(slot(0, 1_500), Time::ZERO),
            EnqueueOutcome::StartTx
        );
        assert_eq!(
            l.enqueue(slot(0, 1_500), Time::ZERO),
            EnqueueOutcome::Queued
        );
        assert_eq!(
            l.enqueue(slot(0, 1_500), Time::ZERO),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(l.drops, 1);
        assert_eq!(l.queue_len(), 2);
    }

    #[test]
    fn serialization_cycle() {
        let mut l = LinkState::new(10e9, Time::us(1), 10_000, Time::us(100));
        l.enqueue(slot(0, 1_500), Time::ZERO);
        l.enqueue(slot(0, 1_500), Time::ZERO);
        let (p1, t1) = l.start_tx(Time::ZERO).unwrap();
        assert_eq!(p1.size_bytes, 1_500);
        assert_eq!(t1, Time::ns(1_200));
        assert!(l.tx_done(), "second packet pending");
        let (_p2, _) = l.start_tx(t1).unwrap();
        assert!(!l.tx_done(), "queue drained");
        assert_eq!(l.bytes_tx, 3_000);
    }

    /// The instant the one packet of [`serving_one`] leaves the serializer.
    const S: Time = Time::ns(1_200);

    /// A 10 Gbps link with 1 µs of delay, one 1,500 B packet in service
    /// until [`S`] and nothing behind it: what the next packet finds
    /// depends on the clock alone.
    fn serving_one() -> LinkState {
        let mut l = LinkState::new(10e9, Time::us(1), 10_000, Time::us(100));
        let alone = Arrival::Alone(Time::ns(2_200));
        assert_eq!(l.accept(slot(0, 1_500), Time::ZERO), Ok((true, alone)));
        l
    }

    #[test]
    fn arrival_before_the_end_joins_the_train() {
        let mut l = serving_one();
        // Starts at S, serializes for 80 ns, flies for 1 µs.
        let head = Arrival::Head(Time::ns(2_280));
        assert_eq!(l.accept(slot(1, 100), Time::ns(1_199)), Ok((false, head)));
        // One scheduled head per train, however many queue.
        let behind = Ok((false, Arrival::Behind));
        assert_eq!(l.accept(slot(2, 100), Time::ns(1_199)), behind);
        let train: Vec<_> = l.audit_train().collect();
        assert_eq!(train, [(Time::ns(2_280), 1), (Time::ns(2_360), 2)]);
        assert_eq!((l.queued_bytes(), l.train_on_wire()), (200, 0));
    }

    /// A hand-over is visible after its instant only, so a packet
    /// arriving at that very instant still finds the serializer taken.
    #[test]
    fn arrival_at_the_end_still_queues() {
        let mut l = serving_one();
        let head = Arrival::Head(Time::ns(2_280));
        assert_eq!(l.accept(slot(1, 100), S), Ok((false, head)));
    }

    #[test]
    fn arrival_after_the_end_finds_the_serializer_idle() {
        let mut l = serving_one();
        let after = S + Time::ns(1);
        let alone = Arrival::Alone(after + Time::ns(1_080));
        assert_eq!(l.accept(slot(1, 100), after), Ok((true, alone)));
        assert_eq!(l.train.capacity(), 0, "a packet alone is stored nowhere");
        // Anything queued keeps the busy period going, whatever the clock.
        let head = Arrival::Head(Time::ns(1_281 + 1_080));
        assert_eq!(l.accept(slot(2, 100), Time::ns(1_250)), Ok((false, head)));
        // Long after, the serializer is idle again — but the train has
        // not drained (nothing popped it), so the newcomer rides it.
        let behind = Ok((true, Arrival::Behind));
        assert_eq!(l.accept(slot(3, 100), Time::us(9)), behind);
        assert_eq!((l.queued_bytes(), l.train_on_wire()), (0, 2));
    }

    /// The head a train-head event takes was handed over before its
    /// arrival, though nothing touched the link in between: `pop_train`
    /// settles, so the entry leaves from the wire and the queue empties.
    #[test]
    fn pop_train_takes_an_entry_on_the_wire() {
        let mut l = serving_one();
        l.accept(slot(1, 100), Time::ns(10)).unwrap();
        assert_eq!(l.pop_train(Time::ns(2_280)), (1, None));
        assert_eq!(
            (l.queue_len(), l.train_on_wire(), l.bytes_tx),
            (0, 0, 1_600)
        );
    }

    /// One hand-over, at S, of a 100 B packet: invisible to an enqueue, a
    /// queue sample and a utilization read made at S, visible to each of
    /// them 1 ns later — and the read is pure.
    #[test]
    fn a_hand_over_is_visible_only_after_its_instant() {
        let after = S + Time::ns(1);
        let waiting = || {
            let mut l = serving_one();
            l.accept(slot(1, 100), Time::ns(10)).unwrap();
            l
        };
        // Enqueue: 9,950 B fit the 10 kB queue only once the 100 B left it.
        let mut l = waiting();
        let full = Err(DropReason::QueueFull);
        assert_eq!(l.accept(slot(2, 9_950), S), full);
        assert_eq!(
            l.accept(slot(2, 9_950), after),
            Ok((false, Arrival::Behind))
        );
        // Queue sample.
        let mut l = waiting();
        l.settle(S);
        assert_eq!((l.queued_bytes(), l.bytes_tx), (100, 1_500));
        l.settle(after);
        assert_eq!((l.queued_bytes(), l.bytes_tx), (0, 1_600));
        // Utilization, against an estimator fed by hand.
        let l = waiting();
        let mut by_hand = UtilEstimator::new(10e9, Time::us(100));
        by_hand.on_tx(1_500, Time::ZERO);
        let at_s = by_hand.utilization(S);
        by_hand.on_tx(100, S);
        let just_after = by_hand.utilization(after);
        assert_eq!(l.utilization(S).to_bits(), at_s.to_bits());
        assert_eq!(l.utilization(after).to_bits(), just_after.to_bits());
        assert_eq!(l.queued_bytes(), 100, "reading settled nothing");
        let mut l = l;
        l.settle(after);
        assert_eq!(l.utilization(after).to_bits(), just_after.to_bits());
    }

    /// Going down ends the busy period, whether or not anything waited
    /// for its end: after recovery the first packet starts at once, and
    /// the first to queue behind it heads a fresh train, in the storage
    /// the flap emptied in place.
    #[test]
    fn set_down_forgets_the_busy_period() {
        for waiting in [false, true] {
            let mut l = serving_one();
            if waiting {
                l.accept(slot(1, 100), Time::ns(10)).unwrap();
            }
            let capacity = l.train.capacity();
            assert_eq!(l.set_down().len(), waiting as usize);
            assert_eq!(l.audit_train().len(), 0, "the flush covers the train");
            l.set_up();
            assert_eq!(l.train.capacity(), capacity);
            let alone = Arrival::Alone(Time::ns(1_580));
            assert_eq!(l.accept(slot(2, 100), Time::ns(500)), Ok((true, alone)));
            let head = Arrival::Head(Time::ns(1_660));
            assert_eq!(l.accept(slot(3, 100), Time::ns(500)), Ok((false, head)));
        }
    }

    #[test]
    fn down_link_drops_everything() {
        let mut l = LinkState::new(10e9, Time::us(1), 10_000, Time::us(100));
        l.enqueue(slot(0, 1_500), Time::ZERO);
        l.enqueue(slot(0, 1_500), Time::ZERO);
        assert_eq!(l.set_down().len(), 2);
        assert_eq!(
            l.enqueue(slot(0, 100), Time::ZERO),
            EnqueueOutcome::Dropped(DropReason::LinkDown)
        );
        l.set_up();
        assert_eq!(l.enqueue(slot(0, 100), Time::ZERO), EnqueueOutcome::StartTx);
    }
}
