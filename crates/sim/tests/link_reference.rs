//! Differential property test: a link whose serializer is arithmetic
//! against one whose completions are events.
//!
//! The engine schedules no completion: it computes every arrival when
//! the link accepts the packet and settles link state lazily
//! (`contra_sim::link`). The reference below is the link driven the old
//! way — `enqueue` / `start_tx` / `tx_done` with one completion event per
//! packet served, sorted last in its instant. Seeded cases on a two-switch
//! line — random packet sizes and offer instants (bursts that overflow
//! the queue among them), cable flaps, a random `stop_at`, propagation
//! delays down to zero — must agree on every arrival instant, every drop
//! with its reason and instant, `queued_bytes` at every queue sample and
//! the bits of `utilization()` at every tick. At 8 Gbps a byte takes 1 ns
//! and everything happens on a 50 ns grid, so offers, samples and faults
//! land exactly on hand-over instants all the time.

use contra_sim::link::EnqueueOutcome;
use contra_sim::{
    DropReason, FlowId, LinkState, Packet, PacketKind, SimConfig, Simulator, SwitchCtx,
    SwitchLogic, TelemetryConfig, Time, Verdict, WireSize, INITIAL_TTL, QUEUE_CAPACITY_BYTES,
};
use contra_topology::{NodeId, Topology};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

const TICK: u64 = 100;
const BANDWIDTH: f64 = 8e9;

/// One generated case. Instants in ns; `offers` sorted by instant.
struct Case {
    delay: u64,
    stop_at: u64,
    sample_every: u64,
    /// `(instant, size)`, the instant a multiple of [`TICK`].
    offers: Vec<(u64, u32)>,
    /// Alternating down, up, down, … instants, ascending.
    faults: Vec<u64>,
}

/// What both sides log.
#[derive(Debug, Default, PartialEq)]
struct Log {
    /// `(instant, seq)` in arrival order.
    arrivals: Vec<(u64, u32)>,
    /// `(instant, reason)` in drop order.
    drops: Vec<(u64, DropReason)>,
    /// `(instant, queued_bytes)` per queue sample.
    samples: Vec<(u64, u32)>,
    /// `utilization().to_bits()` per tick, before that tick's offers.
    utils: Vec<u64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gen_case(seed: u64) -> Case {
    let mut s = seed;
    let mut rnd = |n: u64| splitmix(&mut s) % n;
    // Every eighth case overflows the 1.5 MB queue in one burst.
    let overflow = seed % 8 == 7;
    let horizon = if overflow { 2_000_000 } else { 60_000 };
    let mut offers = Vec::new();
    let mut at = 0;
    while at < horizon * 3 / 4 {
        let burst = match rnd(8) {
            0 if overflow => 1_050,
            0..=2 => 1 + rnd(12),
            _ => 1,
        };
        for _ in 0..burst {
            let size = match rnd(4) {
                0 => 64,
                1 => 100 * (1 + rnd(15) as u32),
                2 => 1_500,
                _ => 40 + rnd(1_461) as u32,
            };
            offers.push((at, size));
        }
        // Mean gap ≈ mean service time: the queue comes and goes.
        at += TICK * (1 + rnd(if overflow { 400 } else { 24 }));
    }
    let sample_every = TICK * (3 + rnd(5));
    let mut faults: Vec<u64> = (0..2 * rnd(4))
        .map(|_| 2 * sample_every + 50 * rnd(horizon / 50))
        .collect();
    faults.sort_unstable();
    faults.dedup();
    Case {
        delay: [0, 300, 1_000, 5_000][rnd(4) as usize],
        stop_at: horizon / 2 + 50 * rnd(horizon / 50),
        sample_every,
        offers,
        faults,
    }
}

// ---- the reference: completions are events ------------------------------

struct Seq(u32, u32);

impl WireSize for Seq {
    fn wire_bytes(&self) -> u32 {
        self.1
    }
}

/// In the order the engine pops them within an instant: arrivals, then
/// timers in push order — a fault (pushed before the run), the queue
/// sample (pushed a period ago), the tick (pushed a tick ago) — and a
/// completion last. Equal events pop in push order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrive(u32),
    Fault,
    Sample,
    Tick,
    Done(u64),
}

struct Reference<'a> {
    case: &'a Case,
    link: LinkState<Seq>,
    heap: BinaryHeap<Reverse<(u64, u8, u64, Ev)>>,
    pushed: u64,
    log: Log,
}

impl Reference<'_> {
    fn push(&mut self, at: u64, ev: Ev) {
        let class = match ev {
            Ev::Arrive(_) => 0,
            Ev::Fault => 1,
            Ev::Sample => 2,
            Ev::Tick => 3,
            Ev::Done(_) => 4,
        };
        self.pushed += 1;
        if at <= self.case.stop_at {
            self.heap.push(Reverse((at, class, self.pushed, ev)));
        }
    }

    fn start(&mut self, now: u64) {
        let (Seq(seq, _), tx) = self.link.start_tx(Time(now)).expect("a queued packet");
        self.push(now + tx.0 + self.case.delay, Ev::Arrive(seq));
        self.push(now + tx.0, Ev::Done(self.link.epoch));
    }

    fn run(mut self) -> Log {
        let mut offers = self.case.offers.iter().zip(0u32..).peekable();
        while let Some(Reverse((now, _, _, ev))) = self.heap.pop() {
            match ev {
                Ev::Arrive(seq) => self.log.arrivals.push((now, seq)),
                Ev::Fault if self.link.up => {
                    let lost = self.link.set_down().len();
                    let drop = (now, DropReason::LinkDown);
                    self.log.drops.extend(std::iter::repeat_n(drop, lost));
                }
                Ev::Fault => self.link.set_up(),
                Ev::Sample => {
                    self.log.samples.push((now, self.link.queued_bytes()));
                    self.push(now + self.case.sample_every, Ev::Sample);
                }
                Ev::Tick => {
                    let util = self.link.utilization(Time(now));
                    self.log.utils.push(util.to_bits());
                    while let Some((&(_, size), seq)) = offers.next_if(|(o, _)| o.0 == now) {
                        match self.link.enqueue(Seq(seq, size), Time(now)) {
                            EnqueueOutcome::StartTx => self.start(now),
                            EnqueueOutcome::Queued => {}
                            EnqueueOutcome::Dropped(why) => self.log.drops.push((now, why)),
                        }
                    }
                    self.push(now + TICK, Ev::Tick);
                }
                Ev::Done(epoch) => {
                    if self.link.up && self.link.epoch == epoch && self.link.tx_done() {
                        self.start(now);
                    }
                }
            }
        }
        self.log
    }
}

fn reference(case: &Case) -> Log {
    let link = LinkState::new(
        BANDWIDTH,
        Time(case.delay),
        QUEUE_CAPACITY_BYTES,
        util_tau(),
    );
    let mut model = Reference {
        case,
        link,
        heap: BinaryHeap::new(),
        pushed: 0,
        log: Log::default(),
    };
    for &at in &case.faults {
        model.push(at, Ev::Fault);
    }
    model.push(case.sample_every, Ev::Sample);
    model.push(0, Ev::Tick);
    model.run()
}

// ---- the engine ----------------------------------------------------------

fn util_tau() -> Time {
    SimConfig::default().util_tau
}

/// s0: every tick, reads the cable's utilization, then offers it the
/// packets due.
struct Injector {
    to: NodeId,
    offers: std::iter::Peekable<std::vec::IntoIter<((u64, u32), u32)>>,
    log: Rc<RefCell<Log>>,
}

impl SwitchLogic for Injector {
    fn on_packet(&mut self, _: &mut SwitchCtx<'_>, _: &mut Packet, _: NodeId) -> Verdict {
        Verdict::Consume
    }

    fn on_tick(&mut self, ctx: &mut SwitchCtx<'_>) {
        let util = ctx.util_lat_to(self.to).0;
        self.log.borrow_mut().utils.push(util.to_bits());
        while let Some(((_, size), seq)) = self.offers.next_if(|(o, _)| o.0 == ctx.now.0) {
            let pkt = Packet {
                id: 0,
                kind: PacketKind::Udp,
                src_host: ctx.switch,
                dst_host: self.to,
                dst_switch: self.to,
                flow: FlowId(0),
                seq,
                size_bytes: size,
                sent_at: ctx.now,
                tag: 0,
                pid: 0,
                ttl: INITIAL_TTL,
                flow_hash: 0,
            };
            ctx.send(self.to, pkt);
        }
    }

    fn tick_interval(&self) -> Option<Time> {
        Some(Time(TICK))
    }
}

/// s1: logs what arrives, and when.
struct Sink(Rc<RefCell<Log>>);

impl SwitchLogic for Sink {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, _: NodeId) -> Verdict {
        self.0.borrow_mut().arrivals.push((ctx.now.0, pkt.seq));
        Verdict::Consume
    }
}

fn engine(case: &Case) -> (Log, u64) {
    let mut t = Topology::builder();
    let (s0, s1) = (t.switch("s0"), t.switch("s1"));
    t.biline(s0, s1, BANDWIDTH, case.delay);
    let topo = t.build();
    let cable = topo.link_between(s0, s1).expect("just built").0;
    let cfg = SimConfig {
        stop_at: Time(case.stop_at),
        audit: true,
        queue_sample_every: Some(Time(case.sample_every)),
        telemetry: Some(TelemetryConfig::default()),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo, cfg);
    let log = Rc::new(RefCell::new(Log::default()));
    let offers: Vec<_> = case.offers.iter().copied().zip(0u32..).collect();
    let injector = Injector {
        to: s1,
        offers: offers.into_iter().peekable(),
        log: Rc::clone(&log),
    };
    sim.install(s0, Box::new(injector));
    sim.install(s1, Box::new(Sink(Rc::clone(&log))));
    for (i, &at) in case.faults.iter().enumerate() {
        if i % 2 == 0 {
            sim.try_fail_link_at(s0, s1, Time(at))
                .expect("the cable exists");
        } else {
            sim.try_recover_link_at(s0, s1, Time(at))
                .expect("the cable exists");
        }
    }
    let out = sim.run();
    let mut log = std::mem::take(&mut *log.borrow_mut());
    let reason = |name: &str| match name {
        "QueueFull" => DropReason::QueueFull,
        "LinkDown" => DropReason::LinkDown,
        other => panic!("a {other} drop on a two-switch line"),
    };
    let telemetry = out.telemetry.expect("the recorder is on");
    assert_eq!(telemetry.events_evicted, 0);
    for event in telemetry.events.iter().filter(|e| e.name == "drop") {
        let why = match event.args() {
            [("reason", contra_telemetry::ArgVal::S(name))] => reason(name),
            other => panic!("drop event with {other:?}"),
        };
        log.drops.push((event.ts_ns, why));
    }
    let samples = out.stats.queue_samples.iter().filter(|q| q.link == cable);
    log.samples = samples.map(|q| (q.at.0, q.bytes)).collect();
    (log, out.stats.events_processed)
}

#[test]
fn the_engine_agrees_with_a_link_whose_completions_are_events() {
    let (mut arrivals, mut drops, mut full, mut events) = (0, 0, 0, 0);
    for seed in 0..96 {
        let case = gen_case(seed);
        let (got, popped) = engine(&case);
        let want = reference(&case);
        assert_eq!(got.arrivals, want.arrivals, "seed {seed}: arrivals");
        assert_eq!(got.drops, want.drops, "seed {seed}: drops");
        assert_eq!(got.samples, want.samples, "seed {seed}: queue samples");
        assert_eq!(got.utils, want.utils, "seed {seed}: utilization bits");
        arrivals += got.arrivals.len();
        drops += got.drops.len();
        full += got
            .drops
            .iter()
            .filter(|d| d.1 == DropReason::QueueFull)
            .count();
        events += popped;
    }
    // The generator must keep exercising what the comparison is for.
    assert!(
        arrivals > 10_000 && drops > 500 && full > 100,
        "{arrivals} {drops} {full}"
    );
    assert!(events > 0);
}
