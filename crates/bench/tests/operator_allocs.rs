//! Heap allocations of the operator path and of Contra's install,
//! counted: what a compile, an `emit_all` and a `validate` allocate is
//! what they return, not scratch per switch or per program; a switch's
//! install allocates its §5.4 clock, one entry per neighbouring switch,
//! and reads the rest of its program from the compiled policy, and its
//! tables appear at their first write.
//!
//! A counting global allocator wraps `System`; its counters are per
//! thread, so the tests of this file, each on a thread of its own, do not
//! count each other's allocations.

use contra_bench::compiler_policy_suite;
use contra_core::{CompiledPolicy, Compiler};
use contra_dataplane::{Contra, DataplaneConfig, ProtocolHarness};
use contra_sim::{
    CompileCache, InstallCtx, Packet, RoutingSystem, SimConfig, Simulator, SwitchCtx, SwitchLogic,
    Time, Verdict,
};
use contra_topology::generators::{self, LinkSpec};
use contra_topology::{NodeId, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

// `const` initialisers and no `Drop`: the allocator may touch these at
// any point of a thread's life without re-entering itself.
thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ON.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap blocks this thread allocated or grew while
/// it ran. The result is dropped by the caller, outside the count.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    ON.with(|on| on.set(true));
    let r = f();
    ON.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get))
}

/// A host-less fat-tree, as the scalability sweeps build it.
fn fat_tree(k: usize) -> Topology {
    generators::fat_tree(k, 0, LinkSpec::default())
}

/// The suite's policies compiled on `topo`.
fn compiled(topo: &Topology) -> Vec<(&'static str, CompiledPolicy)> {
    let compiler = Compiler::new(topo);
    let suite = compiler_policy_suite(topo).into_iter();
    suite
        .map(|(name, text)| (name, compiler.compile_str(&text).expect("suite compiles")))
        .collect()
}

#[test]
fn validate_allocates_nothing_per_program() {
    let topo = fat_tree(8);
    for (name, cp) in compiled(&topo) {
        for (switch, p4) in contra_p4gen::emit_all(&cp, &topo) {
            let (errors, n) = allocs(|| contra_p4gen::validate(&p4));
            assert_eq!(errors, vec![], "{name} at {switch}");
            assert_eq!(n, 0, "{name}: validating {switch}'s program allocated");
        }
    }
}

#[test]
fn emit_all_allocates_a_program_and_a_name_per_switch() {
    let topo = fat_tree(8);
    for (name, cp) in compiled(&topo) {
        let (programs, n) = allocs(|| contra_p4gen::emit_all(&cp, &topo));
        let p = programs.len() as u64;
        // The map: the pairs collected before the bulk build, and its
        // nodes, each leaf holding at least five of them.
        let map = 1 + p.div_ceil(5);
        assert!(
            n <= 2 * p + map,
            "{name}: emit_all allocated {n} times for {p} programs"
        );
    }
}

#[test]
fn compile_allocations_do_not_grow_with_switches() {
    let (small, large) = (fat_tree(4), fat_tree(14));
    let switches = (large.num_switches() - small.num_switches()) as u64;
    let compile = |topo: &Topology, text: &str| {
        let compiler = Compiler::new(topo);
        allocs(|| compiler.compile_str(text).expect("suite compiles")).1
    };
    let suites = compiler_policy_suite(&small).into_iter();
    for ((name, at_small), (_, at_large)) in suites.zip(compiler_policy_suite(&large)) {
        let (a, b) = (compile(&small, &at_small), compile(&large, &at_large));
        assert!(
            2 * b.saturating_sub(a) < switches,
            "{name}: {a} allocations on fat-tree(4), {b} on fat-tree(14): \
             one per two switches or more"
        );
    }
}

/// A switch that only ticks, every `0`: what the simulator's `install`
/// allocates for any switch (its box, its first tick's filing).
struct Idle(Time);

impl SwitchLogic for Idle {
    fn on_packet(&mut self, _: &mut SwitchCtx<'_>, _: &mut Packet, _: NodeId) -> Verdict {
        Verdict::Consume
    }

    fn tick_interval(&self) -> Option<Time> {
        Some(self.0)
    }
}

/// Contra's install on fat-tree(8) with hosts, the compile cache warm:
/// beyond what the simulator allocates for an idle switch ticking as
/// often, one block per switch (its §5.4 clock, one entry per
/// neighbouring switch) and one in all (the cache lookup's key). A switch
/// copies no table of its program, and FwdT, BestT and the flowlet and
/// loop registers appear at their first write: the first probe round
/// allocates FwdT and BestT once per switch and the policy's destination
/// index once, later rounds allocate nothing, and the first packet on a
/// path allocates the flowlet and loop registers of each switch it is
/// forwarded by, the second nothing of them.
#[test]
fn install_allocates_no_copy_of_the_program() {
    let topo = generators::fat_tree(8, 1, LinkSpec::default());
    let switches = topo.num_switches() as u64;
    let contra = Contra::dc();
    let cache = CompileCache::new();
    let cp = cache
        .get_or_compile(&topo, &contra.policy)
        .expect("compiles");
    let cfg = DataplaneConfig::for_policy(&cp);

    let mut sim = Simulator::new(topo.clone(), SimConfig::default());
    let ctx = InstallCtx::new(&topo, &[], &cache);
    let (installed, n) = allocs(|| contra.install(&mut sim, &ctx));
    installed.expect("installs");
    let mut idle = Simulator::new(topo.clone(), SimConfig::default());
    let (_, floor) = allocs(|| {
        for sw in topo.switches() {
            idle.install(sw, Box::new(Idle(cfg.probe_period())));
        }
    });
    assert!(
        n <= floor + switches + 1,
        "install allocated {n} times for {switches} switches, {floor} of them idle ones'"
    );

    let mut h = ProtocolHarness::new(&topo, cp.clone(), cfg);
    let rounds: Vec<u64> = (0..3).map(|_| allocs(|| h.run_round()).1).collect();
    // The probe queue and the output buffer every delivery borrows are
    // the harness's, kept across rounds: a steady round allocates
    // nothing (4,108 times when each relaying probe collected its
    // outputs into a fresh vector).
    assert_eq!(rounds[1..], [0, 0], "a steady round allocated");
    // FwdT and BestT at every switch, the destination index, and the
    // queue and the buffer doubling up to their peaks.
    assert!(
        (2 * switches..2 * switches + 32).contains(&rounds[0]),
        "the first round allocated {} times",
        rounds[0]
    );

    let (src, dst) = (topo.find("edge0_0").unwrap(), topo.find("edge7_3").unwrap());
    let path = |h: &mut ProtocolHarness| allocs(|| h.traffic_path(src, dst).expect("a route"));
    let ((hops, first), (_, second)) = (path(&mut h), path(&mut h));
    // Every switch but the destination forwards, and writes both arrays.
    let forwarders = hops.len() as u64 - 1;
    assert_eq!(first - second, 2 * forwarders, "{hops:?}");
}
