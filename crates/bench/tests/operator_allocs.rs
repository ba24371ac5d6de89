//! Heap allocations of the operator path, counted: what a compile, an
//! `emit_all` and a `validate` allocate is what they return, not scratch
//! per switch or per program.
//!
//! A counting global allocator wraps `System`; its counters are per
//! thread, so the tests of this file, each on a thread of its own, do not
//! count each other's allocations.

use contra_bench::compiler_policy_suite;
use contra_core::{CompiledPolicy, Compiler};
use contra_topology::generators::{self, LinkSpec};
use contra_topology::Topology;
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
