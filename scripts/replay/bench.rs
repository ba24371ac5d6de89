//! What the two replays of `scripts/replay.sh` share: an allocation
//! counter, the reading of a trace, and the timed comparison of a parent
//! and a change replaying it in one process.
//!
//! Per trace the comparison prints each side's median replay time
//! [quartiles], the heap allocations of one replay, the median paired
//! ratio change / parent [IQR], and an A/A line: the parent against
//! itself, replayed as a third member of every rep, the floor the ratio
//! has to clear.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

/// One side's replay of a trace: `Err(i)` names the first record whose
/// result differs from the recording.
pub type Replay<R> = fn(&[R]) -> Result<(), usize>;

/// One replay: seconds and allocations. Exits 1 on a differing result.
fn timed<R>(side: &str, name: &str, f: Replay<R>, trace: &[R]) -> (f64, u64) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let done = std::hint::black_box(f)(trace);
    let secs = t0.elapsed().as_secs_f64();
    if let Err(i) = done {
        eprintln!("replay: {side} differs from the recording of {name} at record {i}");
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

/// The records of a trace file: little-endian words, `N` per record.
pub fn read_trace<const N: usize>(path: &str) -> Vec<[u64; N]> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("replay: {path}: {e}");
        std::process::exit(2);
    });
    if !bytes.len().is_multiple_of(8 * N) {
        eprintln!(
            "replay: {path}: {} bytes is not a whole number of records",
            bytes.len()
        );
        std::process::exit(2);
    }
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
    bytes
        .chunks_exact(8 * N)
        .map(|r| std::array::from_fn(|k| word(&r[8 * k..8 * k + 8])))
        .collect()
}

/// `REPS` and the trace paths from the command line; exits 2 on a usage
/// error.
pub fn args() -> (usize, Vec<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|r| r.parse()) {
        Some(Ok(n)) if n > 0 && args.len() > 1 => (n, args[1..].to_vec()),
        _ => {
            eprintln!("usage: replay REPS TRACE...");
            std::process::exit(2);
        }
    }
}

/// The trace's name: its file stem.
pub fn name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map_or(path.to_owned(), |s| s.to_string_lossy().into_owned())
}

/// Replays `trace` through both sides — a counted warm-up each, then
/// `reps` timed reps rotating the order of parent, change and parent
/// again — and prints the trace's line, `header` after its name, and the
/// summary.
pub fn compare<R>(
    name: &str,
    header: &str,
    reps: usize,
    trace: &[R],
    parent: Replay<R>,
    change: Replay<R>,
) {
    let (_, parent_allocs) = timed("parent", name, parent, trace);
    let (_, change_allocs) = timed("change", name, change, trace);
    let members = [("parent", parent), ("change", change), ("parent", parent)];
    let mut secs = [Vec::new(), Vec::new(), Vec::new()];
    for rep in 0..reps {
        for k in 0..3 {
            let m = (rep + k) % 3;
            secs[m].push(timed(members[m].0, name, members[m].1, trace).0);
        }
    }
    let ratio =
        |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x / y).collect() };
    let line =
        |label: &str, q: [f64; 3]| println!("  {label:<22}{:.3} [{:.3}, {:.3}]", q[0], q[1], q[2]);
    println!("{name}: {header}");
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
