//! The counting global allocator: heap operations and peak live bytes of
//! one region of the run, free when switched off.
//!
//! Timed reps run with counting off (one thread-local load per heap
//! call); the warm-up rep and the traced pass switch it on. The counters
//! are per thread: the benchmark measures on one thread, and unit tests
//! on parallel threads cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` plus counters.
pub struct Counting;

// `const` initialisers and no `Drop`: these thread-locals need neither
// lazy set-up nor a destructor, so the allocator may touch them at any
// point of a thread's life without re-entering itself.
thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static OPS: Cell<u64> = const { Cell::new(0) };
    /// Live bytes relative to the level at [`start`] (blocks that predate
    /// the region may be freed inside it, so this can go negative).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

#[inline]
fn on() -> bool {
    ON.with(Cell::get)
}

#[inline]
fn shrank(bytes: usize) {
    LIVE.with(|l| l.set(l.get() - bytes as i64));
}

#[inline]
fn grew(bytes: usize) {
    OPS.with(|o| o.set(o.get() + 1));
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes as i64);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if on() && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if on() && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        if on() {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if on() && !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What one counted region did to the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub ops: u64,
    /// Highest live-byte level above the level at [`start`].
    pub peak_bytes: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    OPS.with(|o| o.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ON.with(|on| on.set(true));
}

/// Switches counting off and returns the region's totals.
pub fn stop() -> HeapUse {
    ON.with(|on| on.set(false));
    HeapUse {
        ops: OPS.with(Cell::get),
        peak_bytes: PEAK.with(Cell::get).max(0) as u64,
    }
}

/// Heap operations counted so far in the open region; spans take the
/// difference across a call to attribute allocations to a layer.
pub fn ops() -> u64 {
    OPS.with(Cell::get)
}

/// Runs `f` with counting suspended, so the benchmark's own bookkeeping
/// (span records) stays out of the program's numbers.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = ON.with(|on| on.replace(false));
    let out = f();
    ON.with(|on| on.set(was));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn off_is_pass_through() {
        let before = stop();
        drop(black_box(Vec::<u64>::with_capacity(1 << 16)));
        assert_eq!(stop(), before);
    }

    #[test]
    fn counts_ops_and_peak_while_on() {
        start();
        let a = black_box(Vec::<u8>::with_capacity(3 << 20));
        let mut b = black_box(Vec::<u8>::with_capacity(1 << 20));
        drop(a);
        b.reserve_exact(2 << 20);
        drop(b);
        let used = stop();
        assert_eq!(used.ops, 3, "two allocs and one realloc");
        assert_eq!(used.peak_bytes, 4 << 20, "a and b live together");
    }

    #[test]
    fn uncounted_regions_stay_out_and_restore_the_switch() {
        start();
        let kept = uncounted(|| black_box(Vec::<u8>::with_capacity(8 << 20)));
        let counted = black_box(Vec::<u8>::with_capacity(1 << 20));
        let used = stop();
        assert_eq!((used.ops, used.peak_bytes), (1, 1 << 20));
        drop((kept, counted));
    }
}
