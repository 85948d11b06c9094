//! The counting allocator behind the allocation-guard tests: wraps the
//! system allocator and counts `alloc`/`realloc` calls *per thread*, and
//! keeps the largest size one of them asked for, so a test measures the
//! thread it runs on and not the libtest harness thread beside it. A guard
//! test includes this file by `#[path]`, which also installs the allocator
//! for that test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct ThreadCountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it inside
    // the allocator neither allocates nor registers anything lazily.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // A thread that is tearing its TLS down is not the measuring thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// What the calling thread asked the allocator for while a closure ran.
pub struct AllocStats {
    /// Heap allocations (`alloc` + `realloc` calls).
    pub count: u64,
    /// The largest single request, in bytes (a `realloc` counts its new
    /// size); 0 when there was none.
    #[allow(dead_code)] // read only by the guards that bound a size
    pub largest: usize,
}

/// [`AllocStats`] of the calling thread while `f` runs.
pub fn alloc_stats_during(f: impl FnOnce()) -> AllocStats {
    let before = ALLOCATIONS.with(Cell::get);
    let outer_largest = LARGEST.with(|m| m.replace(0));
    f();
    let largest = LARGEST.with(|m| m.replace(outer_largest.max(m.get())));
    AllocStats { count: ALLOCATIONS.with(Cell::get) - before, largest }
}

/// Heap allocations (`alloc` + `realloc` calls) the calling thread makes
/// while `f` runs.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    alloc_stats_during(f).count
}
