//! Pins the disabled-tracing cost bound from DESIGN.md §8: a span call on
//! a disabled tracer performs **zero heap allocations**. A counting
//! wrapper around the system allocator measures the hot loop directly —
//! if someone adds an eager `to_owned()` or touches the thread-local
//! stack on the disabled path, this test fails with the exact count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread, so the other tests in this binary, which the harness runs
    // on parallel threads, cannot leak their allocations into the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_allocate_nothing() {
    let tracer = sibia_obs::Tracer::new(); // disabled by default

    // Warm up any lazy one-time state outside the measured window.
    for _ in 0..8 {
        let mut g = tracer.span("warmup");
        g.attr("k", 1);
    }

    let before = allocations();
    for i in 0..10_000 {
        let mut g = tracer.span("hot.path");
        g.attr("iteration", i);
        g.attr("detail", "some attribute value");
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate on the span path"
    );
}

#[test]
fn enabled_spans_do_record() {
    // Sanity check that the same API records when enabled — guards
    // against the zero-alloc path accidentally becoming the only path.
    let tracer = sibia_obs::Tracer::new();
    tracer.enable();
    {
        let mut g = tracer.span("recorded");
        g.attr("k", "v");
    }
    let records = tracer.records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].name, "recorded");
    assert_eq!(records[0].attr("k"), Some("v"));
}
