//! Decoding an ingest batch allocates per batch, not per point. The
//! request line is parsed straight into `Request`, so a point costs no
//! tree node and no key string; only the points vector grows, by
//! doubling. This counts heap allocations made by the calling thread, so
//! it is exact and independent of timing and of the other tests running
//! in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use monityre_ingest::synthetic_points;
use monityre_serve::{decode_request_line, Op, Request};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to [`System`] and counts each allocation on the thread that
/// makes it.
struct CountingAllocator;

fn count_one() {
    // `try_with` fails only while the thread is tearing its locals down;
    // nothing is measured then.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A newline-terminated ingest line of `count` points, as a client sends
/// it.
fn ingest_line(count: usize) -> String {
    let mut request = Request::new(Op::Ingest).with_id(1).with_idem(2);
    request.params.points = Some(synthetic_points(3, count, 2011, 1_000_000));
    serde_json::to_string(&request).expect("serializes") + "\n"
}

/// Allocations of one decode of `line`, after checking it decodes.
fn decode_allocations(line: &str) -> u64 {
    assert!(decode_request_line(line.as_bytes()).is_ok());
    allocations_in(|| {
        std::hint::black_box(decode_request_line(line.as_bytes()).expect("decodes"));
    })
}

#[test]
fn ingest_decode_allocates_per_batch_not_per_point() {
    let (half, full) = (ingest_line(512), ingest_line(1024));
    let at_512 = decode_allocations(&half);
    let at_1024 = decode_allocations(&full);
    // Twice the points cost at most one more doubling of the points
    // vector (and one spare); a tree would cost thousands more.
    assert!(
        at_1024 <= at_512 + 2,
        "512 points: {at_512}, 1024: {at_1024}"
    );
    assert!(at_512 <= 16, "512 points: {at_512} allocations");
}

#[test]
fn the_counter_sees_a_tree_decode() {
    // The same line through the `Value` tree allocates per point, so the
    // guard above would catch a decoder that fell back to it.
    let line = ingest_line(64);
    let count = allocations_in(|| {
        std::hint::black_box(serde_json::from_str::<serde::Value>(&line).expect("parses"));
    });
    assert!(count > 64 * 6, "{count}");
}
