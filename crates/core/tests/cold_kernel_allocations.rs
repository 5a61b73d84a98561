//! The cold per-point kernel allocates nothing. A sweep point on a
//! freshly built scenario (no per-speed memo) must fold the per-block
//! walk straight into one `f64`: no block labels, no resolved-phase
//! buffers, no per-block vectors. Nor does cloning a warm cache, which
//! the server does per request: the clone shares the priced blocks and
//! the memo. This counts heap allocations made by the calling thread, so
//! it is exact and independent of timing and of the other tests running
//! in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use monityre_core::{EnergyBalance, RadioLink, Scenario, ScenarioExtras, StorageAgeing};
use monityre_units::Speed;

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

/// Speeds across the paper's range and into the truncation regime, where
/// a round is shorter than the node's fixed work.
fn speeds() -> impl Iterator<Item = Speed> {
    [0.5, 5.0, 34.5, 60.0, 133.3, 200.0, 400.0, 3000.0, 12000.0]
        .into_iter()
        .map(Speed::from_kmh)
}

fn scenarios() -> [(&'static str, Scenario); 2] {
    [
        ("reference", Scenario::reference()),
        (
            "radio + ageing",
            Scenario::builder()
                .extras(
                    ScenarioExtras::none()
                        .with_radio(RadioLink::new(0.2, 3))
                        .with_ageing(StorageAgeing::new(6.0)),
                )
                .build(),
        ),
    ]
}

#[test]
fn required_per_round_without_memo_allocates_nothing() {
    for (name, scenario) in scenarios() {
        let cache = scenario.cache().expect("scenario builds");
        assert!(!cache.has_memo());
        let counts: Vec<u64> = speeds()
            .map(|speed| {
                allocations_in(|| {
                    std::hint::black_box(cache.required_per_round(speed).expect("rolling"));
                })
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 0), "{name}: {counts:?}");
    }
}

#[test]
fn balance_point_allocates_nothing() {
    for (name, scenario) in scenarios() {
        let balance = EnergyBalance::new(&scenario).expect("scenario builds");
        let counts: Vec<u64> = speeds()
            .map(|speed| {
                allocations_in(|| {
                    std::hint::black_box(balance.point(speed).expect("rolling"));
                })
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 0), "{name}: {counts:?}");
    }
}

#[test]
fn cloning_a_warm_cache_allocates_nothing() {
    for (name, scenario) in scenarios() {
        let cache = scenario.cache().expect("scenario builds").with_memo(256);
        let speed = Speed::from_kmh(60.0);
        let energy = cache.required_per_round(speed).expect("rolling");
        let count = allocations_in(|| {
            let clone = std::hint::black_box(cache.clone());
            // The clone answers from the same blocks and memo.
            let again = clone.required_per_round(speed).expect("rolling");
            assert_eq!(again.joules().to_bits(), energy.joules().to_bits());
        });
        assert_eq!(count, 0, "{name}");
    }
}

#[test]
fn the_counter_sees_allocations() {
    let count = allocations_in(|| {
        std::hint::black_box(vec![0u8; 16]);
    });
    assert_eq!(count, 1);
}
