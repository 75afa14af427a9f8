//! Heap allocations of instance set-up, counted rather than timed: a count
//! is exact, so it can be pinned where a wall-clock time cannot. The
//! generated cluster and the water-filling oracle each make a fixed number
//! of allocations, whatever the number of servers; a per-server `Vec` in
//! the characterization sweep, the fit or a bisection step makes the
//! 10 000-server count differ from the 1 000-server one.
//!
//! Each thread counts its own allocations, so the tests of this binary may
//! run in parallel.

use dpc_alg::centralized;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation of
/// the calling thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local with no destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the calling thread makes inside `f` (what `f` returns is
/// dropped outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

fn problem(n: usize, seed: u64) -> PowerBudgetProblem {
    let utilities = ClusterBuilder::new(n).seed(seed).build().utilities();
    PowerBudgetProblem::new(utilities, Watts(172.0 * n as f64)).expect("feasible budget")
}

#[test]
fn cluster_build_allocates_the_same_at_1k_and_10k_servers() {
    for seed in [0, 1] {
        let small = allocations(|| ClusterBuilder::new(1_000).seed(seed).build());
        let large = allocations(|| ClusterBuilder::new(10_000).seed(seed).build());
        assert_eq!(small, large, "seed {seed}: 1k vs 10k servers");
    }
}

#[test]
fn oracle_allocates_the_same_at_1k_and_10k_servers() {
    for seed in [0, 1] {
        let (small, large) = (problem(1_000, seed), problem(10_000, seed));
        let small = allocations(|| centralized::solve(&small));
        let large = allocations(|| centralized::solve(&large));
        assert_eq!(small, large, "seed {seed}: 1k vs 10k servers");
    }
}
