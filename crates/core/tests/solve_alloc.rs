//! A warm least-squares solve against cached factors — the path the QR
//! service's `solve` verb runs — allocates a small constant number of
//! buffers (the operand copy and the solution), however many
//! transformations the factorization recorded.

use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::kernels::NARROW_MAX;
use pulsar_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-initialized so first access inside `alloc` cannot recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of the second of two identical solves on an `m x n`
/// factorization, and its transformation count.
fn warm_solve_allocs(m: usize, n: usize, k: usize) -> (u64, usize) {
    let mut rng = StdRng::seed_from_u64(m as u64);
    let a = Matrix::random(m, n, &mut rng);
    let f = tile_qr_seq(&a, &QrOptions::new(32, 8, Tree::Greedy));
    let b = Matrix::random(m, k, &mut rng);
    f.try_solve_ls(&b).expect("full rank");
    let before = alloc_count();
    let x = f.try_solve_ls(&b).expect("full rank");
    let during = alloc_count() - before;
    drop(x);
    (during, f.transform_count())
}

#[test]
fn warm_narrow_solve_allocations_do_not_grow_with_transforms() {
    for k in [1, 2, NARROW_MAX] {
        let (small, small_ops) = warm_solve_allocs(128, 32, k);
        let (large, large_ops) = warm_solve_allocs(1024, 64, k);
        assert!(
            large_ops > 10 * small_ops,
            "{small_ops} vs {large_ops} transforms"
        );
        assert_eq!(
            small, large,
            "k={k}: allocations grew with the transform count"
        );
        assert!(large <= 2, "k={k}: a warm solve made {large} allocations");
    }
}
