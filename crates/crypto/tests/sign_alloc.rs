//! A signature costs 79 heap blocks whatever the key size: the
//! exponentiation kernel multiplies into buffers its caller holds, so what
//! is left is one block per `BigUint` that the CRT glue and the three
//! Montgomery contexts make (none of it depends on the key's or the
//! message's value: 300 keys of 512 to 1024 bits all read 79). At the parent
//! of PR 24 every step of square-and-multiply allocated a product, a
//! quotient and Algorithm D's shifted copies: 5,447 blocks for a 512-bit
//! signature, 8,100 at 768 bits, 10,851 at 1024.
//!
//! The counting allocator is the idiom of `crates/gsi/tests/zero_alloc.rs`:
//! gated on a thread-local flag so only the test thread, inside the measured
//! window, counts.

use ig_crypto::rng::seeded;
use ig_crypto::RsaKeyPair;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    // `try_with` so allocator calls during TLS teardown stay safe.
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Blocks one warm `sign` allocates.
fn blocks_per_sign(bits: usize) -> usize {
    let kp = RsaKeyPair::generate(&mut seeded(24), bits).unwrap();
    kp.private.sign(b"warm-up").unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let sig = kp.private.sign(b"measured").unwrap();
    TRACKING.with(|t| t.set(false));
    kp.public.verify(b"measured", &sig).unwrap();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_sign_allocates_the_same_few_blocks_at_every_key_size() {
    for bits in [512, 768, 1024] {
        assert_eq!(blocks_per_sign(bits), 79, "{bits}-bit key");
    }
}
