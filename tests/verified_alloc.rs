//! A clean verified repair must not copy the stripe: the escalation
//! baseline is taken only after the verify pass reports violations, so
//! on a warm session `repair_verified` of a 1 MiB stripe allocates far
//! less than one stripe's bytes.
//!
//! One test in this file, so nothing else allocates while it counts.

use ppm::stripe::random_data_stripe;
use ppm::{DecoderConfig, FailureScenario, LrcCode, RepairService};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested from the allocator since the process started.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn clean_verified_repair_allocates_less_than_one_stripe() {
    // LRC(12,2,2) x 4 rows x 16 KiB sectors: the benchmark's 1 MiB stripe.
    let code = LrcCode::<u8>::new(12, 2, 2, 4).expect("lrc");
    let svc = RepairService::new(code, DecoderConfig::default());
    let mut rng = StdRng::seed_from_u64(16);
    let mut pristine = random_data_stripe(svc.code(), 16 << 10, &mut rng);
    svc.encode(&mut pristine).expect("encode");
    let stripe_bytes = pristine.total_bytes();
    assert_eq!(stripe_bytes, 1 << 20);
    let scenario = FailureScenario::new(vec![3, 17, 40]);

    let mut damaged = pristine.clone();
    for round in 0..3 {
        damaged.erase(&scenario);
        let before = ALLOCATED.load(Ordering::Relaxed);
        let stats = svc
            .repair_verified(&mut damaged, &scenario)
            .expect("verified repair");
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        assert!(stats.verify.expect("attached").clean());
        assert_eq!(damaged, pristine);
        // Round 0 builds the plan and fills the arena; from then on the
        // session is warm.
        if round > 0 {
            assert!(
                allocated < stripe_bytes,
                "round {round}: a clean verified repair allocated {allocated} B, \
                 the stripe is {stripe_bytes} B"
            );
        }
    }
}
