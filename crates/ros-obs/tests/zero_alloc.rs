//! The disabled path ([`ros_obs::Level::Off`]) must be zero-cost: the
//! crate promises instrumented hot loops (per-frame capture, per-point
//! CFAR) pay one thread-local load and nothing else. This test pins
//! the "no allocation" half of that promise with a counting global
//! allocator; if somebody adds an eager `format!` or `to_string` ahead
//! of the level check, the count goes non-zero and this fails loudly.

use ros_obs::names;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_telemetry_does_not_allocate() {
    ros_obs::set_level(ros_obs::Level::Off);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1_000u64 {
        let _span = ros_obs::span(names::TIME_READER_RUN_FAST);
        ros_obs::count(names::DECODE_ATTEMPTS, 1);
        ros_obs::hist(names::DECODE_SNR_DB, 17.5);
        ros_obs::gauge(names::READER_CLOUD_POINTS, i as f64);
        ros_obs::event(
            "reader.pass",
            &[("frames", 1001u64.into()), ("decoded", true.into())],
        );
        ros_obs::event_detail("decode.slot", &[("idx", i.into()), ("amp", 14.2.into())]);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "Level::Off telemetry allocated {} time(s); every entry point \
         must early-return before touching the heap",
        after - before
    );
}
