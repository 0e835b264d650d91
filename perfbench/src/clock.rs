//! The clock single-call latencies are read from.
//!
//! Query latencies (`query_*` and the per-layer query rows built from
//! the same samples) and `checkpoint_ms` are the calling thread's CPU
//! time over the call (`CLOCK_THREAD_CPUTIME_ID`), not wall time. On a
//! shared host the wall time of a 100 µs call also counts the time the
//! thread sat descheduled or its virtual CPU was stolen, and those few
//! inflated samples are exactly the tail a p99 reads. The timed calls
//! run on the calling thread, wait on no contended lock, and read only
//! spill files that were just written (so from the page cache); with
//! the machine otherwise idle both clocks agree within a few per cent.
//! Throughput (`events_per_s`, two ingest threads) and `setup_s` stay
//! on the wall clock. Where no thread clock exists the wall clock is
//! used, and the `call_clock` label says which.

/// The `call_clock` label value.
#[cfg(target_os = "linux")]
pub const NAME: &str = "thread_cpu";
/// The `call_clock` label value.
#[cfg(not(target_os = "linux"))]
pub const NAME: &str = "wall";

/// A start reading of the call clock.
pub struct CallClock(u64);

impl CallClock {
    #[must_use]
    pub fn now() -> Self {
        Self(now_ns())
    }

    /// Microseconds since [`CallClock::now`] on the same thread.
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        now_ns().saturating_sub(self.0) as f64 / 1e3
    }
}

#[cfg(target_os = "linux")]
fn now_ns() -> u64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec, the only memory the
    // call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_busy_time_but_not_sleep() {
        let t = CallClock::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let busy = t.elapsed_us();
        assert!(busy > 0.0);
        let t = CallClock::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        if NAME == "thread_cpu" {
            assert!(t.elapsed_us() < 25_000.0, "sleep counted as CPU time");
        }
    }
}
