// taor-lint: allow(det::wall-clock) — deadlines, queue waits and shutdown polling are wall-clock by nature; nothing in this module feeds pipeline outputs, which stay a pure function of the request bytes.
//! Robustness primitives: deadlines, bounded admission, panic walls.
//!
//! This module is the testable core of the service's overload story,
//! deliberately free of any HTTP or recognition detail:
//!
//! * [`Deadline`] — a wall-clock budget carried by each request.
//! * [`AdmissionQueue`] — a bounded MPMC queue whose `try_push` *sheds*
//!   instead of blocking, and whose `pop` hands a worker one item per
//!   wakeup. The implementation lives in taor-model's protocol core
//!   (`proto::on_shim`), where `cargo test -p taor-model` exhaustively
//!   model-checks the shed and close-and-drain paths; this module
//!   re-exports it unchanged and keeps the behavioural tests below as
//!   the std-flavor regression suite.
//! * [`isolate`] — `catch_unwind` with the panic payload rendered to a
//!   string, so one poisoned request cannot take the process down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub use taor_model::proto::on_shim::AdmissionQueue;
pub use taor_model::proto::AdmitError;

/// A wall-clock budget. Requests carry one from admission to response;
/// work that outlives it is answered with a typed timeout instead of
/// being completed stale.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        let now = Instant::now();
        Deadline { at: now.checked_add(budget).unwrap_or(now) }
    }

    /// Has the budget run out?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Budget left, zero once expired.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Run `f` behind a panic wall. A panic becomes an `Err` carrying the
/// rendered payload; the caller answers that one request with a 500 and
/// keeps serving.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn deadline_expires_and_reports_remaining() {
        let d = Deadline::after(Duration::from_millis(30));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_millis(30));
        std::thread::sleep(Duration::from_millis(40));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn queue_sheds_at_capacity_instead_of_blocking() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        // The shed depth is the locked snapshot at rejection: exactly
        // the capacity, never more (pushes are guarded by the same
        // lock), whatever pops race afterwards.
        match q.try_push(3) {
            Err(AdmitError::Shed { depth }) => assert_eq!(depth, q.capacity()),
            other => panic!("expected a shed, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(Duration::ZERO), Some(Some(1)));
        assert!(q.try_push(3).is_ok());
    }

    /// Sheds racing concurrent pops still report `depth == capacity`:
    /// the snapshot is taken under the lock, so a pop that lands before
    /// or after the rejection cannot make the value under- or overshoot.
    #[test]
    fn shed_depth_is_capacity_even_under_racing_pops() {
        let q = Arc::new(AdmissionQueue::new(3));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let popper = {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Ordering::Relaxed — a test stop flag; no data is
                // published through it.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = q.pop(Duration::ZERO);
                }
            })
        };
        let mut sheds = 0usize;
        for i in 0..10_000 {
            if let Err(AdmitError::Shed { depth }) = q.try_push(i) {
                assert_eq!(depth, q.capacity(), "shed depth must equal capacity");
                sheds += 1;
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        popper.join().unwrap();
        assert!(sheds > 0, "the push loop must outrun the single-item popper");
    }

    #[test]
    fn close_rejects_producers_and_drains_consumers() {
        let q = AdmissionQueue::new(4);
        q.try_push("job").unwrap();
        q.close();
        assert_eq!(q.try_push("late"), Err(AdmitError::Closed));
        assert_eq!(q.pop(Duration::ZERO), Some(Some("job")));
        assert_eq!(q.pop(Duration::ZERO), None);
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(AdmissionQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            // Long wait: only the close() should end it promptly.
            q2.pop(Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn queue_is_mpmc_and_loses_nothing() {
        let q = Arc::new(AdmissionQueue::new(1024));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        while q.try_push(p * 100 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop(Duration::from_millis(20)) {
                        got.extend(item);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expect: Vec<i32> = (0..4).flat_map(|p| (0..100).map(move |i| p * 100 + i)).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn isolate_turns_panics_into_errors() {
        assert_eq!(isolate(|| 7), Ok(7));
        let err = isolate(|| panic!("poisoned request {}", 3)).unwrap_err();
        assert!(err.contains("poisoned request 3"));
    }
}
