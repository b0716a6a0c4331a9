//! The extracted protocol cores, instantiated twice.
//!
//! The pool's chunk hand-off and the serve stack's admission queue are
//! written here exactly once, against a `sync_api` module alias, and
//! stamped out by `protocol_impl!` into two flavors:
//!
//! * [`on_shim`] — `sync_api = crate::sync`: the production flavor.
//!   `vendor/rayon`'s pool and `crates/serve`'s robustness layer use
//!   these types; in a normal build they compile to exactly the code
//!   they replaced (the shim is a `std` re-export).
//! * [`on_model`] — `sync_api = crate::check::sync`: the instrumented
//!   flavor the model tests in `tests/` drive through
//!   [`crate::check::explore`], enumerating every interleaving the
//!   declared orderings permit.
//!
//! Because both flavors expand from one macro body, the verified
//! protocol and the shipped protocol cannot drift apart: a change to
//! either is a change to both, and the model tests re-verify it.

/// Why `AdmissionQueue::try_push` refused an item. Shared by both
/// flavors (it contains no sync types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue was at capacity: the caller must shed the request
    /// (HTTP 429), not wait.
    Shed {
        /// Depth at the instant of rejection, observed under the queue
        /// lock — always exactly the capacity, because pushes are
        /// guarded by the same lock so the depth can never exceed it.
        /// A racing pop may have drained the queue by the time the
        /// caller reads this value; it is a snapshot for the 429 body,
        /// not a promise the queue is still full.
        depth: usize,
    },
    /// The queue was closed for shutdown.
    Closed,
}

/// Expands to the protocol types against whatever `sync_api` names in
/// the expansion site. See module docs.
macro_rules! protocol_impl {
    () => {
        /// The pool's chunk allocator + completion latch: the atomic
        /// heart of `vendor/rayon`'s `Task`, minus the type-erased
        /// closure plumbing. Threads `claim()` disjoint chunks of
        /// `0..len` until the index space is exhausted, then report
        /// each chunk `complete()`; whoever completes the final index
        /// learns it (returns `true`) and signals the caller.
        pub struct ChunkLatch {
            len: usize,
            chunk: usize,
            next: sync_api::AtomicUsize,
            finished: sync_api::AtomicUsize,
        }

        impl ChunkLatch {
            /// A latch over `0..len` handed out in `chunk`-sized runs
            /// (minimum 1).
            pub fn new(len: usize, chunk: usize) -> Self {
                ChunkLatch {
                    len,
                    chunk: chunk.max(1),
                    next: sync_api::AtomicUsize::new(0),
                    finished: sync_api::AtomicUsize::new(0),
                }
            }

            /// Total index space covered by the latch.
            #[inline]
            pub fn len(&self) -> usize {
                self.len
            }

            #[inline]
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Configured chunk size.
            #[inline]
            pub fn chunk(&self) -> usize {
                self.chunk
            }

            /// Claim the next chunk: `Some((start, end))` with a
            /// half-open in-bounds range no other claimer will ever
            /// see, or `None` once the space is exhausted.
            #[inline]
            pub fn claim(&self) -> Option<(usize, usize)> {
                // Ordering::Relaxed — `next` is a pure chunk-index allocator:
                // fetch_add's read-modify-write atomicity alone guarantees
                // disjoint chunks, and no other memory is published through
                // it (completion is signalled by `finished`, not `next`).
                let start = self.next.fetch_add(self.chunk, sync_api::Ordering::Relaxed);
                if start >= self.len {
                    return None;
                }
                Some((start, (start + self.chunk).min(self.len)))
            }

            /// Report `n` indices finished. Returns `true` exactly for
            /// the call that completes the space — that caller must
            /// wake whoever waits on the region.
            #[inline]
            pub fn complete(&self, n: usize) -> bool {
                // Ordering::AcqRel — the hand-off edge. Release publishes
                // this chunk's writes to whichever thread observes the
                // counter reach `len`; Acquire makes that observer see every
                // earlier chunk's writes before it reports completion.
                self.finished.fetch_add(n, sync_api::Ordering::AcqRel) + n >= self.len
            }

            /// Advisory: has every chunk been handed out?
            #[inline]
            pub fn is_exhausted(&self) -> bool {
                // Ordering::Relaxed — an advisory read used only to garbage-
                // collect drained tasks from the queue; a stale value merely
                // delays the pop, correctness rests on `claim`'s own fetch_add.
                self.next.load(sync_api::Ordering::Relaxed) >= self.len
            }
        }

        struct QueueState<T> {
            items: std::collections::VecDeque<T>,
            closed: bool,
        }

        /// A bounded multi-producer multi-consumer queue with explicit
        /// load-shedding, one item per wakeup.
        ///
        /// Producers never block: a full queue is an
        /// [`AdmitError::Shed`](crate::proto::AdmitError) and the caller
        /// turns it into backpressure the client can see. Consumers
        /// block (bounded by a poll interval) and take one item per
        /// wakeup.
        pub struct AdmissionQueue<T> {
            state: sync_api::Mutex<QueueState<T>>,
            cv: sync_api::Condvar,
            cap: usize,
        }

        /// A poisoned robustness-layer lock only means another thread
        /// panicked mid-push/pop; the queue's VecDeque is still
        /// structurally sound, so recover the guard instead of
        /// propagating the poison.
        fn relock<'a, T>(
            r: Result<
                sync_api::MutexGuard<'a, T>,
                std::sync::PoisonError<sync_api::MutexGuard<'a, T>>,
            >,
        ) -> sync_api::MutexGuard<'a, T> {
            r.unwrap_or_else(|e| e.into_inner())
        }

        /// The `(guard, timeout-flag)` pair `Condvar::wait_timeout`
        /// returns.
        type TimedWait<'a, T> = (sync_api::MutexGuard<'a, T>, sync_api::WaitTimeoutResult);

        /// [`relock`] for the `(guard, timeout-flag)` pair of
        /// `wait_timeout`.
        fn relock2<'a, T>(
            r: Result<TimedWait<'a, T>, std::sync::PoisonError<TimedWait<'a, T>>>,
        ) -> TimedWait<'a, T> {
            r.unwrap_or_else(|e| e.into_inner())
        }

        impl<T> AdmissionQueue<T> {
            /// A queue admitting at most `cap` items (minimum 1).
            pub fn new(cap: usize) -> Self {
                AdmissionQueue {
                    state: sync_api::Mutex::new(QueueState {
                        items: std::collections::VecDeque::new(),
                        closed: false,
                    }),
                    cv: sync_api::Condvar::new(),
                    cap: cap.max(1),
                }
            }

            /// Admit `item`, or refuse immediately: `Shed` at capacity,
            /// `Closed` during shutdown. Never blocks.
            pub fn try_push(&self, item: T) -> Result<(), crate::proto::AdmitError> {
                let mut st = relock(self.state.lock());
                if st.closed {
                    return Err(crate::proto::AdmitError::Closed);
                }
                if st.items.len() >= self.cap {
                    return Err(crate::proto::AdmitError::Shed { depth: st.items.len() });
                }
                st.items.push_back(item);
                drop(st);
                self.cv.notify_one();
                Ok(())
            }

            /// Wait up to `wait` for work, then take one item.
            ///
            /// `Some(None)` means the wait timed out (poll again); `None`
            /// means the queue is closed *and* drained — the consumer
            /// should exit.
            pub fn pop(&self, wait: std::time::Duration) -> Option<Option<T>> {
                let mut st = relock(self.state.lock());
                if st.items.is_empty() {
                    if st.closed {
                        return None;
                    }
                    let (g, _timeout) = relock2(self.cv.wait_timeout(st, wait));
                    st = g;
                }
                match st.items.pop_front() {
                    Some(item) => Some(Some(item)),
                    None if st.closed => None,
                    None => Some(None),
                }
            }

            /// Items currently queued.
            pub fn depth(&self) -> usize {
                relock(self.state.lock()).items.len()
            }

            /// Capacity.
            pub fn capacity(&self) -> usize {
                self.cap
            }

            /// Close for shutdown: producers get `Closed`, consumers
            /// drain the remainder and then see `None`.
            pub fn close(&self) {
                relock(self.state.lock()).closed = true;
                self.cv.notify_all();
            }
        }
    };
}

/// Production flavor: `sync_api` is the shim ([`crate::sync`]), which a
/// normal build resolves to `std`.
pub mod on_shim {
    use crate::sync as sync_api;
    protocol_impl!();
}

/// Instrumented flavor: `sync_api` is [`crate::check::sync`]; only
/// constructible inside [`crate::check::explore`].
pub mod on_model {
    use crate::check::sync as sync_api;
    protocol_impl!();
}

#[cfg(test)]
mod tests {
    use super::on_shim::ChunkLatch;

    #[test]
    fn claims_cover_the_space_disjointly_and_in_order() {
        let latch = ChunkLatch::new(10, 3);
        let mut seen = Vec::new();
        while let Some((start, end)) = latch.claim() {
            assert!(start < end && end <= 10);
            seen.push((start, end));
        }
        assert_eq!(seen, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert!(latch.is_exhausted());
        assert!(latch.claim().is_none());
    }

    #[test]
    fn complete_fires_exactly_on_the_final_index() {
        let latch = ChunkLatch::new(10, 3);
        let chunks: Vec<_> = std::iter::from_fn(|| latch.claim()).collect();
        let mut fired = 0;
        for (i, (start, end)) in chunks.iter().enumerate() {
            let done = latch.complete(end - start);
            if done {
                fired += 1;
                assert_eq!(i, chunks.len() - 1, "only the last completion latches");
            }
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn zero_length_latch_is_born_exhausted() {
        let latch = ChunkLatch::new(0, 4);
        assert!(latch.is_empty());
        assert!(latch.claim().is_none());
        assert!(latch.is_exhausted());
    }
}
