//! Thread-local scratch-buffer arena.
//!
//! The conv layers need large temporaries every pass — im2col matrices,
//! gathered gradient panels, col2im staging — and allocating them per
//! sample dominated small-batch training. [`Scratch::take`] hands out a
//! recycled `Vec<f32>` from a per-thread free list; the returned
//! [`ScratchBuf`] guard gives it back on drop, so steady-state passes
//! allocate nothing.
//!
//! Ownership rules:
//! * a `ScratchBuf` is owned like a `Vec` — it may be stored in caches
//!   (e.g. `ConvCache`) and crosses function boundaries freely;
//! * buffers return to the pool of the thread that drops them, not the
//!   one that took them — both are correct, the pool is only a reuse
//!   heuristic;
//! * the pool is bounded (`MAX_POOLED` buffers) so pathological bursts
//!   cannot pin unbounded memory.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Most buffers kept per thread; excess ones are simply freed.
const MAX_POOLED: usize = 32;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Handle to the per-thread arena. All methods are associated functions —
/// the arena itself lives in thread-local storage.
pub struct Scratch;

impl Scratch {
    /// A buffer of exactly `len` elements with **unspecified contents**
    /// (callers must fully overwrite it).
    pub fn take(len: usize) -> ScratchBuf {
        let mut buf = Self::pop(len);
        buf.resize(len, 0.0);
        ScratchBuf { buf }
    }

    /// A buffer of exactly `len` zeros.
    pub fn take_zeroed(len: usize) -> ScratchBuf {
        let mut buf = Self::pop(len);
        buf.clear();
        buf.resize(len, 0.0);
        ScratchBuf { buf }
    }

    /// Number of buffers currently pooled on this thread.
    #[cfg(test)]
    fn pooled() -> usize {
        POOL.with(|p| p.borrow().len())
    }

    fn pop(len: usize) -> Vec<f32> {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            // Prefer a buffer that already fits to avoid regrowing.
            if let Some(i) = pool.iter().rposition(|b| b.capacity() >= len) {
                return pool.swap_remove(i);
            }
            pool.pop().unwrap_or_default()
        })
    }
}

/// An arena-owned `Vec<f32>`; derefs to a slice and returns its storage
/// to the dropping thread's pool.
#[derive(Debug)]
pub struct ScratchBuf {
    buf: Vec<f32>,
}

impl Deref for ScratchBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // try_with: TLS may already be torn down during thread exit.
        // taor-lint: allow(err::swallowed-result) — AccessError here
        // means exactly that; the buffer is simply freed instead of
        // pooled.
        let _ = POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let ptr = {
            let mut b = Scratch::take_zeroed(1024);
            b[0] = 1.0;
            b.as_ptr() as usize
        };
        // Same storage comes back for a fitting request.
        let b2 = Scratch::take(512);
        assert_eq!(b2.as_ptr() as usize, ptr);
        assert_eq!(b2.len(), 512);
    }

    #[test]
    fn take_zeroed_clears_previous_contents() {
        {
            let mut b = Scratch::take(64);
            b.iter_mut().for_each(|v| *v = 7.0);
        }
        let b = Scratch::take_zeroed(64);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_is_bounded() {
        let many: Vec<_> = (0..2 * MAX_POOLED).map(|_| Scratch::take(8)).collect();
        drop(many);
        assert!(Scratch::pooled() <= MAX_POOLED);
    }
}
