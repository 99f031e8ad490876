//! Scratch-buffer recycling for the decode executor.
//!
//! Every decode needs working space: one slot per recovered sector, plus
//! (under the Normal sequence) one accumulator per `S·BS` row. The seed
//! executor allocated these on every call, so a
//! repair session decoding ten thousand stripes paid ten thousand rounds
//! of allocator traffic for identically-sized buffers. [`ScratchArena`]
//! keeps returned buffers and lends them back out, turning steady-state
//! decode into a zero-allocation loop.
//!
//! The arena is built for many concurrent workers: buffers are parked in
//! per-thread-affine shards (so the warm path rarely crosses a lock
//! another worker holds), reuse prefers the best-fitting capacity (so a
//! 64-byte take can never pin a multi-MiB whole-sector buffer), and the
//! total bytes parked across all shards are capped at
//! [`ScratchArena::DEFAULT_MAX_POOLED_BYTES`] (so a burst of large decodes
//! cannot strand unbounded memory in the pool).
//!
//! Unlike the plan cache, which a session consults once per call, the
//! arena is used on every stripe's decode, several times: the shards are
//! kept because they are measured to pay. On `repair_warm_small` (256
//! stripes per batch at 2 workers) one lock instead of eight cost 7–15 %
//! of `ops_per_s` and multiplied `arena.contended` by 8.4.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Number of independent freelists: enough that a handful of repair
/// workers each effectively own a shard.
const SHARD_COUNT: usize = 8;

/// Round-robin seed for assigning each OS thread a home shard.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard slot, assigned round-robin on first use.
    static HOME_SLOT: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time counters of a [`ScratchArena`], read from the session
/// that owns it ([`RepairService::arena`](crate::RepairService::arena)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers that had to be freshly allocated (no fitting pooled one).
    pub fresh: u64,
    /// Buffers served by recycling a returned one.
    pub reused: u64,
    /// Returned buffers dropped because pooling them would exceed the
    /// byte cap.
    pub dropped: u64,
    /// Takes/gives that found their home shard locked and had to wait
    /// (cross-worker contention signal).
    pub contended: u64,
    /// Buffers currently parked across all shards.
    pub pooled_buffers: usize,
    /// Bytes (capacity) currently parked across all shards.
    pub pooled_bytes: usize,
    /// The cap on parked bytes,
    /// [`ScratchArena::DEFAULT_MAX_POOLED_BYTES`].
    pub max_pooled_bytes: usize,
}

impl ArenaStats {
    /// Renders the counters as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fresh\":{},\"reused\":{},\"dropped\":{},\"contended\":{},\
             \"pooled_buffers\":{},\"pooled_bytes\":{},\"max_pooled_bytes\":{}}}",
            self.fresh,
            self.reused,
            self.dropped,
            self.contended,
            self.pooled_buffers,
            self.pooled_bytes,
            self.max_pooled_bytes
        )
    }
}

/// A pool of byte buffers shared by decode workers.
///
/// `take` hands out a zeroed buffer of the requested length, reusing a
/// returned one when available; `give` returns a buffer to the pool.
/// The arena is `Sync` — workers on different threads borrow and return
/// concurrently without serializing on one lock, because each thread is
/// pinned (round-robin) to a home shard it uses first. A take that finds
/// its home shard empty steals opportunistically from other shards, so
/// producer/consumer thread patterns still recycle.
///
/// Buffers are recycled by *capacity* with best-fit selection: a take
/// picks the smallest pooled buffer that already fits the request, so one
/// arena serves stripes of different sector sizes (span-sized and
/// whole-sector reservations, mixed codes) without a small request
/// pinning a huge buffer. A reused
/// buffer is truncated/zero-extended to the requested length. Total
/// parked capacity is bounded by [`ScratchArena::DEFAULT_MAX_POOLED_BYTES`];
/// returns beyond the cap drop the buffer instead of growing the pool.
///
/// A panicking worker cannot wedge the arena: the shard guards hold plain
/// `Vec`s with no cross-call invariant, so poisoned locks are stripped
/// and the pool keeps serving.
#[derive(Debug)]
pub struct ScratchArena {
    shards: Box<[Mutex<Vec<Vec<u8>>>]>,
    pooled_bytes: AtomicUsize,
    fresh: AtomicU64,
    reused: AtomicU64,
    dropped: AtomicU64,
    contended: AtomicU64,
}

impl Default for ScratchArena {
    fn default() -> Self {
        let shards = (0..SHARD_COUNT).map(|_| Mutex::new(Vec::new())).collect();
        ScratchArena {
            shards,
            pooled_bytes: AtomicUsize::new(0),
            fresh: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }
}

impl ScratchArena {
    /// The cap on parked capacity: 64 MiB, comfortably above the
    /// steady-state working set of (workers × buffers-per-subplan) for
    /// realistic sector sizes, while bounding what a burst of large
    /// whole-sector decodes can strand.
    pub const DEFAULT_MAX_POOLED_BYTES: usize = 64 << 20;

    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the calling thread's home shard.
    fn home_shard(&self) -> usize {
        HOME_SLOT.with(|slot| slot % self.shards.len())
    }

    /// Locks `shard`, recovering from poison (the guarded `Vec` has no
    /// invariant a panicking peer could break) and counting the lock as
    /// contended when another worker held it.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Vec<Vec<u8>>>) -> MutexGuard<'a, Vec<Vec<u8>>> {
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Pops the best-fitting buffer (smallest capacity ≥ `len`) from
    /// `pool`, if any.
    fn pop_best_fit(pool: &mut Vec<Vec<u8>>, len: usize) -> Option<Vec<u8>> {
        let mut best: Option<(usize, usize)> = None;
        for (index, buf) in pool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, best_cap)| cap < best_cap) {
                best = Some((index, cap));
                if cap == len {
                    break;
                }
            }
        }
        best.map(|(index, _)| pool.swap_remove(index))
    }

    /// Borrows a zeroed buffer of exactly `len` bytes.
    pub fn take(&self, len: usize) -> Vec<u8> {
        self.take_inner(len, true)
    }

    /// Borrows a buffer of exactly `len` bytes whose contents are
    /// arbitrary (stale bytes from a previous borrower, or zeros when
    /// freshly allocated). For callers that overwrite every byte before
    /// reading — the plan tape's first-write-overwrites instruction
    /// streams — this skips [`ScratchArena::take`]'s zeroing pass, which
    /// is a full write sweep of the buffer on every reuse.
    pub fn take_dirty(&self, len: usize) -> Vec<u8> {
        self.take_inner(len, false)
    }

    fn take_inner(&self, len: usize, zero: bool) -> Vec<u8> {
        let home = self.home_shard();
        // Home shard first; then steal a fitting buffer from any other
        // shard that is free right now (never block on a foreign shard).
        let mut recycled = self
            .shards
            .get(home)
            .and_then(|shard| Self::pop_best_fit(&mut self.lock_shard(shard), len));
        if recycled.is_none() {
            for (index, shard) in self.shards.iter().enumerate() {
                if index == home {
                    continue;
                }
                let Ok(mut pool) = shard.try_lock() else {
                    continue;
                };
                if let Some(buf) = Self::pop_best_fit(&mut pool, len) {
                    recycled = Some(buf);
                    break;
                }
            }
        }
        match recycled {
            Some(mut buf) => {
                self.pooled_bytes
                    .fetch_sub(buf.capacity(), Ordering::Relaxed);
                self.reused.fetch_add(1, Ordering::Relaxed);
                if zero {
                    buf.clear();
                }
                // Without the clear, stale bytes stay in place and only
                // the extension (if any) is zero-filled.
                buf.resize(len, 0);
                buf
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0u8; len]
            }
        }
    }

    /// Returns a buffer to the pool for later reuse. Buffers that would
    /// push parked capacity past the cap are dropped instead of pooled.
    pub fn give(&self, buf: Vec<u8>) {
        let cap = buf.capacity();
        // Zero-capacity vectors carry nothing worth keeping.
        if cap == 0 {
            return;
        }
        let Some(home) = self.shards.get(self.home_shard()) else {
            return;
        };
        // Reserve the bytes first; back out if the cap is exceeded. The
        // reservation is atomic, so concurrent givers cannot jointly
        // overshoot the bound.
        if self.pooled_bytes.fetch_add(cap, Ordering::Relaxed) + cap
            > Self::DEFAULT_MAX_POOLED_BYTES
        {
            self.pooled_bytes.fetch_sub(cap, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.lock_shard(home).push(buf);
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            pooled_buffers: self
                .shards
                .iter()
                .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner).len())
                .sum(),
            pooled_bytes: self.pooled_bytes.load(Ordering::Relaxed),
            max_pooled_bytes: Self::DEFAULT_MAX_POOLED_BYTES,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn take_give_take_reuses_storage() {
        let arena = ScratchArena::new();
        let a = arena.take(64);
        assert_eq!(a, vec![0u8; 64]);
        assert_eq!(arena.stats().fresh, 1);
        arena.give(a);
        assert_eq!(arena.stats().pooled_buffers, 1);
        let b = arena.take(64);
        assert_eq!(b, vec![0u8; 64]);
        assert_eq!(arena.stats().reused, 1);
        assert_eq!(arena.stats().fresh, 1, "no second allocation");
        assert_eq!(arena.stats().pooled_buffers, 0);
        assert_eq!(arena.stats().pooled_bytes, 0);
    }

    #[test]
    fn reused_buffers_are_zeroed_and_resized() {
        let arena = ScratchArena::new();
        let mut a = arena.take(8);
        a.iter_mut().for_each(|b| *b = 0xAB);
        arena.give(a);
        // Shrink: stale bytes must not leak through.
        let b = arena.take(4);
        assert_eq!(b, vec![0u8; 4]);
        arena.give(b);
        // Grow past the pooled capacity: a fresh, fully zeroed buffer.
        let c = arena.take(16);
        assert_eq!(c, vec![0u8; 16]);
    }

    #[test]
    fn dirty_take_skips_zeroing_but_still_sizes() {
        let arena = ScratchArena::new();
        let mut a = arena.take(8);
        a.iter_mut().for_each(|b| *b = 0xAB);
        arena.give(a);
        // Reuse without zeroing: stale bytes survive, count as a reuse.
        let b = arena.take_dirty(8);
        assert_eq!(b, vec![0xAB; 8]);
        assert_eq!(arena.stats().reused, 1);
        arena.give(b);
        // Growing still zero-fills the extension beyond the stale bytes.
        let c = arena.take_dirty(12);
        assert_eq!(&c[8..], &[0u8; 4]);
        assert_eq!(c.len(), 12);
        arena.give(c);
        // Shrinking truncates to the requested length.
        let d = arena.take_dirty(4);
        assert_eq!(d.len(), 4);
        // A fresh dirty allocation is zeroed by construction.
        let e = arena.take_dirty(64);
        assert_eq!(e, vec![0u8; 64]);
    }

    #[test]
    fn concurrent_take_give_is_safe() {
        let arena = std::sync::Arc::new(ScratchArena::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let arena = std::sync::Arc::clone(&arena);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let buf = arena.take(256);
                    assert!(buf.iter().all(|&b| b == 0));
                    arena.give(buf);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Everything given back; served = fresh + reused.
        assert_eq!(arena.stats().fresh + arena.stats().reused, 200);
        assert!(arena.stats().pooled_buffers <= 4);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let arena = ScratchArena::new();
        arena.give(Vec::new());
        assert_eq!(arena.stats().pooled_buffers, 0);
        assert_eq!(arena.stats().pooled_bytes, 0);
    }

    #[test]
    fn small_take_prefers_best_fit_over_large_buffer() {
        // Mixed sector sizes: a whole-sector decode of large sectors and
        // a small-sector repair share one arena. The 64-byte take must not
        // pin the multi-MiB buffer.
        let arena = ScratchArena::new();
        let big = arena.take(4 << 20);
        let small = arena.take(64);
        arena.give(big);
        arena.give(small);
        let again = arena.take(64);
        assert_eq!(again.capacity(), 64, "best fit picks the small buffer");
        assert_eq!(
            arena.stats().pooled_bytes,
            4 << 20,
            "big buffer stays pooled"
        );
        // And a large take still reuses the large buffer.
        let big_again = arena.take(4 << 20);
        assert!(big_again.capacity() >= 4 << 20);
        assert_eq!(arena.stats().reused, 2);
        assert_eq!(arena.stats().fresh, 2);
    }

    #[test]
    fn undersized_buffers_are_not_grown() {
        // A take larger than everything pooled allocates fresh rather
        // than stealing (and growing) a small buffer that a small take
        // could have reused.
        let arena = ScratchArena::new();
        arena.give(arena.take(64));
        let big = arena.take(1024);
        assert_eq!(big.len(), 1024);
        assert_eq!(arena.stats().fresh, 2);
        assert_eq!(
            arena.stats().pooled_buffers,
            1,
            "small buffer stays for small takes"
        );
    }

    #[test]
    fn pooled_bytes_are_bounded() {
        // Reserved-only buffers: the cap counts capacity, and
        // `with_capacity` touches no pages.
        const HALF: usize = ScratchArena::DEFAULT_MAX_POOLED_BYTES / 2;
        let arena = ScratchArena::new();
        arena.give(Vec::with_capacity(HALF));
        arena.give(Vec::with_capacity(HALF));
        // A third return would exceed the cap: dropped.
        arena.give(Vec::with_capacity(HALF));
        let s = arena.stats();
        assert_eq!(s.dropped, 1);
        assert_eq!(s.pooled_bytes, ScratchArena::DEFAULT_MAX_POOLED_BYTES);
        assert_eq!(s.pooled_buffers, 2);
    }

    #[test]
    fn cross_thread_returns_are_stolen_not_lost() {
        // Producer/consumer pattern: one thread takes, another gives.
        // Different threads have different home shards, so the second
        // take exercises the steal path.
        let arena = std::sync::Arc::new(ScratchArena::new());
        let buf = arena.take(256);
        {
            let arena = std::sync::Arc::clone(&arena);
            std::thread::spawn(move || arena.give(buf)).join().unwrap();
        }
        assert_eq!(arena.stats().pooled_buffers, 1);
        let again = arena.take(256);
        assert_eq!(again.len(), 256);
        assert_eq!(
            arena.stats().reused,
            1,
            "buffer stolen from the foreign shard"
        );
    }

    #[test]
    fn poisoned_shard_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let arena = std::sync::Arc::new(ScratchArena::new());
        arena.give(arena.take(128));
        // Poison every shard mutex by panicking while holding it; the
        // arena must keep serving regardless of which shard a thread
        // lands on afterwards.
        for shard in arena.shards.iter() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                panic!("worker died holding the arena lock");
            }));
            assert!(result.is_err());
        }
        // take/give/pooled all strip the poison and keep working.
        let buf = arena.take(128);
        assert_eq!(buf, vec![0u8; 128]);
        assert_eq!(arena.stats().reused, 1, "pooled buffer survives the poison");
        arena.give(buf);
        assert_eq!(arena.stats().pooled_buffers, 1);
    }

    #[test]
    fn stats_snapshot_and_json() {
        let arena = ScratchArena::new();
        arena.give(arena.take(64));
        let _ = arena.take(64);
        let s = arena.stats();
        assert_eq!((s.fresh, s.reused, s.dropped), (1, 1, 0));
        assert_eq!((s.pooled_buffers, s.pooled_bytes), (0, 0));
        assert_eq!(s.max_pooled_bytes, 64 << 20);
        let j = s.to_json();
        for needle in [
            "\"fresh\":1",
            "\"reused\":1",
            "\"dropped\":0",
            "\"contended\":",
            "\"pooled_buffers\":0",
            "\"pooled_bytes\":0",
            "\"max_pooled_bytes\":67108864",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }
}
