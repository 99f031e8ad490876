//! The one parallel driver: an ordered, fallible map over per-call
//! scoped threads.
//!
//! This is the paper's threading model and nothing more — §III-C runs
//! the `p` independent sub-matrices on `T` threads created for the
//! decode, accepting that "some additional time is spent on creating
//! multiple threads". There is no pool: every call spawns its helpers
//! and joins them before returning, so borrows of the caller's stack
//! (`&mut` stripes, the shared session) need no `'static` bound.

use std::sync::Mutex;

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results **in input order**.
///
/// The calling thread is one of the workers; `min(workers, len) − 1`
/// scoped helpers are spawned beside it, `len` being the iterator's
/// upper [`size_hint`](Iterator::size_hint). Each worker pulls its next
/// item from the shared iterator when it becomes free, so skewed
/// per-item costs self-balance. With `workers ≤ 1` or at most one item
/// nothing is spawned and nothing is locked: the map runs inline.
///
/// ```
/// let squares = ppm_core::par_map(4, 1..=5u32, |x| Ok::<_, ()>(x * x));
/// assert_eq!(squares, Ok(vec![1, 4, 9, 16, 25]));
/// ```
///
/// # Errors
/// The first `Err` stops the map: the iterator is dropped on the spot,
/// so no worker pulls another item (items already pulled run to
/// completion), and the error of the earliest failing item is returned.
///
/// # Panics
/// A panic in `f` or in the iterator is resumed on the caller with its
/// original payload once every helper has been joined.
pub fn par_map<I, R, E, F>(workers: usize, items: I, f: F) -> Result<Vec<R>, E>
where
    I: IntoIterator,
    I::IntoIter: Send,
    R: Send,
    E: Send,
    F: Fn(I::Item) -> Result<R, E> + Sync,
{
    let items = items.into_iter();
    let threads = workers.min(items.size_hint().1.unwrap_or(usize::MAX));
    if threads <= 1 {
        return items.map(f).collect();
    }
    let source = Mutex::new(Some(items.enumerate()));
    let work = || {
        let mut done = Vec::new();
        loop {
            // A poisoned source means a sibling panicked inside `next()`:
            // stop pulling and let the join below resume that panic.
            let next = match source.lock() {
                Ok(mut items) => items.as_mut().and_then(Iterator::next),
                Err(_) => None,
            };
            let Some((index, item)) = next else {
                return Ok(done);
            };
            match f(item) {
                Ok(result) => done.push((index, result)),
                Err(e) => {
                    if let Ok(mut items) = source.lock() {
                        *items = None;
                    }
                    return Err((index, e));
                }
            }
        }
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mine = work();
        let joined = helpers.into_iter().map(|helper| {
            helper
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        std::iter::once(mine).chain(joined).collect()
    });

    let mut results = Vec::new();
    let mut first_err: Option<(usize, E)> = None;
    for outcome in outcomes {
        match outcome {
            Ok(done) => results.extend(done),
            Err((index, e)) => {
                if first_err.as_ref().is_none_or(|(first, _)| index < *first) {
                    first_err = Some((index, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    results.sort_unstable_by_key(|(index, _)| *index);
    Ok(results.into_iter().map(|(_, result)| result).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};

    const WORKERS: usize = 4;

    #[test]
    fn order_is_preserved_and_threads_are_bounded_by_workers_and_items() {
        for workers in [1, WORKERS] {
            for len in [0, 1, WORKERS - 1, WORKERS, 101] {
                let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                let out = par_map(workers, 0..len, |x| {
                    seen.lock().unwrap().insert(thread::current().id());
                    Ok::<_, Infallible>(x * 2)
                })
                .unwrap();
                assert_eq!(out, (0..len).map(|x| x * 2).collect::<Vec<_>>());
                let seen = seen.into_inner().unwrap();
                assert!(
                    seen.len() <= workers.min(len),
                    "{} threads for {workers} workers over {len} items",
                    seen.len()
                );
                if workers == 1 || len <= 1 {
                    // The inline guarantee: no spawn, the caller does it.
                    assert!(seen.iter().all(|id| *id == thread::current().id()));
                }
            }
        }
    }

    /// An iterator that counts its `next()` calls and flags its drop, so
    /// a test can see exactly how far the driver pulled and when it
    /// discarded the source.
    struct Counted<'a> {
        inner: std::ops::Range<usize>,
        pulled: &'a AtomicUsize,
        dropped: &'a AtomicBool,
    }

    impl Iterator for Counted<'_> {
        type Item = usize;
        fn next(&mut self) -> Option<usize> {
            self.pulled.fetch_add(1, Ordering::SeqCst);
            self.inner.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            self.inner.size_hint()
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn first_error_stops_the_pulling_and_is_the_one_returned() {
        // Inline: items 0..=3 are pulled, 3 fails, 7 is never reached.
        let (pulled, dropped) = (AtomicUsize::new(0), AtomicBool::new(false));
        let source = Counted {
            inner: 0..101,
            pulled: &pulled,
            dropped: &dropped,
        };
        let err = par_map(1, source, |x| if x == 3 || x == 7 { Err(x) } else { Ok(x) });
        assert_eq!(err, Err(3));
        assert_eq!(pulled.load(Ordering::SeqCst), 4);

        // Four workers, interleaving forced: items 0..=2 park inside `f`
        // until the source has been dropped; item 3 waits for all three
        // to be parked, then fails. Nobody can pull a fifth item.
        let (pulled, dropped) = (AtomicUsize::new(0), AtomicBool::new(false));
        let parked = AtomicUsize::new(0);
        let source = Counted {
            inner: 0..101,
            pulled: &pulled,
            dropped: &dropped,
        };
        let err = par_map(WORKERS, source, |x| {
            if x == 3 {
                while parked.load(Ordering::SeqCst) < 3 {
                    thread::yield_now();
                }
                return Err(x);
            }
            parked.fetch_add(1, Ordering::SeqCst);
            while !dropped.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            Ok(x)
        });
        assert_eq!(err, Err(3));
        assert_eq!(pulled.load(Ordering::SeqCst), 4);

        // Several failures: the earliest item's error wins.
        // (Item 19 can only have been pulled after item 9, and a pulled
        // item always runs to completion.)
        let err = par_map(
            WORKERS,
            0..101,
            |x| if x % 10 == 9 { Err(x) } else { Ok(x) },
        );
        assert_eq!(err, Err(9));
    }

    #[test]
    fn a_panicking_item_resumes_on_the_caller_with_its_payload() {
        for workers in [1, WORKERS] {
            let caught = std::panic::catch_unwind(|| {
                par_map(workers, 0..16usize, |x| {
                    if x == 5 {
                        std::panic::panic_any(x);
                    }
                    Ok::<_, Infallible>(x)
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&5));
        }
    }

    #[test]
    fn mutable_chunks_are_mapped_in_place() {
        let mut data: Vec<u32> = (0..10).collect();
        let sums = par_map(3, data.chunks_mut(4), |chunk| {
            for x in chunk.iter_mut() {
                *x += 100;
            }
            Ok::<_, Infallible>(chunk.iter().sum::<u32>())
        })
        .unwrap();
        assert_eq!(data, (100..110).collect::<Vec<_>>());
        assert_eq!(sums, vec![406, 422, 217]);
    }
}
