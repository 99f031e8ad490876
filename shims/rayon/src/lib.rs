//! Offline stand-in for the `rayon` crate (1.x API subset).
//!
//! The build environment cannot fetch crates.io, so this crate provides
//! the exact data-parallel surface the workspace uses, implemented with
//! `std::thread::scope`:
//!
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — a "pool" here is
//!   just a parallelism width; `install` records it in a thread-local so
//!   the parallel iterators below know how many worker threads to spawn.
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` (order-preserving).
//!
//! Workers are spawned per call rather than kept warm; for the
//! region-sized work items in this workspace the spawn cost is noise,
//! and scoped threads keep the lifetimes simple (no `'static` bounds).

use std::cell::Cell;
use std::fmt;
use std::thread;

thread_local! {
    static CURRENT_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Parallelism width the calling thread is currently "installed" in:
/// the enclosing [`ThreadPool::install`]'s width, or the machine's
/// available parallelism outside any pool (matching rayon's global-pool
/// default).
fn current_threads() -> usize {
    let cur = CURRENT_THREADS.with(|c| c.get());
    if cur != 0 {
        cur
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Error building a thread pool. The shim never actually fails, but the
/// type exists so `ThreadPoolBuilder::build()?` call sites compile.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's parallelism width (0 = automatic).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Accepted for API compatibility; workers are per-call scoped
    /// threads here, so the name function is not used.
    pub fn thread_name<F>(self, _f: F) -> Self
    where
        F: FnMut(usize) -> String + Send + Sync + 'static,
    {
        self
    }

    /// Builds the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A parallelism scope: parallel iterators run under
/// [`install`](ThreadPool::install) use this pool's width.
pub struct ThreadPool {
    num_threads: usize,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.num_threads)
            .finish()
    }
}

impl ThreadPool {
    /// Runs `op` with this pool's width active for any parallel
    /// iterators it invokes.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        CURRENT_THREADS.with(|c| {
            let prev = c.get();
            c.set(self.num_threads);
            let result = op();
            c.set(prev);
            result
        })
    }

    /// The pool's parallelism width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

fn join_or_propagate<T>(handle: thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Order-preserving parallel map over `items`, chunked across up to
/// [`current_threads`] scoped workers.
fn map_collect<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let workers = current_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(join_or_propagate(h));
        }
        out
    })
}

/// Parallel iterator over `&[T]`; produced by
/// [`IntoParallelRefIterator::par_iter`].
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item through `f`.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        map_collect(self.items, f);
    }
}

/// Mapped parallel iterator; terminates with [`collect`](ParMap::collect).
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, F> ParMap<'a, T, F>
where
    T: Sync,
{
    /// Collects the mapped results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: From<Vec<R>>,
    {
        map_collect(self.items, self.f).into()
    }
}

/// `par_iter()` on shared slices (and `Vec` via deref).
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: Sync + 'a;

    /// Returns a parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// The usual glob import: the parallel-iterator traits.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn install_sets_width_and_restores() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_threads();
        pool.install(|| assert_eq!(current_threads(), 3));
        assert_eq!(current_threads(), outside);
    }

    #[test]
    fn map_collect_preserves_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let input: Vec<usize> = (0..101).collect();
        let out: Vec<usize> = pool.install(|| input.par_iter().map(|&x| x * 2).collect());
        assert_eq!(out, (0..101).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_width_pool_defaults_to_machine() {
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }
}
