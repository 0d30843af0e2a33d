//! Offline stand-in for the subset of `rayon` this workspace uses:
//! `par_iter()` / `par_chunks()` on slices with `map(..).collect()`.
//!
//! Execution uses `std::thread::scope` with an atomic work queue instead
//! of a work-stealing pool. Results are returned in input order, so the
//! output of a parallel map is **identical** to its serial equivalent —
//! the property the batch-matching tests rely on. Worker panics propagate
//! to the caller, like rayon.
//!
//! There is **no persistent worker pool**: scoped threads are spawned per
//! collect (a static pool taking borrowed closures needs `unsafe`, which
//! this shim forbids), so each parallel call pays ~tens of µs of
//! spawn/join. Callers with small work items should gate on input size,
//! or swap in the real rayon when network access exists.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads a parallel operation will use.
///
/// Cached: `std::thread::available_parallelism` inspects cgroup limits on
/// Linux (several file reads, ~10µs) — far too slow to query per batch.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The glob-imported API surface (mirrors `rayon::prelude`).
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelRefIterator, ParallelSlice};
}

/// Runs `f` over `0..n` tasks on a scoped thread pool, returning results
/// in task order.
fn run_ordered<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n).max(1);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rayon-shim worker panicked"))
            .collect()
    });
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Collections constructible from an ordered parallel map.
pub trait FromParallelIterator<T> {
    /// Builds from results already in input order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

/// Per-item parallel iteration over borrowed collections.
pub trait IntoParallelRefIterator<'data> {
    /// Borrowed item type.
    type Item: Sync + 'data;
    /// Starts a parallel iterator over `&self`.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// Parallel iterator over slice items.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item through `f` in parallel.
    pub fn map<R, F: Fn(&'a T) -> R + Sync>(self, f: F) -> ParIterMap<'a, T, F> {
        ParIterMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator over items.
pub struct ParIterMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParIterMap<'a, T, F> {
    /// Executes the map and collects results in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        let out = run_ordered(self.items.len(), current_num_threads(), |i| {
            (self.f)(&self.items[i])
        });
        C::from_ordered_vec(out)
    }
}

/// Chunked parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Starts a parallel iterator over non-overlapping chunks of
    /// `chunk_size` elements (the last chunk may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks {
            items: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over slice chunks.
pub struct ParChunks<'a, T> {
    items: &'a [T],
    chunk_size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Maps each chunk through `f` in parallel.
    pub fn map<R, F: Fn(&'a [T]) -> R + Sync>(self, f: F) -> ParChunksMap<'a, T, F> {
        ParChunksMap {
            items: self.items,
            chunk_size: self.chunk_size,
            f,
        }
    }
}

/// A mapped parallel iterator over chunks.
pub struct ParChunksMap<'a, T, F> {
    items: &'a [T],
    chunk_size: usize,
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a [T]) -> R + Sync> ParChunksMap<'a, T, F> {
    /// Executes the map and collects chunk results in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        let n_chunks = self.items.len().div_ceil(self.chunk_size);
        let out = run_ordered(n_chunks, current_num_threads(), |i| {
            let start = i * self.chunk_size;
            let end = (start + self.chunk_size).min(self.items.len());
            (self.f)(&self.items[start..end])
        });
        C::from_ordered_vec(out)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let input: Vec<u64> = (0..1_003).collect();
        let sums: Vec<Vec<u64>> = input
            .par_chunks(97)
            .map(|c| c.iter().map(|x| x + 1).collect())
            .collect();
        let flat: Vec<u64> = sums.into_iter().flatten().collect();
        assert_eq!(flat, input.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let input: Vec<u64> = Vec::new();
        let out: Vec<u64> = input.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let chunks: Vec<u64> = input.par_chunks(8).map(|c| c.len() as u64).collect();
        assert!(chunks.is_empty());
    }

    // Force real threads regardless of host core count: run_ordered's
    // cross-thread ordering must match the serial map exactly.
    #[test]
    fn run_ordered_multithreaded_preserves_order() {
        let out = super::run_ordered(10_001, 4, |i| i * 3);
        assert_eq!(out, (0..10_001).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn run_ordered_multithreaded_panic_propagates() {
        let _ = super::run_ordered(64, 4, |i| {
            if i == 13 {
                panic!("boom");
            }
            i
        });
    }

    // Message differs between the serial fallback ("boom") and the
    // threaded path ("rayon-shim worker panicked"), so accept any panic.
    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let input: Vec<u64> = (0..64).collect();
        let _: Vec<u64> = input
            .par_iter()
            .map(|x| {
                if *x == 13 {
                    panic!("boom");
                }
                *x
            })
            .collect();
    }
}
