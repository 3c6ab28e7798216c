//! The per-rank worker-thread pool: deterministic fork-join parallelism
//! for the compute kernels.
//!
//! # Design
//!
//! The pool is a *sizing policy* plus a *fork-join execution engine*,
//! not a set of long-lived parked threads: the workspace forbids
//! `unsafe`, and lending stack-borrowed kernel operands to persistent
//! workers cannot be expressed safely, so parallel regions run on
//! [`std::thread::scope`] workers spawned per region. Kernel call sites
//! parallelise at *macro* granularity (a whole GEMM, a whole STREAM
//! pass, a whole FFT block band), so the per-region spawn cost is
//! amortised over milliseconds of work. What persists is the sizing —
//! the ambient thread count installed per rank.
//!
//! # Sizing discipline
//!
//! [`Pool::current`] reads the *ambient* thread count, resolved in
//! priority order:
//!
//! 1. the thread-local ambient installed by the runtime for this rank
//!    ([`AmbientGuard::install`]) — the `mp` runtime installs
//!    [`rank_threads`] (the override below, else `cores / ranks`) on
//!    native rank threads and **1** on cooperative (hence all virtual)
//!    worlds, so a 65k-rank virtual world never spawns a single worker;
//! 2. the process-wide override ([`set_process_threads`], which the
//!    `benchmark/` package pins to 1);
//! 3. otherwise 1: a thread outside any rank runs its kernels serially.
//!
//! Every parallel region partitions work deterministically (contiguous
//! chunks or round-robin bins fixed by index), so results do not depend
//! on scheduling order.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The ambient pool size installed on this thread, if any.
    static AMBIENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Process-wide thread-count override (0 = unset). The `benchmark/` package
/// pins it to 1; read after the thread-local ambient.
static PROCESS_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker-thread count override (0 clears it).
/// Rank-local ambient installs still take precedence, so cooperative
/// worlds stay serial even under an override.
pub fn set_process_threads(n: usize) {
    PROCESS_THREADS.store(n, Ordering::Relaxed);
}

/// The worker-thread count the current thread's kernels should use.
pub fn ambient_threads() -> usize {
    if let Some(n) = AMBIENT.with(Cell::get) {
        return n.max(1);
    }
    PROCESS_THREADS.load(Ordering::Relaxed).max(1)
}

/// The worker-thread budget for one rank of an `n`-rank native world:
/// the process override if set, else an even share of the online cores
/// (never below 1).
pub fn rank_threads(world_size: usize) -> usize {
    match PROCESS_THREADS.load(Ordering::Relaxed) {
        0 => (crate::topo::detect().online_cpus / world_size.max(1)).max(1),
        p => p,
    }
}

/// RAII install of an ambient pool size on the current thread; the
/// previous value is restored on drop. Used by the `mp` runtime when it
/// enters a rank body (native: `cores / ranks`; cooperative: 1).
pub struct AmbientGuard {
    prev: Option<usize>,
}

impl AmbientGuard {
    /// Installs `threads` as this thread's ambient pool size.
    pub fn install(threads: usize) -> AmbientGuard {
        AmbientGuard {
            prev: AMBIENT.with(|c| c.replace(Some(threads.max(1)))),
        }
    }

    /// Installs pool size 1: the guard for cooperative / virtual worlds,
    /// where thousands of ranks share one OS thread and a worker spawn
    /// per rank would oversubscribe the host by orders of magnitude.
    pub fn serial() -> AmbientGuard {
        AmbientGuard::install(1)
    }
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

/// A fork-join worker pool of a fixed size.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A serial pool (size 1): every region runs inline.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// The pool sized by the current thread's ambient policy (see module
    /// docs for the resolution order).
    pub fn current() -> Pool {
        Pool::new(ambient_threads())
    }

    /// Number of worker threads a parallel region may use.
    pub fn size(&self) -> usize {
        self.threads
    }

    /// Runs `f(index, part)` for every part, distributing parts over the
    /// pool's workers round-robin by index (part `i` runs on worker
    /// `i % size`). Runs inline — no threads spawned — when the pool is
    /// serial or there is at most one part. Parts are disjoint `&mut`
    /// borrows, so the partitioning is race-free by construction, and
    /// the assignment is deterministic, so any per-part floating-point
    /// work is reproducible run to run.
    pub fn run_parts<T, F>(&self, parts: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let workers = self.threads.min(parts.len());
        if workers <= 1 {
            for (i, part) in parts.iter_mut().enumerate() {
                f(i, part);
            }
            return;
        }
        // Deterministic round-robin binning: worker w gets parts
        // w, w + workers, w + 2*workers, ...
        let mut bins: Vec<Vec<(usize, &mut T)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, part) in parts.iter_mut().enumerate() {
            bins[i % workers].push((i, part));
        }
        let f = &f;
        std::thread::scope(|scope| {
            let mut rest = bins;
            let mine = rest.remove(0);
            for bin in rest {
                scope.spawn(move || {
                    for (i, part) in bin {
                        f(i, part);
                    }
                });
            }
            // Worker 0 is the calling thread: one fewer spawn per region.
            for (i, part) in mine {
                f(i, part);
            }
        });
    }

    /// Splits `0..len` into `size()` near-equal contiguous ranges whose
    /// boundaries are multiples of `align` (the last range takes the
    /// remainder). Empty ranges are dropped, so short inputs yield fewer
    /// parts than workers rather than empty work.
    pub fn chunk_ranges(&self, len: usize, align: usize) -> Vec<std::ops::Range<usize>> {
        chunk_ranges(len, self.threads, align)
    }
}

/// Splits `0..len` into at most `parts` contiguous ranges aligned to
/// `align` (boundaries are multiples of `align`; the final range absorbs
/// the tail). Deterministic in `(len, parts, align)` alone.
pub fn chunk_ranges(len: usize, parts: usize, align: usize) -> Vec<std::ops::Range<usize>> {
    let align = align.max(1);
    let parts = parts.max(1);
    let per = len.div_ceil(parts).div_ceil(align) * align;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    while start < len {
        let end = (start + per).min(len);
        out.push(start..end);
        start = end;
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        let mut parts = vec![0u64; 4];
        pool.run_parts(&mut parts, |i, p| *p = i as u64 + 1);
        assert_eq!(parts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn parallel_pool_covers_every_part_exactly_once() {
        let pool = Pool::new(3);
        let mut parts: Vec<u64> = vec![0; 17];
        let calls = AtomicUsize::new(0);
        pool.run_parts(&mut parts, |i, p| {
            calls.fetch_add(1, Ordering::Relaxed);
            *p = (i * i) as u64;
        });
        assert_eq!(calls.load(Ordering::Relaxed), 17);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(*p, (i * i) as u64);
        }
    }

    #[test]
    fn more_workers_than_parts_is_fine() {
        let pool = Pool::new(8);
        let mut parts = vec![0u8; 2];
        pool.run_parts(&mut parts, |_, p| *p += 1);
        assert_eq!(parts, vec![1, 1]);
    }

    #[test]
    fn ambient_guard_installs_and_restores() {
        let outer = ambient_threads();
        {
            let _g = AmbientGuard::install(7);
            assert_eq!(ambient_threads(), 7);
            {
                let _s = AmbientGuard::serial();
                assert_eq!(ambient_threads(), 1);
                assert_eq!(Pool::current().size(), 1);
            }
            assert_eq!(ambient_threads(), 7);
        }
        assert_eq!(ambient_threads(), outer);
    }

    #[test]
    fn ambient_is_thread_local() {
        let _g = AmbientGuard::install(5);
        let inner = std::thread::spawn(|| {
            let _s = AmbientGuard::serial();
            ambient_threads()
        })
        .join()
        .unwrap();
        assert_eq!(inner, 1);
        assert_eq!(ambient_threads(), 5);
    }

    #[test]
    fn chunk_ranges_cover_and_align() {
        for (len, parts, align) in [(100, 3, 8), (7, 4, 8), (0, 2, 4), (64, 2, 8), (65, 2, 8)] {
            let ranges = chunk_ranges(len, parts, align);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "len={len} parts={parts}");
                assert!(r.start == 0 || r.start.is_multiple_of(align));
                next = r.end;
            }
            assert_eq!(next.max(ranges[0].end), len, "covers len");
            assert!(ranges.len() <= parts.max(1) || len == 0);
        }
    }

    #[test]
    fn pool_clamps_zero_to_one() {
        assert_eq!(Pool::new(0).size(), 1);
    }
}
