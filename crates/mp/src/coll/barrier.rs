//! Barrier synchronisation (`MPI_Barrier`, IMB `Barrier`).

use std::future::Future;

use crate::comm::Comm;

use super::{ceil_log2, no_fold, Buf, Coll, Mode, Run, Step};

/// Dissemination barrier: `ceil(log2 n)` rounds; in round `k` every rank
/// signals `(rank + 2^k) mod n` and waits for `(rank - 2^k) mod n`
/// (zero-byte messages). This is the classic algorithm behind most MPI
/// barrier implementations.
pub(crate) fn dissemination_steps(me: usize, n: usize) -> impl Iterator<Item = Step> {
    (0..ceil_log2(n)).map(move |k| {
        let d = 1 << k;
        Step::at(k)
            .send((me + d) % n, 0..0)
            .recv((me + n - d) % n, 0..0)
    })
}

/// The barrier (dissemination).
pub(crate) fn barrier(comm: &Comm) -> impl Future<Output = ()> + '_ {
    let steps = dissemination_steps(comm.rank(), comm.size());
    Run::new(
        comm,
        Coll::Barrier,
        Mode::InPlace,
        &[],
        Buf::Borrowed(&mut []),
        steps,
        no_fold::<u8>,
    )
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// All ranks must observe every rank's pre-barrier increment after the
    /// barrier: the canonical barrier correctness check.
    fn check_barrier(n: usize) {
        let counter = AtomicUsize::new(0);
        run(n, |comm| {
            for _ in 0..5 {
                counter.fetch_add(1, Ordering::SeqCst);
                block_on(super::barrier(comm));
                let seen = counter.load(Ordering::SeqCst);
                assert!(seen.is_multiple_of(n) || seen >= n, "barrier leaked early");
                block_on(super::barrier(comm));
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 5 * n);
    }

    #[test]
    fn dissemination_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            check_barrier(n);
        }
    }

    /// Stronger check: after the barrier, a flag set by every rank before
    /// the barrier must be visible.
    #[test]
    fn barrier_orders_flag_writes() {
        use std::sync::atomic::AtomicBool;
        let n = 8;
        let flags: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        run(n, |comm| {
            flags[comm.rank()].store(true, Ordering::SeqCst);
            block_on(comm.barrier_async());
            for f in &flags {
                assert!(f.load(Ordering::SeqCst), "pre-barrier write not visible");
            }
        });
    }
}
