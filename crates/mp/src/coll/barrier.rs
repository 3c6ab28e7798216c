//! Barrier synchronisation (`MPI_Barrier`, IMB `Barrier`).

use crate::comm::Comm;

use super::{bcast, ceil_log2, no_fold, run_in_place, Step};

/// [`dissemination_async`]'s steps (zero-byte messages).
pub(crate) fn dissemination_steps(me: usize, n: usize) -> impl Iterator<Item = Step> {
    (0..ceil_log2(n)).map(move |k| {
        let d = 1 << k;
        Step::at(k)
            .send((me + d) % n, 0..0)
            .recv((me + n - d) % n, 0..0)
    })
}

/// Dissemination barrier: `ceil(log2 n)` rounds; in round `k` every rank
/// signals `(rank + 2^k) mod n` and waits for `(rank - 2^k) mod n`.
/// This is the classic algorithm behind most MPI barrier implementations.
pub async fn dissemination_async(comm: &Comm) {
    let tag = comm.next_coll_tag();
    let mut steps = dissemination_steps(comm.rank(), comm.size());
    run_in_place::<u8>(comm, tag, &mut [], &mut steps, no_fold).await;
}

/// [`tree_async`]'s steps: [`bcast::binomial_steps`] from rank 0 backwards (the
/// fan-in: hear from every child, then signal the parent), then forwards
/// (the fan-out: wait for the parent's release, then release the children).
pub(crate) fn tree_steps(me: usize, n: usize) -> impl Iterator<Item = Step> {
    let rounds = ceil_log2(n);
    let fan_out = move || bcast::binomial_steps(me, n, 0, 0);
    fan_out()
        .rev()
        .map(move |step| step.reversed(rounds))
        .chain(fan_out().map(move |step| step.later(rounds)))
}

/// Tree barrier: a zero-byte binomial reduce to rank 0 followed by a
/// zero-byte binomial broadcast. One more latency step than dissemination
/// but half the messages; provided for algorithm ablation.
pub async fn tree_async(comm: &Comm) {
    let tag = comm.next_coll_tag();
    let mut steps = tree_steps(comm.rank(), comm.size());
    run_in_place::<u8>(comm, tag, &mut [], &mut steps, no_fold).await;
}

/// The default barrier (dissemination).
pub async fn auto_async(comm: &Comm) {
    dissemination_async(comm).await;
}

#[cfg(test)]
mod tests {
    use crate::coop::block_on;
    use crate::runtime::run;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// All ranks must observe every rank's pre-barrier increment after the
    /// barrier: the canonical barrier correctness check.
    fn check_barrier(n: usize, barrier: impl AsyncFn(&crate::comm::Comm) + Sync) {
        let counter = AtomicUsize::new(0);
        run(n, |comm| {
            for _ in 0..5 {
                counter.fetch_add(1, Ordering::SeqCst);
                block_on(barrier(comm));
                let seen = counter.load(Ordering::SeqCst);
                assert!(seen.is_multiple_of(n) || seen >= n, "barrier leaked early");
                block_on(barrier(comm));
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 5 * n);
    }

    #[test]
    fn dissemination_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            check_barrier(n, super::dissemination_async);
        }
    }

    #[test]
    fn tree_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            check_barrier(n, super::tree_async);
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
            block_on(super::auto_async(comm));
            for f in &flags {
                assert!(f.load(Ordering::SeqCst), "pre-barrier write not visible");
            }
        });
    }
}
