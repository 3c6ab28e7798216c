//! Allreduce (`MPI_Allreduce`, IMB `Allreduce`, paper Fig. 7) — "important
//! for vector norms and time step sizes in time-dependent simulations".

use crate::comm::Comm;
use crate::reduce::{Numeric, Op};

use super::{allgather, reduce_scatter, run_in_place, Step, LONG_MSG_THRESHOLD};

/// Folds a non-power-of-two group down to `2^k` participants.
///
/// With `r = n - 2^k` extra ranks, the first `2r` ranks pair up: each odd
/// rank absorbs its even neighbour's vector and partakes in the
/// power-of-two phase; even ranks sit out and get the result afterwards.
#[derive(Clone, Copy)]
struct Fold {
    pow2: usize,
    rem: usize,
}

impl Fold {
    fn new(n: usize) -> Fold {
        let pow2 = 1 << n.ilog2();
        Fold {
            pow2,
            rem: n - pow2,
        }
    }

    /// Real rank of participant `newrank`.
    fn oldrank(&self, newrank: usize) -> usize {
        if newrank < self.rem {
            2 * newrank + 1
        } else {
            newrank + self.rem
        }
    }

    /// Rank `me`'s steps on a vector of `len`: the fold-in round if the
    /// group needs one, then `inner(p)` — the `rounds`-round power-of-two
    /// algorithm as participant `p` sees it — renamed to real ranks, then
    /// the fold-out round.
    fn steps<I: Iterator<Item = Step>>(
        self,
        me: usize,
        len: usize,
        rounds: usize,
        inner: impl FnOnce(usize) -> I,
    ) -> impl Iterator<Item = Step> {
        let pre = usize::from(self.rem > 0);
        let last = pre + rounds;
        // In the folded prefix a rank pairs with `me ^ 1`; the odd one absorbs.
        let pair = (me < 2 * self.rem).then_some((me ^ 1, me % 2 == 1));
        let participant = match pair {
            None => Some(me - self.rem),
            Some((_, absorbs)) => absorbs.then_some(me / 2),
        };
        let fold_in = pair.into_iter().map(move |(peer, absorbs)| match absorbs {
            true => Step::at(0).recv(peer, 0..len).folding(1),
            false => Step::at(0).send(peer, 0..len),
        });
        let fold_out = pair.into_iter().map(move |(peer, absorbs)| match absorbs {
            true => Step::at(last).send(peer, 0..len),
            false => Step::at(last).recv(peer, 0..len),
        });
        // A rank that sits out takes none of the inner steps.
        let inner = inner(participant.unwrap_or(0))
            .take(if participant.is_some() { usize::MAX } else { 0 })
            .map(move |step| step.later(pre).rename(|p| self.oldrank(p)));
        fold_in.chain(inner).chain(fold_out)
    }
}

/// [`recursive_doubling_async`]'s steps on the vector of `len`.
pub(crate) fn recursive_doubling_steps(
    me: usize,
    n: usize,
    len: usize,
) -> impl Iterator<Item = Step> {
    let fold = Fold::new(n);
    let rounds = fold.pow2.ilog2() as usize;
    fold.steps(me, len, rounds, move |p| {
        (0..rounds).map(move |k| {
            Step::at(k)
                .send(p ^ (1 << k), 0..len)
                .recv(p ^ (1 << k), 0..len)
                .folding(1)
        })
    })
}

/// Recursive-doubling allreduce: after the fold, `log2 p` rounds in which
/// participant pairs exchange and combine full vectors. Latency-optimal.
pub async fn recursive_doubling_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let tag = comm.next_coll_tag();
    let mut steps = recursive_doubling_steps(comm.rank(), comm.size(), buf.len());
    run_in_place(comm, tag, buf, &mut steps, |acc, x| op.fold_into(acc, x)).await;
}

/// [`rabenseifner_async`]'s steps on the vector of `len`: the participants run
/// [`reduce_scatter::recursive_halving_steps`], then
/// [`allgather::recursive_doubling_steps`] over the reduced slices.
pub(crate) fn rabenseifner_steps(me: usize, n: usize, len: usize) -> impl Iterator<Item = Step> {
    let fold = Fold::new(n);
    let p = fold.pow2;
    let halvings = p.ilog2() as usize;
    fold.steps(me, len, 2 * halvings, move |v| {
        reduce_scatter::recursive_halving_steps(v, p, len).chain(
            allgather::recursive_doubling_steps(v, p, len / p)
                .map(move |step| step.later(halvings)),
        )
    })
}

/// Rabenseifner allreduce: after the fold, a recursive-halving
/// reduce-scatter followed by a recursive-doubling allgather among the
/// `2^k` participants. Bandwidth-optimal (`2 * len * (p-1)/p` per rank);
/// the long-vector algorithm in MPI libraries — and the shape the paper's
/// 1 MB Allreduce measurements exercise.
///
/// Requires the vector length to be divisible by the participant count;
/// the dispatcher checks and falls back to [`recursive_doubling_async`].
pub async fn rabenseifner_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let (n, len) = (comm.size(), buf.len());
    let tag = comm.next_coll_tag();
    let pow2 = Fold::new(n).pow2;
    assert_eq!(len % pow2, 0, "vector must divide among participants");
    let mut steps = rabenseifner_steps(comm.rank(), n, len);
    run_in_place(comm, tag, buf, &mut steps, |acc, x| op.fold_into(acc, x)).await;
}

/// The [`auto_async`] dispatch test, shared with the `sched::allreduce`
/// generator: Rabenseifner when the vector of `elems` elements is long
/// (`bytes`) and divides evenly over the folded power-of-two group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n > 1 && bytes >= LONG_MSG_THRESHOLD && elems.is_multiple_of(Fold::new(n).pow2)
}

/// Size-dispatched allreduce: Rabenseifner for long divisible vectors,
/// recursive doubling otherwise.
pub async fn auto_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    if picks_rabenseifner(comm.size(), buf.len() * T::SIZE, buf.len()) {
        rabenseifner_async(comm, buf, op).await;
    } else {
        recursive_doubling_async(comm, buf, op).await;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use crate::coop::block_on;
    use crate::reduce::Op;
    use crate::runtime::run;
    use crate::Comm;

    fn check(n: usize, len: usize, op: Op, algo: impl AsyncFn(&Comm, &mut [f64], Op) + Sync) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let mut buf: Vec<f64> = (0..len)
                .map(|i| ((me + 1) * (i + 1)) as f64 * 0.5)
                .collect();
            block_on(algo(comm, &mut buf, op));
            buf
        });
        let mut expect = vec![
            match op {
                Op::Sum => 0.0,
                Op::Prod => 1.0,
                Op::Max => f64::NEG_INFINITY,
                Op::Min => f64::INFINITY,
            };
            len
        ];
        for r in 0..n {
            for i in 0..len {
                expect[i] = op.apply(expect[i], ((r + 1) * (i + 1)) as f64 * 0.5);
            }
        }
        for (r, got) in results.iter().enumerate() {
            for i in 0..len {
                assert!(
                    (got[i] - expect[i]).abs() < 1e-9 * expect[i].abs().max(1.0),
                    "rank {r} elem {i}: {} != {}",
                    got[i],
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for n in [1, 2, 4, 8, 16] {
            check(n, 10, Op::Sum, super::recursive_doubling_async);
        }
    }

    #[test]
    fn recursive_doubling_general_sizes() {
        for n in [3, 5, 6, 7, 11, 13] {
            check(n, 10, Op::Sum, super::recursive_doubling_async);
        }
    }

    #[test]
    fn recursive_doubling_all_ops() {
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            check(6, 5, op, super::recursive_doubling_async);
        }
    }

    #[test]
    fn rabenseifner_power_of_two() {
        for n in [2, 4, 8, 16] {
            check(n, 16 * 16, Op::Sum, super::rabenseifner_async);
        }
    }

    #[test]
    fn rabenseifner_general_sizes() {
        // 240 divides the participant counts for all these n.
        for n in [3, 5, 6, 7, 12] {
            check(n, 240, Op::Sum, super::rabenseifner_async);
        }
    }

    #[test]
    fn rabenseifner_max() {
        check(8, 64, Op::Max, super::rabenseifner_async);
    }

    #[test]
    fn auto_dispatches() {
        check(4, 4, Op::Sum, super::auto_async);
        check(4, 8192, Op::Sum, super::auto_async);
        check(7, 4096, Op::Sum, super::auto_async);
    }

    #[test]
    fn allreduce_is_symmetric_across_ranks() {
        let results = run(5, |comm| {
            let mut buf = vec![comm.rank() as f64 + 1.0];
            block_on(super::auto_async(comm, &mut buf, Op::Prod));
            buf[0]
        });
        for v in &results {
            assert_eq!(*v, 120.0);
        }
    }
}
