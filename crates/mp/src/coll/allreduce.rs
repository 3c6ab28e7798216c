//! Allreduce (`MPI_Allreduce`, IMB `Allreduce`, paper Fig. 7) — "important
//! for vector norms and time step sizes in time-dependent simulations".

use std::future::Future;

use crate::comm::Comm;
use crate::reduce::{Numeric, Op};

use super::{allgather, reduce_scatter, Buf, Coll, Either, Mode, Run, Step, LONG_MSG_THRESHOLD};

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

    /// Rank `me`'s steps on a vector of `len` over `n` ranks: the fold-in
    /// round if the group needs one, then the power-of-two algorithm of
    /// `phases` times `log2 p` rounds as participant `v` sees it —
    /// `inner(self, v, k, len)` is its step `k` — renamed to real ranks,
    /// then the fold-out round.
    fn steps(
        n: usize,
        me: usize,
        len: usize,
        phases: usize,
        inner: impl Fn(Fold, usize, usize, usize) -> Step,
    ) -> impl Iterator<Item = Step> {
        // In the folded prefix a rank pairs with `me ^ 1`; the odd one
        // absorbs, and the even one takes none of the inner steps.
        let pair = move |fold: Fold| (me < 2 * fold.rem, me % 2 == 1);
        let fold = Fold::new(n);
        let rounds = phases * fold.pow2.ilog2() as usize;
        let count = match pair(fold) {
            (false, _) => rounds,
            (true, true) => rounds + 2,
            (true, false) => 2,
        };
        (0..count).map(move |i| {
            let fold = Fold::new(n);
            let rounds = phases * fold.pow2.ilog2() as usize;
            let (pre, peer) = (usize::from(fold.rem > 0), me ^ 1);
            match pair(fold) {
                (true, true) if i == 0 => Step::at(0).recv(peer, 0..len).folding(1),
                (true, false) if i == 0 => Step::at(0).send(peer, 0..len),
                (true, true) if i == rounds + 1 => Step::at(pre + rounds).send(peer, 0..len),
                (true, false) => Step::at(pre + rounds).recv(peer, 0..len),
                (paired, _) => {
                    let v = if paired { me / 2 } else { me - fold.rem };
                    inner(fold, v, i - usize::from(paired), len)
                        .later(pre)
                        .rename(|q| fold.oldrank(q))
                }
            }
        })
    }
}

/// Recursive-doubling allreduce's steps on the vector of `len`: after the
/// fold, `log2 p` rounds in which participant pairs exchange and combine
/// full vectors. Latency-optimal.
pub(crate) fn recursive_doubling_steps(
    me: usize,
    n: usize,
    len: usize,
) -> impl Iterator<Item = Step> {
    Fold::steps(n, me, len, 1, |_, p, k, len| {
        Step::at(k)
            .send(p ^ (1 << k), 0..len)
            .recv(p ^ (1 << k), 0..len)
            .folding(1)
    })
}

/// Rabenseifner allreduce's steps on the vector of `len`: after the fold,
/// the participants run [`reduce_scatter::recursive_halving_step`]s, then
/// [`allgather::recursive_doubling_step`]s over the reduced slices.
/// Bandwidth-optimal (`2 * len * (p-1)/p` per rank); the long-vector
/// algorithm in MPI libraries — and the shape the paper's 1 MB Allreduce
/// measurements exercise.
pub(crate) fn rabenseifner_steps(me: usize, n: usize, len: usize) -> impl Iterator<Item = Step> {
    Fold::steps(n, me, len, 2, |fold, v, k, len| {
        let (p, halvings) = (fold.pow2, fold.pow2.ilog2() as usize);
        match k.checked_sub(halvings) {
            None => reduce_scatter::recursive_halving_step(v, p, len, k),
            Some(k) => allgather::recursive_doubling_step(v, len / p, k).later(halvings),
        }
    })
}

/// The dispatch test of `Comm::allreduce_async`, shared with the
/// `sched::allreduce` generator: Rabenseifner when the vector of `elems`
/// elements is long (`bytes`) and divides evenly over the folded
/// power-of-two group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n > 1 && bytes >= LONG_MSG_THRESHOLD && elems.is_multiple_of(Fold::new(n).pow2)
}

/// Allreduce of `buf` in place: recursive doubling, or Rabenseifner when
/// `rabenseifner` — which requires the vector length to be divisible by
/// the participant count.
pub(crate) fn allreduce<'a, T: Numeric>(
    comm: &'a Comm,
    buf: &'a mut [T],
    op: Op,
    rabenseifner: bool,
) -> impl Future<Output = ()> + 'a {
    let (me, n, len) = (comm.rank(), comm.size(), buf.len());
    let steps = if rabenseifner {
        let pow2 = Fold::new(n).pow2;
        assert_eq!(len % pow2, 0, "vector must divide among participants");
        Either::Right(rabenseifner_steps(me, n, len))
    } else {
        Either::Left(recursive_doubling_steps(me, n, len))
    };
    let fold = move |acc: &mut [T], x: &[T]| op.fold_into(acc, x);
    Run::new(
        comm,
        Coll::Allreduce,
        Mode::InPlace,
        &[],
        Buf::Borrowed(buf),
        steps,
        fold,
    )
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use crate::block_on;
    use crate::reduce::Op;
    use crate::runtime::run;

    /// `rabenseifner` picks the algorithm from the world size, byte count
    /// and element count.
    fn check(
        n: usize,
        len: usize,
        op: Op,
        rabenseifner: impl Fn(usize, usize, usize) -> bool + Sync,
    ) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let mut buf: Vec<f64> = (0..len)
                .map(|i| ((me + 1) * (i + 1)) as f64 * 0.5)
                .collect();
            let long = rabenseifner(n, len * 8, len);
            block_on(super::allreduce(comm, &mut buf, op, long));
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
            check(n, 10, Op::Sum, |_, _, _| false);
        }
    }

    #[test]
    fn recursive_doubling_general_sizes() {
        for n in [3, 5, 6, 7, 11, 13] {
            check(n, 10, Op::Sum, |_, _, _| false);
        }
    }

    #[test]
    fn recursive_doubling_all_ops() {
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            check(6, 5, op, |_, _, _| false);
        }
    }

    #[test]
    fn rabenseifner_power_of_two() {
        for n in [2, 4, 8, 16] {
            check(n, 16 * 16, Op::Sum, |_, _, _| true);
        }
    }

    #[test]
    fn rabenseifner_general_sizes() {
        // 240 divides the participant counts for all these n.
        for n in [3, 5, 6, 7, 12] {
            check(n, 240, Op::Sum, |_, _, _| true);
        }
    }

    #[test]
    fn rabenseifner_max() {
        check(8, 64, Op::Max, |_, _, _| true);
    }

    #[test]
    fn auto_dispatches() {
        use super::picks_rabenseifner as auto;
        check(4, 4, Op::Sum, auto);
        check(4, 8192, Op::Sum, auto);
        check(7, 4096, Op::Sum, auto);
    }

    #[test]
    fn allreduce_is_symmetric_across_ranks() {
        let results = run(5, |comm| {
            let mut buf = vec![comm.rank() as f64 + 1.0];
            block_on(comm.allreduce_async(&mut buf, Op::Prod));
            buf[0]
        });
        for v in &results {
            assert_eq!(*v, 120.0);
        }
    }
}
