//! Rooted reduction (`MPI_Reduce`, IMB `Reduce`, paper Fig. 8).

use std::future::Future;

use crate::comm::Comm;
use crate::reduce::{Numeric, Op};

use super::{
    bcast, ceil_log2, halving_edges, reduce_scatter, scatter_step, unvrank, vrank, Buf, Coll,
    Either, Mode, Run, Step, LONG_MSG_THRESHOLD,
};

/// Binomial-tree reduce's steps on the accumulator of `len`: the mirror
/// of binomial broadcast, [`bcast::binomial_steps`] run upwards. Each node
/// folds its children's full vectors in broadcast order, then sends to
/// its parent. `ceil(log2 n)` rounds; every edge carries the whole vector.
pub(crate) fn binomial_steps(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    // The broadcast's arrival, its step 0, is the reduce's last.
    let (count, up) = (
        bcast::binomial_steps(me, n, len, root).len(),
        usize::from(me != root),
    );
    (0..count).map(move |i| binomial_step(me, n, len, root, (i + up) % count))
}

/// [`binomial_steps`] in round order, which a schedule lists them in: the
/// same folds, the last child to be fed first to be folded.
pub(crate) fn binomial_steps_by_round(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let count = bcast::binomial_steps(me, n, len, root).len();
    (0..count).map(move |i| binomial_step(me, n, len, root, count - 1 - i))
}

/// Broadcast step `j` run upwards: a child's fold, or the send to the
/// parent in the last round.
fn binomial_step(me: usize, n: usize, len: usize, root: usize, j: usize) -> Step {
    let step = bcast::binomial_step(me, n, len, root, j).reversed(ceil_log2(n));
    match step.recv {
        Some(_) => step.folding(1),
        None => step,
    }
}

/// Rabenseifner reduce's steps on the accumulator of `len`:
/// [`reduce_scatter::recursive_halving_step`]s over root-relative ranks
/// (each rank ends holding one fully-reduced slice), then a binomial
/// gather of the slices to the root — the [`scatter_step`]s backwards —
/// which sit in the accumulator in root-relative rank order. Halves the
/// bandwidth term relative to the binomial tree; requires a power-of-two
/// group.
pub(crate) fn rabenseifner_steps(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    assert!(n.is_power_of_two(), "rabenseifner reduce needs 2^k ranks");
    let (v, rounds) = (vrank(me, root, n), ceil_log2(n));
    let gather = halving_edges(v, n).count();
    (0..rounds + gather).map(move |i| match i.checked_sub(rounds) {
        None => {
            reduce_scatter::recursive_halving_step(v, n, len, i).rename(|v| unvrank(v, root, n))
        }
        Some(j) => scatter_step(v, n, root, |b| b * (len / n), gather - 1 - j)
            .reversed(rounds)
            .later(rounds),
    })
}

/// The dispatch test of `Comm::reduce_async`, shared with the
/// `sched::reduce` generator: Rabenseifner when the vector of `elems`
/// elements is long (`bytes`) and divides evenly over a power-of-two
/// group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n.is_power_of_two() && n > 1 && elems.is_multiple_of(n) && bytes >= LONG_MSG_THRESHOLD
}

/// Reduce of every rank's `send` to `root`: binomial, or Rabenseifner when
/// `rabenseifner` — which requires a power-of-two group with the vector
/// length divisible by it.
///
/// The accumulator holds `send` to start with: the root's `recv`, so the
/// result is built where it is wanted and never copied back, and
/// elsewhere a copy of `send`. A non-root's `recv` is left untouched.
pub(crate) fn reduce<'a, T: Numeric>(
    comm: &'a Comm,
    send: &'a [T],
    recv: Option<&'a mut [T]>,
    root: usize,
    op: Op,
    rabenseifner: bool,
) -> impl Future<Output = ()> + 'a {
    let (me, n, len) = (comm.rank(), comm.size(), send.len());
    let steps = if rabenseifner {
        let steps = rabenseifner_steps(me, n, len, root);
        assert_eq!(len % n, 0, "vector must divide evenly");
        Either::Right(steps)
    } else {
        Either::Left(binomial_steps(me, n, len, root))
    };
    let acc = if me == root {
        let acc = recv.expect("root must supply a receive buffer");
        acc.copy_from_slice(send);
        Buf::Borrowed(acc)
    } else {
        Buf::Owned(send.to_vec())
    };
    let fold = move |acc: &mut [T], x: &[T]| op.fold_into(acc, x);
    Run::new(
        comm,
        Coll::Reduce(root as u32),
        Mode::InPlace,
        send,
        acc,
        steps,
        fold,
    )
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use crate::block_on;
    use crate::coll::LONG_MSG_THRESHOLD;
    use crate::reduce::Op;
    use crate::runtime::run;

    /// Every rank hands `algo` a `recv` full of a sentinel: the root's
    /// must come back holding the reduction, every other rank's untouched.
    fn check(
        n: usize,
        len: usize,
        root: usize,
        op: Op,
        rabenseifner: impl Fn(usize, usize, usize) -> bool + Sync,
    ) {
        const SENTINEL: f64 = -7.125;
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<f64> = (0..len).map(|i| (me * len + i) as f64 * 0.25).collect();
            let mut recv = vec![SENTINEL; len];
            let long = rabenseifner(n, len * 8, len);
            block_on(super::reduce(comm, &send, Some(&mut recv), root, op, long));
            recv
        });
        // Reference reduction.
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
                expect[i] = op.apply(expect[i], (r * len + i) as f64 * 0.25);
            }
        }
        for (r, got) in results.iter().enumerate() {
            if r == root {
                for i in 0..len {
                    assert!(
                        (got[i] - expect[i]).abs() < 1e-9,
                        "rank {r} elem {i}: {} != {}",
                        got[i],
                        expect[i]
                    );
                }
            } else {
                assert!(
                    got.iter().all(|x| x.to_bits() == SENTINEL.to_bits()),
                    "rank {r} is not the root, and its buffer was written"
                );
            }
        }
    }

    #[test]
    fn binomial_various() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            for root in [0, n - 1] {
                check(n, 8, root, Op::Sum, |_, _, _| false);
            }
        }
    }

    #[test]
    fn binomial_all_ops() {
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            check(5, 6, 2, op, |_, _, _| false);
        }
    }

    #[test]
    fn rabenseifner_matches() {
        for n in [2, 4, 8, 16] {
            for root in [0, n - 1, n / 3] {
                check(n, 16 * n, root, Op::Sum, |_, _, _| true);
            }
        }
        // A vector of 2 x LONG_MSG_THRESHOLD bytes: the first halving
        // round's messages are written into the recycled buffer and given
        // back to it, and the root accumulates in its own.
        check(4, LONG_MSG_THRESHOLD / 4, 1, Op::Sum, |_, _, _| true);
    }

    #[test]
    fn rabenseifner_max_op() {
        check(8, 64, 3, Op::Max, |_, _, _| true);
    }

    #[test]
    fn auto_dispatches() {
        use super::picks_rabenseifner as auto;
        check(8, 8, 0, Op::Sum, auto); // short -> binomial
        check(8, 8192, 0, Op::Sum, auto); // 64 KiB -> rabenseifner
        check(6, 6000, 1, Op::Sum, auto); // non-2^k -> binomial
    }

    /// The schedule's order is the real one sorted by round, stably: the
    /// same steps, and no round with two of one rank's steps to reorder.
    #[test]
    fn binomial_steps_by_round_sort_the_real_steps() {
        let key = |s: &crate::coll::Step| (s.round, s.send.clone(), s.recv.clone(), s.folds);
        for n in 1..=40 {
            for root in [0, n / 3, n - 1] {
                for me in 0..n {
                    let mut real: Vec<_> = super::binomial_steps(me, n, 5, root)
                        .map(|s| key(&s))
                        .collect();
                    real.sort_by_key(|k| k.0);
                    let by_round: Vec<_> = super::binomial_steps_by_round(me, n, 5, root)
                        .map(|s| key(&s))
                        .collect();
                    assert_eq!(by_round, real, "n {n} root {root} rank {me}");
                    assert!(real.windows(2).all(|w| w[0].0 < w[1].0));
                }
            }
        }
    }
}
