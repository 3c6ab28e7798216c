//! Rooted reduction (`MPI_Reduce`, IMB `Reduce`, paper Fig. 8).

use crate::comm::Comm;
use crate::datatype::Word;
use crate::reduce::{Numeric, Op};

use super::{
    bcast, binomial_gather_steps, ceil_log2, reduce_scatter, run_in_place, unvrank, vrank, Step,
    LONG_MSG_THRESHOLD,
};

/// [`binomial_async`]'s steps on the accumulator of `len`:
/// [`bcast::binomial_steps`] run upwards. A node folds its children in
/// broadcast order, then sends to its parent.
pub(crate) fn binomial_steps(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let (folds, up) = binomial_tree(me, n, len, root);
    folds.map(|fold| fold.folding(1)).chain(up)
}

/// [`binomial_steps`] in round order, which a schedule lists them in: the
/// same folds, the last child to be fed first to be folded.
pub(crate) fn binomial_steps_by_round(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let (folds, up) = binomial_tree(me, n, len, root);
    folds.rev().map(|fold| fold.folding(1)).chain(up)
}

/// A node's edges of the binomial reduce tree: the children in broadcast
/// order (reduce rounds falling), and the send to its parent (the last
/// round; none at the root).
fn binomial_tree(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> (impl DoubleEndedIterator<Item = Step>, Option<Step>) {
    let mut tree = bcast::binomial_steps(me, n, len, root).map(move |s| s.reversed(ceil_log2(n)));
    let up = if me == root { None } else { tree.next() };
    (tree, up)
}

/// Binomial-tree reduce: the mirror of binomial broadcast. Each node folds
/// its children's full vectors into its accumulator, then forwards to its
/// parent. `ceil(log2 n)` rounds; every edge carries the whole vector.
pub(crate) async fn binomial_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    let tag = comm.next_coll_tag();
    let mut steps = binomial_steps(comm.rank(), comm.size(), send.len(), root);
    let mut own = Vec::new();
    let acc = accumulator(comm.rank() == root, send, recv, &mut own);
    run_in_place(comm, tag, acc, &mut steps, |a, x| op.fold_into(a, x)).await;
}

/// Where a reduce accumulates, holding `send` to start with: the root's
/// `recv`, so the result is built where it is wanted and never copied
/// back, and elsewhere a copy of `send` in `own`. A non-root's `recv` is
/// left untouched.
fn accumulator<'a, T: Word>(
    is_root: bool,
    send: &[T],
    recv: Option<&'a mut [T]>,
    own: &'a mut Vec<T>,
) -> &'a mut [T] {
    if is_root {
        let acc = recv.expect("root must supply a receive buffer");
        acc.copy_from_slice(send);
        acc
    } else {
        own.extend_from_slice(send);
        own
    }
}

/// [`rabenseifner_async`]'s steps on the accumulator of `len`:
/// [`reduce_scatter::recursive_halving_steps`] over root-relative ranks,
/// then [`binomial_gather_steps`] of the reduced slices, which sit in the
/// accumulator in root-relative rank order.
pub(crate) fn rabenseifner_steps(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    assert!(n.is_power_of_two(), "rabenseifner reduce needs 2^k ranks");
    reduce_scatter::recursive_halving_steps(vrank(me, root, n), n, len)
        .map(move |step| step.rename(|v| unvrank(v, root, n)))
        .chain(
            binomial_gather_steps(me, n, len / n, root).map(move |step| step.later(ceil_log2(n))),
        )
}

/// Rabenseifner reduce for long vectors: a recursive-halving
/// reduce-scatter (each rank ends holding one fully-reduced slice) followed
/// by a binomial gather of the slices to the root. Halves the bandwidth
/// term relative to the binomial tree.
///
/// Requires a power-of-two group with the vector length divisible by it;
/// the dispatcher checks and falls back to [`binomial_async`].
pub(crate) async fn rabenseifner_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let mut steps = rabenseifner_steps(comm.rank(), n, send.len(), root);
    assert_eq!(send.len() % n, 0, "vector must divide evenly");
    let mut own = Vec::new();
    let acc = accumulator(comm.rank() == root, send, recv, &mut own);
    run_in_place(comm, tag, acc, &mut steps, |a, x| op.fold_into(a, x)).await;
}

/// The [`auto_async`] dispatch test, shared with the `sched::reduce`
/// generator: Rabenseifner when the vector of `elems` elements is long
/// (`bytes`) and divides evenly over a power-of-two group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n.is_power_of_two() && n > 1 && elems.is_multiple_of(n) && bytes >= LONG_MSG_THRESHOLD
}

/// Size-dispatched reduce: Rabenseifner when the shape allows and the
/// vector is long, binomial otherwise.
pub(crate) async fn auto_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    if picks_rabenseifner(comm.size(), send.len() * T::SIZE, send.len()) {
        rabenseifner_async(comm, send, recv, root, op).await;
    } else {
        binomial_async(comm, send, recv, root, op).await;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use crate::block_on;
    use crate::coll::LONG_MSG_THRESHOLD;
    use crate::reduce::Op;
    use crate::runtime::run;
    use crate::Comm;

    /// Every rank hands `algo` a `recv` full of a sentinel: the root's
    /// must come back holding the reduction, every other rank's untouched.
    fn check(
        n: usize,
        len: usize,
        root: usize,
        op: Op,
        algo: impl AsyncFn(&Comm, &[f64], Option<&mut [f64]>, usize, Op) + Sync,
    ) {
        const SENTINEL: f64 = -7.125;
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<f64> = (0..len).map(|i| (me * len + i) as f64 * 0.25).collect();
            let mut recv = vec![SENTINEL; len];
            block_on(algo(comm, &send, Some(&mut recv), root, op));
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
                check(n, 8, root, Op::Sum, super::binomial_async);
            }
        }
    }

    #[test]
    fn binomial_all_ops() {
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            check(5, 6, 2, op, super::binomial_async);
        }
    }

    #[test]
    fn rabenseifner_matches() {
        for n in [2, 4, 8, 16] {
            for root in [0, n - 1, n / 3] {
                check(n, 16 * n, root, Op::Sum, super::rabenseifner_async);
            }
        }
        // A vector of 2 x LONG_MSG_THRESHOLD bytes: the first halving
        // round's messages are written into the recycled buffer and given
        // back to it, and the root accumulates in its own.
        check(
            4,
            LONG_MSG_THRESHOLD / 4,
            1,
            Op::Sum,
            super::rabenseifner_async,
        );
    }

    #[test]
    fn rabenseifner_max_op() {
        check(8, 64, 3, Op::Max, super::rabenseifner_async);
    }

    #[test]
    fn auto_dispatches() {
        check(8, 8, 0, Op::Sum, super::auto_async); // short -> binomial
        check(8, 8192, 0, Op::Sum, super::auto_async); // 64 KiB -> rabenseifner
        check(6, 6000, 1, Op::Sum, super::auto_async); // non-2^k -> binomial
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
