//! Rooted reduction (`MPI_Reduce`, IMB `Reduce`, paper Fig. 8).

use crate::comm::Comm;
use crate::reduce::{Numeric, Op};

use super::{
    bcast, ceil_log2, gather, reduce_scatter, run_in_place, unvrank, vrank, Step,
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
    let mut tree = bcast::binomial_steps(me, n, len, root).map(move |s| s.reversed(ceil_log2(n)));
    let up = if me == root { None } else { tree.next() };
    tree.map(|fold| fold.folding(1)).chain(up)
}

/// Binomial-tree reduce: the mirror of binomial broadcast. Each node folds
/// its children's full vectors into its accumulator, then forwards to its
/// parent. `ceil(log2 n)` rounds; every edge carries the whole vector.
pub async fn binomial_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    let tag = comm.next_coll_tag();
    let mut steps = binomial_steps(comm.rank(), comm.size(), send.len(), root);
    let mut acc = send.to_vec();
    run_in_place(comm, tag, &mut acc, &mut steps, |a, x| op.fold_into(a, x)).await;
    if comm.rank() == root {
        recv.expect("root must supply a receive buffer")
            .copy_from_slice(&acc);
    }
}

/// [`rabenseifner_async`]'s steps on the accumulator of `len`:
/// [`reduce_scatter::recursive_halving_steps`] over root-relative ranks,
/// then [`gather::binomial_steps`] of the reduced slices, which sit in the
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
            gather::binomial_steps(me, n, len / n, root).map(move |step| step.later(ceil_log2(n))),
        )
}

/// Rabenseifner reduce for long vectors: a recursive-halving
/// reduce-scatter (each rank ends holding one fully-reduced slice) followed
/// by a binomial gather of the slices to the root. Halves the bandwidth
/// term relative to the binomial tree.
///
/// Requires a power-of-two group with the vector length divisible by it;
/// the dispatcher checks and falls back to [`binomial_async`].
pub async fn rabenseifner_async<T: Numeric>(
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
    let mut acc = send.to_vec();
    run_in_place(comm, tag, &mut acc, &mut steps, |a, x| op.fold_into(a, x)).await;
    if comm.rank() == root {
        recv.expect("root must supply a receive buffer")
            .copy_from_slice(&acc);
    }
}

/// The [`auto_async`] dispatch test, shared with the `sched::reduce`
/// generator: Rabenseifner when the vector of `elems` elements is long
/// (`bytes`) and divides evenly over a power-of-two group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n.is_power_of_two() && n > 1 && elems.is_multiple_of(n) && bytes >= LONG_MSG_THRESHOLD
}

/// Size-dispatched reduce: Rabenseifner when the shape allows and the
/// vector is long, binomial otherwise.
pub async fn auto_async<T: Numeric>(
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
    use crate::coop::block_on;
    use crate::reduce::Op;
    use crate::runtime::run;
    use crate::Comm;

    fn check(
        n: usize,
        len: usize,
        root: usize,
        op: Op,
        algo: impl AsyncFn(&Comm, &[f64], Option<&mut [f64]>, usize, Op) + Sync,
    ) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<f64> = (0..len).map(|i| (me * len + i) as f64 * 0.25).collect();
            let mut recv = (me == root).then(|| vec![0.0f64; len]);
            block_on(algo(comm, &send, recv.as_deref_mut(), root, op));
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
                let got = got.as_ref().unwrap();
                for i in 0..len {
                    assert!(
                        (got[i] - expect[i]).abs() < 1e-9,
                        "rank {r} elem {i}: {} != {}",
                        got[i],
                        expect[i]
                    );
                }
            } else {
                assert!(got.is_none());
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
}
