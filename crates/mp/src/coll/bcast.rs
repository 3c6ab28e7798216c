//! Broadcast (`MPI_Bcast`, IMB `Bcast`, paper Fig. 15).

use std::future::Future;

use crate::comm::Comm;
use crate::datatype::Word;

use super::{
    binomial_edges, ceil_log2, halving_edges, no_fold, ring_step, scatter_step, unvrank, vrank,
    Buf, Coll, Either, Mode, Run, Step, LONG_MSG_THRESHOLD,
};

/// Binomial-tree broadcast's steps on the buffer of `len`: take it from
/// the parent, then feed a child a round. `ceil(log2 n)` rounds, the whole
/// payload on every edge. Latency-optimal; the standard short-message
/// algorithm.
pub(crate) fn binomial_steps(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl ExactSizeIterator<Item = Step> {
    let (parent, children) = binomial_edges(vrank(me, root, n), n);
    (0..usize::from(parent.is_some()) + children.len())
        .map(move |i| binomial_step(me, n, len, root, i))
}

/// Step `i` of [`binomial_steps`].
pub(crate) fn binomial_step(me: usize, n: usize, len: usize, root: usize, i: usize) -> Step {
    let v = vrank(me, root, n);
    match binomial_edges(v, n) {
        (Some((parent, round)), _) if i == 0 => {
            Step::at(round).recv(unvrank(parent, root, n), 0..len)
        }
        (parent, children) => {
            let k = children.start + i - usize::from(parent.is_some());
            Step::at(k).send(unvrank(v + (1 << k), root, n), 0..len)
        }
    }
}

/// Van de Geijn broadcast's steps on the encoded payload of `total`
/// bytes, cut into `n` blocks in root-relative rank order: a binomial
/// scatter ([`scatter_step`]), then [`ring_step`]s around the
/// root-relative ring. The ring sends block `v - k` in round `k` —
/// exactly the block received the round before. Moves
/// `~2 * bytes * (n-1)/n` per rank instead of `bytes * log2 n`, which is
/// why MPI libraries switch to it for large payloads.
pub(crate) fn scatter_allgather_steps(
    me: usize,
    n: usize,
    total: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let v = vrank(me, root, n);
    let edges = halving_edges(v, n).count();
    (0..edges + n - 1).map(move |i| {
        let cut = move |b: usize| b * total / n;
        match i.checked_sub(edges) {
            None => scatter_step(v, n, root, cut, i),
            Some(k) => ring_step(
                me,
                n,
                ceil_log2(n),
                |r| cut(vrank(r, root, n))..cut(vrank(r, root, n) + 1),
                k,
            ),
        }
    })
}

/// The dispatch test of `Comm::bcast_async`, shared with the
/// `sched::bcast` generator: scatter+allgather when the payload is long
/// and the group is big enough to scatter over.
pub(crate) fn picks_scatter_allgather(n: usize, bytes: usize) -> bool {
    bytes >= LONG_MSG_THRESHOLD && n > 2
}

/// Broadcast of `buf` from `root`: binomial, or scatter+allgather when
/// `long`.
///
/// Payload handling is zero-copy throughout the communication
/// ([`Mode::Forward`], [`Mode::Scatter`]): every binomial child receives a
/// clone of the *same* shared payload, scatter children receive
/// sub-slices of the one buffer that arrived from the parent, and each
/// ring round forwards the payload received the round before instead of
/// re-encoding it. The only copies a rank pays are the writes into its
/// result.
pub(crate) fn bcast<'a, T: Word>(
    comm: &'a Comm,
    buf: &'a mut [T],
    root: usize,
    long: bool,
) -> impl Future<Output = ()> + 'a {
    let (me, n) = (comm.rank(), comm.size());
    let (steps, mode) = if long {
        let steps = scatter_allgather_steps(me, n, buf.len() * T::SIZE, root);
        (Either::Right(steps), Mode::Scatter)
    } else {
        (
            Either::Left(binomial_steps(me, n, buf.len(), root)),
            Mode::Forward,
        )
    };
    // A world of one has nothing to send, encode or assemble.
    let mode = if n == 1 { Mode::InPlace } else { mode };
    Run::new(
        comm,
        Coll::Bcast(root as u32),
        mode,
        &[],
        Buf::Borrowed(buf),
        steps,
        no_fold,
    )
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;

    fn payload(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64) * 0.5 - 3.0).collect()
    }

    /// `long` picks the algorithm from the world size and byte count.
    fn check(n: usize, len: usize, root: usize, long: impl Fn(usize, usize) -> bool + Sync) {
        let expect = payload(len);
        let results = run(n, |comm| {
            let mut buf = if comm.rank() == root {
                payload(len)
            } else {
                vec![0.0; len]
            };
            block_on(super::bcast(comm, &mut buf, root, long(n, len * 8)));
            buf
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &expect, "rank {r} has wrong broadcast data");
        }
    }

    #[test]
    fn binomial_all_roots_small_worlds() {
        for n in [1, 2, 3, 5, 8] {
            for root in [0, n - 1, n / 2] {
                check(n, 17, root, |_, _| false);
            }
        }
    }

    #[test]
    fn scatter_allgather_matches() {
        for n in [2, 3, 4, 7, 8] {
            for root in [0, n / 2] {
                check(n, 1000, root, |_, _| true);
            }
        }
    }

    #[test]
    fn scatter_allgather_payload_smaller_than_ranks() {
        // Degenerate blocks (some empty) must still work.
        check(8, 3, 1, |_, _| true);
    }

    #[test]
    fn auto_dispatches_both_paths() {
        use super::picks_scatter_allgather as auto;
        check(4, 8, 0, auto); // short -> binomial
        check(4, 16384, 0, auto); // 128 KiB -> scatter+allgather
    }

    #[test]
    fn broadcast_of_empty_buffer() {
        run(3, |comm| {
            let mut buf: [f64; 0] = [];
            block_on(comm.bcast_async(&mut buf, 0));
        });
    }
}
