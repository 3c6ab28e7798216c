//! Broadcast (`MPI_Bcast`, IMB `Bcast`, paper Fig. 15).

use crate::comm::Comm;
use crate::datatype::Word;
use crate::payload::Payload;

use super::{
    binomial_edges, binomial_scatter_steps, ceil_log2, ring_steps, unvrank, vrank, Step,
    LONG_MSG_THRESHOLD,
};

/// [`binomial_async`]'s steps on the buffer of `len`: take it from the parent,
/// then feed a child a round.
pub(crate) fn binomial_steps(
    me: usize,
    n: usize,
    len: usize,
    root: usize,
) -> impl DoubleEndedIterator<Item = Step> {
    let (parent, children) = binomial_edges(vrank(me, root, n), n);
    let arrive = parent
        .into_iter()
        .map(move |(p, k)| Step::at(k).recv(unvrank(p, root, n), 0..len));
    let feed = children.map(move |(c, k)| Step::at(k).send(unvrank(c, root, n), 0..len));
    arrive.chain(feed)
}

/// Binomial-tree broadcast: `ceil(log2 n)` rounds, the whole payload on
/// every edge. Latency-optimal; the standard short-message algorithm.
///
/// Every child receives a clone of the *same* shared [`Payload`] — a
/// refcount bump per edge, never a copy of the bytes.
pub async fn binomial_async<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    if n == 1 {
        return;
    }
    let me = comm.rank();
    let mut data = comm.encode(if me == root { &*buf } else { &[] });
    for Step { send, recv, .. } in binomial_steps(me, n, buf.len(), root) {
        if let Some((src, _)) = recv {
            data = comm.recv_into_async(buf, src, tag).await;
        }
        if let Some((dst, _)) = send {
            comm.send_payload(data.clone(), dst, tag);
        }
    }
    comm.recycle(data);
}

/// [`scatter_allgather_async`]'s steps on the encoded payload of `total` bytes,
/// cut into `n` blocks in root-relative rank order:
/// [`binomial_scatter_steps`], then [`ring_steps`] around the
/// root-relative ring. The ring sends block `v - k` in round `k` —
/// exactly the block received the round before.
pub(crate) fn scatter_allgather_steps(
    me: usize,
    n: usize,
    total: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let cut = move |b: usize| b * total / n;
    let block = move |rank: usize| cut(vrank(rank, root, n))..cut(vrank(rank, root, n) + 1);
    binomial_scatter_steps(me, n, root, cut).chain(ring_steps(me, n, ceil_log2(n), block))
}

/// Van de Geijn broadcast for long messages: a binomial *scatter* of the
/// payload followed by a ring allgather of the pieces. Moves
/// `~2 * bytes * (n-1)/n` per rank instead of `bytes * log2 n`, which is
/// why MPI libraries switch to it for large payloads.
///
/// Payload handling is zero-copy throughout the communication: scatter
/// children receive sub-[`slice`](Payload::slice)s of the one buffer that
/// arrived from the parent, and each ring round forwards the payload
/// received the round before instead of re-encoding it. The only copies a
/// rank pays are the writes into its final assembly buffer.
pub(crate) async fn scatter_allgather_async<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    let n = comm.size();
    if n == 1 {
        return;
    }
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    let total = buf.len() * T::SIZE;

    // `held` is the payload in hand, bytes `at` of the whole: the subtree's
    // blocks from the scatter parent (the whole buffer at the root), then
    // each ring arrival. Every send is a slice of it. The ring forwards
    // every block but the last to arrive, so copying what it sends and
    // that last arrival assembles the whole; the scatter copies nothing.
    let mut held = comm.encode(if me == root { &*buf } else { &[] });
    let mut at = 0..total;
    let mut data = Payload::zeroed::<T>(total);
    for Step { send, recv, .. } in scatter_allgather_steps(me, n, total, root) {
        let ring = recv.is_some();
        if let Some((dst, give)) = send {
            let out = held.slice(give.start - at.start..give.end - at.start);
            if ring {
                data.put(give.start, &out);
            }
            comm.send_payload(out, dst, tag);
        }
        if let Some((src, take)) = recv {
            held = comm.recv_payload_async(src, tag).await;
            assert_eq!(held.len(), take.len(), "bcast block size mismatch");
            at = take;
        }
    }
    data.put(at.start, &held);
    data.decode_into(buf, comm.envelope(root, tag));
    comm.recycle(data);
    comm.recycle(held);
}

/// The [`auto_async`] dispatch test, shared with the `sched::bcast` generator:
/// scatter+allgather when the payload is long and the group is big
/// enough to scatter over.
pub(crate) fn picks_scatter_allgather(n: usize, bytes: usize) -> bool {
    bytes >= LONG_MSG_THRESHOLD && n > 2
}

/// Size-dispatched broadcast: binomial for short payloads, scatter+allgather
/// for long ones.
pub(crate) async fn auto_async<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    if picks_scatter_allgather(comm.size(), buf.len() * T::SIZE) {
        scatter_allgather_async(comm, buf, root).await;
    } else {
        binomial_async(comm, buf, root).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;

    fn payload(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64) * 0.5 - 3.0).collect()
    }

    fn check(
        n: usize,
        len: usize,
        root: usize,
        algo: impl AsyncFn(&crate::Comm, &mut [f64], usize) + Sync,
    ) {
        let expect = payload(len);
        let results = run(n, |comm| {
            let mut buf = if comm.rank() == root {
                payload(len)
            } else {
                vec![0.0; len]
            };
            block_on(algo(comm, &mut buf, root));
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
                check(n, 17, root, super::binomial_async);
            }
        }
    }

    #[test]
    fn scatter_allgather_matches() {
        for n in [2, 3, 4, 7, 8] {
            for root in [0, n / 2] {
                check(n, 1000, root, super::scatter_allgather_async);
            }
        }
    }

    #[test]
    fn scatter_allgather_payload_smaller_than_ranks() {
        // Degenerate blocks (some empty) must still work.
        check(8, 3, 1, super::scatter_allgather_async);
    }

    #[test]
    fn auto_dispatches_both_paths() {
        check(4, 8, 0, super::auto_async); // short -> binomial
        check(4, 16384, 0, super::auto_async); // 128 KiB -> scatter+allgather
    }

    #[test]
    fn broadcast_of_empty_buffer() {
        run(3, |comm| {
            let mut buf: [f64; 0] = [];
            block_on(super::auto_async(comm, &mut buf, 0));
        });
    }
}
