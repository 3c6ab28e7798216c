//! Broadcast (`MPI_Bcast`, IMB `Bcast`, paper Fig. 15).

use crate::comm::Comm;
use crate::datatype::{decode_into, encode, Word};
use crate::payload::Payload;

use super::{binomial_node, halving_tree, unvrank, vrank, LONG_MSG_THRESHOLD};

/// Binomial-tree broadcast: `ceil(log2 n)` rounds, the whole payload on
/// every edge. Latency-optimal; the standard short-message algorithm.
///
/// Every child receives a clone of the *same* shared [`Payload`] — a
/// refcount bump per edge, never a copy of the bytes.
pub fn binomial<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    crate::coop::block_on(binomial_async(comm, buf, root));
}

/// Awaitable mirror of [`binomial`].
pub async fn binomial_async<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    if n == 1 {
        return;
    }
    let v = vrank(comm.rank(), root, n);
    let node = binomial_node(v);

    let data = if let Some((parent, _)) = node.parent {
        let payload = comm.recv_payload_async(unvrank(parent, root, n), tag).await;
        decode_into(&payload, buf);
        payload
    } else {
        Payload::from_vec(encode(buf))
    };

    let mut k = node.first_send_round;
    while (1usize << k) < n {
        let peer = v + (1 << k);
        if peer < n {
            comm.send_payload(data.clone(), unvrank(peer, root, n), tag);
        }
        k += 1;
    }
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
pub fn scatter_allgather<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    crate::coop::block_on(scatter_allgather_async(comm, buf, root));
}

/// Awaitable mirror of [`scatter_allgather`].
pub async fn scatter_allgather_async<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    let n = comm.size();
    if n == 1 {
        return;
    }
    let tag = comm.next_coll_tag();
    let v = vrank(comm.rank(), root, n);
    let total = buf.len() * T::SIZE;
    // Block b covers bytes [cut(b), cut(b+1)) of the encoded payload.
    let cut = |b: usize| -> usize { b * total / n };

    // Phase 1: binomial scatter down the halving tree (by vrank ranges).
    // Everything except this rank's own block v is re-received during the
    // ring phase, so only that block goes into the assembly buffer now.
    let (parent, children) = halving_tree(v, n);
    let mut data = vec![0u8; total];
    let own: Payload = if let Some((p, range)) = parent {
        debug_assert_eq!(range.start, v, "halving tree keeps own block first");
        let incoming = comm.recv_payload_async(unvrank(p, root, n), tag).await;
        let base = cut(range.start);
        for (child, crange) in children {
            comm.send_payload(
                incoming.slice(cut(crange.start) - base..cut(crange.end) - base),
                unvrank(child, root, n),
                tag,
            );
        }
        incoming.slice(0..cut(v + 1) - base)
    } else {
        let full = Payload::from_vec(encode(buf));
        for (child, crange) in children {
            comm.send_payload(
                full.slice(cut(crange.start)..cut(crange.end)),
                unvrank(child, root, n),
                tag,
            );
        }
        full.slice(cut(v)..cut(v + 1))
    };
    data[cut(v)..cut(v + 1)].copy_from_slice(&own);

    // Phase 2: ring allgather of the n blocks (vrank ring). Round k sends
    // block (v - k) mod n — exactly the block received in round k-1 — so
    // each round forwards the just-received payload unchanged.
    let right = unvrank((v + 1) % n, root, n);
    let left = unvrank((v + n - 1) % n, root, n);
    let mut outgoing = own;
    for k in 0..n - 1 {
        let recv_block = (v + n - k - 1) % n;
        let got = comm
            .sendrecv_payload_coll_async(outgoing, right, left, tag)
            .await;
        data[cut(recv_block)..cut(recv_block + 1)].copy_from_slice(&got);
        outgoing = got;
    }
    decode_into(&data, buf);
}

/// The [`auto`] dispatch test, shared with the `sched::bcast` generator:
/// scatter+allgather when the payload is long and the group is big
/// enough to scatter over.
pub(crate) fn picks_scatter_allgather(n: usize, bytes: usize) -> bool {
    bytes >= LONG_MSG_THRESHOLD && n > 2
}

/// Size-dispatched broadcast: binomial for short payloads, scatter+allgather
/// for long ones.
pub fn auto<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    crate::coop::block_on(auto_async(comm, buf, root));
}

/// Awaitable mirror of [`auto`].
pub async fn auto_async<T: Word>(comm: &Comm, buf: &mut [T], root: usize) {
    if picks_scatter_allgather(comm.size(), buf.len() * T::SIZE) {
        scatter_allgather_async(comm, buf, root).await;
    } else {
        binomial_async(comm, buf, root).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::run;

    fn payload(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64) * 0.5 - 3.0).collect()
    }

    fn check(n: usize, len: usize, root: usize, algo: fn(&crate::Comm, &mut [f64], usize)) {
        let expect = payload(len);
        let results = run(n, |comm| {
            let mut buf = if comm.rank() == root {
                payload(len)
            } else {
                vec![0.0; len]
            };
            algo(comm, &mut buf, root);
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
                check(n, 17, root, super::binomial);
            }
        }
    }

    #[test]
    fn scatter_allgather_matches() {
        for n in [2, 3, 4, 7, 8] {
            for root in [0, n / 2] {
                check(n, 1000, root, super::scatter_allgather);
            }
        }
    }

    #[test]
    fn scatter_allgather_payload_smaller_than_ranks() {
        // Degenerate blocks (some empty) must still work.
        check(8, 3, 1, super::scatter_allgather);
    }

    #[test]
    fn auto_dispatches_both_paths() {
        check(4, 8, 0, super::auto); // short -> binomial
        check(4, 16384, 0, super::auto); // 128 KiB -> scatter+allgather
    }

    #[test]
    fn broadcast_of_empty_buffer() {
        run(3, |comm| {
            let mut buf: [f64; 0] = [];
            super::auto(comm, &mut buf, 0);
        });
    }
}
