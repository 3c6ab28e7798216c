//! Vector all-to-all (`MPI_Alltoallv`): personalised exchange with
//! per-pair counts.

use crate::comm::Comm;
use crate::datatype::Word;
use crate::payload::Payload;

/// Prefix sums (displacements) of a count vector.
pub(crate) fn displs(counts: &[usize]) -> Vec<usize> {
    let mut d = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0;
    for &c in counts {
        d.push(acc);
        acc += c;
    }
    d.push(acc);
    d
}

/// Pairwise alltoallv: `n-1` rotation rounds. `send_counts[d]` words go
/// to rank `d`; `recv_counts[s]` words arrive from rank `s`.
pub async fn pairwise_async<T: Word>(
    comm: &Comm,
    send: &[T],
    send_counts: &[usize],
    recv: &mut [T],
    recv_counts: &[usize],
) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    assert_eq!(send_counts.len(), n, "one send count per rank");
    assert_eq!(recv_counts.len(), n, "one recv count per rank");
    let sd = displs(send_counts);
    let rd = displs(recv_counts);
    assert_eq!(send.len(), sd[n], "send buffer size mismatch");
    assert_eq!(recv.len(), rd[n], "recv buffer size mismatch");
    let me = comm.rank();

    assert_eq!(
        send_counts[me], recv_counts[me],
        "self block must be symmetric"
    );
    recv[rd[me]..rd[me] + recv_counts[me]].copy_from_slice(&send[sd[me]..sd[me] + send_counts[me]]);

    for s in 1..n {
        let dst = (me + s) % n;
        let src = (me + n - s) % n;
        comm.send_payload(Payload::encode(&send[sd[dst]..sd[dst + 1]]), dst, tag);
        comm.recv_into_async(&mut recv[rd[src]..rd[src + 1]], src, tag)
            .await;
    }
}

/// The default alltoallv (pairwise).
pub async fn auto_async<T: Word>(
    comm: &Comm,
    send: &[T],
    send_counts: &[usize],
    recv: &mut [T],
    recv_counts: &[usize],
) {
    pairwise_async(comm, send, send_counts, recv, recv_counts).await;
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::pairwise_async;
    use crate::coop::block_on;
    use crate::runtime::run;

    /// Triangular counts: rank r sends `r + d + 1` words to rank d.
    fn counts_from(r: usize, n: usize) -> Vec<usize> {
        (0..n).map(|d| r + d + 1).collect()
    }

    #[test]
    fn asymmetric_counts_roundtrip() {
        for n in [1usize, 2, 3, 5, 8] {
            let results = run(n, |comm| {
                let me = comm.rank();
                let send_counts = counts_from(me, n);
                // recv_counts[s] must equal s's send_counts[me].
                let recv_counts: Vec<usize> = (0..n).map(|s| s + me + 1).collect();
                let send: Vec<u64> = (0..n)
                    .flat_map(|d| (0..send_counts[d]).map(move |i| (me * 100 + d * 10 + i) as u64))
                    .collect();
                let mut recv = vec![0u64; recv_counts.iter().sum()];
                let exchange = pairwise_async(comm, &send, &send_counts, &mut recv, &recv_counts);
                block_on(exchange);
                (recv, recv_counts)
            });
            for (r, (got, recv_counts)) in results.iter().enumerate() {
                let mut off = 0;
                for s in 0..n {
                    for i in 0..recv_counts[s] {
                        assert_eq!(
                            got[off + i],
                            (s * 100 + r * 10 + i) as u64,
                            "n={n} rank {r} from {s} elem {i}"
                        );
                    }
                    off += recv_counts[s];
                }
            }
        }
    }

    #[test]
    fn zero_counts_are_fine() {
        run(4, |comm| {
            let me = comm.rank();
            // Only even ranks send, one word each, to every rank.
            let send_counts = vec![usize::from(me % 2 == 0); 4];
            let recv_counts: Vec<usize> = (0..4).map(|s| usize::from(s % 2 == 0)).collect();
            let send = vec![me as u64; send_counts.iter().sum()];
            let mut recv = vec![0u64; recv_counts.iter().sum()];
            // Self block symmetry: even ranks send/recv 1 with themselves,
            // odd ranks 0 — consistent.
            let exchange = pairwise_async(comm, &send, &send_counts, &mut recv, &recv_counts);
            block_on(exchange);
            let expect: Vec<u64> = (0..4u64).filter(|s| s % 2 == 0).collect();
            assert_eq!(recv, expect);
        });
    }

    #[test]
    fn equal_counts_match_alltoall() {
        let n = 5;
        let block = 3;
        let results = run(n, |comm| {
            let me = comm.rank() as u64;
            let send: Vec<u64> = (0..(n * block) as u64).map(|i| me * 1000 + i).collect();
            let counts = vec![block; n];
            let mut v = vec![0u64; n * block];
            block_on(pairwise_async(comm, &send, &counts, &mut v, &counts));
            let mut a = vec![0u64; n * block];
            block_on(crate::coll::alltoall::pairwise_async(comm, &send, &mut a));
            (v, a)
        });
        for (v, a) in &results {
            assert_eq!(v, a);
        }
    }
}
