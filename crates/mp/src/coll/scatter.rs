//! Scatter (`MPI_Scatter`): root distributes one block per rank.

use crate::comm::Comm;
use crate::datatype::{decode_into, encode, Word};

use super::{halving_tree, unvrank, vrank};

/// Linear scatter: the root sends each rank its block directly. Baseline
/// algorithm (and the fallback for tiny groups).
pub fn linear<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    crate::coop::block_on(linear_async(comm, send, recv, root));
}

/// Awaitable mirror of [`linear`].
pub async fn linear_async<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = recv.len();
    if comm.rank() == root {
        let send = send.expect("root must supply a send buffer");
        assert_eq!(send.len(), block * n, "scatter send buffer size mismatch");
        for r in 0..n {
            let part = &send[r * block..(r + 1) * block];
            if r == root {
                recv.copy_from_slice(part);
            } else {
                comm.send_bytes(encode(part), r, tag);
            }
        }
    } else {
        let bytes = comm.recv_bytes_async(root, tag).await;
        decode_into(&bytes, recv);
    }
}

/// Binomial-tree scatter down the recursive-halving tree: `ceil(log2 n)`
/// rounds; each internal node forwards the halves destined to its subtrees
/// as zero-copy sub-slices of the one buffer it received — internal nodes
/// never copy payload bytes.
pub fn binomial<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    crate::coop::block_on(binomial_async(comm, send, recv, root));
}

/// Awaitable mirror of [`binomial`].
pub async fn binomial_async<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = recv.len();
    if n == 1 {
        let send = send.expect("root must supply a send buffer");
        recv.copy_from_slice(&send[..block]);
        return;
    }
    let v = vrank(comm.rank(), root, n);
    let (parent, children) = halving_tree(v, n);

    // Hold the encoded blocks for my subtree, indexed by vrank.
    let bw = block * T::SIZE;
    let (data, lo) = if let Some((p, range)) = parent {
        (
            comm.recv_payload_async(unvrank(p, root, n), tag).await,
            range.start,
        )
    } else {
        // Root re-orders its buffer into vrank order once.
        let send = send.expect("root must supply a send buffer");
        assert_eq!(send.len(), block * n, "scatter send buffer size mismatch");
        let mut d = vec![0u8; bw * n];
        for vv in 0..n {
            let r = unvrank(vv, root, n);
            crate::datatype::encode_into(
                &send[r * block..(r + 1) * block],
                &mut d[vv * bw..(vv + 1) * bw],
            );
        }
        (crate::payload::Payload::from_vec(d), 0)
    };

    for (child, range) in children {
        let off = (range.start - lo) * bw;
        let len = (range.end - range.start) * bw;
        comm.send_payload(data.slice(off..off + len), unvrank(child, root, n), tag);
    }
    // My own block sits first in the subtree range (lo == v).
    debug_assert_eq!(lo, v);
    decode_into(&data[..bw], recv);
}

/// The [`auto`] dispatch test, shared with the `sched::scatter`
/// generator: a tree has nothing to save below three ranks.
pub(crate) fn picks_linear(n: usize) -> bool {
    n <= 2
}

/// Size-dispatched scatter (binomial; linear for 2 ranks).
pub fn auto<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    crate::coop::block_on(auto_async(comm, send, recv, root));
}

/// Awaitable mirror of [`auto`].
pub async fn auto_async<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    if picks_linear(comm.size()) {
        linear_async(comm, send, recv, root).await;
    } else {
        binomial_async(comm, send, recv, root).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::run;

    type Algo = fn(&crate::Comm, Option<&[u64]>, &mut [u64], usize);

    fn check(n: usize, block: usize, root: usize, algo: Algo) {
        let results = run(n, |comm| {
            let send: Option<Vec<u64>> =
                (comm.rank() == root).then(|| (0..(n * block) as u64).map(|x| x * 7 + 1).collect());
            let mut recv = vec![0u64; block];
            algo(comm, send.as_deref(), &mut recv, root);
            recv
        });
        for (r, got) in results.iter().enumerate() {
            let expect: Vec<u64> = (0..block as u64)
                .map(|i| ((r * block) as u64 + i) * 7 + 1)
                .collect();
            assert_eq!(got, &expect, "rank {r} got the wrong block");
        }
    }

    #[test]
    fn linear_various() {
        for n in [1, 2, 3, 6] {
            for root in [0, n - 1] {
                check(n, 4, root, super::linear);
            }
        }
    }

    #[test]
    fn binomial_various() {
        for n in [1, 2, 3, 4, 5, 8, 11, 16] {
            for root in [0, n - 1, n / 2] {
                check(n, 3, root, super::binomial);
            }
        }
    }

    #[test]
    fn binomial_matches_linear_block_sizes() {
        check(7, 1, 2, super::binomial);
        check(7, 64, 2, super::binomial);
    }

    #[test]
    fn auto_works() {
        check(2, 5, 1, super::auto);
        check(9, 5, 4, super::auto);
    }
}
