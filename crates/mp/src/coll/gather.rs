//! Gather (`MPI_Gather`): root collects one block per rank.

use crate::comm::Comm;
use crate::datatype::{decode_into, encode, Word};

use super::{halving_tree, unvrank, vrank};

/// Linear gather: every rank sends directly to the root.
pub fn linear<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    crate::coop::block_on(linear_async(comm, send, recv, root));
}

/// Awaitable mirror of [`linear`].
pub async fn linear_async<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = send.len();
    if comm.rank() == root {
        let recv = recv.expect("root must supply a receive buffer");
        assert_eq!(recv.len(), block * n, "gather receive buffer size mismatch");
        recv[root * block..(root + 1) * block].copy_from_slice(send);
        for r in (0..n).filter(|&r| r != root) {
            let bytes = comm.recv_bytes_async(r, tag).await;
            decode_into(&bytes, &mut recv[r * block..(r + 1) * block]);
        }
    } else {
        comm.send_bytes(encode(send), root, tag);
    }
}

/// Binomial-tree gather: the mirror image of binomial scatter. Each node
/// collects its subtrees' blocks, then forwards its whole contiguous range
/// to its parent. `ceil(log2 n)` rounds on the critical path.
pub fn binomial<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    crate::coop::block_on(binomial_async(comm, send, recv, root));
}

/// Awaitable mirror of [`binomial`].
pub async fn binomial_async<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = send.len();
    if n == 1 {
        let recv = recv.expect("root must supply a receive buffer");
        recv[..block].copy_from_slice(send);
        return;
    }
    let v = vrank(comm.rank(), root, n);
    let (parent, children) = halving_tree(v, n);

    // My subtree's blocks in vrank order, my own block first.
    let bw = block * T::SIZE;
    let hi = parent.as_ref().map(|(_, r)| r.end).unwrap_or(n);
    let mut data = vec![0u8; (hi - v) * bw];
    crate::datatype::encode_into(send, &mut data[..bw]);

    // Children split ranges from the outside in; collect the innermost
    // (smallest, earliest-finished subtree) first.
    for (child, range) in children.iter().rev() {
        let bytes = comm.recv_bytes_async(unvrank(*child, root, n), tag).await;
        let off = (range.start - v) * bw;
        data[off..off + bytes.len()].copy_from_slice(&bytes);
    }

    if let Some((p, _)) = parent {
        comm.send_bytes(data, unvrank(p, root, n), tag);
    } else {
        let recv = recv.expect("root must supply a receive buffer");
        assert_eq!(recv.len(), block * n, "gather receive buffer size mismatch");
        for vv in 0..n {
            let r = unvrank(vv, root, n);
            decode_into(
                &data[vv * bw..(vv + 1) * bw],
                &mut recv[r * block..(r + 1) * block],
            );
        }
    }
}

/// The [`auto`] dispatch test, shared with the `sched::gather`
/// generator: a tree has nothing to save below three ranks.
pub(crate) fn picks_linear(n: usize) -> bool {
    n <= 2
}

/// Size-dispatched gather (binomial; linear for 2 ranks).
pub fn auto<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    crate::coop::block_on(auto_async(comm, send, recv, root));
}

/// Awaitable mirror of [`auto`].
pub async fn auto_async<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    if picks_linear(comm.size()) {
        linear_async(comm, send, recv, root).await;
    } else {
        binomial_async(comm, send, recv, root).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::run;

    type Algo = fn(&crate::Comm, &[u64], Option<&mut [u64]>, usize);

    fn check(n: usize, block: usize, root: usize, algo: Algo) {
        let results = run(n, |comm| {
            let send: Vec<u64> = (0..block as u64)
                .map(|i| (comm.rank() * block) as u64 + i)
                .collect();
            let mut recv = (comm.rank() == root).then(|| vec![0u64; n * block]);
            algo(comm, &send, recv.as_deref_mut(), root);
            recv
        });
        let expect: Vec<u64> = (0..(n * block) as u64).collect();
        for (r, got) in results.iter().enumerate() {
            if r == root {
                assert_eq!(got.as_deref(), Some(expect.as_slice()));
            } else {
                assert!(got.is_none());
            }
        }
    }

    #[test]
    fn linear_various() {
        for n in [1, 2, 4, 7] {
            for root in [0, n - 1] {
                check(n, 3, root, super::linear);
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
    fn binomial_large_blocks() {
        check(6, 128, 1, super::binomial);
    }

    #[test]
    fn auto_works() {
        check(2, 4, 0, super::auto);
        check(10, 4, 3, super::auto);
    }
}
