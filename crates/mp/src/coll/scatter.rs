//! Scatter (`MPI_Scatter`): root distributes one block per rank.

use crate::comm::Comm;
use crate::datatype::Word;
use crate::payload::Payload;

use super::{halving_tree, run_between, unvrank, vrank, Step, TreeEdge};

/// [`linear_async`]'s steps: blocks of the root's buffer out, into the whole
/// of every other rank's.
pub(crate) fn linear_steps(
    me: usize,
    n: usize,
    block: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let at = move |r: usize| r * block..(r + 1) * block;
    let deal = (0..n)
        .filter(move |&r| me == root && r != root)
        .map(move |r| Step::at(0).send(r, at(r)));
    deal.chain((me != root).then(|| Step::at(0).recv(root, 0..block)))
}

/// Linear scatter: the root sends each rank its block directly. Baseline
/// algorithm (and the fallback for tiny groups).
pub async fn linear_async<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = recv.len();
    let me = comm.rank();
    let send = if me == root {
        let send = send.expect("root must supply a send buffer");
        assert_eq!(send.len(), block * n, "scatter send buffer size mismatch");
        recv.copy_from_slice(&send[root * block..(root + 1) * block]);
        send
    } else {
        &[]
    };
    run_between(comm, tag, send, recv, &mut linear_steps(me, n, block, root)).await;
}

/// [`binomial_async`]'s steps over the `n` blocks in root-relative rank order,
/// block `b` starting at `cut(b)`: a node receives its subtree's blocks
/// (its own first) from its parent in the round of that split's depth,
/// then hands each child its subtree, outermost split first.
pub(crate) fn binomial_steps(
    me: usize,
    n: usize,
    root: usize,
    cut: impl Fn(usize) -> usize + Copy,
) -> impl DoubleEndedIterator<Item = Step> {
    let (parent, children) = halving_tree(vrank(me, root, n), n);
    let blocks = move |e: &TreeEdge| cut(e.range.start)..cut(e.range.end);
    let arrive = parent
        .into_iter()
        .map(move |e| Step::at(e.depth).recv(unvrank(e.peer, root, n), blocks(&e)));
    let deal = children
        .into_iter()
        .map(move |e| Step::at(e.depth).send(unvrank(e.peer, root, n), blocks(&e)));
    arrive.chain(deal)
}

/// Binomial-tree scatter down the recursive-halving tree: `ceil(log2 n)`
/// rounds; each internal node forwards the halves destined to its subtrees
/// as zero-copy sub-slices of the one buffer it received — internal nodes
/// never copy payload bytes.
pub async fn binomial_async<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = recv.len();
    let me = comm.rank();

    // The encoded blocks of my subtree in vrank order, from byte `base` of
    // the whole; the root re-orders its buffer into vrank order once.
    let bw = block * T::SIZE;
    let (mut data, mut base) = (Payload::encode::<T>(&[]), 0);
    if me == root {
        let send = send.expect("root must supply a send buffer");
        assert_eq!(send.len(), block * n, "scatter send buffer size mismatch");
        let (head, tail) = send.split_at(root * block);
        data = Payload::encode(&[tail, head].concat());
    }
    for Step { send, recv, .. } in binomial_steps(me, n, root, |b| b * bw) {
        if let Some((src, take)) = recv {
            data = comm.recv_payload_async(src, tag).await;
            base = take.start;
        }
        if let Some((dst, give)) = send {
            comm.send_payload(data.slice(give.start - base..give.end - base), dst, tag);
        }
    }
    // My own block sits first in the subtree range.
    data.slice(0..bw)
        .decode_into(recv, comm.envelope(root, tag));
}

/// The [`auto_async`] dispatch test of scatter and gather, shared with their
/// `sched` generators: a tree has nothing to save below three ranks.
pub(crate) fn picks_linear(n: usize) -> bool {
    n <= 2
}

/// Size-dispatched scatter (binomial; linear for 2 ranks).
pub async fn auto_async<T: Word>(comm: &Comm, send: Option<&[T]>, recv: &mut [T], root: usize) {
    if picks_linear(comm.size()) {
        linear_async(comm, send, recv, root).await;
    } else {
        binomial_async(comm, send, recv, root).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::coop::block_on;
    use crate::runtime::run;
    use crate::Comm;

    fn check(
        n: usize,
        block: usize,
        root: usize,
        algo: impl AsyncFn(&Comm, Option<&[u64]>, &mut [u64], usize) + Sync,
    ) {
        let results = run(n, |comm| {
            let send: Option<Vec<u64>> =
                (comm.rank() == root).then(|| (0..(n * block) as u64).map(|x| x * 7 + 1).collect());
            let mut recv = vec![0u64; block];
            block_on(algo(comm, send.as_deref(), &mut recv, root));
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
                check(n, 4, root, super::linear_async);
            }
        }
    }

    #[test]
    fn binomial_various() {
        for n in [1, 2, 3, 4, 5, 8, 11, 16] {
            for root in [0, n - 1, n / 2] {
                check(n, 3, root, super::binomial_async);
            }
        }
    }

    #[test]
    fn binomial_matches_linear_block_sizes() {
        check(7, 1, 2, super::binomial_async);
        check(7, 64, 2, super::binomial_async);
    }

    #[test]
    fn auto_works() {
        check(2, 5, 1, super::auto_async);
        check(9, 5, 4, super::auto_async);
    }
}
