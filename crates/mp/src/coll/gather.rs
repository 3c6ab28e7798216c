//! Gather (`MPI_Gather`): root collects one block per rank.

use crate::comm::Comm;
use crate::datatype::Word;
use crate::payload::Payload;

pub(crate) use super::scatter::picks_linear;
use super::{ceil_log2, run_between, scatter, vrank, Step};

/// [`linear_async`]'s steps: the whole of every other rank's buffer, into
/// blocks of the root's.
pub(crate) fn linear_steps(
    me: usize,
    n: usize,
    block: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    let at = move |r: usize| r * block..(r + 1) * block;
    let collect = (0..n)
        .filter(move |&r| me == root && r != root)
        .map(move |r| Step::at(0).recv(r, at(r)));
    collect.chain((me != root).then(|| Step::at(0).send(root, 0..block)))
}

/// Linear gather: every rank sends directly to the root.
pub async fn linear_async<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = send.len();
    let me = comm.rank();
    let recv = if me == root {
        let recv = recv.expect("root must supply a receive buffer");
        assert_eq!(recv.len(), block * n, "gather receive buffer size mismatch");
        recv[root * block..(root + 1) * block].copy_from_slice(send);
        recv
    } else {
        &mut []
    };
    run_between(comm, tag, send, recv, &mut linear_steps(me, n, block, root)).await;
}

/// [`binomial_async`]'s steps over the `n` blocks in root-relative rank order:
/// [`scatter::binomial_steps`] backwards. So a node takes its children
/// from the innermost (smallest, earliest-finished subtree) outwards, their
/// ranges arriving in ascending order right after its own block, then
/// sends the lot.
pub(crate) fn binomial_steps(
    me: usize,
    n: usize,
    block: usize,
    root: usize,
) -> impl Iterator<Item = Step> {
    scatter::binomial_steps(me, n, root, move |b| b * block)
        .rev()
        .map(move |step| step.reversed(ceil_log2(n)))
}

/// Binomial-tree gather: the mirror image of binomial scatter. Each node
/// collects its subtrees' blocks, then forwards its whole contiguous range
/// to its parent. `ceil(log2 n)` rounds on the critical path.
pub async fn binomial_async<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = send.len();
    let me = comm.rank();

    // My subtree's blocks in vrank order, my own block first.
    let mut data = send.to_vec();
    for step in binomial_steps(me, n, block, root) {
        if let Some((src, take)) = step.recv {
            let held = data.len();
            debug_assert_eq!(take.start, vrank(me, root, n) * block + held);
            data.resize(held + take.len(), T::ZERO);
            comm.recv_into_async(&mut data[held..], src, tag).await;
        }
        if let Some((dst, _)) = step.send {
            comm.send_payload(Payload::encode(&data), dst, tag);
        }
    }
    if me == root {
        let recv = recv.expect("root must supply a receive buffer");
        assert_eq!(recv.len(), block * n, "gather receive buffer size mismatch");
        // Vrank order is rank order rotated to start at the root.
        let wrap = (n - root) * block;
        recv[root * block..].copy_from_slice(&data[..wrap]);
        recv[..root * block].copy_from_slice(&data[wrap..]);
    }
}

/// Size-dispatched gather (binomial; linear for 2 ranks).
pub async fn auto_async<T: Word>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize) {
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
        algo: impl AsyncFn(&Comm, &[u64], Option<&mut [u64]>, usize) + Sync,
    ) {
        let results = run(n, |comm| {
            let send: Vec<u64> = (0..block as u64)
                .map(|i| (comm.rank() * block) as u64 + i)
                .collect();
            let mut recv = (comm.rank() == root).then(|| vec![0u64; n * block]);
            block_on(algo(comm, &send, recv.as_deref_mut(), root));
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
                check(n, 3, root, super::linear_async);
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
    fn binomial_large_blocks() {
        check(6, 128, 1, super::binomial_async);
    }

    #[test]
    fn auto_works() {
        check(2, 4, 0, super::auto_async);
        check(10, 4, 3, super::auto_async);
    }
}
