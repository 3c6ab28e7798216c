//! Allgather (`MPI_Allgather`, IMB `Allgather`, paper Fig. 10).

use crate::comm::Comm;
use crate::datatype::Word;

use super::{ceil_log2, Step, LONG_MSG_THRESHOLD};

/// [`ring_async`]'s steps over the gathered buffer of `n` blocks.
pub(crate) fn ring_steps(me: usize, n: usize, block: usize) -> impl Iterator<Item = Step> {
    super::ring_steps(me, n, 0, move |b| b * block..(b + 1) * block)
}

/// Ring allgather: `n-1` rounds; each round every rank passes one block to
/// its right neighbour. Bandwidth-optimal for long blocks and valid for any
/// group size.
///
/// A rank encodes only its own block; every later round forwards the
/// payload that just arrived from the left (a shared-buffer handoff, not a
/// re-encode), decoding a copy into the local result as it passes through.
pub(crate) async fn ring_async<T: Word>(comm: &Comm, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = send.len();
    assert_eq!(
        recv.len(),
        block * n,
        "allgather receive buffer size mismatch"
    );
    let me = comm.rank();
    recv[me * block..(me + 1) * block].copy_from_slice(send);
    let mut outgoing = comm.encode(send);
    for step in ring_steps(me, n, block) {
        let ((right, _), (left, take)) = step.exchange();
        comm.send_payload(outgoing, right, tag);
        outgoing = comm.recv_into_async(&mut recv[take], left, tag).await;
    }
    // The last arrival goes no further.
    comm.recycle(outgoing);
}

/// [`recursive_doubling_async`]'s steps over the gathered buffer: round `k`
/// swaps the `2^k`-aligned group of blocks a rank holds for its partner's.
pub(crate) fn recursive_doubling_steps(
    me: usize,
    n: usize,
    block: usize,
) -> impl Iterator<Item = Step> {
    assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
    (0..ceil_log2(n)).map(move |k| {
        let span = 1 << k;
        let partner = me ^ span;
        let group =
            |rank: usize| (rank & !(span - 1)) * block..((rank & !(span - 1)) + span) * block;
        Step::at(k)
            .send(partner, group(me))
            .recv(partner, group(partner))
    })
}

/// Recursive-doubling allgather: `log2 n` rounds, doubling the gathered
/// span each round. Latency-optimal; requires a power-of-two group (the
/// dispatcher falls back to [`ring_async`] otherwise).
pub(crate) async fn recursive_doubling_async<T: Word>(comm: &Comm, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let block = send.len();
    let me = comm.rank();
    let mut steps = recursive_doubling_steps(me, n, block);
    assert_eq!(
        recv.len(),
        block * n,
        "allgather receive buffer size mismatch"
    );
    recv[me * block..(me + 1) * block].copy_from_slice(send);
    super::run_in_place(comm, tag, recv, &mut steps, super::no_fold).await;
}

/// The [`auto_async`] dispatch test, shared with the `sched::allgather`
/// generator: recursive doubling when `n` blocks of `block_bytes` gather
/// to a short result and the group is a power of two.
pub(crate) fn picks_recursive_doubling(n: usize, block_bytes: usize) -> bool {
    n.is_power_of_two() && block_bytes * n < LONG_MSG_THRESHOLD
}

/// Size- and shape-dispatched allgather: recursive doubling for short
/// blocks on power-of-two groups, ring otherwise.
pub(crate) async fn auto_async<T: Word>(comm: &Comm, send: &[T], recv: &mut [T]) {
    if picks_recursive_doubling(comm.size(), send.len() * T::SIZE) {
        recursive_doubling_async(comm, send, recv).await;
    } else {
        ring_async(comm, send, recv).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;
    use crate::Comm;

    fn check(n: usize, block: usize, algo: impl AsyncFn(&Comm, &[i64], &mut [i64]) + Sync) {
        let results = run(n, |comm| {
            let send: Vec<i64> = (0..block as i64)
                .map(|i| (comm.rank() as i64) * 1000 + i)
                .collect();
            let mut recv = vec![0i64; n * block];
            block_on(algo(comm, &send, &mut recv));
            recv
        });
        let expect: Vec<i64> = (0..n as i64)
            .flat_map(|r| (0..block as i64).map(move |i| r * 1000 + i))
            .collect();
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &expect, "rank {r} gathered wrong data");
        }
    }

    #[test]
    fn ring_various_sizes() {
        for n in [1, 2, 3, 5, 8, 13] {
            check(n, 4, super::ring_async);
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for n in [1, 2, 4, 8, 16] {
            check(n, 4, super::recursive_doubling_async);
        }
    }

    #[test]
    #[should_panic(expected = "2^k ranks")]
    fn recursive_doubling_rejects_odd_groups() {
        check(6, 2, super::recursive_doubling_async);
    }

    #[test]
    fn auto_both_paths() {
        check(8, 2, super::auto_async); // short, 2^k -> doubling
        check(8, 4096, super::auto_async); // long -> ring
        check(6, 2, super::auto_async); // non-2^k -> ring
    }

    #[test]
    fn single_element_blocks() {
        check(7, 1, super::ring_async);
    }
}
