//! Allgather (`MPI_Allgather`, IMB `Allgather`, paper Fig. 10).

use std::future::Future;

use crate::comm::Comm;
use crate::datatype::Word;

use super::{ceil_log2, no_fold, Buf, Coll, Either, Mode, Run, Step, LONG_MSG_THRESHOLD};

/// Ring allgather's steps over the gathered buffer of `n` blocks: `n-1`
/// rounds; each round every rank passes one block to its right neighbour.
/// Bandwidth-optimal for long blocks and valid for any group size.
pub(crate) fn ring_steps(me: usize, n: usize, block: usize) -> impl Iterator<Item = Step> {
    super::ring_steps(me, n, 0, move |b| b * block..(b + 1) * block)
}

/// Recursive-doubling allgather's steps over the gathered buffer: `log2 n`
/// rounds, doubling the gathered span each round. Latency-optimal;
/// requires a power-of-two group.
pub(crate) fn recursive_doubling_steps(
    me: usize,
    n: usize,
    block: usize,
) -> impl Iterator<Item = Step> {
    assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
    (0..ceil_log2(n)).map(move |k| recursive_doubling_step(me, block, k))
}

/// Step `k` of [`recursive_doubling_steps`]: swap the `2^k`-aligned group
/// of blocks a rank holds for its partner's.
pub(crate) fn recursive_doubling_step(me: usize, block: usize, k: usize) -> Step {
    let span = 1 << k;
    let partner = me ^ span;
    let group = |rank: usize| (rank & !(span - 1)) * block..((rank & !(span - 1)) + span) * block;
    Step::at(k)
        .send(partner, group(me))
        .recv(partner, group(partner))
}

/// The dispatch test of `Comm::allgather_async`, shared with the
/// `sched::allgather` generator: recursive doubling when `n` blocks of
/// `block_bytes` gather to a short result and the group is a power of two.
pub(crate) fn picks_recursive_doubling(n: usize, block_bytes: usize) -> bool {
    n.is_power_of_two() && block_bytes * n < LONG_MSG_THRESHOLD
}

/// Allgather of every rank's `send` into `recv`: the ring, or recursive
/// doubling when `doubling`. The ring encodes only a rank's own block;
/// every later round forwards the payload that just arrived from the left
/// (a shared-buffer handoff, not a re-encode), decoding a copy into the
/// result as it passes through.
pub(crate) fn allgather<'a, T: Word>(
    comm: &'a Comm,
    send: &'a [T],
    recv: &'a mut [T],
    doubling: bool,
) -> impl Future<Output = ()> + 'a {
    let (me, n, block) = (comm.rank(), comm.size(), send.len());
    let (steps, mode) = if doubling {
        let steps = recursive_doubling_steps(me, n, block);
        (Either::Right(steps), Mode::InPlace)
    } else {
        (Either::Left(ring_steps(me, n, block)), Mode::Forward)
    };
    assert_eq!(
        recv.len(),
        block * n,
        "allgather receive buffer size mismatch"
    );
    recv[me * block..(me + 1) * block].copy_from_slice(send);
    Run::new(
        comm,
        Coll::Allgather,
        mode,
        send,
        Buf::Borrowed(recv),
        steps,
        no_fold,
    )
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;

    /// `doubling` picks the algorithm from the world size and block bytes.
    fn check(n: usize, block: usize, doubling: impl Fn(usize, usize) -> bool + Sync) {
        let results = run(n, |comm| {
            let send: Vec<i64> = (0..block as i64)
                .map(|i| (comm.rank() as i64) * 1000 + i)
                .collect();
            let mut recv = vec![0i64; n * block];
            block_on(super::allgather(
                comm,
                &send,
                &mut recv,
                doubling(n, block * 8),
            ));
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
            check(n, 4, |_, _| false);
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for n in [1, 2, 4, 8, 16] {
            check(n, 4, |_, _| true);
        }
    }

    #[test]
    #[should_panic(expected = "2^k ranks")]
    fn recursive_doubling_rejects_odd_groups() {
        check(6, 2, |_, _| true);
    }

    #[test]
    fn auto_both_paths() {
        use super::picks_recursive_doubling as auto;
        check(8, 2, auto); // short, 2^k -> doubling
        check(8, 4096, auto); // long -> ring
        check(6, 2, auto); // non-2^k -> ring
    }

    #[test]
    fn single_element_blocks() {
        check(7, 1, |_, _| false);
    }
}
