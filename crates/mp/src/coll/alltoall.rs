//! All-to-all personalised exchange (`MPI_Alltoall`, IMB `AlltoAll`,
//! paper Fig. 12) — the benchmark that "stresses the global network
//! bandwidth of the computing system".

use std::future::Future;

use crate::comm::Comm;
use crate::datatype::Word;

use super::{ceil_log2, no_fold, Buf, Coll, Either, Mode, Run, Step};

/// Pairwise-exchange alltoall's steps: give block `dst` of the send
/// buffer, take block `src` of the receive buffer. `n-1` rounds; in round
/// `s` each rank exchanges one block with the rank at offset `s`
/// (XOR-pairing on power-of-two groups, rotation otherwise). The standard
/// long-message algorithm: every block travels exactly once.
pub(crate) fn pairwise_steps(me: usize, n: usize, block: usize) -> impl Iterator<Item = Step> {
    let at = move |r: usize| r * block..(r + 1) * block;
    (1..n).map(move |s| {
        let (dst, src) = if n.is_power_of_two() {
            (me ^ s, me ^ s)
        } else {
            ((me + s) % n, (me + n - s) % n)
        };
        Step::at(s - 1).send(dst, at(dst)).recv(src, at(src))
    })
}

/// Bruck alltoall's steps: `ceil(log2 n)` rounds, each moving about half
/// the payload. Fewer, larger messages than pairwise — the short-message
/// algorithm. Works for any group size. A round's message is not one
/// range of the slot space but the packing of every slot with bit `round`
/// set ([`Mode::Bruck`]); the ranges here index that packed message,
/// `0..moving slots * block`.
pub(crate) fn bruck_steps(me: usize, n: usize, block: usize) -> impl Iterator<Item = Step> {
    (0..ceil_log2(n)).map(move |k| {
        let step = 1 << k;
        let moving = n / (2 * step) * step + (n % (2 * step)).saturating_sub(step);
        let packed = 0..moving * block;
        Step::at(k)
            .send((me + step) % n, packed.clone())
            .recv((me + n - step) % n, packed)
    })
}

/// The dispatch test of `Comm::alltoall_async`, shared with the
/// `sched::alltoall` generator: Bruck when per-destination blocks are
/// short and the group is large enough for its log-round count to pay.
pub(crate) fn picks_bruck(n: usize, block_bytes: usize) -> bool {
    block_bytes < 256 && n > 8
}

/// Personalised all-to-all exchange: pairwise, or Bruck when `bruck`.
///
/// Bruck works in `recv` in slot order: after the initial rotation slot
/// `i` holds `send[(me + i) % n]`, round `k` ships every slot with bit `k`
/// set to rank `me + 2^k`, and slot contents then satisfy `slot j = block
/// from (me - j) to me` — so slot `j` is kept where block `me - j`
/// belongs and no final rotation is needed.
pub(crate) fn alltoall<'a, T: Word>(
    comm: &'a Comm,
    send: &'a [T],
    recv: &'a mut [T],
    bruck: bool,
) -> impl Future<Output = ()> + 'a {
    let n = comm.size();
    assert_eq!(send.len(), recv.len(), "alltoall buffers must match");
    assert_eq!(send.len() % n, 0, "alltoall buffer not divisible by ranks");
    let block = send.len() / n;
    let me = comm.rank();
    let at = |r: usize| r * block..(r + 1) * block;
    let (steps, mode) = if bruck {
        for j in 0..n {
            recv[at((me + n - j) % n)].copy_from_slice(&send[at((me + j) % n)]);
        }
        (Either::Right(bruck_steps(me, n, block)), Mode::Bruck)
    } else {
        recv[at(me)].copy_from_slice(&send[at(me)]);
        (Either::Left(pairwise_steps(me, n, block)), Mode::Between)
    };
    Run::new(
        comm,
        Coll::Alltoall,
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

    /// Element (s -> d, i) encoded as s*10000 + d*100 + i.
    /// `bruck` picks the algorithm from the world size and block bytes.
    fn check(n: usize, block: usize, bruck: impl Fn(usize, usize) -> bool + Sync) {
        let results = run(n, |comm| {
            let me = comm.rank() as u32;
            let send: Vec<u32> = (0..n as u32)
                .flat_map(|d| (0..block as u32).map(move |i| me * 10000 + d * 100 + i))
                .collect();
            let mut recv = vec![0u32; n * block];
            block_on(super::alltoall(comm, &send, &mut recv, bruck(n, block * 4)));
            recv
        });
        for (r, got) in results.iter().enumerate() {
            let expect: Vec<u32> = (0..n as u32)
                .flat_map(|s| (0..block as u32).map(move |i| s * 10000 + (r as u32) * 100 + i))
                .collect();
            assert_eq!(got, &expect, "rank {r} has wrong alltoall result");
        }
    }

    #[test]
    fn pairwise_power_of_two() {
        for n in [1, 2, 4, 8, 16] {
            check(n, 3, |_, _| false);
        }
    }

    #[test]
    fn pairwise_general() {
        for n in [3, 5, 6, 7, 12] {
            check(n, 3, |_, _| false);
        }
    }

    #[test]
    fn bruck_various() {
        for n in [1, 2, 3, 4, 5, 8, 11, 16] {
            check(n, 2, |_, _| true);
        }
    }

    #[test]
    fn auto_both_paths() {
        use super::picks_bruck as auto;
        check(12, 1, auto); // tiny blocks, n > 8 -> bruck
        check(12, 512, auto); // long -> pairwise
    }

    /// A round's message of the wrong size is refused by length even
    /// when the words it would land in have no memory to overrun.
    #[test]
    #[should_panic(expected = "bruck round size mismatch")]
    fn bruck_checks_round_sizes_of_ghost_words() {
        use crate::payload::Payload;
        run(2, |comm| {
            if comm.rank() == 0 {
                let send = [crate::Ghost::<4>; 6];
                let recv = &mut [crate::Ghost::<4>; 6];
                block_on(super::alltoall(comm, &send, recv, true));
            } else {
                // Stands in for a peer whose blocks are a word short.
                let tag = comm.next_coll_tag();
                comm.send_payload(Payload::from_vec(vec![0; 8]), 0, tag);
                block_on(comm.recv_payload_async(0, tag));
            }
        });
    }

    #[test]
    fn empty_blocks() {
        check(4, 0, |_, _| false);
        check(4, 0, |_, _| true);
    }
}
