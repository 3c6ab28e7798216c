//! All-to-all personalised exchange (`MPI_Alltoall`, IMB `AlltoAll`,
//! paper Fig. 12) — the benchmark that "stresses the global network
//! bandwidth of the computing system".

use crate::comm::Comm;
use crate::datatype::Word;

use super::{ceil_log2, run_between, Step};

/// [`pairwise_async`]'s steps: give block `dst` of the send buffer, take block
/// `src` of the receive buffer.
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

/// Pairwise-exchange alltoall: `n-1` rounds; in round `s` each rank
/// exchanges one block with the rank at offset `s` (XOR-pairing on
/// power-of-two groups, rotation otherwise). The standard long-message
/// algorithm: every block travels exactly once.
pub(crate) async fn pairwise_async<T: Word>(comm: &Comm, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    assert_eq!(send.len(), recv.len(), "alltoall buffers must match");
    assert_eq!(send.len() % n, 0, "alltoall buffer not divisible by ranks");
    let block = send.len() / n;
    let me = comm.rank();
    recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
    run_between(comm, tag, send, recv, &mut pairwise_steps(me, n, block)).await;
}

/// [`bruck_async`]'s steps. A round's message is not one range of the slot
/// space but the packing of every slot with bit `round` set; the ranges
/// here index that packed message, `0..moving slots * block`.
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

/// Bruck alltoall: `ceil(log2 n)` rounds, each moving about half the
/// payload. Fewer, larger messages than pairwise — the short-message
/// algorithm. Works for any group size.
///
/// After the initial rotation `L[i] = send[(me + i) % n]`, round `k` ships
/// every slot with bit `k` set to rank `me + 2^k`; slot contents then
/// satisfy `L[j] = block from (me - j) to me`, undone by the final inverse
/// rotation.
pub(crate) async fn bruck_async<T: Word>(comm: &Comm, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    assert_eq!(send.len(), recv.len(), "alltoall buffers must match");
    assert_eq!(send.len() % n, 0, "alltoall buffer not divisible by ranks");
    let block = send.len() / n;
    let me = comm.rank();

    // Phase 1: rotate into slot space.
    let (head, tail) = send.split_at(me * block);
    let mut slots = [tail, head].concat();

    // Phase 2: log-round combining exchanges.
    for step in bruck_steps(me, n, block) {
        let bit = 1 << step.round;
        let moving = (0..n).filter(move |i| i & bit != 0);
        let ((dst, packed), (src, _)) = step.exchange();
        let mut out = Vec::with_capacity(packed.len());
        for i in moving.clone() {
            out.extend_from_slice(&slots[i * block..(i + 1) * block]);
        }
        comm.send_payload(comm.encode(&out), dst, tag);
        let got = comm.recv_payload_async(src, tag).await;
        let bytes = block * T::SIZE;
        assert_eq!(
            got.len(),
            packed.len() * T::SIZE,
            "bruck round size mismatch"
        );
        let env = comm.envelope(src, tag);
        for (j, i) in moving.enumerate() {
            got.slice(j * bytes..(j + 1) * bytes)
                .decode_into(&mut slots[i * block..(i + 1) * block], env);
        }
        comm.recycle(got);
    }

    // Phase 3: inverse rotation — slot j holds the block from (me - j).
    for j in 0..n {
        let from = (me + n - j) % n;
        recv[from * block..(from + 1) * block].copy_from_slice(&slots[j * block..(j + 1) * block]);
    }
}

/// The [`auto_async`] dispatch test, shared with the `sched::alltoall`
/// generator: Bruck when per-destination blocks are short and the group
/// is large enough for its log-round count to pay.
pub(crate) fn picks_bruck(n: usize, block_bytes: usize) -> bool {
    block_bytes < 256 && n > 8
}

/// Size-dispatched alltoall: Bruck for short blocks, pairwise for long.
pub(crate) async fn auto_async<T: Word>(comm: &Comm, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    if picks_bruck(n, send.len() / n * T::SIZE) {
        bruck_async(comm, send, recv).await;
    } else {
        pairwise_async(comm, send, recv).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;
    use crate::Comm;

    /// Element (s -> d, i) encoded as s*10000 + d*100 + i.
    fn check(n: usize, block: usize, algo: impl AsyncFn(&Comm, &[u32], &mut [u32]) + Sync) {
        let results = run(n, |comm| {
            let me = comm.rank() as u32;
            let send: Vec<u32> = (0..n as u32)
                .flat_map(|d| (0..block as u32).map(move |i| me * 10000 + d * 100 + i))
                .collect();
            let mut recv = vec![0u32; n * block];
            block_on(algo(comm, &send, &mut recv));
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
            check(n, 3, super::pairwise_async);
        }
    }

    #[test]
    fn pairwise_general() {
        for n in [3, 5, 6, 7, 12] {
            check(n, 3, super::pairwise_async);
        }
    }

    #[test]
    fn bruck_various() {
        for n in [1, 2, 3, 4, 5, 8, 11, 16] {
            check(n, 2, super::bruck_async);
        }
    }

    #[test]
    fn auto_both_paths() {
        check(12, 1, super::auto_async); // tiny blocks, n > 8 -> bruck
        check(12, 512, super::auto_async); // long -> pairwise
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
                block_on(super::bruck_async(comm, &send, &mut [crate::Ghost::<4>; 6]));
            } else {
                // Stands in for a peer whose blocks are a word short.
                let tag = comm.next_coll_tag();
                comm.send_payload(Payload::from_vec(vec![0; 8]), 0, tag);
                crate::block_on(comm.recv_payload_async(0, tag));
            }
        });
    }

    #[test]
    fn empty_blocks() {
        check(4, 0, super::pairwise_async);
        check(4, 0, super::bruck_async);
    }
}
