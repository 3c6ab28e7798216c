//! Reduce-scatter (`MPI_Reduce_scatter`, IMB `Reduce_scatter`, paper
//! Fig. 9): "the outcome ... is the same as an MPI Reduce operation
//! followed by an MPI Scatter".

use crate::comm::Comm;
use crate::payload::Payload;
use crate::reduce::{Numeric, Op};

use super::{allgatherv::displs, ceil_log2, run_in_place, Step};

/// [`pairwise_async`]'s steps over the send vector, whose slice boundaries are
/// `displs` (one more entry than ranks).
pub(crate) fn pairwise_steps(me: usize, displs: &[usize]) -> impl Iterator<Item = Step> + '_ {
    let n = displs.len() - 1;
    let slice = move |r: usize| displs[r]..displs[r + 1];
    (1..n).map(move |s| {
        let (dst, src) = ((me + s) % n, (me + n - s) % n);
        Step::at(s - 1)
            .send(dst, slice(dst))
            .recv(src, slice(me))
            .folding(1)
    })
}

/// Pairwise reduce-scatter: `n-1` rounds; in round `s` each rank ships the
/// slice belonging to `(me + s) mod n` and folds the operand for its own
/// slice arriving from `(me - s) mod n`. Works for any group size and any
/// per-rank counts; bandwidth-optimal (each rank moves `len - own` once).
pub async fn pairwise_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: &mut [T],
    counts: &[usize],
    op: Op,
) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    assert_eq!(counts.len(), n, "one count per rank required");
    let displ = displs(counts.iter().copied());
    assert_eq!(
        send.len(),
        displ[n],
        "reduce_scatter send buffer size mismatch"
    );
    let me = comm.rank();
    assert_eq!(recv.len(), counts[me], "receive buffer must match my count");

    recv.copy_from_slice(&send[displ[me]..displ[me + 1]]);
    for step in pairwise_steps(me, &displ) {
        let ((dst, give), (src, _)) = step.exchange();
        comm.send_payload(Payload::encode(&send[give]), dst, tag);
        let operand: Vec<T> = comm.recv_vec_async(src, tag).await;
        op.fold_into(recv, &operand);
    }
}

/// [`recursive_halving_async`]'s steps on the vector of `len`: each round a
/// rank gives the half of its active range that its partner keeps and folds
/// the partner's operand into the half it keeps itself, ending on slice
/// `me` of `n`.
pub(crate) fn recursive_halving_steps(
    me: usize,
    n: usize,
    len: usize,
) -> impl Iterator<Item = Step> {
    assert!(n.is_power_of_two(), "recursive halving needs 2^k ranks");
    let mut keep = 0..len;
    (0..ceil_log2(n)).map(move |k| {
        let half = n >> (k + 1);
        let mid = (keep.start + keep.end) / 2;
        let (give, kept) = if me & half == 0 {
            (mid..keep.end, keep.start..mid)
        } else {
            (keep.start..mid, mid..keep.end)
        };
        keep = kept;
        let partner = me ^ half;
        Step::at(k)
            .send(partner, give)
            .recv(partner, keep.clone())
            .folding(1)
    })
}

/// Recursive-halving reduce-scatter for equal counts on power-of-two
/// groups: `log2 n` rounds, halving the active vector each round. The
/// short-message algorithm; also the first phase of Rabenseifner's
/// reductions.
pub async fn recursive_halving_async<T: Numeric>(comm: &Comm, send: &[T], recv: &mut [T], op: Op) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    let len = send.len();
    let mut steps = recursive_halving_steps(me, n, len);
    assert_eq!(len % n, 0, "vector must divide evenly among ranks");
    let slice = len / n;
    assert_eq!(recv.len(), slice, "receive buffer must hold one slice");

    let mut acc = send.to_vec();
    run_in_place(comm, tag, &mut acc, &mut steps, |a, x| op.fold_into(a, x)).await;
    recv.copy_from_slice(&acc[me * slice..(me + 1) * slice]);
}

/// The [`block_auto_async`] dispatch test, shared with the
/// `sched::reduce_scatter` generator: recursive halving when the group is
/// a power of two and the vector of `elems` elements divides evenly.
pub(crate) fn picks_recursive_halving(n: usize, elems: usize) -> bool {
    n.is_power_of_two() && elems.is_multiple_of(n)
}

/// Dispatched equal-counts reduce-scatter (`MPI_Reduce_scatter_block`):
/// recursive halving on power-of-two groups, pairwise otherwise.
pub async fn block_auto_async<T: Numeric>(comm: &Comm, send: &[T], recv: &mut [T], op: Op) {
    let n = comm.size();
    if picks_recursive_halving(n, send.len()) {
        recursive_halving_async(comm, send, recv, op).await;
    } else {
        let counts = vec![recv.len(); n];
        assert_eq!(send.len(), recv.len() * n, "send must be n equal blocks");
        pairwise_async(comm, send, recv, &counts, op).await;
    }
}

/// General per-rank-counts reduce-scatter (pairwise).
pub async fn auto_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: &mut [T],
    counts: &[usize],
    op: Op,
) {
    pairwise_async(comm, send, recv, counts, op).await;
}

#[cfg(test)]
mod tests {
    use crate::coop::block_on;
    use crate::reduce::Op;
    use crate::runtime::run;

    /// send[r][i] = (r+1) * (i+1); reduced slice for rank d starts at
    /// displ[d].
    fn check_counts(counts: Vec<usize>, op: Op) {
        let n = counts.len();
        let total: usize = counts.iter().sum();
        let counts2 = counts.clone();
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<f64> = (0..total).map(|i| ((me + 1) * (i + 1)) as f64).collect();
            let mut recv = vec![0.0f64; counts2[me]];
            block_on(super::pairwise_async(comm, &send, &mut recv, &counts2, op));
            recv
        });
        let mut displ = 0usize;
        for (r, got) in results.iter().enumerate() {
            for (j, &g) in got.iter().enumerate() {
                let i = displ + j;
                let mut e = match op {
                    Op::Sum => 0.0,
                    Op::Prod => 1.0,
                    Op::Max => f64::NEG_INFINITY,
                    Op::Min => f64::INFINITY,
                };
                for s in 0..n {
                    e = op.apply(e, ((s + 1) * (i + 1)) as f64);
                }
                assert!((g - e).abs() < 1e-9 * e.abs().max(1.0), "rank {r} elem {j}");
            }
            displ += counts[r];
        }
    }

    #[test]
    fn pairwise_equal_counts() {
        for n in [1, 2, 3, 4, 5, 8] {
            check_counts(vec![3; n], Op::Sum);
        }
    }

    #[test]
    fn pairwise_varying_counts() {
        check_counts(vec![1, 4, 0, 2], Op::Sum);
        check_counts(vec![2, 2, 5], Op::Max);
    }

    fn check_halving(n: usize, slice: usize, op: Op) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<f64> = (0..n * slice)
                .map(|i| ((me + 1) * (i + 1)) as f64)
                .collect();
            let mut recv = vec![0.0f64; slice];
            block_on(super::recursive_halving_async(comm, &send, &mut recv, op));
            recv
        });
        for (r, got) in results.iter().enumerate() {
            for (j, &g) in got.iter().enumerate() {
                let i = r * slice + j;
                let mut e = match op {
                    Op::Sum => 0.0,
                    _ => f64::NEG_INFINITY,
                };
                for s in 0..n {
                    e = op.apply(e, ((s + 1) * (i + 1)) as f64);
                }
                assert!((g - e).abs() < 1e-9 * e.abs().max(1.0), "rank {r} elem {j}");
            }
        }
    }

    #[test]
    fn recursive_halving_power_of_two() {
        for n in [1, 2, 4, 8, 16] {
            check_halving(n, 4, Op::Sum);
        }
    }

    #[test]
    fn recursive_halving_max() {
        check_halving(8, 2, Op::Max);
    }

    #[test]
    fn block_auto_matches_both_paths() {
        check_halving(8, 4, Op::Sum);
        // Non-power-of-two goes through pairwise.
        check_counts(vec![4; 6], Op::Sum);
    }
}
