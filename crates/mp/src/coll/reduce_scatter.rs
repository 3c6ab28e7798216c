//! Reduce-scatter (`MPI_Reduce_scatter`, IMB `Reduce_scatter`, paper
//! Fig. 9): "the outcome ... is the same as an MPI Reduce operation
//! followed by an MPI Scatter".

use crate::comm::Comm;
use crate::reduce::{Numeric, Op};

use super::{allgatherv::displs, ceil_log2, Step};

/// [`pairwise_async`]'s steps over the send vector, whose slice boundaries are
/// `displs` (one more entry than ranks; borrowed, or shared by every rank's
/// steps in a schedule).
pub(crate) fn pairwise_steps(me: usize, displs: impl AsRef<[usize]>) -> impl Iterator<Item = Step> {
    let n = displs.as_ref().len() - 1;
    let slice = move |r: usize| {
        let d = displs.as_ref();
        d[r]..d[r + 1]
    };
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
/// slice arriving from `(me - s) mod n`, straight from the wire. Works for
/// any group size and any per-rank counts; bandwidth-optimal (each rank
/// moves `len - own` once).
pub(crate) async fn pairwise_async<T: Numeric>(
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
        comm.send_payload(comm.encode(&send[give]), dst, tag);
        let data = comm.recv_payload_async(src, tag).await;
        data.fold_into(recv, comm.envelope(src, tag), |a, x| op.fold_into(a, x));
        comm.recycle(data);
    }
}

/// Recursive-halving reduce-scatter on the vector of `len` over a
/// power-of-two group, the first phase of both Rabenseifner algorithms
/// (`reduce::rabenseifner_steps`, `allreduce::rabenseifner_steps`): each
/// of `log2 n` rounds a rank gives the half of its active range that its
/// partner keeps and folds the partner's operand into the half it keeps
/// itself, ending on slice `me` of `n`.
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

/// General per-rank-counts reduce-scatter (pairwise).
pub(crate) async fn auto_async<T: Numeric>(
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
    use crate::block_on;
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
}
