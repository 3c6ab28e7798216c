//! Reduce-scatter (`MPI_Reduce_scatter`, IMB `Reduce_scatter`, paper
//! Fig. 9): "the outcome ... is the same as an MPI Reduce operation
//! followed by an MPI Scatter".

use std::future::Future;

use crate::comm::Comm;
use crate::reduce::{Numeric, Op};

use super::allgatherv::displs;
use super::{Buf, Coll, Mode, Run, Step};

/// Pairwise reduce-scatter's steps: a send gives a slice of the send
/// vector, whose slice boundaries are `displs` (one more entry than ranks;
/// owned, borrowed, or shared by every rank's steps in a schedule), and a
/// receive folds into the whole receive buffer. `n-1` rounds; in round `s`
/// each rank ships the slice belonging to `(me + s) mod n` and folds the
/// operand for its own slice arriving from `(me - s) mod n`, straight
/// from the wire. Works for any group size and any per-rank counts;
/// bandwidth-optimal (each rank moves `len - own` once).
pub(crate) fn pairwise_steps(me: usize, displs: impl AsRef<[usize]>) -> impl Iterator<Item = Step> {
    let n = displs.as_ref().len() - 1;
    (1..n).map(move |s| {
        let d = displs.as_ref();
        let (dst, src) = ((me + s) % n, (me + n - s) % n);
        Step::at(s - 1)
            .send(dst, d[dst]..d[dst + 1])
            .recv(src, 0..d[me + 1] - d[me])
            .folding(1)
    })
}

/// Step `k` of recursive-halving reduce-scatter on the vector of `len`
/// over a power-of-two group, the first phase of both Rabenseifner
/// algorithms (`reduce::rabenseifner_steps`,
/// `allreduce::rabenseifner_steps`): each of `log2 n` rounds a rank gives
/// the half of its active range that its partner keeps and folds the
/// partner's operand into the half it keeps itself, ending on slice `me`
/// of `n`.
pub(crate) fn recursive_halving_step(me: usize, n: usize, len: usize, k: usize) -> Step {
    let (mut give, mut keep) = (0..0, 0..len);
    for half in (0..=k).map(|j| n >> (j + 1)) {
        let mid = (keep.start + keep.end) / 2;
        (give, keep) = if me & half == 0 {
            (mid..keep.end, keep.start..mid)
        } else {
            (keep.start..mid, mid..keep.end)
        };
    }
    let partner = me ^ (n >> (k + 1));
    Step::at(k)
        .send(partner, give)
        .recv(partner, keep)
        .folding(1)
}

/// Reduce-scatter with per-rank `counts` (pairwise).
pub(crate) fn reduce_scatter<'a, T: Numeric>(
    comm: &'a Comm,
    send: &'a [T],
    recv: &'a mut [T],
    counts: &[usize],
    op: Op,
) -> impl Future<Output = ()> + 'a {
    let n = comm.size();
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
    let steps = pairwise_steps(me, displ);
    let fold = move |acc: &mut [T], x: &[T]| op.fold_into(acc, x);
    Run::new(
        comm,
        Coll::ReduceScatter,
        Mode::Between,
        send,
        Buf::Borrowed(recv),
        steps,
        fold,
    )
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
            block_on(super::reduce_scatter(comm, &send, &mut recv, &counts2, op));
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
