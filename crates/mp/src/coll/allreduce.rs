//! Allreduce (`MPI_Allreduce`, IMB `Allreduce`, paper Fig. 7) — "important
//! for vector norms and time step sizes in time-dependent simulations".

use crate::comm::Comm;
use crate::datatype::{decode, decode_into, encode};
use crate::msg::Tag;
use crate::reduce::{Numeric, Op};

use super::LONG_MSG_THRESHOLD;

/// Folds a non-power-of-two group down to `2^k` participants.
///
/// With `r = n - 2^k` extra ranks, the first `2r` ranks pair up: each odd
/// rank absorbs its even neighbour's vector and partakes in the
/// power-of-two phase; even ranks sit out and get the result afterwards.
/// Returns this rank's participant index, or `None` if it sits out.
struct Fold {
    pow2: usize,
    rem: usize,
}

impl Fold {
    fn new(n: usize) -> Fold {
        let pow2 = if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        };
        Fold {
            pow2,
            rem: n - pow2,
        }
    }

    /// Real rank of participant `newrank`.
    fn oldrank(&self, newrank: usize) -> usize {
        if newrank < self.rem {
            2 * newrank + 1
        } else {
            newrank + self.rem
        }
    }
}

async fn fold_in<T: Numeric>(
    comm: &Comm,
    acc: &mut [T],
    op: Op,
    fold: &Fold,
    tag: Tag,
) -> Option<usize> {
    let me = comm.rank();
    if me < 2 * fold.rem {
        if me.is_multiple_of(2) {
            comm.send_bytes(encode(acc), me + 1, tag);
            None
        } else {
            let operand: Vec<T> = decode(&comm.recv_bytes_async(me - 1, tag).await);
            op.fold_into(acc, &operand);
            Some(me / 2)
        }
    } else {
        Some(me - fold.rem)
    }
}

async fn fold_out<T: Numeric>(
    comm: &Comm,
    acc: &mut [T],
    fold: &Fold,
    tag: Tag,
    participated: bool,
) {
    let me = comm.rank();
    if me < 2 * fold.rem {
        if participated {
            comm.send_bytes(encode(acc), me - 1, tag);
        } else {
            decode_into(&comm.recv_bytes_async(me + 1, tag).await, acc);
        }
    }
}

/// Recursive-doubling allreduce: after the fold, `log2 p` rounds in which
/// participant pairs exchange and combine full vectors. Latency-optimal.
pub fn recursive_doubling<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    crate::coop::block_on(recursive_doubling_async(comm, buf, op));
}

/// Awaitable mirror of [`recursive_doubling`].
pub async fn recursive_doubling_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    if n == 1 {
        return;
    }
    let fold = Fold::new(n);
    let newrank = fold_in(comm, buf, op, &fold, tag).await;

    if let Some(p) = newrank {
        let mut span = 1;
        while span < fold.pow2 {
            let partner = fold.oldrank(p ^ span);
            let bytes = comm
                .sendrecv_bytes_coll_async(encode(buf), partner, partner, tag)
                .await;
            let operand: Vec<T> = decode(&bytes);
            op.fold_into(buf, &operand);
            span <<= 1;
        }
    }
    fold_out(comm, buf, &fold, tag, newrank.is_some()).await;
}

/// Rabenseifner allreduce: after the fold, a recursive-halving
/// reduce-scatter followed by a recursive-doubling allgather among the
/// `2^k` participants. Bandwidth-optimal (`2 * len * (p-1)/p` per rank);
/// the long-vector algorithm in MPI libraries — and the shape the paper's
/// 1 MB Allreduce measurements exercise.
///
/// Requires the vector length to be divisible by the participant count;
/// the dispatcher checks and falls back to [`recursive_doubling`].
pub fn rabenseifner<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    crate::coop::block_on(rabenseifner_async(comm, buf, op));
}

/// Awaitable mirror of [`rabenseifner`].
pub async fn rabenseifner_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    if n == 1 {
        return;
    }
    let fold = Fold::new(n);
    let p = fold.pow2;
    let len = buf.len();
    assert_eq!(len % p, 0, "vector must divide among participants");
    let slice = len / p;
    let newrank = fold_in(comm, buf, op, &fold, tag).await;

    if let Some(v) = newrank {
        // Reduce-scatter by recursive halving.
        let (mut lo, mut hi) = (0usize, len);
        let mut group = p;
        while group > 1 {
            let gbase = v & !(group - 1);
            let mid_rank = gbase + group / 2;
            let mid = (lo + hi) / 2;
            let in_lower = v < mid_rank;
            let partner = fold.oldrank(if in_lower {
                v + group / 2
            } else {
                v - group / 2
            });
            let (keep, give) = if in_lower {
                (lo..mid, mid..hi)
            } else {
                (mid..hi, lo..mid)
            };
            let out = encode(&buf[give]);
            let bytes = comm
                .sendrecv_bytes_coll_async(out, partner, partner, tag)
                .await;
            let operand: Vec<T> = decode(&bytes);
            op.fold_into(&mut buf[keep.clone()], &operand);
            lo = keep.start;
            hi = keep.end;
            group /= 2;
        }
        debug_assert_eq!((lo, hi), (v * slice, (v + 1) * slice));

        // Allgather by recursive doubling (inverse order: smallest spans
        // first so gathered ranges stay contiguous).
        let mut span_ranks = 1;
        while span_ranks < p {
            let partner = fold.oldrank(v ^ span_ranks);
            let base = (v & !(span_ranks - 1)) * slice;
            let pbase = ((v ^ span_ranks) & !(span_ranks - 1)) * slice;
            let count = span_ranks * slice;
            let out = encode(&buf[base..base + count]);
            let bytes = comm
                .sendrecv_bytes_coll_async(out, partner, partner, tag)
                .await;
            decode_into(&bytes, &mut buf[pbase..pbase + count]);
            span_ranks <<= 1;
        }
    }
    fold_out(comm, buf, &fold, tag, newrank.is_some()).await;
}

/// The [`auto`] dispatch test, shared with the `sched::allreduce`
/// generator: Rabenseifner when the vector of `elems` elements is long
/// (`bytes`) and divides evenly over the folded power-of-two group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n > 1 && bytes >= LONG_MSG_THRESHOLD && elems.is_multiple_of(Fold::new(n).pow2)
}

/// Size-dispatched allreduce: Rabenseifner for long divisible vectors,
/// recursive doubling otherwise.
pub fn auto<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    crate::coop::block_on(auto_async(comm, buf, op));
}

/// Awaitable mirror of [`auto`].
pub async fn auto_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    if picks_rabenseifner(comm.size(), buf.len() * T::SIZE, buf.len()) {
        rabenseifner_async(comm, buf, op).await;
    } else {
        recursive_doubling_async(comm, buf, op).await;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use crate::reduce::Op;
    use crate::runtime::run;

    type Algo = fn(&crate::Comm, &mut [f64], Op);

    fn check(n: usize, len: usize, op: Op, algo: Algo) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let mut buf: Vec<f64> = (0..len)
                .map(|i| ((me + 1) * (i + 1)) as f64 * 0.5)
                .collect();
            algo(comm, &mut buf, op);
            buf
        });
        let mut expect = vec![
            match op {
                Op::Sum => 0.0,
                Op::Prod => 1.0,
                Op::Max => f64::NEG_INFINITY,
                Op::Min => f64::INFINITY,
            };
            len
        ];
        for r in 0..n {
            for i in 0..len {
                expect[i] = op.apply(expect[i], ((r + 1) * (i + 1)) as f64 * 0.5);
            }
        }
        for (r, got) in results.iter().enumerate() {
            for i in 0..len {
                assert!(
                    (got[i] - expect[i]).abs() < 1e-9 * expect[i].abs().max(1.0),
                    "rank {r} elem {i}: {} != {}",
                    got[i],
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for n in [1, 2, 4, 8, 16] {
            check(n, 10, Op::Sum, super::recursive_doubling);
        }
    }

    #[test]
    fn recursive_doubling_general_sizes() {
        for n in [3, 5, 6, 7, 11, 13] {
            check(n, 10, Op::Sum, super::recursive_doubling);
        }
    }

    #[test]
    fn recursive_doubling_all_ops() {
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            check(6, 5, op, super::recursive_doubling);
        }
    }

    #[test]
    fn rabenseifner_power_of_two() {
        for n in [2, 4, 8, 16] {
            check(n, 16 * 16, Op::Sum, super::rabenseifner);
        }
    }

    #[test]
    fn rabenseifner_general_sizes() {
        // 240 divides the participant counts for all these n.
        for n in [3, 5, 6, 7, 12] {
            check(n, 240, Op::Sum, super::rabenseifner);
        }
    }

    #[test]
    fn rabenseifner_max() {
        check(8, 64, Op::Max, super::rabenseifner);
    }

    #[test]
    fn auto_dispatches() {
        check(4, 4, Op::Sum, super::auto);
        check(4, 8192, Op::Sum, super::auto);
        check(7, 4096, Op::Sum, super::auto);
    }

    #[test]
    fn allreduce_is_symmetric_across_ranks() {
        let results = run(5, |comm| {
            let mut buf = vec![comm.rank() as f64 + 1.0];
            super::auto(comm, &mut buf, Op::Prod);
            buf[0]
        });
        for v in &results {
            assert_eq!(*v, 120.0);
        }
    }
}
