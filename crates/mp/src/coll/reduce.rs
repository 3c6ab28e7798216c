//! Rooted reduction (`MPI_Reduce`, IMB `Reduce`, paper Fig. 8).

use crate::comm::Comm;
use crate::datatype::{decode, encode};
use crate::reduce::{Numeric, Op};

use super::{binomial_node, halving_tree, unvrank, vrank, LONG_MSG_THRESHOLD};

/// Binomial-tree reduce: the mirror of binomial broadcast. Each node folds
/// its children's full vectors into its accumulator, then forwards to its
/// parent. `ceil(log2 n)` rounds; every edge carries the whole vector.
pub fn binomial<T: Numeric>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize, op: Op) {
    crate::coop::block_on(binomial_async(comm, send, recv, root, op));
}

/// Awaitable mirror of [`binomial`].
pub async fn binomial_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    if n == 1 {
        recv.expect("root must supply a receive buffer")
            .copy_from_slice(send);
        return;
    }
    let v = vrank(me, root, n);
    let node = binomial_node(v);

    let mut acc = send.to_vec();
    // Children of v (in the binomial broadcast tree) send *to* v here.
    // Receive them in reverse round order: the largest subtree needs the
    // most rounds to finish, so it arrives last.
    let mut children = Vec::new();
    let mut k = node.first_send_round;
    while (1usize << k) < n {
        let peer = v + (1 << k);
        if peer < n {
            children.push(peer);
        }
        k += 1;
    }
    for &c in &children {
        let bytes = comm.recv_bytes_async(unvrank(c, root, n), tag).await;
        let operand: Vec<T> = decode(&bytes);
        op.fold_into(&mut acc, &operand);
    }

    if let Some((parent, _)) = node.parent {
        comm.send_bytes(encode(&acc), unvrank(parent, root, n), tag);
    } else {
        recv.expect("root must supply a receive buffer")
            .copy_from_slice(&acc);
    }
}

/// Rabenseifner reduce for long vectors: a recursive-halving
/// reduce-scatter (each rank ends holding one fully-reduced slice) followed
/// by a binomial gather of the slices to the root. Halves the bandwidth
/// term relative to the binomial tree.
///
/// Requires a power-of-two group with the vector length divisible by it;
/// the dispatcher checks and falls back to [`binomial`].
pub fn rabenseifner<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    crate::coop::block_on(rabenseifner_async(comm, send, recv, root, op));
}

/// Awaitable mirror of [`rabenseifner`].
pub async fn rabenseifner_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    let n = comm.size();
    assert!(n.is_power_of_two(), "rabenseifner reduce needs 2^k ranks");
    assert_eq!(send.len() % n, 0, "vector must divide evenly");
    if n == 1 {
        comm.next_coll_tag();
        recv.expect("root must supply a receive buffer")
            .copy_from_slice(send);
        return;
    }
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    let v = vrank(me, root, n);
    let len = send.len();
    let slice = len / n;

    // Phase 1: recursive-halving reduce-scatter over vranks.
    let mut acc = send.to_vec();
    let (mut lo, mut hi) = (0usize, len);
    let mut group = n;
    while group > 1 {
        let gbase = v & !(group - 1);
        let mid_rank = gbase + group / 2;
        let mid = (lo + hi) / 2;
        let in_lower = v < mid_rank;
        let partner_v = if in_lower {
            v + group / 2
        } else {
            v - group / 2
        };
        let (keep, give) = if in_lower {
            (lo..mid, mid..hi)
        } else {
            (mid..hi, lo..mid)
        };
        let out = encode(&acc[give.clone()]);
        let bytes = comm
            .sendrecv_bytes_coll_async(
                out,
                unvrank(partner_v, root, n),
                unvrank(partner_v, root, n),
                tag,
            )
            .await;
        let operand: Vec<T> = decode(&bytes);
        op.fold_into(&mut acc[keep.clone()], &operand);
        lo = keep.start;
        hi = keep.end;
        group /= 2;
    }
    debug_assert_eq!((lo, hi), (v * slice, (v + 1) * slice));

    // Phase 2: binomial gather of the slices to the root (vrank 0).
    let (parent, children) = halving_tree(v, n);
    let hi_rank = parent.as_ref().map(|(_, r)| r.end).unwrap_or(n);
    let mut gathered = vec![T::zero(); (hi_rank - v) * slice];
    gathered[..slice].copy_from_slice(&acc[lo..hi]);
    for (child, range) in children.iter().rev() {
        let bytes = comm.recv_bytes_async(unvrank(*child, root, n), tag).await;
        let operand: Vec<T> = decode(&bytes);
        let off = (range.start - v) * slice;
        gathered[off..off + operand.len()].copy_from_slice(&operand);
    }
    if let Some((p, _)) = parent {
        comm.send_bytes(encode(&gathered), unvrank(p, root, n), tag);
    } else {
        recv.expect("root must supply a receive buffer")
            .copy_from_slice(&gathered);
    }
}

/// The [`auto`] dispatch test, shared with the `sched::reduce`
/// generator: Rabenseifner when the vector of `elems` elements is long
/// (`bytes`) and divides evenly over a power-of-two group.
pub(crate) fn picks_rabenseifner(n: usize, bytes: usize, elems: usize) -> bool {
    n.is_power_of_two() && n > 1 && elems.is_multiple_of(n) && bytes >= LONG_MSG_THRESHOLD
}

/// Size-dispatched reduce: Rabenseifner when the shape allows and the
/// vector is long, binomial otherwise.
pub fn auto<T: Numeric>(comm: &Comm, send: &[T], recv: Option<&mut [T]>, root: usize, op: Op) {
    crate::coop::block_on(auto_async(comm, send, recv, root, op));
}

/// Awaitable mirror of [`auto`].
pub async fn auto_async<T: Numeric>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    root: usize,
    op: Op,
) {
    if picks_rabenseifner(comm.size(), send.len() * T::SIZE, send.len()) {
        rabenseifner_async(comm, send, recv, root, op).await;
    } else {
        binomial_async(comm, send, recv, root, op).await;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use crate::reduce::Op;
    use crate::runtime::run;

    type Algo = fn(&crate::Comm, &[f64], Option<&mut [f64]>, usize, Op);

    fn check(n: usize, len: usize, root: usize, op: Op, algo: Algo) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<f64> = (0..len).map(|i| (me * len + i) as f64 * 0.25).collect();
            let mut recv = (me == root).then(|| vec![0.0f64; len]);
            algo(comm, &send, recv.as_deref_mut(), root, op);
            recv
        });
        // Reference reduction.
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
                expect[i] = op.apply(expect[i], (r * len + i) as f64 * 0.25);
            }
        }
        for (r, got) in results.iter().enumerate() {
            if r == root {
                let got = got.as_ref().unwrap();
                for i in 0..len {
                    assert!(
                        (got[i] - expect[i]).abs() < 1e-9,
                        "rank {r} elem {i}: {} != {}",
                        got[i],
                        expect[i]
                    );
                }
            } else {
                assert!(got.is_none());
            }
        }
    }

    #[test]
    fn binomial_various() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            for root in [0, n - 1] {
                check(n, 8, root, Op::Sum, super::binomial);
            }
        }
    }

    #[test]
    fn binomial_all_ops() {
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            check(5, 6, 2, op, super::binomial);
        }
    }

    #[test]
    fn rabenseifner_matches() {
        for n in [2, 4, 8, 16] {
            for root in [0, n - 1, n / 3] {
                check(n, 16 * n, root, Op::Sum, super::rabenseifner);
            }
        }
    }

    #[test]
    fn rabenseifner_max_op() {
        check(8, 64, 3, Op::Max, super::rabenseifner);
    }

    #[test]
    fn auto_dispatches() {
        check(8, 8, 0, Op::Sum, super::auto); // short -> binomial
        check(8, 8192, 0, Op::Sum, super::auto); // 64 KiB -> rabenseifner
        check(6, 6000, 1, Op::Sum, super::auto); // non-2^k -> binomial
    }
}
