//! Inclusive prefix reduction (`MPI_Scan`).
//!
//! Not benchmarked by the paper but part of the MPI collective family the
//! runtime exposes; the ordered fold also exercises non-commutative-safe
//! operand ordering, which the tests rely on.

// Index-heavy numeric code: explicit indices mirror the maths.
#![allow(clippy::needless_range_loop)]

use crate::comm::Comm;
use crate::payload::Payload;
use crate::reduce::{Numeric, Op};

use super::{ceil_log2, Step};

/// [`linear_async`]'s steps on the vector of `len`: fold the prefix arriving
/// from the left, pass the result right a round later.
pub(crate) fn linear_steps(me: usize, n: usize, len: usize) -> impl Iterator<Item = Step> {
    let prefix = (me > 0).then(|| Step::at(me - 1).recv(me - 1, 0..len).folding(1));
    let pass = (me + 1 < n).then(|| Step::at(me).send(me + 1, 0..len));
    prefix.into_iter().chain(pass)
}

/// Linear scan: a pipeline along the rank order. `n-1` serial steps.
pub async fn linear_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let tag = comm.next_coll_tag();
    for step in linear_steps(comm.rank(), comm.size(), buf.len()) {
        if let Some((src, _)) = step.recv {
            // Ordered: earlier ranks' contribution on the left.
            let mut acc: Vec<T> = comm.recv_vec_async(src, tag).await;
            op.fold_into(&mut acc, buf);
            buf.copy_from_slice(&acc);
        }
        if let Some((dst, _)) = step.send {
            comm.send_payload(Payload::encode(buf), dst, tag);
        }
    }
}

/// [`recursive_doubling_async`]'s steps on the vector of `len`: round `k` ships
/// the partial `2^k` ranks right; a receiver folds it twice, into its
/// result and into its partial.
pub(crate) fn recursive_doubling_steps(
    me: usize,
    n: usize,
    len: usize,
) -> impl Iterator<Item = Step> {
    (0..ceil_log2(n)).map(move |k| {
        let d = 1 << k;
        Step {
            round: k,
            send: (me + d < n).then(|| (me + d, 0..len)),
            recv: (me >= d).then(|| (me - d, 0..len)),
            folds: if me >= d { 2 } else { 0 },
        }
    })
}

/// Recursive-doubling scan: `ceil(log2 n)` rounds. Each rank keeps its
/// inclusive prefix `result` and the segment aggregate `partial`; round `d`
/// ships `partial` a distance `d` to the right.
pub async fn recursive_doubling_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let tag = comm.next_coll_tag();
    let mut partial = buf.to_vec();
    for step in recursive_doubling_steps(comm.rank(), comm.size(), buf.len()) {
        if let Some((dst, _)) = step.send {
            comm.send_payload(Payload::encode(&partial), dst, tag);
        }
        if let Some((src, _)) = step.recv {
            let incoming: Vec<T> = comm.recv_vec_async(src, tag).await;
            // incoming covers ranks [me-2d+1 ..= me-d]; keep it on the left.
            let mut r = incoming.clone();
            op.fold_into(&mut r, buf);
            buf.copy_from_slice(&r);
            let mut p = incoming;
            op.fold_into(&mut p, &partial);
            partial = p;
        }
    }
}

/// The default scan (recursive doubling).
pub async fn auto_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    recursive_doubling_async(comm, buf, op).await;
}

/// Exclusive prefix reduction (`MPI_Exscan`): rank `r` receives the
/// reduction of ranks `0..r`; rank 0's buffer is left as the operation's
/// identity (undefined in MPI; the identity is the useful convention).
pub async fn exscan_async<T: Numeric>(comm: &Comm, buf: &mut [T], op: Op) {
    let me = comm.rank();
    // Inclusive scan of the original contribution, then shift by
    // combining with the inverse... reductions are not invertible in
    // general, so implement directly: run the doubling scan on a copy and
    // exchange: rank r's exclusive result is rank r-1's inclusive one.
    // One extra ring hop keeps it simple and allocation-light.
    let tag = comm.next_coll_tag();
    recursive_doubling_async(comm, buf, op).await;
    let n = comm.size();
    if n == 1 {
        fill_identity(buf, op);
        return;
    }
    if me + 1 < n {
        comm.send_payload(Payload::encode(buf), me + 1, tag);
    }
    if me > 0 {
        comm.recv_into_async(buf, me - 1, tag).await;
    } else {
        fill_identity(buf, op);
    }
}

fn fill_identity<T: Numeric>(buf: &mut [T], op: Op) {
    if let Some(id) = op.identity::<T>() {
        buf.fill(id);
    }
}

#[cfg(test)]
mod tests {
    use crate::coop::block_on;
    use crate::reduce::Op;
    use crate::runtime::run;
    use crate::Comm;

    fn check(n: usize, len: usize, op: Op, algo: impl AsyncFn(&Comm, &mut [f64], Op) + Sync) {
        let results = run(n, |comm| {
            let me = comm.rank();
            let mut buf: Vec<f64> = (0..len).map(|i| ((me + 2) * (i + 1)) as f64).collect();
            block_on(algo(comm, &mut buf, op));
            buf
        });
        for (r, got) in results.iter().enumerate() {
            for i in 0..len {
                let mut e = ((2) * (i + 1)) as f64;
                for s in 1..=r {
                    e = op.apply(e, ((s + 2) * (i + 1)) as f64);
                }
                assert!(
                    (got[i] - e).abs() < 1e-9 * e.abs().max(1.0),
                    "rank {r} elem {i}: {} != {e}",
                    got[i]
                );
            }
        }
    }

    #[test]
    fn linear_various() {
        for n in [1, 2, 3, 5, 8] {
            check(n, 4, Op::Sum, super::linear_async);
        }
    }

    #[test]
    fn recursive_doubling_various() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            check(n, 4, Op::Sum, super::recursive_doubling_async);
        }
    }

    #[test]
    fn scan_max() {
        check(7, 3, Op::Max, super::recursive_doubling_async);
        check(7, 3, Op::Min, super::linear_async);
    }

    #[test]
    fn exscan_shifts_the_inclusive_scan() {
        let results = run(5, |comm| {
            let mut inc = vec![(comm.rank() + 1) as f64];
            block_on(super::auto_async(comm, &mut inc, Op::Sum));
            let mut exc = vec![(comm.rank() + 1) as f64];
            block_on(super::exscan_async(comm, &mut exc, Op::Sum));
            (inc[0], exc[0])
        });
        // exc[r] == inc[r-1]; exc[0] == 0 (Sum identity).
        assert_eq!(results[0].1, 0.0);
        for r in 1..5 {
            assert_eq!(results[r].1, results[r - 1].0, "rank {r}");
        }
    }

    #[test]
    fn rank_zero_keeps_its_data() {
        let results = run(4, |comm| {
            let mut buf = vec![(comm.rank() + 1) as f64];
            block_on(super::auto_async(comm, &mut buf, Op::Sum));
            buf[0]
        });
        assert_eq!(results, vec![1.0, 3.0, 6.0, 10.0]);
    }
}
