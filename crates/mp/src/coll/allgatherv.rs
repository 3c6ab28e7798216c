//! Allgatherv (`MPI_Allgatherv`, IMB `Allgatherv`, paper Fig. 11): the
//! vector variant of allgather with per-rank block sizes.

use std::future::Future;

use crate::comm::Comm;
use crate::datatype::Word;

use super::{no_fold, Buf, Coll, Mode, Run, Step};

/// Per-rank displacements (prefix sums of `counts`, ending on the total).
pub(crate) fn displs(counts: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut d = vec![0];
    d.extend(counts.into_iter().scan(0, |acc, c| {
        *acc += c;
        Some(*acc)
    }));
    d
}

/// Ring allgatherv's steps over the gathered buffer, whose block
/// boundaries are `displs` (one more entry than ranks; owned, borrowed,
/// or shared by every rank's steps in a schedule).
pub(crate) fn ring_steps(me: usize, displs: impl AsRef<[usize]>) -> impl Iterator<Item = Step> {
    let n = displs.as_ref().len() - 1;
    super::ring_steps(me, n, 0, move |b| {
        let d = displs.as_ref();
        d[b]..d[b + 1]
    })
}

/// Ring allgatherv: identical round structure to the symmetric ring
/// allgather but with per-rank block sizes, which is exactly the "MPI
/// overhead for more complex situations" the IMB Allgatherv benchmark
/// measures relative to Allgather.
pub(crate) fn allgatherv<'a, T: Word>(
    comm: &'a Comm,
    send: &[T],
    recv: &'a mut [T],
    counts: &[usize],
) -> impl Future<Output = ()> + 'a {
    let n = comm.size();
    assert_eq!(counts.len(), n, "one count per rank required");
    let d = displs(counts.iter().copied());
    assert_eq!(recv.len(), d[n], "allgatherv receive buffer size mismatch");
    let me = comm.rank();
    assert_eq!(send.len(), counts[me], "send buffer must match my count");
    recv[d[me]..d[me + 1]].copy_from_slice(send);
    let steps = ring_steps(me, d);
    Run::new(
        comm,
        Coll::Allgatherv,
        Mode::InPlace,
        &[],
        Buf::Borrowed(recv),
        steps,
        no_fold,
    )
}

#[cfg(test)]
mod tests {
    use crate::block_on;
    use crate::runtime::run;

    fn check(counts: Vec<usize>) {
        let n = counts.len();
        let total: usize = counts.iter().sum();
        let counts2 = counts.clone();
        let results = run(n, |comm| {
            let me = comm.rank();
            let send: Vec<u32> = (0..counts2[me] as u32)
                .map(|i| (me as u32) * 100 + i)
                .collect();
            let mut recv = vec![0u32; total];
            block_on(super::allgatherv(comm, &send, &mut recv, &counts2));
            recv
        });
        let expect: Vec<u32> = (0..n)
            .flat_map(|r| (0..counts[r] as u32).map(move |i| (r as u32) * 100 + i))
            .collect();
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &expect, "rank {r} gathered wrong data");
        }
    }

    #[test]
    fn equal_counts_match_allgather_semantics() {
        check(vec![3; 5]);
    }

    #[test]
    fn varying_counts() {
        check(vec![1, 4, 2, 7]);
        check(vec![5, 1, 1, 1, 9, 2, 3]);
    }

    #[test]
    fn zero_counts_allowed() {
        check(vec![0, 3, 0, 2]);
        check(vec![0, 0, 0]);
    }

    #[test]
    fn single_rank() {
        check(vec![4]);
    }

    #[test]
    fn displacements_are_prefix_sums() {
        assert_eq!(super::displs([2, 0, 5]), vec![0, 2, 2, 7]);
        assert_eq!(super::displs([]), vec![0]);
    }
}
