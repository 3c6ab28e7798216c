//! Vector gather/scatter (`MPI_Gatherv` / `MPI_Scatterv`): rooted
//! collectives with per-rank counts.

use crate::comm::Comm;
use crate::datatype::Word;
use crate::payload::Payload;

use super::alltoallv::displs;

/// Linear gatherv: every rank sends its `counts[rank]`-word block to the
/// root, which assembles them in rank order.
pub async fn gatherv_async<T: Word>(
    comm: &Comm,
    send: &[T],
    recv: Option<&mut [T]>,
    counts: &[usize],
    root: usize,
) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    assert_eq!(counts.len(), n, "one count per rank");
    let me = comm.rank();
    assert_eq!(send.len(), counts[me], "send buffer must match my count");
    let d = displs(counts);
    if me == root {
        let recv = recv.expect("root must supply a receive buffer");
        assert_eq!(recv.len(), d[n], "gatherv receive buffer size mismatch");
        recv[d[root]..d[root + 1]].copy_from_slice(send);
        for r in (0..n).filter(|&r| r != root) {
            comm.recv_into_async(&mut recv[d[r]..d[r + 1]], r, tag)
                .await;
        }
    } else {
        comm.send_payload(Payload::encode(send), root, tag);
    }
}

/// Linear scatterv: the root distributes per-rank blocks.
pub async fn scatterv_async<T: Word>(
    comm: &Comm,
    send: Option<&[T]>,
    recv: &mut [T],
    counts: &[usize],
    root: usize,
) {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    assert_eq!(counts.len(), n, "one count per rank");
    let me = comm.rank();
    assert_eq!(recv.len(), counts[me], "recv buffer must match my count");
    let d = displs(counts);
    if me == root {
        let send = send.expect("root must supply a send buffer");
        assert_eq!(send.len(), d[n], "scatterv send buffer size mismatch");
        for r in (0..n).filter(|&r| r != root) {
            comm.send_payload(Payload::encode(&send[d[r]..d[r + 1]]), r, tag);
        }
        recv.copy_from_slice(&send[d[root]..d[root + 1]]);
    } else {
        comm.recv_into_async(recv, root, tag).await;
    }
}

#[cfg(test)]
mod tests {
    use super::{gatherv_async, scatterv_async};
    use crate::coop::block_on;
    use crate::runtime::run;

    #[test]
    fn gatherv_assembles_in_rank_order() {
        let counts = [2usize, 0, 3, 1];
        let results = run(4, |comm| {
            let me = comm.rank();
            let send: Vec<u32> = (0..counts[me] as u32)
                .map(|i| (me as u32) * 10 + i)
                .collect();
            let mut recv = (me == 1).then(|| vec![0u32; 6]);
            block_on(gatherv_async(comm, &send, recv.as_deref_mut(), &counts, 1));
            recv
        });
        assert_eq!(results[1].as_deref(), Some(&[0u32, 1, 20, 21, 22, 30][..]));
    }

    #[test]
    fn scatterv_distributes_per_rank_blocks() {
        let counts = [1usize, 3, 0, 2];
        let results = run(4, |comm| {
            let me = comm.rank();
            let send: Option<Vec<u32>> = (me == 0).then(|| (0..6u32).collect());
            let mut recv = vec![0u32; counts[me]];
            block_on(scatterv_async(comm, send.as_deref(), &mut recv, &counts, 0));
            recv
        });
        assert_eq!(results[0], vec![0]);
        assert_eq!(results[1], vec![1, 2, 3]);
        assert_eq!(results[2], Vec::<u32>::new());
        assert_eq!(results[3], vec![4, 5]);
    }

    #[test]
    fn gatherv_then_scatterv_roundtrips() {
        let counts = [3usize, 1, 2];
        let results = run(3, |comm| {
            let me = comm.rank();
            let original: Vec<u64> = (0..counts[me] as u64)
                .map(|i| (me as u64) << (8 + i))
                .collect();
            let mut gathered = (me == 2).then(|| vec![0u64; 6]);
            let gather = gatherv_async(comm, &original, gathered.as_deref_mut(), &counts, 2);
            block_on(gather);
            let mut back = vec![0u64; counts[me]];
            let scatter = scatterv_async(comm, gathered.as_deref(), &mut back, &counts, 2);
            block_on(scatter);
            (original, back)
        });
        for (orig, back) in &results {
            assert_eq!(orig, back);
        }
    }

    #[test]
    fn single_rank_degenerate() {
        run(1, |comm| {
            let mut r = vec![0u32; 2];
            block_on(scatterv_async(comm, Some(&[7, 8][..]), &mut r, &[2], 0));
            assert_eq!(r, vec![7, 8]);
            let mut g = Some(vec![0u32; 2]);
            block_on(gatherv_async(comm, &r, g.as_deref_mut(), &[2], 0));
            assert_eq!(g.unwrap(), vec![7, 8]);
        });
    }
}
