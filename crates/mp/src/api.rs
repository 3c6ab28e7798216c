//! High-level collective methods on [`Comm`], dispatching to the
//! auto-selected algorithms in [`crate::coll`].
//!
//! The awaitable method is the body of every operation; the blocking
//! method of the same name is one [`block_on`] around it. So each
//! operation opens its instrumented collective scope (no-op on unchecked
//! runs) in one place: the operation name, root (global rank) and — for
//! operations whose payload shape must agree across ranks — the per-rank
//! byte count are recorded, so the `mpcheck` trace lint can flag
//! call-sequence divergence and root/shape mismatches. Vector variants
//! record no shape (their per-rank counts legitimately differ).

use crate::coll;
use crate::comm::Comm;
use crate::coop::block_on;
use crate::datatype::Word;
use crate::reduce::{Numeric, Op};

/// Byte size of a typed buffer, for collective shape recording.
fn shape_of<T: Word>(buf: &[T]) -> Option<u64> {
    Some((buf.len() * T::SIZE) as u64)
}

impl Comm {
    /// Synchronises all ranks (`MPI_Barrier`).
    pub fn barrier(&self) {
        block_on(self.barrier_async());
    }

    /// Broadcasts `buf` from `root` to every rank (`MPI_Bcast`).
    pub fn bcast<T: Word>(&self, buf: &mut [T], root: usize) {
        block_on(self.bcast_async(buf, root));
    }

    /// Gathers one equal block per rank to `root` (`MPI_Gather`).
    /// `recv` must be `Some` (of length `n * send.len()`) exactly at the root.
    pub fn gather<T: Word>(&self, send: &[T], recv: Option<&mut [T]>, root: usize) {
        block_on(self.gather_async(send, recv, root));
    }

    /// Scatters equal blocks from `root` (`MPI_Scatter`).
    /// `send` must be `Some` (of length `n * recv.len()`) exactly at the root.
    pub fn scatter<T: Word>(&self, send: Option<&[T]>, recv: &mut [T], root: usize) {
        block_on(self.scatter_async(send, recv, root));
    }

    /// Gathers one equal block per rank to every rank (`MPI_Allgather`).
    pub fn allgather<T: Word>(&self, send: &[T], recv: &mut [T]) {
        block_on(self.allgather_async(send, recv));
    }

    /// Vector allgather with per-rank counts (`MPI_Allgatherv`).
    pub fn allgatherv<T: Word>(&self, send: &[T], recv: &mut [T], counts: &[usize]) {
        block_on(self.allgatherv_async(send, recv, counts));
    }

    /// Personalised all-to-all exchange (`MPI_Alltoall`): block `d` of
    /// `send` goes to rank `d`; block `s` of `recv` arrives from rank `s`.
    pub fn alltoall<T: Word>(&self, send: &[T], recv: &mut [T]) {
        block_on(self.alltoall_async(send, recv));
    }

    /// Reduces element-wise to `root` (`MPI_Reduce`).
    /// `recv` must be `Some` exactly at the root.
    pub fn reduce<T: Numeric>(&self, send: &[T], recv: Option<&mut [T]>, root: usize, op: Op) {
        block_on(self.reduce_async(send, recv, root, op));
    }

    /// Reduces element-wise, result on every rank (`MPI_Allreduce`).
    /// Operates in place on `buf`.
    pub fn allreduce<T: Numeric>(&self, buf: &mut [T], op: Op) {
        block_on(self.allreduce_async(buf, op));
    }

    /// Reduce + scatter of equal blocks (`MPI_Reduce_scatter_block`):
    /// `send` holds `n` blocks of `recv.len()`; `recv` gets this rank's
    /// fully-reduced block.
    pub fn reduce_scatter_block<T: Numeric>(&self, send: &[T], recv: &mut [T], op: Op) {
        block_on(self.reduce_scatter_block_async(send, recv, op));
    }

    /// Reduce + scatter with per-rank counts (`MPI_Reduce_scatter`).
    pub fn reduce_scatter<T: Numeric>(&self, send: &[T], recv: &mut [T], counts: &[usize], op: Op) {
        block_on(self.reduce_scatter_async(send, recv, counts, op));
    }

    /// Inclusive prefix reduction (`MPI_Scan`), in place.
    pub fn scan<T: Numeric>(&self, buf: &mut [T], op: Op) {
        block_on(self.scan_async(buf, op));
    }

    /// Exclusive prefix reduction (`MPI_Exscan`), in place; rank 0 gets
    /// the operation's identity.
    pub fn exscan<T: Numeric>(&self, buf: &mut [T], op: Op) {
        block_on(self.exscan_async(buf, op));
    }

    /// Vector all-to-all with per-pair counts (`MPI_Alltoallv`).
    pub fn alltoallv<T: Word>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv: &mut [T],
        recv_counts: &[usize],
    ) {
        block_on(self.alltoallv_async(send, send_counts, recv, recv_counts));
    }

    /// Vector gather with per-rank counts (`MPI_Gatherv`).
    pub fn gatherv<T: Word>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        counts: &[usize],
        root: usize,
    ) {
        block_on(self.gatherv_async(send, recv, counts, root));
    }

    /// Vector scatter with per-rank counts (`MPI_Scatterv`).
    pub fn scatterv<T: Word>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        counts: &[usize],
        root: usize,
    ) {
        block_on(self.scatterv_async(send, recv, counts, root));
    }
}

/// The collective methods' bodies, awaitable so that workloads can run as
/// cooperative tasks (see [`crate::run_coop`] and friends). Inside a
/// cooperative task the blocking methods above panic; these suspend the
/// task at each internal receive instead. On real threads every receive
/// completes synchronously, which is what lets the blocking methods be
/// `block_on` of these.
impl Comm {
    /// Awaitable [`barrier`](Comm::barrier).
    pub async fn barrier_async(&self) {
        let _scope = self.coll_scope("barrier", None, Some(0));
        coll::barrier::auto_async(self).await;
    }

    /// Awaitable [`bcast`](Comm::bcast).
    pub async fn bcast_async<T: Word>(&self, buf: &mut [T], root: usize) {
        let _scope = self.coll_scope("bcast", Some(root), shape_of(buf));
        coll::bcast::auto_async(self, buf, root).await;
    }

    /// Awaitable [`gather`](Comm::gather).
    pub async fn gather_async<T: Word>(&self, send: &[T], recv: Option<&mut [T]>, root: usize) {
        let _scope = self.coll_scope("gather", Some(root), shape_of(send));
        coll::gather::auto_async(self, send, recv, root).await;
    }

    /// Awaitable [`scatter`](Comm::scatter).
    pub async fn scatter_async<T: Word>(&self, send: Option<&[T]>, recv: &mut [T], root: usize) {
        let _scope = self.coll_scope("scatter", Some(root), shape_of(recv));
        coll::scatter::auto_async(self, send, recv, root).await;
    }

    /// Awaitable [`allgather`](Comm::allgather).
    pub async fn allgather_async<T: Word>(&self, send: &[T], recv: &mut [T]) {
        let _scope = self.coll_scope("allgather", None, shape_of(send));
        coll::allgather::auto_async(self, send, recv).await;
    }

    /// Awaitable [`allgatherv`](Comm::allgatherv).
    pub async fn allgatherv_async<T: Word>(&self, send: &[T], recv: &mut [T], counts: &[usize]) {
        let _scope = self.coll_scope("allgatherv", None, None);
        coll::allgatherv::auto_async(self, send, recv, counts).await;
    }

    /// Awaitable [`alltoall`](Comm::alltoall).
    pub async fn alltoall_async<T: Word>(&self, send: &[T], recv: &mut [T]) {
        let _scope = self.coll_scope("alltoall", None, shape_of(send));
        coll::alltoall::auto_async(self, send, recv).await;
    }

    /// Awaitable [`reduce`](Comm::reduce).
    pub async fn reduce_async<T: Numeric>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        root: usize,
        op: Op,
    ) {
        let _scope = self.coll_scope("reduce", Some(root), shape_of(send));
        coll::reduce::auto_async(self, send, recv, root, op).await;
    }

    /// Awaitable [`allreduce`](Comm::allreduce).
    pub async fn allreduce_async<T: Numeric>(&self, buf: &mut [T], op: Op) {
        let _scope = self.coll_scope("allreduce", None, shape_of(buf));
        coll::allreduce::auto_async(self, buf, op).await;
    }

    /// Awaitable [`reduce_scatter_block`](Comm::reduce_scatter_block).
    pub async fn reduce_scatter_block_async<T: Numeric>(&self, send: &[T], recv: &mut [T], op: Op) {
        let _scope = self.coll_scope("reduce_scatter_block", None, shape_of(recv));
        coll::reduce_scatter::block_auto_async(self, send, recv, op).await;
    }

    /// Awaitable [`reduce_scatter`](Comm::reduce_scatter).
    pub async fn reduce_scatter_async<T: Numeric>(
        &self,
        send: &[T],
        recv: &mut [T],
        counts: &[usize],
        op: Op,
    ) {
        let _scope = self.coll_scope("reduce_scatter", None, None);
        coll::reduce_scatter::auto_async(self, send, recv, counts, op).await;
    }

    /// Awaitable [`scan`](Comm::scan).
    pub async fn scan_async<T: Numeric>(&self, buf: &mut [T], op: Op) {
        let _scope = self.coll_scope("scan", None, shape_of(buf));
        coll::scan::auto_async(self, buf, op).await;
    }

    /// Awaitable [`exscan`](Comm::exscan).
    pub async fn exscan_async<T: Numeric>(&self, buf: &mut [T], op: Op) {
        let _scope = self.coll_scope("exscan", None, shape_of(buf));
        coll::scan::exscan_async(self, buf, op).await;
    }

    /// Awaitable [`alltoallv`](Comm::alltoallv).
    pub async fn alltoallv_async<T: Word>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv: &mut [T],
        recv_counts: &[usize],
    ) {
        let _scope = self.coll_scope("alltoallv", None, None);
        coll::alltoallv::auto_async(self, send, send_counts, recv, recv_counts).await;
    }

    /// Awaitable [`gatherv`](Comm::gatherv).
    pub async fn gatherv_async<T: Word>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        counts: &[usize],
        root: usize,
    ) {
        let _scope = self.coll_scope("gatherv", Some(root), None);
        coll::gatherv::gatherv_async(self, send, recv, counts, root).await;
    }

    /// Awaitable [`scatterv`](Comm::scatterv).
    pub async fn scatterv_async<T: Word>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        counts: &[usize],
        root: usize,
    ) {
        let _scope = self.coll_scope("scatterv", Some(root), None);
        coll::gatherv::scatterv_async(self, send, recv, counts, root).await;
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::run;
    use crate::Op;

    /// Smoke-test the whole method surface in one SPMD program, mixing
    /// collectives back-to-back the way real applications do.
    #[test]
    fn collective_method_surface() {
        let n = 6;
        run(n, |comm| {
            let me = comm.rank();

            let mut b = vec![0u64; 4];
            if me == 2 {
                b = vec![9, 8, 7, 6];
            }
            comm.bcast(&mut b, 2);
            assert_eq!(b, vec![9, 8, 7, 6]);

            let mut sum = vec![me as f64];
            comm.allreduce(&mut sum, Op::Sum);
            assert_eq!(sum[0], 15.0);

            let mut all = vec![0u64; n];
            comm.allgather(&[me as u64], &mut all);
            assert_eq!(all, (0..n as u64).collect::<Vec<_>>());

            let send: Vec<u64> = (0..n as u64).map(|d| d * 10 + me as u64).collect();
            let mut recv = vec![0u64; n];
            comm.alltoall(&send, &mut recv);
            let expect: Vec<u64> = (0..n as u64).map(|s| (me as u64) * 10 + s).collect();
            assert_eq!(recv, expect);

            comm.barrier();

            let mut slice = [0.0f64; 2];
            let send: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
            comm.reduce_scatter_block(&send, &mut slice, Op::Sum);
            assert_eq!(slice[0], (2 * me) as f64 * n as f64);
        });
    }

    #[test]
    fn split_into_halves() {
        let n = 8;
        let results = run(n, |comm| {
            let color = (comm.rank() < n / 2) as u32;
            let sub = comm.split(color, comm.rank() as i64);
            let mut x = vec![1u64];
            sub.allreduce(&mut x, Op::Sum);
            (sub.size(), sub.rank(), x[0])
        });
        for (r, (size, sub_rank, count)) in results.iter().enumerate() {
            assert_eq!(*size, n / 2);
            assert_eq!(*count, (n / 2) as u64);
            assert_eq!(*sub_rank, r % (n / 2));
        }
    }

    #[test]
    fn split_with_reversed_keys() {
        let results = run(4, |comm| {
            let sub = comm.split(0, -(comm.rank() as i64));
            sub.rank()
        });
        assert_eq!(results, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dup_has_isolated_tag_space() {
        run(3, |comm| {
            let d = comm.dup();
            // Interleave traffic on both communicators with equal tags.
            if comm.rank() == 0 {
                comm.send(&[1u8], 1, 5);
                d.send(&[2u8], 1, 5);
            } else if comm.rank() == 1 {
                let mut a = [0u8];
                let mut b = [0u8];
                d.recv(&mut b, 0, 5);
                comm.recv(&mut a, 0, 5);
                assert_eq!((a[0], b[0]), (1, 2));
            }
        });
    }
}
