//! The collective methods of [`Comm`].
//!
//! Every operation has one form, awaitable: a cooperative task awaits it,
//! and a rank thread's body awaits it too, polled by the
//! [`block_on`](crate::block_on) that drives the whole body. There is no
//! blocking twin below a world's door. A method picks its algorithm
//! synchronously, with the `picks_*` predicate the operation's schedule
//! generator asks too, and returns the algorithm's
//! [`Run`](crate::coll::Run): one future, which at its first poll takes
//! the call's tag and opens its instrumented scope (no-op on unchecked
//! runs). The scope records the operation name, root (global rank) and —
//! for operations whose payload shape must agree across ranks — the
//! per-rank byte count, so the `mpcheck` trace lint can flag
//! call-sequence divergence and root/shape mismatches. Vector variants
//! record no shape (their per-rank counts legitimately differ).

use std::future::Future;

use crate::coll;
use crate::comm::Comm;
use crate::datatype::Word;
use crate::reduce::{Numeric, Op};

impl Comm {
    /// Synchronises all ranks (`MPI_Barrier`).
    pub fn barrier_async(&self) -> impl Future<Output = ()> + '_ {
        coll::barrier::barrier(self)
    }

    /// Broadcasts `buf` from `root` to every rank (`MPI_Bcast`).
    pub fn bcast_async<'a, T: Word>(
        &'a self,
        buf: &'a mut [T],
        root: usize,
    ) -> impl Future<Output = ()> + 'a {
        let long = coll::bcast::picks_scatter_allgather(self.size(), buf.len() * T::SIZE);
        coll::bcast::bcast(self, buf, root, long)
    }

    /// Gathers one equal block per rank to every rank (`MPI_Allgather`).
    pub fn allgather_async<'a, T: Word>(
        &'a self,
        send: &'a [T],
        recv: &'a mut [T],
    ) -> impl Future<Output = ()> + 'a {
        let doubling = coll::allgather::picks_recursive_doubling(self.size(), send.len() * T::SIZE);
        coll::allgather::allgather(self, send, recv, doubling)
    }

    /// Vector allgather with per-rank counts (`MPI_Allgatherv`).
    pub fn allgatherv_async<'a, T: Word>(
        &'a self,
        send: &[T],
        recv: &'a mut [T],
        counts: &[usize],
    ) -> impl Future<Output = ()> + 'a {
        coll::allgatherv::allgatherv(self, send, recv, counts)
    }

    /// Personalised all-to-all exchange (`MPI_Alltoall`): block `d` of
    /// `send` goes to rank `d`; block `s` of `recv` arrives from rank `s`.
    pub fn alltoall_async<'a, T: Word>(
        &'a self,
        send: &'a [T],
        recv: &'a mut [T],
    ) -> impl Future<Output = ()> + 'a {
        let n = self.size();
        let bruck = coll::alltoall::picks_bruck(n, send.len() / n * T::SIZE);
        coll::alltoall::alltoall(self, send, recv, bruck)
    }

    /// Reduces element-wise to `root` (`MPI_Reduce`).
    /// `recv` must be `Some` exactly at the root.
    pub fn reduce_async<'a, T: Numeric>(
        &'a self,
        send: &'a [T],
        recv: Option<&'a mut [T]>,
        root: usize,
        op: Op,
    ) -> impl Future<Output = ()> + 'a {
        let long = coll::reduce::picks_rabenseifner(self.size(), send.len() * T::SIZE, send.len());
        coll::reduce::reduce(self, send, recv, root, op, long)
    }

    /// Reduces element-wise, result on every rank (`MPI_Allreduce`).
    /// Operates in place on `buf`.
    pub fn allreduce_async<'a, T: Numeric>(
        &'a self,
        buf: &'a mut [T],
        op: Op,
    ) -> impl Future<Output = ()> + 'a {
        let long = coll::allreduce::picks_rabenseifner(self.size(), buf.len() * T::SIZE, buf.len());
        coll::allreduce::allreduce(self, buf, op, long)
    }

    /// Reduce + scatter with per-rank counts (`MPI_Reduce_scatter`).
    pub fn reduce_scatter_async<'a, T: Numeric>(
        &'a self,
        send: &'a [T],
        recv: &'a mut [T],
        counts: &[usize],
        op: Op,
    ) -> impl Future<Output = ()> + 'a {
        coll::reduce_scatter::reduce_scatter(self, send, recv, counts, op)
    }
}

#[cfg(test)]
mod tests {
    use crate::block_on;
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
            block_on(comm.bcast_async(&mut b, 2));
            assert_eq!(b, vec![9, 8, 7, 6]);

            let mut sum = vec![me as f64];
            block_on(comm.allreduce_async(&mut sum, Op::Sum));
            assert_eq!(sum[0], 15.0);

            let mut all = vec![0u64; n];
            block_on(comm.allgather_async(&[me as u64], &mut all));
            assert_eq!(all, (0..n as u64).collect::<Vec<_>>());

            let send: Vec<u64> = (0..n as u64).map(|d| d * 10 + me as u64).collect();
            let mut recv = vec![0u64; n];
            block_on(comm.alltoall_async(&send, &mut recv));
            let expect: Vec<u64> = (0..n as u64).map(|s| (me as u64) * 10 + s).collect();
            assert_eq!(recv, expect);

            block_on(comm.barrier_async());

            let mut slice = [0.0f64; 2];
            let send: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
            block_on(comm.reduce_scatter_async(&send, &mut slice, &vec![2; n], Op::Sum));
            assert_eq!(slice[0], (2 * me) as f64 * n as f64);
        });
    }

    #[test]
    fn split_into_halves() {
        let n = 8;
        let results = run(n, |comm| {
            let color = (comm.rank() < n / 2) as u32;
            let sub = block_on(comm.split_async(color, comm.rank() as i64));
            let mut x = vec![1u64];
            block_on(sub.allreduce_async(&mut x, Op::Sum));
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
            let sub = block_on(comm.split_async(0, -(comm.rank() as i64)));
            sub.rank()
        });
        assert_eq!(results, vec![3, 2, 1, 0]);
    }

    /// A one-colour split has the parent's group and a tag space of its own.
    #[test]
    fn split_has_isolated_tag_space() {
        run(3, |comm| {
            let d = block_on(comm.split_async(0, comm.rank() as i64));
            // Interleave traffic on both communicators with equal tags.
            if comm.rank() == 0 {
                comm.send(&[1u8], 1, 5);
                d.send(&[2u8], 1, 5);
            } else if comm.rank() == 1 {
                let mut a = [0u8];
                let mut b = [0u8];
                block_on(d.recv_async(&mut b, 0, 5));
                block_on(comm.recv_async(&mut a, 0, 5));
                assert_eq!((a[0], b[0]), (1, 2));
            }
        });
    }
}
