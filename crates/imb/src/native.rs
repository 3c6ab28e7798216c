//! Native execution of the IMB benchmarks on the `mp` runtime, following
//! IMB's measurement conventions via the shared [`harness::Runner`]:
//! warm-up, barrier-synchronised timed loop, per-rank average with
//! min/avg/max reported across ranks, and root rotation for rooted
//! collectives. Results come back as unified [`Record`]s.

use harness::{Mode, Record, Runner};
use mp::{Comm, Ghost, Numeric, Op, Tag};

use crate::benchmark::{record, Benchmark};

/// Runs one benchmark natively over a fresh `procs`-rank world with an
/// explicit iteration count.
pub fn run_native(benchmark: Benchmark, procs: usize, bytes: u64, iters: usize) -> Record {
    assert!(iters > 0, "need at least one iteration");
    run_native_with(benchmark, procs, bytes, &Runner::fixed(iters))
}

/// Runs one benchmark natively over a fresh `procs`-rank world, with the
/// iteration count chosen by `runner`'s repetition policy.
pub fn run_native_with(benchmark: Benchmark, procs: usize, bytes: u64, runner: &Runner) -> Record {
    assert!(
        procs >= benchmark.min_procs(),
        "{benchmark} needs more ranks"
    );
    let runner = *runner;
    let results = mp::run(procs, move |comm| {
        run_on_with(comm, benchmark, bytes, &runner)
    });
    results[0]
}

/// Runs one benchmark on an existing communicator with an explicit
/// iteration count. Collective across the communicator; every rank
/// returns the same record.
pub fn run_on(comm: &Comm, benchmark: Benchmark, bytes: u64, iters: usize) -> Record {
    assert!(iters > 0, "need at least one iteration");
    run_on_with(comm, benchmark, bytes, &Runner::fixed(iters))
}

/// Runs one benchmark on an existing communicator, with the iteration
/// count chosen by `runner`'s repetition policy (IMB's 1000/640/80/20
/// rule under [`Runner::standard`], scaled down under [`Runner::smoke`]).
pub fn run_on_with(comm: &Comm, benchmark: Benchmark, bytes: u64, runner: &Runner) -> Record {
    let iters = runner.repetitions(benchmark.sized().then_some(bytes));
    let mut state = BenchState::<u8, f64>::new(comm, benchmark, bytes);
    let per_call = runner.time_collective(comm, iters, |it| state.iterate(comm, it));
    let participated = state.participates(comm);
    let stats = Runner::rank_stats(comm, per_call, participated, iters);
    record(benchmark, Mode::Native, "host", comm.size(), bytes, stats)
}

/// The byte-sized word of the transfer benchmarks: how one opaque
/// `MPI_BYTE` buffer of them is sent and received.
pub(crate) trait ByteWord: Numeric {
    fn send(comm: &Comm, buf: &[Self], dst: usize, tag: Tag);
    async fn recv(comm: &Comm, buf: &mut Vec<Self>, src: usize, tag: Tag);
}

/// Real bytes take the raw path: one payload copy on the send side,
/// ownership transfer on the receive side.
impl ByteWord for u8 {
    fn send(comm: &Comm, buf: &[u8], dst: usize, tag: Tag) {
        comm.send_raw(buf, dst, tag);
    }
    async fn recv(comm: &Comm, buf: &mut Vec<u8>, src: usize, tag: Tag) {
        comm.recv_raw_async(buf, src, tag).await;
    }
}

/// Ghost bytes have nothing to copy or own, so they take the typed path;
/// under virtual time, where they are used, every send is eager and the
/// two paths are priced alike.
impl ByteWord for Ghost<1> {
    fn send(comm: &Comm, buf: &[Self], dst: usize, tag: Tag) {
        comm.send(buf, dst, tag);
    }
    async fn recv(comm: &Comm, buf: &mut Vec<Self>, src: usize, tag: Tag) {
        comm.recv_async(buf, src, tag).await;
    }
}

/// Preallocated buffers + the per-iteration body for one benchmark, over
/// a byte word `B` and a float word `F`: `u8` and `f64` natively,
/// [`Ghost`]s of their sizes under virtual time, where the same body then
/// moves lengths only.
pub(crate) struct BenchState<B, F> {
    benchmark: Benchmark,
    sbuf: Vec<B>,
    rbuf: Vec<B>,
    fsend: Vec<F>,
    frecv: Vec<F>,
    counts: Vec<usize>,
}

impl<B: ByteWord, F: Numeric> BenchState<B, F> {
    pub(crate) fn new(comm: &Comm, benchmark: Benchmark, bytes: u64) -> Self {
        let n = comm.size();
        let bytes = bytes as usize;
        let words = bytes / F::SIZE;
        let (one, zero) = (B::one(), B::zero());
        let (sbuf, rbuf, fsend, frecv, counts) = match benchmark {
            // Only the first two ranks take part; an idle rank that
            // allocated too would cost a 65536-rank world 128 GiB at 1 MiB.
            Benchmark::PingPong | Benchmark::PingPing if comm.rank() >= 2 => {
                (vec![], vec![], vec![], vec![], vec![])
            }
            Benchmark::PingPong
            | Benchmark::PingPing
            | Benchmark::Sendrecv
            | Benchmark::Exchange => (vec![one; bytes], vec![zero; bytes], vec![], vec![], vec![]),
            Benchmark::Barrier => (vec![], vec![], vec![], vec![], vec![]),
            Benchmark::Bcast => (vec![one; bytes], vec![], vec![], vec![], vec![]),
            Benchmark::Allgather | Benchmark::Allgatherv => (
                vec![one; bytes],
                vec![zero; bytes * n],
                vec![],
                vec![],
                vec![bytes; n],
            ),
            Benchmark::Alltoall => (
                vec![one; bytes * n],
                vec![zero; bytes * n],
                vec![],
                vec![],
                vec![],
            ),
            Benchmark::Reduce | Benchmark::Allreduce => (
                vec![],
                vec![],
                vec![F::one(); words],
                vec![F::zero(); words],
                vec![],
            ),
            Benchmark::ReduceScatter => {
                // X bytes reduced, X/N scattered; distribute remainders.
                let counts: Vec<usize> = (0..n)
                    .map(|i| words / n + usize::from(i < words % n))
                    .collect();
                let mine = counts[comm.rank()];
                (
                    vec![],
                    vec![],
                    vec![F::one(); words],
                    vec![F::zero(); mine],
                    counts,
                )
            }
        };
        BenchState {
            benchmark,
            sbuf,
            rbuf,
            fsend,
            frecv,
            counts,
        }
    }

    /// Whether this rank takes part (single-transfer benchmarks only use
    /// the first two ranks; everything else is communicator-wide).
    fn participates(&self, comm: &Comm) -> bool {
        match self.benchmark {
            Benchmark::PingPong | Benchmark::PingPing => comm.rank() < 2,
            _ => true,
        }
    }

    fn iterate(&mut self, comm: &Comm, iter: usize) {
        mp::block_on(self.iterate_async(comm, iter));
    }

    /// One iteration, as a cooperative rank task.
    pub(crate) async fn iterate_async(&mut self, comm: &Comm, iter: usize) {
        let n = comm.size();
        let me = comm.rank();
        const TAG: Tag = 40;
        match self.benchmark {
            // The transfer benchmarks move opaque `MPI_BYTE` buffers, the
            // way their byte word says (see `ByteWord`).
            Benchmark::PingPong => {
                if me == 0 {
                    B::send(comm, &self.sbuf, 1, TAG);
                    B::recv(comm, &mut self.rbuf, 1, TAG).await;
                } else if me == 1 {
                    B::recv(comm, &mut self.rbuf, 0, TAG).await;
                    B::send(comm, &self.sbuf, 0, TAG);
                }
            }
            Benchmark::PingPing => {
                if me < 2 {
                    let peer = 1 - me;
                    B::send(comm, &self.sbuf, peer, TAG);
                    B::recv(comm, &mut self.rbuf, peer, TAG).await;
                }
            }
            Benchmark::Sendrecv => {
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                B::send(comm, &self.sbuf, right, TAG);
                B::recv(comm, &mut self.rbuf, left, TAG).await;
            }
            Benchmark::Exchange => {
                // IMB semantics: both receives are pre-posted before the
                // sends, so incoming payloads match the posted-receive
                // table directly instead of queueing.
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                let from_left = comm.irecv(left, TAG);
                let from_right = comm.irecv(right, TAG);
                comm.isend(&self.sbuf, left, TAG);
                comm.isend(&self.sbuf, right, TAG);
                from_left.wait_async(comm, &mut self.rbuf).await;
                from_right.wait_async(comm, &mut self.rbuf).await;
            }
            Benchmark::Barrier => comm.barrier_async().await,
            Benchmark::Bcast => comm.bcast_async(&mut self.sbuf, iter % n).await,
            Benchmark::Allgather => comm.allgather_async(&self.sbuf, &mut self.rbuf).await,
            Benchmark::Allgatherv => {
                comm.allgatherv_async(&self.sbuf, &mut self.rbuf, &self.counts)
                    .await
            }
            Benchmark::Alltoall => comm.alltoall_async(&self.sbuf, &mut self.rbuf).await,
            Benchmark::Reduce => {
                let root = iter % n;
                let recv = (me == root).then_some(self.frecv.as_mut_slice());
                comm.reduce_async(&self.fsend, recv, root, Op::Sum).await;
            }
            Benchmark::Allreduce => {
                self.frecv.copy_from_slice(&self.fsend);
                comm.allreduce_async(&mut self.frecv, Op::Sum).await;
            }
            Benchmark::ReduceScatter => {
                comm.reduce_scatter_async(&self.fsend, &mut self.frecv, &self.counts, Op::Sum)
                    .await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use harness::MetricKind;

    #[test]
    fn every_benchmark_runs_natively() {
        for b in Benchmark::ALL {
            let p = b.min_procs().max(4);
            let m = run_native(b, p, 4096, 3);
            assert!(m.t_max_us() > 0.0, "{b}: zero time");
            assert!(m.stats.is_ordered(), "{b}");
            assert_eq!(m.procs, p);
            assert_eq!(m.mode, Mode::Native);
            assert_eq!(m.benchmark, b.name());
            match b.metric() {
                MetricKind::BandwidthMBs => assert!(m.bandwidth_mbs().unwrap() > 0.0, "{b}"),
                _ => assert!(m.bandwidth_mbs().is_none(), "{b}"),
            }
        }
    }

    #[test]
    fn zero_byte_messages_work() {
        for b in [Benchmark::PingPong, Benchmark::Bcast, Benchmark::Alltoall] {
            let m = run_native(b, 2, 0, 2);
            assert!(m.t_max_us() >= 0.0);
        }
    }

    #[test]
    fn reduce_scatter_with_indivisible_sizes() {
        // 100 words over 3 ranks: counts 34/33/33.
        let m = run_native(Benchmark::ReduceScatter, 3, 800, 2);
        assert!(m.t_max_us() > 0.0);
    }

    #[test]
    fn barrier_ignores_message_size() {
        let m = run_native(Benchmark::Barrier, 4, 0, 5);
        assert!(m.t_max_us() > 0.0);
        assert_eq!(m.bytes, None);
    }

    #[test]
    fn pingpong_idle_ranks_allocate_nothing() {
        for b in [Benchmark::PingPong, Benchmark::PingPing] {
            let out = mp::run(4, move |comm| {
                let state = BenchState::<u8, f64>::new(comm, b, 1024);
                let empty = state.sbuf.capacity() == 0 && state.rbuf.capacity() == 0;
                assert_eq!(empty, !state.participates(comm));
                (empty, run_on(comm, b, 1024, 3))
            });
            let empty: Vec<bool> = out.iter().map(|(empty, _)| *empty).collect();
            assert_eq!(empty, [false, false, true, true], "{b}");
            // Idle ranks never touched their buffers: the record is the
            // one every rank has always returned.
            for (_, rec) in &out {
                assert_eq!((rec.procs, rec.bytes), (4, Some(1024)), "{b}");
                assert!(rec.t_min_us() > 0.0, "{b}");
            }
        }
    }

    #[test]
    fn pingpong_only_times_first_two_ranks() {
        let m = run_native(Benchmark::PingPong, 4, 1024, 3);
        assert!(m.t_min_us() > 0.0, "idle ranks must not drag the min to 0");
    }

    #[test]
    fn runner_policy_sets_the_iteration_count() {
        let m = run_native_with(Benchmark::Bcast, 2, 4 << 20, &Runner::smoke());
        assert_eq!(m.stats.repetitions, 3, "smoke rule at 4 MiB");
    }
}
