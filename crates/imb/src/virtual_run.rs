//! Virtual execution of the IMB benchmarks: the *real* benchmark code
//! (same per-iteration bodies as [`crate::native`]) running on a
//! modelled machine via [`mp::run_virtual_coop`], timed by virtual
//! clocks. Each rank is a resumable cooperative task, not an OS
//! thread, so virtual worlds scale to tens of thousands of ranks.
//!
//! No virtual clock reads a payload byte and IMB checks no result, so the
//! bodies run over [`mp::Ghost`] words: every send, receive, tag,
//! algorithm choice and length check is the native run's, and no user
//! buffer or message holds memory. (HPCC's virtual mode verifies
//! residuals, so it keeps real words.)
//!
//! This is the third mode beside native timing and schedule-replay
//! simulation; integration tests cross-validate it against
//! [`crate::sim::simulate`], closing the loop between "what the program
//! does" and "what the model prices".

use harness::{Mode, Record, Runner, Stats};
use machines::{Machine, SharedClusterNet};
use mp::{Ghost, Numeric};

use crate::benchmark::{record, Benchmark};
use crate::native::{BenchState, ByteWord};

/// Runs `benchmark` on `procs` ranks of the modelled `machine` with an
/// explicit iteration count.
pub fn run_virtual(
    machine: &Machine,
    benchmark: Benchmark,
    procs: usize,
    bytes: u64,
    iters: usize,
) -> Record {
    assert!(iters > 0);
    run_virtual_with(machine, benchmark, procs, bytes, &Runner::fixed(iters))
}

/// Runs `benchmark` on `procs` ranks of the modelled `machine`,
/// executing the real benchmark code under virtual time, with the
/// iteration count chosen by `runner`'s repetition policy.
///
/// Ranks are cooperative tasks on [`mp::run_virtual_coop`], so world
/// sizes are bounded by memory rather than by OS threads.
pub fn run_virtual_with(
    machine: &Machine,
    benchmark: Benchmark,
    procs: usize,
    bytes: u64,
    runner: &Runner,
) -> Record {
    run_virtual_over::<Ghost<1>, Ghost<8>>(machine, benchmark, procs, bytes, runner)
}

/// [`run_virtual_with`] over real `u8`/`f64` words: every user buffer
/// allocated, every payload copied and reduced, the same record. The
/// oracle the parity tests hold the ghost-word run against; nothing else
/// has a use for it.
#[doc(hidden)]
pub fn run_virtual_with_real_words(
    machine: &Machine,
    benchmark: Benchmark,
    procs: usize,
    bytes: u64,
    runner: &Runner,
) -> Record {
    run_virtual_over::<u8, f64>(machine, benchmark, procs, bytes, runner)
}

fn run_virtual_over<B: ByteWord, F: Numeric>(
    machine: &Machine,
    benchmark: Benchmark,
    procs: usize,
    bytes: u64,
    runner: &Runner,
) -> Record {
    assert!(
        procs >= benchmark.min_procs(),
        "{benchmark} needs more ranks"
    );
    let iters = runner.repetitions(benchmark.sized().then_some(bytes));
    let net = SharedClusterNet::new(machine, procs);
    let (per_rank, _) = mp::run_virtual_coop(procs, Box::new(net), move |comm| async move {
        let mut state = BenchState::<B, F>::new(&comm, benchmark, bytes);
        // Warm-up pass(es), then align clocks and time the loop
        // virtually.
        for w in 0..Runner::WARMUP {
            state.iterate_async(&comm, w).await;
        }
        let t0 = comm.v_sync_async().await;
        for it in 0..iters {
            state.iterate_async(&comm, it).await;
        }
        let t1 = comm.v_sync_async().await;
        (t1 - t0).as_us() / iters as f64
    });
    let stats = Stats::across(&per_rank, iters);
    record(benchmark, Mode::Virtual, machine.name, procs, bytes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machines::systems::{dell_xeon, nec_sx8};

    #[test]
    fn every_benchmark_runs_virtually() {
        let m = dell_xeon();
        for b in Benchmark::ALL {
            let p = b.min_procs().max(4);
            let meas = run_virtual(&m, b, p, 8192, 2);
            assert!(meas.t_max_us() > 0.0, "{b}");
            assert_eq!(meas.mode, Mode::Virtual);
            assert_eq!(meas.machine, m.name);
        }
    }

    #[test]
    fn virtual_times_reflect_the_machine_not_the_host() {
        // The same program on a 10x-faster fabric must report a smaller
        // virtual time, regardless of host speed.
        let sx8 = run_virtual(&nec_sx8(), Benchmark::Allreduce, 8, 1 << 20, 2);
        let xeon = run_virtual(&dell_xeon(), Benchmark::Allreduce, 8, 1 << 20, 2);
        assert!(
            sx8.t_max_us() < xeon.t_max_us() / 2.0,
            "SX-8 {} vs Xeon {}",
            sx8.t_max_us(),
            xeon.t_max_us()
        );
    }

    #[test]
    fn virtual_pingpong_and_barrier_run_at_4096_ranks() {
        // High-rank smoke: 4096 cooperative ranks on the exascale
        // model — far past the host's thread budget, cheap as tasks.
        let m = machines::systems::exascale_cluster();
        for b in [Benchmark::PingPong, Benchmark::Barrier] {
            let rec = run_virtual(&m, b, 4096, 256, 1);
            assert!(rec.t_max_us() > 0.0, "{b}");
            assert_eq!(rec.procs, 4096);
            assert_eq!(rec.mode, Mode::Virtual);
        }
    }

    #[test]
    #[ignore = "release-scale: 65536 ranks; run with --ignored --release"]
    fn virtual_pingpong_runs_at_65536_ranks() {
        let m = machines::systems::exascale_cluster();
        let rec = run_virtual(&m, Benchmark::PingPong, 65_536, 256, 1);
        assert!(rec.t_max_us() > 0.0);
        assert_eq!(rec.procs, 65_536);
    }

    #[test]
    #[ignore = "release-scale: 65536 ranks; run with --ignored --release"]
    fn virtual_barrier_runs_at_65536_ranks() {
        let m = machines::systems::exascale_cluster();
        let rec = run_virtual(&m, Benchmark::Barrier, 65_536, 0, 1);
        assert!(rec.t_max_us() > 0.0);
        assert_eq!(rec.procs, 65_536);
    }

    #[test]
    #[ignore = "release-scale: 256 ranks x 1 MiB blocks; run with --ignored --release"]
    fn virtual_alltoall_1mib_at_256_ranks() {
        // Sizes only: over real words the send and receive buffers alone
        // are 2 x 256 MiB on each of 256 ranks, 128 GiB. CI runs this
        // under a 4 GiB address-space limit.
        let rec = run_virtual(&dell_xeon(), Benchmark::Alltoall, 256, 1 << 20, 1);
        assert!(rec.t_max_us() > 0.0);
        assert_eq!((rec.procs, rec.bytes), (256, Some(1 << 20)));
    }

    #[test]
    fn native_and_virtual_records_share_identity() {
        let native = crate::native::run_native(Benchmark::PingPong, 2, 1024, 2);
        let virt = run_virtual(&dell_xeon(), Benchmark::PingPong, 2, 1024, 2);
        assert_eq!(native.identity(), virt.identity());
        assert_ne!(native.mode, virt.mode);
    }
}
