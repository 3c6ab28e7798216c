//! Simulated IMB measurements: the same benchmarks priced on a
//! [`machines::Machine`] model via the schedule generators. This is what
//! regenerates Figs. 6-15.

use harness::{MetricKind, Mode, Record, Stats, Suite};
use machines::{ClusterSim, Machine};
use mp::sched;
use simnet::Schedule;

use crate::benchmark::{bandwidth_mbs_from_secs, Benchmark};

/// The communication schedule of one benchmark invocation.
///
/// Known gap: the native Reduce, Allreduce and Reduce_scatter runs move
/// `bytes / 8` `f64` words, so at the 1-, 2- and 4-byte grid points they
/// execute an empty payload while the Reduce and Allreduce schedules here
/// carry `bytes`. Published records depend on that; see ROADMAP item 12(d).
pub fn schedule_for(benchmark: Benchmark, procs: usize, bytes: u64) -> Schedule {
    match benchmark {
        Benchmark::PingPong => sched::p2p::ping_pong(bytes),
        Benchmark::PingPing => sched::p2p::ping_ping(bytes),
        Benchmark::Sendrecv => sched::p2p::sendrecv(procs, bytes),
        Benchmark::Exchange => sched::p2p::exchange(procs, bytes),
        Benchmark::Barrier => sched::barrier::auto(procs),
        Benchmark::Bcast => sched::bcast::auto(procs, 0, bytes),
        Benchmark::Allgather => sched::allgather::auto(procs, bytes),
        Benchmark::Allgatherv => sched::allgatherv::auto(&vec![bytes; procs]),
        Benchmark::Alltoall => sched::alltoall::auto(procs, bytes),
        Benchmark::Reduce => sched::reduce::auto(procs, 0, bytes, 8),
        Benchmark::Allreduce => sched::allreduce::auto(procs, bytes, 8),
        Benchmark::ReduceScatter => {
            // Mirror the native run exactly (see `imb::native`): the
            // X-byte vector is split as f64 words, `words / p` each with
            // the remainder spread over the leading ranks, and
            // `Comm::reduce_scatter` always dispatches to the pairwise
            // algorithm for per-rank counts.
            let words = bytes / 8;
            let p = procs as u64;
            let counts_bytes: Vec<u64> = (0..p)
                .map(|i| (words / p + u64::from(i < words % p)) * 8)
                .collect();
            sched::reduce_scatter::pairwise(&counts_bytes)
        }
    }
}

/// Prices one benchmark invocation on `machine` at `procs` ranks.
/// Returns a [`Record`] in the same shape as a native run (per-call
/// time; min = avg = max since the model is deterministic).
pub fn simulate(machine: &Machine, benchmark: Benchmark, procs: usize, bytes: u64) -> Record {
    assert!(
        procs >= benchmark.min_procs(),
        "{benchmark} needs more ranks"
    );
    // Single-transfer benchmarks only ever involve the first two ranks.
    let sched_procs = match benchmark.class() {
        crate::benchmark::Class::SingleTransfer => 2,
        _ => procs,
    };
    let sim = ClusterSim::new(machine, sched_procs);
    let schedule = schedule_for(benchmark, sched_procs, bytes);
    // IMB reports the average over many iterations; the cold first pass
    // over-counts start-up skew, so measure the steady-state (marginal)
    // cost of a second pass after a warm-up.
    let warm = sim.run(&schedule);
    let t = sim.run(&schedule) - warm;
    let t_us = t.as_us();

    // The headline bandwidth is computed from `t.as_secs()` directly (not
    // the us-scaled stats) so the figure CSVs stay bit-identical with the
    // pre-harness outputs.
    let metric = benchmark.metric();
    let value = match metric {
        MetricKind::BandwidthMBs => bandwidth_mbs_from_secs(benchmark, bytes, t.as_secs()),
        _ => t_us,
    };

    Record {
        benchmark: benchmark.name(),
        suite: Suite::Imb,
        mode: Mode::Simulated,
        machine: machine.name,
        procs,
        threads: 1,
        bytes: benchmark.sized().then_some(bytes),
        metric,
        value,
        stats: Stats::deterministic(t_us),
        passed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machines::systems::*;
    use simnet::units::MIB;

    #[test]
    fn every_benchmark_simulates_on_every_machine() {
        for m in all_variants() {
            for b in Benchmark::ALL {
                let p = 8.min(m.max_cpus);
                let meas = simulate(&m, b, p, 4096);
                assert!(meas.t_max_us() > 0.0, "{b} on {}", m.name);
            }
        }
    }

    #[test]
    fn fig7_allreduce_vector_systems_win_at_1mb() {
        // "Both vector systems are clearly the winner, with NEC SX-8
        // superior to Cray X1" (Fig. 7); worst is the Opteron/Myrinet.
        let p = 16;
        let sx8 = simulate(&nec_sx8(), Benchmark::Allreduce, p, MIB).t_max_us();
        let x1 = simulate(&cray_x1_msp(), Benchmark::Allreduce, p, MIB).t_max_us();
        let opteron = simulate(&cray_opteron(), Benchmark::Allreduce, p, MIB).t_max_us();
        let xeon = simulate(&dell_xeon(), Benchmark::Allreduce, p, MIB).t_max_us();
        assert!(sx8 < x1, "SX-8 {sx8} !< X1 {x1}");
        assert!(x1 < xeon, "X1 {x1} !< Xeon {xeon}");
        assert!(xeon < opteron, "Xeon {xeon} !< Opteron {opteron}");
    }

    #[test]
    fn fig12_alltoall_ordering_at_1mb() {
        // Fig. 12: NEC SX-8 > Cray X1 > SGI Altix BX2 > Dell Xeon >
        // Cray Opteron (time: smaller is better in that order).
        let p = 16;
        let t = |m: &machines::Machine| simulate(m, Benchmark::Alltoall, p, MIB).t_max_us();
        let sx8 = t(&nec_sx8());
        let x1 = t(&cray_x1_msp());
        let bx2 = t(&altix_bx2());
        let xeon = t(&dell_xeon());
        let opt = t(&cray_opteron());
        assert!(
            sx8 < x1 && x1 < bx2 && bx2 < xeon && xeon < opt,
            "ordering violated: sx8={sx8} x1={x1} bx2={bx2} xeon={xeon} opt={opt}"
        );
    }

    #[test]
    fn fig13_sendrecv_two_proc_anchors() {
        // Paper: SX-8 47.4 GB/s, Cray X1 (SSP) 7.6 GB/s at 2 processes.
        let sx8 = simulate(&nec_sx8(), Benchmark::Sendrecv, 2, MIB)
            .bandwidth_mbs()
            .unwrap();
        assert!((sx8 - 47_400.0).abs() / 47_400.0 < 0.2, "SX-8 {sx8} MB/s");
        let x1 = simulate(&cray_x1_ssp(), Benchmark::Sendrecv, 2, MIB)
            .bandwidth_mbs()
            .unwrap();
        assert!((x1 - 7_600.0).abs() / 7_600.0 < 0.25, "X1 SSP {x1} MB/s");
    }

    #[test]
    fn fig6_barrier_grows_with_procs() {
        let m = dell_xeon();
        let t8 = simulate(&m, Benchmark::Barrier, 8, 0).t_max_us();
        let t128 = simulate(&m, Benchmark::Barrier, 128, 0).t_max_us();
        assert!(t128 > t8);
    }
}
