//! The IMB 2.3 benchmark catalogue used in the paper: two single-transfer
//! benchmarks, two parallel-transfer benchmarks and the collective
//! benchmarks of Figs. 6-15.

use std::fmt;

use harness::{MetricKind, Mode, Record, Stats, Suite};

/// An Intel MPI Benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Single transfer: strict ping-pong between two processes.
    PingPong,
    /// Single transfer: ping-pong "obstructed by oncoming messages".
    PingPing,
    /// Parallel transfer: periodic chain, send right / receive left.
    Sendrecv,
    /// Parallel transfer: exchange with both chain neighbours.
    Exchange,
    /// Collective: `MPI_Barrier`.
    Barrier,
    /// Collective: `MPI_Bcast`.
    Bcast,
    /// Collective: `MPI_Allgather`.
    Allgather,
    /// Collective: `MPI_Allgatherv`.
    Allgatherv,
    /// Collective: `MPI_Alltoall`.
    Alltoall,
    /// Collective: `MPI_Reduce`.
    Reduce,
    /// Collective: `MPI_Allreduce`.
    Allreduce,
    /// Collective: `MPI_Reduce_scatter`.
    ReduceScatter,
}

/// IMB benchmark classification (paper Section 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Single Transfer Benchmarks: one message between two processes.
    SingleTransfer,
    /// Parallel Transfer Benchmarks: concurrent pattern activity.
    ParallelTransfer,
    /// Collective Benchmarks: all processes participate.
    Collective,
}

impl Benchmark {
    /// All benchmarks, in the paper's presentation order (the "11 MPI
    /// communication functions", plus PingPing which IMB bundles with
    /// PingPong as the second single-transfer case).
    pub const ALL: [Benchmark; 12] = [
        Benchmark::PingPong,
        Benchmark::PingPing,
        Benchmark::Sendrecv,
        Benchmark::Exchange,
        Benchmark::Barrier,
        Benchmark::Bcast,
        Benchmark::Allgather,
        Benchmark::Allgatherv,
        Benchmark::Alltoall,
        Benchmark::Reduce,
        Benchmark::Allreduce,
        Benchmark::ReduceScatter,
    ];

    /// The benchmark's IMB class.
    pub fn class(self) -> Class {
        match self {
            Benchmark::PingPong | Benchmark::PingPing => Class::SingleTransfer,
            Benchmark::Sendrecv | Benchmark::Exchange => Class::ParallelTransfer,
            _ => Class::Collective,
        }
    }

    /// What the paper's figure for this benchmark plots.
    pub fn metric(self) -> MetricKind {
        match self {
            Benchmark::PingPong
            | Benchmark::PingPing
            | Benchmark::Sendrecv
            | Benchmark::Exchange => MetricKind::BandwidthMBs,
            _ => MetricKind::TimeUs,
        }
    }

    /// Whether the benchmark takes a message size (Barrier does not).
    pub fn sized(self) -> bool {
        self != Benchmark::Barrier
    }

    /// Minimum number of processes.
    pub fn min_procs(self) -> usize {
        match self.class() {
            Class::SingleTransfer => 2,
            _ => 1,
        }
    }

    /// IMB's bandwidth accounting: payload multiplier per reported byte
    /// (PingPong 1x, Sendrecv 2x, Exchange 4x).
    pub(crate) fn bandwidth_factor(self) -> f64 {
        match self {
            Benchmark::PingPong | Benchmark::PingPing => 1.0,
            Benchmark::Sendrecv => 2.0,
            Benchmark::Exchange => 4.0,
            _ => 0.0,
        }
    }

    /// The benchmark's IMB name (also the [`Record::benchmark`] identity).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::PingPong => "PingPong",
            Benchmark::PingPing => "PingPing",
            Benchmark::Sendrecv => "Sendrecv",
            Benchmark::Exchange => "Exchange",
            Benchmark::Barrier => "Barrier",
            Benchmark::Bcast => "Bcast",
            Benchmark::Allgather => "Allgather",
            Benchmark::Allgatherv => "Allgatherv",
            Benchmark::Alltoall => "Alltoall",
            Benchmark::Reduce => "Reduce",
            Benchmark::Allreduce => "Allreduce",
            Benchmark::ReduceScatter => "Reduce_scatter",
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// IMB's bandwidth accounting for one call time: the transferred payload
/// (times the benchmark's factor) over the one-way time, in MB/s.
/// PingPong's reported time is the full round trip, so IMB halves it.
pub(crate) fn bandwidth_mbs_from_secs(benchmark: Benchmark, bytes: u64, t_secs: f64) -> f64 {
    let t_one_way = if benchmark == Benchmark::PingPong {
        t_secs / 2.0
    } else {
        t_secs
    };
    benchmark.bandwidth_factor().max(1.0) * bytes as f64 / t_one_way / 1e6
}

/// Builds the unified [`Record`] for one IMB measurement: the headline
/// value is the max-rank time for time-metric benchmarks and the IMB
/// bandwidth (computed from the max-rank time) for transfer benchmarks.
pub(crate) fn record(
    benchmark: Benchmark,
    mode: Mode,
    machine: &'static str,
    procs: usize,
    bytes: u64,
    stats: Stats,
) -> Record {
    let metric = benchmark.metric();
    let value = match metric {
        MetricKind::BandwidthMBs => bandwidth_mbs_from_secs(benchmark, bytes, stats.t_max_us / 1e6),
        _ => stats.t_max_us,
    };
    Record {
        benchmark: benchmark.name(),
        suite: Suite::Imb,
        mode,
        machine,
        procs,
        threads: 1,
        bytes: benchmark.sized().then_some(bytes),
        metric,
        value,
        stats,
        passed: true,
    }
}

/// IMB's standard message-size grid: 0, 1, 2, 4, ..., 4194304 bytes.
pub fn standard_sizes() -> Vec<u64> {
    let mut v = vec![0u64];
    let mut s = 1u64;
    while s <= 4 * 1024 * 1024 {
        v.push(s);
        s <<= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_the_paper() {
        assert_eq!(Benchmark::ALL.len(), 12);
        let collectives = Benchmark::ALL
            .iter()
            .filter(|b| b.class() == Class::Collective)
            .count();
        assert_eq!(collectives, 8, "Figs. 6-12 and 15");
    }

    #[test]
    fn metrics_match_figures() {
        // Figs. 13-14 plot MB/s; Figs. 6-12 and 15 plot us/call.
        assert_eq!(Benchmark::Sendrecv.metric(), MetricKind::BandwidthMBs);
        assert_eq!(Benchmark::Exchange.metric(), MetricKind::BandwidthMBs);
        assert_eq!(Benchmark::Alltoall.metric(), MetricKind::TimeUs);
        assert_eq!(Benchmark::Barrier.metric(), MetricKind::TimeUs);
    }

    #[test]
    fn size_grid_is_imb_standard() {
        let sizes = standard_sizes();
        assert_eq!(sizes[0], 0);
        assert_eq!(sizes[1], 1);
        assert_eq!(*sizes.last().unwrap(), 4 * 1024 * 1024);
        assert_eq!(sizes.len(), 24);
    }

    #[test]
    fn repetition_rule_decreases() {
        let reps = |bytes| harness::RepetitionPolicy::Imb.repetitions(bytes);
        assert_eq!(reps(1024), 1000);
        assert!(reps(1 << 20) < reps(1 << 14));
        assert_eq!(reps(4 << 20), 20);
    }

    #[test]
    fn bandwidth_factors() {
        assert_eq!(Benchmark::Exchange.bandwidth_factor(), 4.0);
        assert_eq!(Benchmark::Sendrecv.bandwidth_factor(), 2.0);
        assert_eq!(Benchmark::PingPong.bandwidth_factor(), 1.0);
    }

    #[test]
    fn record_identity_uses_imb_names() {
        let r = record(
            Benchmark::ReduceScatter,
            Mode::Native,
            "host",
            4,
            1024,
            Stats::deterministic(2.0),
        );
        assert_eq!(r.benchmark, "Reduce_scatter");
        assert_eq!(r.bytes, Some(1024));
        assert_eq!(r.value, 2.0);
        let b = record(
            Benchmark::Barrier,
            Mode::Native,
            "host",
            4,
            0,
            Stats::deterministic(2.0),
        );
        assert_eq!(b.bytes, None, "Barrier is unsized");
    }
}
