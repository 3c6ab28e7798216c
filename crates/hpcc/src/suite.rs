//! Full-suite orchestration as a component table: every HPCC benchmark
//! is one [`Component`] entry that executes natively on the `mp` runtime
//! and emits unified [`harness::Record`]s. The paper-facing
//! [`HpccSummary`] is a derived view over a record stream.

use harness::{MetricKind, Mode, Record, Runner, Suite};
use mp::Comm;

use crate::{ep, fft_dist, hpl, ptrans, random_access, ring};

/// Native-run configuration, scaled for in-process execution.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// HPL matrix order.
    pub hpl_n: usize,
    /// HPL panel width.
    pub hpl_nb: usize,
    /// PTRANS matrix order (divisible by the rank count).
    pub ptrans_n: usize,
    /// log2 of the RandomAccess table size.
    pub ra_log2_size: u32,
    /// STREAM vector length per rank.
    pub stream_len: usize,
    /// log2 of the global FFT length.
    pub fft_log2_n: u32,
    /// EP-DGEMM matrix order per rank.
    pub dgemm_n: usize,
    /// Ring message bytes.
    pub ring_bytes: usize,
    /// G-HPL's process grid: near-square `P x Q` when set, `1 x Q` (every
    /// rank holds full columns) otherwise. One LU either way.
    pub hpl_2d: bool,
}

impl SuiteConfig {
    /// A configuration sized for quick in-process runs on `p` ranks.
    pub fn small(p: usize) -> SuiteConfig {
        SuiteConfig {
            hpl_n: 96,
            hpl_nb: 16,
            ptrans_n: 16 * p,
            ra_log2_size: 12,
            stream_len: 200_000,
            fft_log2_n: 12,
            dgemm_n: 128,
            ring_bytes: 100_000,
            hpl_2d: false,
        }
    }

    /// The G-HPL problem this configuration poses to `size` ranks.
    pub fn hpl_config(&self, size: usize) -> hpl::HplConfig {
        let square = hpl::HplConfig::near_square(self.hpl_n, self.hpl_nb, size);
        hpl::HplConfig {
            p_rows: if self.hpl_2d { square.p_rows } else { 1 },
            ..square
        }
    }
}

/// One HPCC suite component (paper Section 4 naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// G-HPL: global LU solve.
    Hpl,
    /// G-PTRANS: global matrix transpose.
    Ptrans,
    /// G-RandomAccess: global random updates.
    RandomAccess,
    /// EP-STREAM: embarrassingly-parallel memory bandwidth.
    Stream,
    /// G-FFT: global 1-D FFT.
    Fft,
    /// EP-DGEMM: embarrassingly-parallel matrix multiply.
    Dgemm,
    /// Random-ring bandwidth and latency.
    RandomRing,
}

impl Component {
    /// All components, in the paper's presentation order.
    pub const ALL: [Component; 7] = [
        Component::Hpl,
        Component::Ptrans,
        Component::RandomAccess,
        Component::Stream,
        Component::Fft,
        Component::Dgemm,
        Component::RandomRing,
    ];

    /// The component's HPCC name (also its primary [`Record`] identity).
    pub fn name(self) -> &'static str {
        match self {
            Component::Hpl => "G-HPL",
            Component::Ptrans => "G-PTRANS",
            Component::RandomAccess => "G-RandomAccess",
            Component::Stream => "EP-STREAM",
            Component::Fft => "G-FFT",
            Component::Dgemm => "EP-DGEMM",
            Component::RandomRing => "RandomRing",
        }
    }

    /// What the component's primary record measures.
    pub fn metric(self) -> MetricKind {
        match self {
            Component::Hpl | Component::Fft | Component::Dgemm => MetricKind::RateGflops,
            Component::Ptrans | Component::Stream | Component::RandomRing => MetricKind::RateGBs,
            Component::RandomAccess => MetricKind::RateGups,
        }
    }

    /// Whether native/virtual execution needs a power-of-two rank count
    /// (the closed-form model handles any count).
    pub fn pow2_procs(self) -> bool {
        matches!(self, Component::RandomAccess | Component::Fft)
    }

    /// Executes the component's real benchmark code on `comm`, returning
    /// `(name, metric, value)` rows plus the verification verdict. The
    /// first row carries the component's primary name.
    async fn execute(self, comm: &Comm, cfg: &SuiteConfig, mode: Mode) -> ComponentOutput {
        match self {
            Component::Hpl => {
                let r = hpl::run_async(comm, &cfg.hpl_config(comm.size())).await;
                ComponentOutput {
                    values: vec![("G-HPL", MetricKind::RateGflops, r.gflops)],
                    passed: r.passed,
                }
            }
            Component::Ptrans => {
                let r = ptrans::run_async(comm, &ptrans::PtransConfig { n: cfg.ptrans_n }).await;
                ComponentOutput {
                    values: vec![("G-PTRANS", MetricKind::RateGBs, r.gb_per_s)],
                    passed: r.passed,
                }
            }
            Component::RandomAccess => {
                let r = random_access::run_async(
                    comm,
                    &random_access::RandomAccessConfig {
                        log2_size: cfg.ra_log2_size,
                        updates_per_entry: 1,
                        batch: 512,
                    },
                )
                .await;
                ComponentOutput {
                    values: vec![("G-RandomAccess", MetricKind::RateGups, r.gups)],
                    passed: r.passed,
                }
            }
            Component::Stream => {
                let r = ep::stream_async(
                    comm,
                    &ep::StreamConfig {
                        len: cfg.stream_len,
                        iters: if mode == Mode::Virtual { 1 } else { 2 },
                    },
                )
                .await;
                let [copy, _, _, triad] = r.gbs;
                ComponentOutput {
                    values: vec![
                        ("EP-STREAM", MetricKind::RateGBs, copy),
                        ("EP-STREAM-triad", MetricKind::RateGBs, triad),
                    ],
                    passed: r.passed,
                }
            }
            Component::Fft => {
                let r = fft_dist::run_async(
                    comm,
                    &fft_dist::FftConfig {
                        log2_n: cfg.fft_log2_n,
                    },
                )
                .await;
                ComponentOutput {
                    values: vec![("G-FFT", MetricKind::RateGflops, r.gflops)],
                    passed: r.passed,
                }
            }
            Component::Dgemm => {
                let r = ep::ep_dgemm_async(
                    comm,
                    &ep::DgemmConfig {
                        n: cfg.dgemm_n,
                        iters: 1,
                    },
                )
                .await;
                ComponentOutput {
                    values: vec![("EP-DGEMM", MetricKind::RateGflops, r.gflops)],
                    passed: r.passed,
                }
            }
            Component::RandomRing => {
                let r = ring::run_async(
                    comm,
                    &ring::RingConfig {
                        bw_bytes: cfg.ring_bytes,
                        patterns: 2,
                        iters: 2,
                        seed: 0xBEEF,
                    },
                )
                .await;
                ComponentOutput {
                    values: vec![
                        ("RandomRing", MetricKind::RateGBs, r.random_bw),
                        (
                            "RandomRing-latency",
                            MetricKind::LatencyUs,
                            r.random_latency_us,
                        ),
                    ],
                    passed: r.passed,
                }
            }
        }
    }
}

/// The rows one component execution produced.
struct ComponentOutput {
    values: Vec<(&'static str, MetricKind, f64)>,
    passed: bool,
}

/// Runs one component on an existing communicator, emitting its records
/// in the `mode` they are made for. Collective; the records' stats are the
/// cross-rank min/avg/max of the component's wall time.
pub(crate) async fn run_component_on_async(
    comm: &Comm,
    component: Component,
    cfg: &SuiteConfig,
    mode: Mode,
) -> Vec<Record> {
    let (out, stats) = Runner::timed_stats_async(comm, || component.execute(comm, cfg, mode)).await;
    out.values
        .iter()
        .map(|&(name, metric, value)| Record {
            benchmark: name,
            suite: Suite::Hpcc,
            mode,
            machine: "host",
            procs: comm.size(),
            threads: smp::ambient_threads(),
            bytes: None,
            metric,
            value,
            stats,
            passed: out.passed,
        })
        .collect()
}

/// Spawns `p` ranks and runs one component natively on the host,
/// returning its records (rank 0's view).
pub fn run_component_native(p: usize, component: Component, cfg: &SuiteConfig) -> Vec<Record> {
    let mut results = mp::run(p, |comm| {
        mp::block_on(run_component_on_async(comm, component, cfg, Mode::Native))
    });
    results.swap_remove(0)
}

/// Runs every admissible component natively on an existing communicator:
/// the power-of-two-only components (G-RandomAccess, G-FFT) are skipped on
/// other world sizes, exactly as the HPCC harness does.
async fn run_records_on(comm: &Comm, cfg: &SuiteConfig) -> Vec<Record> {
    let p = comm.size();
    let mut records = Vec::new();
    for c in Component::ALL {
        if c.pow2_procs() && !p.is_power_of_two() {
            continue;
        }
        records.extend(run_component_on_async(comm, c, cfg, Mode::Native).await);
    }
    records
}

/// Spawns `p` ranks and runs the complete suite natively on the host,
/// returning the record stream.
pub(crate) fn run_native_records(p: usize, cfg: &SuiteConfig) -> Vec<Record> {
    let mut results = mp::run(p, |comm| mp::block_on(run_records_on(comm, cfg)));
    results.swap_remove(0)
}

/// Spawns `p` ranks and runs the complete suite natively on the host.
pub fn run_native(p: usize, cfg: &SuiteConfig) -> HpccSummary {
    HpccSummary::from_records(&run_native_records(p, cfg))
}

/// The suite summary: one row of the paper's analysis per configuration.
/// All rates follow HPCC conventions (global values for G-*, per-CPU
/// means for EP-*).
#[derive(Clone, Copy, Debug, Default)]
pub struct HpccSummary {
    /// Ranks.
    pub cpus: usize,
    /// G-HPL, Gflop/s.
    pub ghpl: f64,
    /// G-PTRANS, GB/s.
    pub ptrans: f64,
    /// G-RandomAccess, GUP/s.
    pub gups: f64,
    /// EP-STREAM copy, GB/s per CPU.
    pub stream_copy: f64,
    /// EP-STREAM triad, GB/s per CPU.
    pub stream_triad: f64,
    /// G-FFT, Gflop/s.
    pub gfft: f64,
    /// EP-DGEMM, Gflop/s per CPU.
    pub ep_dgemm: f64,
    /// Random-ring bandwidth, GB/s per CPU.
    pub ring_bw: f64,
    /// Random-ring latency, microseconds.
    pub ring_latency_us: f64,
    /// Every benchmark's verification passed.
    pub all_passed: bool,
}

impl HpccSummary {
    /// Derives the summary view from a record stream: each known
    /// benchmark name fills its field (missing components stay 0.0, as
    /// with the skipped power-of-two benchmarks), `cpus` comes from the
    /// records, and `all_passed` holds over the records present.
    pub fn from_records(records: &[Record]) -> HpccSummary {
        let mut s = HpccSummary {
            all_passed: !records.is_empty(),
            ..HpccSummary::default()
        };
        for r in records {
            s.cpus = r.procs;
            s.all_passed &= r.passed;
            match r.benchmark {
                "G-HPL" => s.ghpl = r.value,
                "G-PTRANS" => s.ptrans = r.value,
                "G-RandomAccess" => s.gups = r.value,
                "EP-STREAM" => s.stream_copy = r.value,
                "EP-STREAM-triad" => s.stream_triad = r.value,
                "G-FFT" => s.gfft = r.value,
                "EP-DGEMM" => s.ep_dgemm = r.value,
                "RandomRing" => s.ring_bw = r.value,
                "RandomRing-latency" => s.ring_latency_us = r.value,
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_runs_and_verifies_on_4_ranks() {
        let s = run_native(4, &SuiteConfig::small(4));
        assert!(s.all_passed, "{s:?}");
        assert!(s.ghpl > 0.0);
        assert!(s.ptrans > 0.0);
        assert!(s.gups > 0.0);
        assert!(s.stream_copy > 0.0);
        assert!(s.gfft > 0.0);
        assert!(s.ep_dgemm > 0.0);
        assert!(s.ring_bw > 0.0);
        assert!(s.ring_latency_us > 0.0);
        assert_eq!(s.cpus, 4);
    }

    #[test]
    fn full_suite_with_2d_hpl() {
        let mut cfg = SuiteConfig::small(4);
        cfg.hpl_2d = true;
        let s = run_native(4, &cfg);
        assert!(s.all_passed, "{s:?}");
        assert!(s.ghpl > 0.0);
    }

    #[test]
    fn suite_skips_power_of_two_benchmarks_on_odd_worlds() {
        let s = run_native(3, &SuiteConfig::small(3));
        assert!(s.all_passed);
        assert_eq!(s.gups, 0.0);
        assert_eq!(s.gfft, 0.0);
        assert!(s.ghpl > 0.0);
    }

    #[test]
    fn record_stream_names_every_component() {
        let records = run_native_records(4, &SuiteConfig::small(4));
        // 7 components, with STREAM and RandomRing each emitting a
        // secondary row (triad, latency).
        assert_eq!(records.len(), 9);
        for c in Component::ALL {
            let r = records
                .iter()
                .find(|r| r.benchmark == c.name())
                .unwrap_or_else(|| panic!("{} missing", c.name()));
            assert_eq!(r.metric, c.metric());
            assert_eq!(r.mode, Mode::Native);
            assert_eq!(r.procs, 4);
            assert!(r.stats.is_ordered());
            assert!(r.stats.t_max_us > 0.0);
        }
    }
}
