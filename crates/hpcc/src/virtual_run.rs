//! Virtual execution of the HPCC components: the *real* suite code
//! (same component table as [`crate::suite`]) running on a modelled
//! machine via [`mp::run_virtual_coop`], with communication priced by
//! virtual clocks. Each rank is a resumable cooperative task, not an OS
//! thread, so virtual worlds scale to tens of thousands of ranks.
//! Ranks run one after another, so what a world holds at once is what
//! each rank keeps across its awaits: EP-STREAM and EP-DGEMM keep
//! nothing, and hold one rank's arrays at a time at any world size
//! (about 14 MB peak at 1024 ranks, where every rank's at once was
//! 4.8 GB). The global components' data is live across their exchanges.
//! This gives HPCC the same third execution mode the IMB suite has had,
//! so the harness registry can run both suites natively, simulated and
//! virtually.
//!
//! The emitted records carry the component's primary name with metric
//! [`MetricKind::TimeUs`] — the max per-rank virtual time of the
//! component — so their identity fields line up with the native records
//! while the value measures modelled communication time rather than
//! host throughput.

use harness::{MetricKind, Mode, Record, Stats, Suite};
use machines::{Machine, SharedClusterNet};

use crate::suite::{Component, SuiteConfig};

/// Runs the given components under virtual time, one record each.
///
/// Ranks are cooperative tasks on [`mp::run_virtual_coop`], so world
/// sizes are bounded by memory rather than by OS threads.
pub fn run_virtual_components(
    machine: &Machine,
    procs: usize,
    cfg: &SuiteConfig,
    components: &[Component],
) -> Vec<Record> {
    let cfg = *cfg;
    let list: Vec<Component> = components.to_vec();
    let net = SharedClusterNet::new(machine, procs);
    // Each rank times every component between virtual-clock syncs.
    let (per_rank, _) = mp::run_virtual_coop(procs, Box::new(net), move |comm| {
        let list = list.clone();
        async move {
            let mut times = Vec::with_capacity(list.len());
            for &c in &list {
                let t0 = comm.v_sync_async().await;
                let recs = crate::suite::run_component_on_async(&comm, c, &cfg).await;
                let t1 = comm.v_sync_async().await;
                let passed = recs.iter().all(|r| r.passed);
                times.push(((t1 - t0).as_us(), passed));
            }
            times
        }
    });
    components
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let us: Vec<f64> = per_rank.iter().map(|rank| rank[i].0).collect();
            let passed = per_rank.iter().all(|rank| rank[i].1);
            let stats = Stats::across(&us, 1);
            Record {
                benchmark: c.name(),
                suite: Suite::Hpcc,
                mode: Mode::Virtual,
                machine: machine.name,
                procs,
                threads: 1,
                bytes: None,
                metric: MetricKind::TimeUs,
                value: stats.t_max_us,
                stats,
                passed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machines::systems::{dell_xeon, nec_sx8};

    #[test]
    fn every_component_runs_virtually() {
        let cfg = SuiteConfig::small(4);
        let recs = run_virtual_components(&dell_xeon(), 4, &cfg, &Component::ALL);
        assert_eq!(recs.len(), Component::ALL.len());
        for r in &recs {
            assert!(r.t_max_us() > 0.0, "{}", r.benchmark);
            assert!(r.passed, "{}", r.benchmark);
            assert_eq!(r.mode, Mode::Virtual);
        }
    }

    #[test]
    fn faster_fabric_means_less_virtual_comm_time() {
        // PTRANS is communication-bound: on the SX-8's IXS fabric its
        // virtual exchange must be far cheaper than on the Xeon cluster.
        let cfg = SuiteConfig::small(4);
        let t =
            |m: &Machine| run_virtual_components(m, 4, &cfg, &[Component::Ptrans])[0].t_max_us();
        let sx8 = t(&nec_sx8());
        let xeon = t(&dell_xeon());
        assert!(sx8 < xeon, "SX-8 {sx8} !< Xeon {xeon}");
    }

    #[test]
    #[ignore = "release-scale: 4096 ranks, 16M-point FFT; run with --ignored --release"]
    fn virtual_gfft_runs_at_4096_ranks() {
        // High-rank smoke: the distributed FFT needs n >= p^2, so 4096
        // ranks is the largest world a 2^24-point transform admits.
        let m = machines::systems::exascale_cluster();
        let mut cfg = SuiteConfig::small(4096);
        cfg.fft_log2_n = 24;
        let recs = run_virtual_components(&m, 4096, &cfg, &[Component::Fft]);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].passed, "G-FFT residual failed at 4096 ranks");
        assert!(recs[0].t_max_us() > 0.0);
        assert_eq!(recs[0].procs, 4096);
    }

    /// Every record's `value` and timing statistics as bit patterns:
    /// `(benchmark, [value, t_min_us, t_avg_us, t_max_us])`.
    fn record_bits(recs: &[Record]) -> Vec<(&'static str, [u64; 4])> {
        recs.iter()
            .map(|r| {
                let s = r.stats;
                let bits = [r.value, s.t_min_us, s.t_avg_us, s.t_max_us].map(f64::to_bits);
                (r.benchmark, bits)
            })
            .collect()
    }

    /// Virtual time is priced, not measured, so the records are exact.
    /// Computed at commit 34eb0a9, where EP-STREAM and EP-DGEMM still
    /// allocated before their start barrier; moving the allocation after
    /// it must not move a bit.
    #[test]
    fn virtual_records_are_pinned_bit_for_bit() {
        for (procs, golden) in [(8, GOLDEN_8), (16, GOLDEN_16)] {
            let cfg = SuiteConfig::small(procs);
            let recs = run_virtual_components(&dell_xeon(), procs, &cfg, &Component::ALL);
            assert!(recs.iter().all(|r| r.passed), "{procs} ranks");
            assert_eq!(record_bits(&recs), golden, "{procs} ranks");
        }
    }

    #[rustfmt::skip]
    const GOLDEN_8: [(&str, [u64; 4]); 7] = [
        ("G-HPL", [0x407a061d51dbef51, 0x407a061d51dbef51, 0x407a061d51dbef51, 0x407a061d51dbef51]),
        ("G-PTRANS", [0x40665a8d4406f6ea, 0x40665a8d4406f6ea, 0x40665a8d4406f6e9, 0x40665a8d4406f6ea]),
        ("G-RandomAccess", [0x40700e400bb05e6b, 0x40700e400bb05e6b, 0x40700e400bb05e6b, 0x40700e400bb05e6b]),
        ("EP-STREAM", [0x405f4f60404a077d, 0x405f4f60404a077d, 0x405f4f60404a077e, 0x405f4f60404a077d]),
        ("G-FFT", [0x40702cbb05e7c504, 0x40702cbb05e7c504, 0x40702cbb05e7c504, 0x40702cbb05e7c504]),
        ("EP-DGEMM", [0x405f8ac36033d216, 0x405f8ac36033d216, 0x405f8ac36033d217, 0x405f8ac36033d216]),
        ("RandomRing", [0x40a9da1a26a58522, 0x40a9da1a26a58522, 0x40a9da1a26a58521, 0x40a9da1a26a58522]),
    ];
    #[rustfmt::skip]
    const GOLDEN_16: [(&str, [u64; 4]); 7] = [
        ("G-HPL", [0x408202f076a48bd1, 0x408202f076a48bd1, 0x408202f076a48bd1, 0x408202f076a48bd1]),
        ("G-PTRANS", [0x40742f29d31214c0, 0x40742f29d31214c0, 0x40742f29d31214c0, 0x40742f29d31214c0]),
        ("G-RandomAccess", [0x407bc7bc218e97b4, 0x407bc7bc218e97b4, 0x407bc7bc218e97b1, 0x407bc7bc218e97b4]),
        ("EP-STREAM", [0x4066aabb636ab8e5, 0x4066aabb636ab8e5, 0x4066aabb636ab8e5, 0x4066aabb636ab8e5]),
        ("G-FFT", [0x4071f1a31f224cb3, 0x4071f1a31f224cb3, 0x4071f1a31f224cb2, 0x4071f1a31f224cb3]),
        ("EP-DGEMM", [0x4066c7832bfde787, 0x4066c7832bfde787, 0x4066c7832bfde785, 0x4066c7832bfde787]),
        ("RandomRing", [0x40ad8649938f8ad8, 0x40ad8649938f8ad8, 0x40ad8649938f8adc, 0x40ad8649938f8ad8]),
    ];

    #[test]
    #[ignore = "release-scale: 1024 ranks; run with --ignored --release under ulimit -v 1048576"]
    fn virtual_ep_components_hold_one_ranks_arrays_at_1024_ranks() {
        // Every rank's EP arrays alive at once would need 4.8 GB here;
        // one rank's at a time fits the CI step's 1 GiB address space.
        let m = machines::systems::exascale_cluster();
        let procs = 1024;
        let cfg = SuiteConfig::small(procs);
        let recs = run_virtual_components(&m, procs, &cfg, &[Component::Stream, Component::Dgemm]);
        assert_eq!(recs.len(), 2);
        for r in &recs {
            assert!(r.passed, "{} failed at {procs} ranks", r.benchmark);
            assert!(r.t_max_us() > 0.0);
            assert_eq!(r.procs, procs);
        }
    }

    #[test]
    fn virtual_identity_matches_native_identity() {
        let cfg = SuiteConfig::small(2);
        let virt = run_virtual_components(&dell_xeon(), 2, &cfg, &[Component::Dgemm]);
        let native = crate::suite::run_native_records(2, &cfg);
        let native_dgemm = native.iter().find(|r| r.benchmark == "EP-DGEMM").unwrap();
        assert_eq!(virt[0].identity(), native_dgemm.identity());
    }
}
