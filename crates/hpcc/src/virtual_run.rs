//! Virtual execution of the HPCC components: the *real* suite code
//! (same component table as [`crate::suite`]) running on a modelled
//! machine via [`mp::run_virtual_coop`], with communication priced by
//! virtual clocks. Each rank is a resumable cooperative task, not an OS
//! thread, so virtual worlds scale to tens of thousands of ranks.
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

/// Runs every admissible component on `procs` ranks of the modelled
/// `machine`, executing the real benchmark code under virtual time.
/// Power-of-two-only components are skipped on other world sizes, as in
/// the native suite.
pub fn run_virtual_records(machine: &Machine, procs: usize, cfg: &SuiteConfig) -> Vec<Record> {
    let components: Vec<Component> = Component::ALL
        .into_iter()
        .filter(|c| !c.pow2_procs() || procs.is_power_of_two())
        .collect();
    run_virtual_components(machine, procs, cfg, &components)
}

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
        let recs = run_virtual_records(&dell_xeon(), 4, &cfg);
        assert_eq!(recs.len(), Component::ALL.len());
        for r in &recs {
            assert!(r.t_max_us() > 0.0, "{}", r.benchmark);
            assert!(r.passed, "{}", r.benchmark);
            assert_eq!(r.mode, Mode::Virtual);
        }
    }

    #[test]
    fn pow2_components_are_skipped_on_odd_worlds() {
        let cfg = SuiteConfig::small(3);
        let recs = run_virtual_records(&dell_xeon(), 3, &cfg);
        assert_eq!(recs.len(), Component::ALL.len() - 2);
        assert!(!recs.iter().any(|r| r.benchmark == "G-RandomAccess"));
        assert!(!recs.iter().any(|r| r.benchmark == "G-FFT"));
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

    #[test]
    fn virtual_identity_matches_native_identity() {
        let cfg = SuiteConfig::small(2);
        let virt = run_virtual_components(&dell_xeon(), 2, &cfg, &[Component::Dgemm]);
        let native = crate::suite::run_native_records(2, &cfg);
        let native_dgemm = native.iter().find(|r| r.benchmark == "EP-DGEMM").unwrap();
        assert_eq!(virt[0].identity(), native_dgemm.identity());
    }
}
