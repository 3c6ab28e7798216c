//! Modelled HPCC results for the paper's machines: the same
//! [`HpccSummary`] rows, derived from a
//! [`machines::Machine`] model instead of a native run. This is what the
//! figure harness uses for Figs. 1-5 and Table 3.

use harness::{MetricKind, Mode, Record, Stats, Suite};
use machines::{ClusterSim, Machine};
use mp::sched;
use simnet::Replay;

use crate::suite::HpccSummary;

/// HPL panel width used by the model.
const NB: usize = 128;

/// Fraction of peak the (partially vectorising) HPCC FFT kernel sustains
/// locally, by system class. "The Global FFT Benchmark in the HPCC suite
/// does not completely vectorize" (Section 5.1), which is why the vector
/// systems' FFT efficiency is not far above the scalar systems' despite
/// their memory advantage.
fn fft_eff(m: &Machine) -> f64 {
    match m.class {
        machines::SystemClass::Vector => 0.020,
        machines::SystemClass::Scalar => 0.012,
    }
}

/// G-HPL model: a right-looking block-LU loop. Per panel iteration the
/// critical path is the *maximum* of the trailing update's compute time
/// (spread over all ranks) and the pipelined panel broadcast — HPL's
/// look-ahead overlaps the two, and the ratio between them is what
/// erodes HPL efficiency at scale (strongly on the Myrinet Opteron
/// cluster, barely on the NEC SX-8).
pub fn hpl(m: &Machine, p: usize) -> f64 {
    // Constant memory per rank: N grows with sqrt(p).
    let n = ((2000.0 * (p as f64).sqrt()) as usize).div_ceil(NB) * NB;
    let compute_rate = m.node.peak_gflops * 1e9 * m.node.hpl_eff; // per CPU
    let nodes = m.nodes_for(p);
    // Pipelined broadcast: bandwidth term once, latency per tree level.
    let bcast_bw = if nodes > 1 {
        m.net.plain_link_bw
    } else {
        m.net.intra_bw
    };
    let bcast_lat = if nodes > 1 {
        m.net.mpi_latency_us
    } else {
        m.net.intra_latency_us
    } * 1e-6;
    let levels = (p.max(2) as f64).log2().ceil();

    let panels = n / NB;
    let mut time = 0.0f64;
    for k in 0..panels {
        let remaining = (n - k * NB) as f64;
        let flops = 2.0 * NB as f64 * remaining * remaining;
        let compute = flops / (p as f64 * compute_rate);
        let bytes = remaining * NB as f64 * 8.0;
        // Panel broadcast plus row-swap traffic of comparable volume;
        // neither fully overlaps with the update in practice, so the
        // iteration cost is additive.
        let comm = 2.0 * bytes / bcast_bw + bcast_lat * levels;
        time += compute + comm;
    }
    let total_flops = 2.0 / 3.0 * (n as f64).powi(3);
    total_flops / time / 1e9
}

/// How much longer PTRANS's exchange runs than an ideal synchronous
/// pairwise all-to-all: strided tile packing/unpacking costs extra memory
/// passes and the pairwise rounds de-synchronise, which is why measured
/// PTRANS rates sit several-fold below fabric peak.
const PTRANS_SKEW: f64 = 2.5;

/// G-PTRANS model: the pairwise tile exchange priced on the fabric, plus
/// the local transpose/accumulate memory passes.
pub(crate) fn ptrans(m: &Machine, p: usize) -> f64 {
    let n = 256 * p; // constant 512 KiB tiles
    let tile_bytes = ((n / p) * (n / p) * 8) as u64;
    let sim = ClusterSim::new_plain(m, p);
    let t = sim.run(sched::alltoall::pairwise(p, tile_bytes)) * PTRANS_SKEW;
    // Local transpose of the diagonal tile plus the accumulate pass.
    for r in 0..p {
        sim.compute_stream(r, (n / p * n * 8) as f64);
    }
    8.0 * (n as f64) * (n as f64) / sim.time().max(t).as_secs() / 1e9
}

/// G-FFT model: local butterflies at the (low) HPCC FFT efficiency plus
/// three pairwise all-to-all transposes, as in the six-step algorithm.
/// Each transpose is priced round by round as its generator produces it:
/// pricing holds one round, never the p(p−1) transfers.
pub(crate) fn gfft(m: &Machine, p: usize) -> f64 {
    let ln: u64 = 1 << 20; // 16 MiB of complex data per rank
    let n = ln * p as u64;
    let flops = 5.0 * n as f64 * (n as f64).log2();
    let sim = ClusterSim::new_plain(m, p);
    for r in 0..p {
        sim.compute_flops(r, flops / p as f64, fft_eff(m));
    }
    if p > 1 {
        let block = 16 * ln / (p as u64); // complex = 16 bytes
        for _ in 0..3 {
            sim.run(sched::alltoall::pairwise(p, block));
            sim.sync();
        }
    }
    flops / sim.time().as_secs() / 1e9
}

/// G-RandomAccess model: every rank's update rate is the minimum of its
/// memory system's random-update rate and the network's bucketed
/// small-message throughput.
pub(crate) fn gups(m: &Machine, p: usize) -> f64 {
    let node = &m.node;
    let mem_rate = node.random_concurrency / (node.mem_latency_us * 1e-6);
    if p == 1 {
        return mem_rate / 1e9;
    }
    // HPCC's look-ahead window split across p-1 destinations: each bucket
    // message carries only a few updates (an effective window of ~256
    // once the verification-safe batching is accounted for), at ~16 wire
    // bytes per update including headers.
    let per_msg = (256.0 / p as f64).max(1.0);
    let link_per_rank = m.net.plain_link_bw / node.cpus as f64;
    let wire = 16.0 / link_per_rank;
    let lat = m.net.mpi_latency_us * 1e-6 / per_msg;
    let remote_fraction = (p as f64 - 1.0) / p as f64;
    let net_rate = 1.0 / (remote_fraction * (wire + lat));
    p as f64 * mem_rate.min(net_rate) / 1e9
}

/// Random-ring bandwidth (GB/s per CPU) and latency (us) from the fabric.
pub fn random_ring(m: &Machine, p: usize) -> (f64, f64) {
    let bytes: u64 = 2_000_000;
    let (mut bw_t, mut lat_t) = (0.0, 0.0);
    let patterns = 4;
    for k in 0..patterns {
        let perm = crate::ring::ring_permutation(p, 0xBEEF + k);
        // The measured benchmark averages many iterations; a cold
        // single shot over-counts start-up skew, so time a steady-state
        // iteration (the marginal cost after a warm-up pass).
        let ring = sched::p2p::random_ring(&perm, bytes);
        let sim = ClusterSim::new_plain(m, p);
        let warm = sim.run(Replay::new(&ring)).as_secs();
        bw_t += sim.run(Replay::new(&ring)).as_secs() - warm;
        let lat = sched::p2p::random_ring(&perm, 8);
        let lsim = ClusterSim::new_plain(m, p);
        let lwarm = lsim.run(Replay::new(&lat)).as_secs();
        lat_t += lsim.run(Replay::new(&lat)).as_secs() - lwarm;
    }
    bw_t /= patterns as f64;
    lat_t /= patterns as f64;
    // b_eff convention: a process's ring bandwidth counts its inbound
    // plus outbound traffic (2 messages each way per iteration).
    (4.0 * bytes as f64 / bw_t / 1e9, lat_t / 2.0 * 1e6)
}

/// The modelled record rows for one suite component on `machine` at `p`
/// CPUs: the same benchmark names as a native run (identity fields
/// match), with model-derived values and deterministic statistics.
pub fn component_records(m: &Machine, p: usize, c: crate::suite::Component) -> Vec<Record> {
    use crate::suite::Component;
    let rows: Vec<(&'static str, MetricKind, f64)> = match c {
        Component::Hpl => vec![("G-HPL", MetricKind::RateGflops, hpl(m, p))],
        Component::Ptrans => vec![("G-PTRANS", MetricKind::RateGBs, ptrans(m, p))],
        Component::RandomAccess => vec![("G-RandomAccess", MetricKind::RateGups, gups(m, p))],
        Component::Stream => vec![
            ("EP-STREAM", MetricKind::RateGBs, m.node.stream_bw / 1e9),
            (
                "EP-STREAM-triad",
                MetricKind::RateGBs,
                m.node.stream_bw * 1.05 / 1e9,
            ),
        ],
        Component::Fft => vec![("G-FFT", MetricKind::RateGflops, gfft(m, p))],
        Component::Dgemm => vec![(
            "EP-DGEMM",
            MetricKind::RateGflops,
            m.node.peak_gflops * m.node.dgemm_eff,
        )],
        Component::RandomRing => {
            let (ring_bw, ring_latency_us) = random_ring(m, p);
            vec![
                ("RandomRing", MetricKind::RateGBs, ring_bw),
                ("RandomRing-latency", MetricKind::LatencyUs, ring_latency_us),
            ]
        }
    };
    rows.iter()
        .map(|&(name, metric, value)| Record {
            benchmark: name,
            suite: Suite::Hpcc,
            mode: Mode::Simulated,
            machine: m.name,
            procs: p,
            threads: 1,
            bytes: None,
            metric,
            value,
            stats: Stats::deterministic(0.0),
            passed: true,
        })
        .collect()
}

/// The full modelled HPCC record stream for `machine` at `p` CPUs: every
/// component's rows, in the paper's presentation order.
pub(crate) fn records(m: &Machine, p: usize) -> Vec<Record> {
    crate::suite::Component::ALL
        .into_iter()
        .flat_map(|c| component_records(m, p, c))
        .collect()
}

/// The full modelled HPCC summary for `machine` at `p` CPUs (summary
/// view over `records`).
pub fn summary(m: &Machine, p: usize) -> HpccSummary {
    HpccSummary::from_records(&records(m, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use machines::systems::*;

    #[test]
    fn hpl_efficiency_is_plausible_and_decreasing() {
        let m = cray_opteron();
        let e4 = hpl(&m, 4) / m.peak_gflops(4);
        let e64 = hpl(&m, 64) / m.peak_gflops(64);
        assert!(e4 > 0.4 && e4 <= m.node.hpl_eff, "e4 = {e4}");
        assert!(e64 < e4, "HPL efficiency must fall with scale");
    }

    #[test]
    fn sx8_leads_ptrans_and_fft() {
        // Section 5.1: "the NEC SX-8 performs extremely well on benchmarks
        // that stress the memory and network capabilities like Global
        // PTRANS and Global FFTs".
        let p = 64;
        let sx8 = nec_sx8();
        let xeon = dell_xeon();
        assert!(ptrans(&sx8, p) > 1.5 * ptrans(&xeon, p));
        assert!(gfft(&sx8, p) > 2.0 * gfft(&xeon, p));
    }

    #[test]
    fn altix_has_best_ring_latency() {
        let p = 64;
        let (_, altix_lat) = random_ring(&altix_bx2(), p);
        for m in [cray_x1_msp(), cray_opteron(), dell_xeon(), nec_sx8()] {
            if m.max_cpus >= p {
                let (_, lat) = random_ring(&m, p);
                assert!(
                    altix_lat < lat,
                    "Altix latency {altix_lat} !< {} on {}",
                    lat,
                    m.name
                );
            }
        }
    }

    #[test]
    fn sx8_ring_bandwidth_beats_clusters() {
        let p = 64;
        let (sx8_bw, _) = random_ring(&nec_sx8(), p);
        let (opt_bw, _) = random_ring(&cray_opteron(), p);
        let (xeon_bw, _) = random_ring(&dell_xeon(), p);
        // Paper-implied per-CPU ring bandwidths at scale: SX-8 ~0.78,
        // Myrinet Opteron ~0.06, IB Xeon in between.
        assert!(sx8_bw > 3.0 * opt_bw, "{sx8_bw} vs opteron {opt_bw}");
        assert!(sx8_bw > 1.2 * xeon_bw, "{sx8_bw} vs xeon {xeon_bw}");
    }

    #[test]
    fn summary_is_fully_populated() {
        let s = summary(&dell_xeon(), 16);
        assert!(s.ghpl > 0.0 && s.ptrans > 0.0 && s.gups > 0.0);
        assert!(s.gfft > 0.0 && s.ring_bw > 0.0 && s.ring_latency_us > 0.0);
        assert_eq!(s.cpus, 16);
    }

    #[test]
    fn record_stream_matches_component_models() {
        let m = dell_xeon();
        let p = 16;
        let recs = records(&m, p);
        assert_eq!(recs.len(), 9);
        let val = |name: &str| recs.iter().find(|r| r.benchmark == name).unwrap().value;
        assert_eq!(val("G-HPL"), hpl(&m, p));
        assert_eq!(val("G-PTRANS"), ptrans(&m, p));
        assert_eq!(val("G-FFT"), gfft(&m, p));
        assert_eq!(val("G-RandomAccess"), gups(&m, p));
        assert!(recs.iter().all(|r| r.machine == m.name && r.procs == p));
    }

    #[test]
    fn gups_is_network_bound_at_scale() {
        let m = dell_xeon();
        let per_cpu_1 = gups(&m, 1);
        let per_cpu_64 = gups(&m, 64) / 64.0;
        assert!(per_cpu_64 < per_cpu_1, "remote updates must slow GUPS");
    }
}
