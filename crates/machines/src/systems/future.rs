//! The follow-up systems the paper's conclusion announces:
//! "we also plan to include five more architectures — Linux clusters
//! with different networks, IBM Blue Gene/P, Cray XT4, Cray X1E and a
//! cluster of IBM POWER5+."
//!
//! These are **extension models**: unlike the five calibrated systems,
//! nothing in the paper anchors them, so the parameters below come from
//! the vendors' public specifications of the era, documented per field.
//! They exist to exercise the modelling API (the Blue Gene/P and XT4
//! bring the 3-D torus topology) and to let the announced study be run
//! ahead of time.

use crate::model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

/// IBM Blue Gene/P: 4x PowerPC 450 at 850 MHz per node (13.6 Gflop/s
/// node), 13.6 GB/s node memory bandwidth, 3-D torus of 6 x 425 MB/s
/// links (aggregate ~5.1 GB/s per node), ~3 us MPI latency.
pub(crate) fn ibm_bluegene_p() -> Machine {
    Machine {
        name: "IBM Blue Gene/P",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 4,
            peak_gflops: 3.4,
            stream_bw: 2.6e9,
            mem_bw_node: 13.6e9,
            dgemm_eff: 0.92,
            hpl_eff: 0.80,
            mem_latency_us: 0.10,
            random_concurrency: 3.0,
        },
        net: NetworkModel {
            topology: TopologyKind::Torus3D,
            // Per-node injection across the six torus directions.
            link_bw: 2.4e9,
            nic_duplex: true,
            mpi_latency_us: 3.0,
            per_hop_us: 0.1,
            overhead_us: 0.8,
            intra_latency_us: 1.2,
            intra_bw: 2.0e9,
            per_msg_bw: 0.425e9, // one torus link per stream
            plain_link_bw: 2.4e9,
        },
        max_cpus: 4096,
    }
}

/// Cray XT4: dual-core 2.6 GHz Opteron nodes (10.4 Gflop/s), SeaStar2
/// 3-D torus with ~7.6 GB/s per-direction links and ~6 GB/s sustained
/// injection, ~6 us MPI latency.
pub(crate) fn cray_xt4() -> Machine {
    Machine {
        name: "Cray XT4",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 2,
            peak_gflops: 5.2,
            stream_bw: 4.0e9,
            mem_bw_node: 10.6e9,
            dgemm_eff: 0.90,
            hpl_eff: 0.80,
            mem_latency_us: 0.09,
            random_concurrency: 6.0,
        },
        net: NetworkModel {
            topology: TopologyKind::Torus3D,
            link_bw: 6.0e9,
            nic_duplex: true,
            mpi_latency_us: 6.0,
            per_hop_us: 0.05,
            overhead_us: 1.0,
            intra_latency_us: 0.9,
            intra_bw: 2.0e9,
            per_msg_bw: 2.1e9, // measured-era Portals single-stream rate
            plain_link_bw: 6.0e9,
        },
        max_cpus: 8192,
    }
}

/// Cray X1E: the X1's processor upgrade — 18 Gflop/s MSPs, same
/// interconnect family; modelled as the calibrated X1 with scaled
/// processors and proportionally higher memory bandwidth.
pub(crate) fn cray_x1e() -> Machine {
    let mut m = super::cray_x1_msp();
    m.name = "Cray X1E";
    m.node.peak_gflops = 18.0;
    m.node.cpus = 8; // X1E doubles MSP density per node
    m.node.stream_bw = 17.0e9; // per-MSP bandwidth roughly flat vs X1
    m.node.mem_bw_node = 140.0e9;
    m.max_cpus = 64;
    m
}

/// A cluster of IBM POWER5+ SMPs: 16-way 1.9 GHz nodes (7.6 Gflop/s per
/// CPU), very high node memory bandwidth, HPS (Federation) interconnect
/// at ~2 GB/s per link pair and ~5 us latency.
pub(crate) fn ibm_power5p() -> Machine {
    Machine {
        name: "IBM POWER5+ cluster",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 16,
            peak_gflops: 7.6,
            stream_bw: 5.0e9,
            mem_bw_node: 100.0e9,
            dgemm_eff: 0.93,
            hpl_eff: 0.78,
            mem_latency_us: 0.10,
            random_concurrency: 8.0,
        },
        net: NetworkModel {
            topology: TopologyKind::FatTree {
                arity: 8,
                blocking: 1.0,
                blocking_from: 1,
            },
            link_bw: 4.0e9, // two Federation link pairs per node
            nic_duplex: true,
            mpi_latency_us: 5.0,
            per_hop_us: 0.3,
            overhead_us: 1.0,
            intra_latency_us: 0.8,
            intra_bw: 3.5e9,
            per_msg_bw: 2.0e9,
            plain_link_bw: 4.0e9,
        },
        max_cpus: 2048,
    }
}

/// A commodity Linux cluster on gigabit Ethernet — the cheapest point of
/// the "Linux clusters with different networks" axis.
pub(crate) fn linux_gige_cluster() -> Machine {
    Machine {
        name: "Linux cluster (GigE)",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 2,
            peak_gflops: 4.8,
            stream_bw: 2.5e9,
            mem_bw_node: 5.2e9,
            dgemm_eff: 0.88,
            hpl_eff: 0.70,
            mem_latency_us: 0.11,
            random_concurrency: 4.0,
        },
        net: NetworkModel {
            topology: TopologyKind::FatTree {
                arity: 24,
                blocking: 4.0,
                blocking_from: 1,
            },
            link_bw: 0.112e9, // ~112 MB/s of TCP goodput over GigE
            nic_duplex: true,
            mpi_latency_us: 45.0,
            per_hop_us: 2.0,
            overhead_us: 8.0,
            intra_latency_us: 1.0,
            intra_bw: 1.5e9,
            per_msg_bw: 0.112e9,
            plain_link_bw: 0.112e9,
        },
        max_cpus: 512,
    }
}

/// An exascale-era capacity model: fat many-core nodes on a low-latency
/// two-level fat tree, sized so virtual worlds can sweep the proc axis
/// two to three orders of magnitude past the paper-era ceilings (the
/// largest announced system above stops at 8192 CPUs). The parameters
/// are representative of a 2020s leadership system — ~50 Gflop/s per
/// core, HBM-class node memory, 200 Gb/s-class injection, ~1.5 us MPI
/// latency — not calibrated to any one installation.
///
/// Deliberately **not** part of [`future_systems`]: the paper's
/// conclusion lists exactly five follow-up architectures, and this one
/// exists for the cooperative scheduler's high-rank sweeps rather than
/// for the announced study.
pub fn exascale_cluster() -> Machine {
    Machine {
        name: "Exascale cluster",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 64,
            peak_gflops: 50.0, // wide-SIMD core: 2 FMA pipes x 8 lanes
            stream_bw: 16.0e9,
            mem_bw_node: 1.6e12, // HBM-class node aggregate
            dgemm_eff: 0.90,
            hpl_eff: 0.75,
            mem_latency_us: 0.08,
            random_concurrency: 16.0,
        },
        net: NetworkModel {
            topology: TopologyKind::FatTree {
                arity: 64,
                blocking: 2.0, // 2:1 taper above the leaf switches
                blocking_from: 1,
            },
            link_bw: 25.0e9, // 200 Gb/s-class NIC
            nic_duplex: true,
            mpi_latency_us: 1.5,
            per_hop_us: 0.05,
            overhead_us: 0.3,
            intra_latency_us: 0.3,
            intra_bw: 12.0e9,
            per_msg_bw: 12.0e9,
            plain_link_bw: 25.0e9,
        },
        max_cpus: 262_144,
    }
}

/// All five announced follow-up systems.
pub fn future_systems() -> Vec<Machine> {
    vec![
        linux_gige_cluster(),
        ibm_bluegene_p(),
        cray_xt4(),
        cray_x1e(),
        ibm_power5p(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_future_models_validate() {
        for m in future_systems() {
            m.validate().unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(future_systems().len(), 5, "the conclusion lists five");
    }

    #[test]
    fn exascale_cluster_validates_and_scales_past_the_paper_era() {
        let m = exascale_cluster();
        m.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            m.max_cpus >= 131_072,
            "needs headroom for 100k-rank virtual worlds"
        );
        for f in future_systems() {
            assert!(m.max_cpus > f.max_cpus, "vs {}", f.name);
        }
        // A 65536-rank fabric must build (the high-rank sweeps use it).
        let f = m.fabric(65_536);
        assert_eq!(f.topology().name(), "fat-tree");
    }

    #[test]
    fn torus_machines_build_torus_fabrics() {
        for m in [ibm_bluegene_p(), cray_xt4()] {
            let f = m.fabric(256);
            assert_eq!(f.topology().name(), "torus3d", "{}", m.name);
        }
    }

    #[test]
    fn x1e_is_a_faster_x1() {
        let x1 = crate::systems::cray_x1_msp();
        let x1e = cray_x1e();
        assert!(x1e.node.peak_gflops > x1.node.peak_gflops);
        assert_eq!(
            format!("{:?}", x1e.net.topology),
            format!("{:?}", x1.net.topology),
            "same interconnect family"
        );
    }

    #[test]
    fn gige_cluster_is_the_slow_network_point() {
        let gige = linux_gige_cluster();
        for m in crate::systems::paper_systems() {
            assert!(gige.net.link_bw < m.net.link_bw, "vs {}", m.name);
            assert!(
                gige.net.mpi_latency_us > m.net.mpi_latency_us,
                "vs {}",
                m.name
            );
        }
    }
}
