//! Dell Xeon Cluster "Tungsten" (NCSA): 1280 nodes x 2 Intel Xeon
//! (Nocona EM64T) 3.6 GHz, InfiniBand.
//!
//! Paper, Section 2.4: 3.6 GHz Xeon with an 800 MHz system bus, 1 MB L2;
//! "peak performance of 7.2 Gflop/s" per processor; PCI-X InfiniBand HCA
//! per node; "the IB is configured in groups of 18 nodes 1:1 with 3:1
//! blocking through the core IB switches"; MPI-level InfiniBand peak
//! bandwidth 841 MB/s and 6.8 us minimum latency.
//!
//! Calibration anchors:
//! * Fig. 14: "the second best system is the Xeon Cluster and its
//!   performance is almost constant from 2 to 512 processors" — the
//!   full-duplex HCA keeps Exchange flat.
//! * Figures 8, 10, 12: tracks the Altix BX2 closely among the scalar
//!   systems, ahead of the Myrinet Opteron cluster.

use crate::model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

/// The Dell Xeon Cluster model.
pub fn dell_xeon() -> Machine {
    Machine {
        name: "Dell Xeon Cluster",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 2,
            peak_gflops: 7.2,
            stream_bw: 2.2e9,
            mem_bw_node: 4.6e9,
            dgemm_eff: 0.82,
            // NetBurst sustains a comparatively low fraction of peak.
            hpl_eff: 0.62,
            mem_latency_us: 0.12,
            random_concurrency: 4.0,
        },
        net: NetworkModel {
            topology: TopologyKind::FatTree {
                arity: 18,
                blocking: 3.0,
                blocking_from: 1,
            },
            link_bw: 0.841e9,
            nic_duplex: true,
            mpi_latency_us: 6.8,
            per_hop_us: 0.3,
            overhead_us: 0.9,
            intra_latency_us: 1.0,
            intra_bw: 1.6e9,
            per_msg_bw: 0.841e9,
            plain_link_bw: 0.841e9,
        },
        // Topspin MPI "scales only up to 1020 processes".
        max_cpus: 1024,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_matches_section_2_4() {
        let m = super::dell_xeon();
        m.validate().unwrap();
        assert_eq!(m.node.peak_gflops, 7.2);
        assert!((m.net.link_bw - 841e6).abs() < 1.0);
        assert!((m.net.mpi_latency_us - 6.8).abs() < 1e-9);
    }

    #[test]
    fn core_is_oversubscribed_3_to_1() {
        let m = super::dell_xeon();
        let f = m.fabric(512); // 256 nodes
        let ideal = 256.0 / 2.0;
        assert!((f.topology().bisection_links() - ideal / 3.0).abs() < 1.0);
    }
}
