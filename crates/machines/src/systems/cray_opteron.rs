//! Cray Opteron Cluster (NASA Ames): 64 nodes x 2 AMD Opteron 2.0 GHz,
//! Myrinet (PCI-X Lanai cards).
//!
//! Paper, Section 2.3: "a processor can perform two floating-point
//! operations each clock with a peak performance of 4 Gflop/s"; 63
//! compute nodes with 2 GB each; Myrinet with cut-through routing and
//! RDMA; "the 8 and 16 port switches are full crossbars". Section 2.4
//! quotes the MPI-level Myrinet numbers used here: 771 MB/s peak
//! bandwidth (PCI-X) and 6.7 us minimum latency.
//!
//! Calibration anchors:
//! * Fig. 2: B/kFlop 24.41 at 64 CPUs, with "a strong decrease ...
//!   especially between 32 CPUs and 64 CPUs".
//! * Fig. 4: EP-STREAM-copy / HPL between 0.84 and 1.07 B/F; "HPL
//!   efficiency decreases down around 20% between 4 CPU and 64 CPU runs".
//! * Figures 7-15: consistently the slowest collective performer
//!   ("worst performance is that of Cray Opteron Cluster (uses Myrinet
//!   network)").

use crate::model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

/// The Cray Opteron Cluster model.
pub fn cray_opteron() -> Machine {
    Machine {
        name: "Cray Opteron Cluster",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 2,
            peak_gflops: 4.0,
            stream_bw: 3.2e9,
            mem_bw_node: 6.4e9,
            dgemm_eff: 0.90,
            hpl_eff: 0.80,
            // Integrated memory controller: the best scalar latency here.
            mem_latency_us: 0.09,
            random_concurrency: 5.0,
        },
        net: NetworkModel {
            // A thin spine: the measured random-ring bandwidth collapse
            // between 32 and 64 CPUs (Fig. 2: down to 24.41 B/kFlop)
            // implies heavy core oversubscription once traffic leaves a
            // single 16-port crossbar.
            topology: TopologyKind::Clos {
                radix: 16,
                spine: 2,
            },
            link_bw: 0.771e9,
            // PCI-X is a shared half-duplex bus: send and receive
            // contend for the same NIC bandwidth.
            nic_duplex: false,
            mpi_latency_us: 6.7,
            per_hop_us: 0.4,
            overhead_us: 1.0,
            intra_latency_us: 1.1,
            intra_bw: 1.4e9,
            per_msg_bw: 0.771e9,
            plain_link_bw: 0.771e9,
        },
        max_cpus: 128,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_matches_section_2_3() {
        let m = super::cray_opteron();
        m.validate().unwrap();
        assert_eq!(m.node.peak_gflops, 4.0);
        assert_eq!(m.node.cpus, 2);
        assert!(!m.net.nic_duplex, "PCI-X Myrinet is half-duplex");
        // STREAM B/F against peak*hpl_eff lands in the paper's 0.84-1.07.
        let bf = m.node.stream_bw / (m.node.peak_gflops * 1e9 * m.node.hpl_eff);
        assert!((0.8..1.1).contains(&bf), "B/F = {bf}");
    }
}
