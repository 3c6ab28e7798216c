//! NEC SX-8 (HLRS Stuttgart): 72 nodes x 8 vector CPUs, IXS crossbar.
//!
//! Paper, Section 2.5: 16 Gflop/s vector peak per CPU at 2 GHz; 64 GB/s
//! memory bandwidth per processor (512 GB/s per node); IXS is a 128x128
//! crossbar with 16 GB/s bidirectional per node link shared by the 8
//! CPUs; "MPI latency is around five microseconds for small messages".
//!
//! Calibration anchors from the measurements:
//! * Fig. 13: 2-processor Sendrecv bandwidth 47.4 GB/s -> intra-node
//!   per-direction MPI bandwidth ~23.7 GB/s.
//! * Fig. 4 / Table 3: EP-STREAM-copy / HPL consistently >= 2.67 B/F
//!   (max column 2.893) -> ~41 GB/s sustained copy per CPU against an
//!   HPL efficiency around 0.88.
//! * Section 4.1.2: "relatively high Random Ring latency compared to the
//!   other systems".

use crate::model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

/// The NEC SX-8 model.
pub fn nec_sx8() -> Machine {
    Machine {
        name: "NEC SX-8",
        class: SystemClass::Vector,
        node: NodeModel {
            cpus: 8,
            peak_gflops: 16.0,
            stream_bw: 41.0e9,
            mem_bw_node: 512.0e9,
            dgemm_eff: 0.96,
            hpl_eff: 0.88,
            // Vector gather/scatter pipes hide latency behind deep
            // memory concurrency.
            mem_latency_us: 0.4,
            random_concurrency: 128.0,
        },
        net: NetworkModel {
            topology: TopologyKind::Crossbar,
            // IXS: "a peak bi-directional bandwidth of 16 GB/s" per node
            // link, i.e. 8 GB/s each direction, shared by the node's 8
            // CPUs.
            link_bw: 8.0e9,
            nic_duplex: true,
            mpi_latency_us: 5.0,
            per_hop_us: 0.3,
            overhead_us: 1.2,
            intra_latency_us: 1.6,
            intra_bw: 23.7e9,
            // Plain-buffer MPI (the path HPCC's random ring exercises)
            // reaches well under half the IXS rate; calibrated to the
            // paper's accumulated ring bandwidth (Fig. 1: ~0.78 GB/s per
            // CPU at 576 CPUs).
            per_msg_bw: 8.0e9,
            plain_link_bw: 3.2e9,
        },
        max_cpus: 576,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_is_valid_and_matches_table_2() {
        let m = super::nec_sx8();
        m.validate().unwrap();
        assert_eq!(m.node.cpus, 8);
        // Table 2: peak/node 128 Gflop/s.
        assert_eq!(m.node.peak_gflops * m.node.cpus as f64, 128.0);
        assert_eq!(m.max_cpus, 576);
    }
}
