//! Cray X1 (NASA Ames): 4 nodes x 4 MSPs (16 SSPs), proprietary network.
//!
//! Paper, Section 2.2: each Multi-Streaming Processor (MSP) peaks at
//! 12.8 Gflop/s (Table 2 gives 12.8 Gflop/s per node-quarter at 800 MHz);
//! each node has 4 MSPs sharing 16 GB of flat memory behind 16 M-chips;
//! each MSP is 4 Single-Stream Processors (SSPs) of 3.2 Gflop/s vector
//! peak; larger systems use a "modified torus, called 4D-hypercube".
//! The NASA machine is 4 nodes (64 SSPs), one reserved for the system.
//!
//! Calibration anchors:
//! * Fig. 13: 2-SSP Sendrecv bandwidth 7.6 GB/s -> ~3.8 GB/s per
//!   direction through node memory.
//! * Figures 7-12: X1 sits between the NEC SX-8 and the scalar systems —
//!   an order of magnitude above the scalar cluster on Reduce (memory
//!   bandwidth bound) but well below the SX-8.

use crate::model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

fn x1_net() -> NetworkModel {
    NetworkModel {
        topology: TopologyKind::Hypercube,
        // The X1's MPI-level inter-node bandwidth sat well below the raw
        // link hardware (cf. Worley et al.'s X1 interconnect study the
        // paper cites as [15]); 5 GB/s per node is the software-visible
        // rate.
        link_bw: 5.0e9,
        nic_duplex: true,
        mpi_latency_us: 7.3,
        per_hop_us: 0.5,
        overhead_us: 1.5,
        intra_latency_us: 2.6,
        intra_bw: 3.8e9,
        // A single MPI stream on the X1 peaks near 2.9 GB/s
        // (Worley et al., the paper's [15]), well under the node
        // aggregate.
        per_msg_bw: 2.9e9,
        plain_link_bw: 5.0e9,
    }
}

/// Cray X1 in MSP mode (4 CPUs of 12.8 Gflop/s per node).
pub fn cray_x1_msp() -> Machine {
    Machine {
        name: "Cray X1 (MSP)",
        class: SystemClass::Vector,
        node: NodeModel {
            cpus: 4,
            peak_gflops: 12.8,
            stream_bw: 18.0e9,
            mem_bw_node: 76.0e9,
            dgemm_eff: 0.90,
            hpl_eff: 0.78,
            mem_latency_us: 0.6,
            random_concurrency: 48.0,
        },
        net: x1_net(),
        max_cpus: 16,
    }
}

/// Cray X1 in SSP mode (16 CPUs of 3.2 Gflop/s per node).
pub fn cray_x1_ssp() -> Machine {
    Machine {
        name: "Cray X1 (SSP)",
        class: SystemClass::Vector,
        node: NodeModel {
            cpus: 16,
            peak_gflops: 3.2,
            stream_bw: 4.5e9,
            mem_bw_node: 76.0e9,
            dgemm_eff: 0.88,
            hpl_eff: 0.74,
            mem_latency_us: 0.6,
            random_concurrency: 24.0,
        },
        net: x1_net(),
        max_cpus: 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msp_model_matches_section_2_2() {
        let m = cray_x1_msp();
        m.validate().unwrap();
        // 12.8 Gflop/s per MSP = 3.2 Gflop/s vector unit x 2 pipes x 2 MADD.
        assert_eq!(m.node.peak_gflops, 12.8);
        assert_eq!(m.node.cpus, 4);
    }

    #[test]
    fn ssp_mode_is_consistent_with_msp_mode() {
        let msp = cray_x1_msp();
        let ssp = cray_x1_ssp();
        ssp.validate().unwrap();
        // 4 SSPs make up one MSP: same node peak either way.
        assert_eq!(
            msp.node.peak_gflops * msp.node.cpus as f64,
            ssp.node.peak_gflops * ssp.node.cpus as f64
        );
        // Same installation: same network, same node count.
        assert_eq!(msp.nodes_for(msp.max_cpus), ssp.nodes_for(ssp.max_cpus));
    }
}
