//! SGI Altix BX2 (NASA Ames): 512 Itanium 2 CPUs per box, NUMALINK4
//! fat-tree, single-system-image shared memory.
//!
//! Paper, Section 2.1 and Table 1: 1.6 GHz Itanium 2, two MADDs per clock
//! -> 6.4 Gflop/s peak; "each pair of processors shares a peak bandwidth
//! of 3.2 GB/s"; inter-node peak bandwidth 1.6 GB/s on the BX2 (2x the
//! BX); NUMALINK4 is "a fat-tree topology [whose] bisection bandwidth
//! scales linearly".
//!
//! Calibration anchors:
//! * Section 4.1.2 / 5.1: "the interconnect latency of SGI Altix BX2 is
//!   the best among all the platforms tested" -> 1.1 us MPI latency.
//! * Fig. 2: B/kFlop 203.12 at 506 CPUs (one box) collapsing to 23.18 at
//!   2024 CPUs (four boxes) -> cross-box oversubscription modelled as a
//!   ~9x blocked level above 256 NUMALINK nodes (512 CPUs).
//! * Fig. 2: NUMALINK3 within one box reaches only 93.81 B/kFlop at 440
//!   CPUs, and "Random Ring performance improves by a factor of 4" from
//!   NL3 to NL4 -> the NL3 variant carries a quarter of the NL4 link
//!   bandwidth.
//! * Fig. 4: EP-STREAM-copy / HPL >= 0.36 B/F.

use crate::model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

/// A NUMALINK node hosts one processor pair: arity-4 router tree; a
/// 512-CPU box is 256 leaves = 4 levels, so cross-box blocking starts at
/// edge level 4.
const NL_ARITY: usize = 4;
const BOX_LEVEL: usize = 4;

fn altix_node() -> NodeModel {
    NodeModel {
        cpus: 2,
        peak_gflops: 6.4,
        stream_bw: 2.0e9,
        mem_bw_node: 7.0e9,
        dgemm_eff: 0.92,
        hpl_eff: 0.85,
        mem_latency_us: 0.14,
        random_concurrency: 4.0,
    }
}

/// SGI Altix BX2 with NUMALINK4.
pub fn altix_bx2() -> Machine {
    Machine {
        name: "SGI Altix BX2 (NUMALINK4)",
        class: SystemClass::Scalar,
        node: altix_node(),
        net: NetworkModel {
            topology: TopologyKind::FatTree {
                arity: NL_ARITY,
                blocking: 9.0,
                blocking_from: BOX_LEVEL,
            },
            link_bw: 1.6e9,
            nic_duplex: true,
            mpi_latency_us: 1.1,
            // Random-ring routes cross ~8 router hops in a full box; the
            // per-hop cost dominates the far-pair latency (the paper's
            // random-ring latency is several times the nearest-pair MPI
            // latency).
            per_hop_us: 0.3,
            overhead_us: 0.3,
            intra_latency_us: 0.7,
            intra_bw: 3.0e9,
            per_msg_bw: 1.6e9,
            plain_link_bw: 1.6e9,
        },
        max_cpus: 2048,
    }
}

/// SGI Altix 3700 with NUMALINK3 (the paper's comparison variant,
/// single box only).
pub fn altix_nl3() -> Machine {
    let mut m = altix_bx2();
    m.name = "SGI Altix (NUMALINK3)";
    m.net.topology = TopologyKind::FatTree {
        arity: NL_ARITY,
        blocking: 1.0,
        blocking_from: 1,
    };
    m.net.link_bw = 0.4e9;
    m.net.mpi_latency_us = 1.4;
    m.max_cpus = 512;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bx2_is_valid_and_matches_table_2() {
        let m = altix_bx2();
        m.validate().unwrap();
        assert_eq!(m.node.cpus, 2);
        // Table 2: peak/node 12.8 Gflop/s at 1.6 GHz.
        assert_eq!(m.node.peak_gflops * m.node.cpus as f64, 12.8);
    }

    #[test]
    fn nl3_variant_is_slower_but_valid() {
        let m = altix_nl3();
        m.validate().unwrap();
        assert!(m.net.link_bw < altix_bx2().net.link_bw / 2.0);
    }

    #[test]
    fn one_box_has_full_bisection_multi_box_does_not() {
        let m = altix_bx2();
        let one_box = m.fabric(512); // 256 NUMALINK nodes
        let four_box = m.fabric(2048); // 1024 nodes, above BOX_LEVEL
        let full = one_box.topology().bisection_links();
        let blocked = four_box.topology().bisection_links();
        assert_eq!(full, 128.0, "one box: ideal fat-tree bisection");
        assert!(
            blocked < 1024.0 / 2.0 / 2.0,
            "multi-box bisection is heavily oversubscribed: {blocked}"
        );
    }
}
