//! Machine model types: everything the simulator needs to know about one
//! of the paper's systems.

use simnet::{Clos, Crossbar, Fabric, FabricParams, FatTree, Hypercube, Time, Topology, Torus3D};

/// Scalar (cache-based) or vector system — the paper's primary taxonomy
/// ("two clear-cut performance clusterings by architectures").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemClass {
    /// Cache-based superscalar processors (Altix, Opteron, Xeon).
    Scalar,
    /// Vector processors (Cray X1, NEC SX-8).
    Vector,
}

/// Interconnect family, mirroring Table 2's "Network topology" column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologyKind {
    /// Fat-tree with the given switch arity, oversubscription factor and
    /// the first tree level it applies from (SGI NUMALINK, InfiniBand).
    FatTree {
        /// Switch arity.
        arity: usize,
        /// Oversubscription factor at and above `blocking_from`.
        blocking: f64,
        /// First edge level the blocking applies to.
        blocking_from: usize,
    },
    /// Binary hypercube (Cray X1's "modified torus, called 4D-hypercube").
    Hypercube,
    /// Single-stage full crossbar (NEC IXS).
    Crossbar,
    /// 3-D torus (IBM Blue Gene/P, Cray XT4 SeaStar — the follow-up
    /// systems of the paper's conclusion).
    Torus3D,
    /// Three-stage Clos of full-crossbar switches (Myrinet).
    Clos {
        /// Port count of each constituent crossbar switch.
        radix: usize,
        /// Number of spine switches (`radix/2` is non-blocking; fewer
        /// oversubscribes the core, as measured Myrinet installations
        /// were).
        spine: usize,
    },
}

impl TopologyKind {
    /// Builds the topology instance for `nodes` attached nodes.
    pub(crate) fn build(&self, nodes: usize) -> Box<dyn Topology> {
        match *self {
            TopologyKind::FatTree {
                arity,
                blocking,
                blocking_from,
            } => Box::new(FatTree::with_blocking_from(
                nodes,
                arity,
                blocking,
                blocking_from,
            )),
            TopologyKind::Hypercube => Box::new(Hypercube::new(nodes)),
            TopologyKind::Torus3D => Box::new(Torus3D::new(nodes)),
            TopologyKind::Crossbar => Box::new(Crossbar::new(nodes)),
            TopologyKind::Clos { radix, spine } => Box::new(Clos::with_spine(nodes, radix, spine)),
        }
    }
}

/// Node (processor + memory subsystem) model.
#[derive(Clone, Copy, Debug)]
pub struct NodeModel {
    /// CPUs per SMP node (Table 2 "CPUs/node").
    pub cpus: usize,
    /// Peak double-precision Gflop/s per CPU.
    pub peak_gflops: f64,
    /// Sustainable STREAM-copy bandwidth per CPU with all CPUs active,
    /// bytes/s (counted IMB-style: payload bytes, read+write included in
    /// the rate).
    pub stream_bw: f64,
    /// Aggregate node memory bandwidth, bytes/s.
    pub mem_bw_node: f64,
    /// Fraction of peak the DGEMM kernel sustains (EP-DGEMM).
    pub dgemm_eff: f64,
    /// Single-node HPL efficiency (fraction of peak); network effects on
    /// top of this come from the fabric simulation.
    pub hpl_eff: f64,
    /// Effective memory latency for dependent random accesses, in
    /// microseconds (drives the RandomAccess model).
    pub mem_latency_us: f64,
    /// Random-access update concurrency the memory system sustains
    /// (vector gather/scatter pipes >> scalar cache systems).
    pub random_concurrency: f64,
}

/// Interconnect model.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Topology family.
    pub topology: TopologyKind,
    /// NIC injection/ejection bandwidth per node per direction, bytes/s.
    pub link_bw: f64,
    /// Whether injection and ejection are independent (full duplex).
    pub nic_duplex: bool,
    /// Inter-node zero-byte MPI latency, microseconds.
    pub mpi_latency_us: f64,
    /// Extra latency per switch hop, microseconds.
    pub per_hop_us: f64,
    /// Sender-side software overhead per message, microseconds.
    pub overhead_us: f64,
    /// Intra-node (shared-memory) MPI latency, microseconds.
    pub intra_latency_us: f64,
    /// Intra-node per-pair MPI bandwidth, bytes/s per direction.
    pub intra_bw: f64,
    /// Ceiling on a *single message's* wire rate, bytes/s — on some
    /// systems (Cray X1) one MPI stream cannot saturate the node's
    /// aggregate injection bandwidth. Set equal to `link_bw` when a
    /// single pair can.
    pub per_msg_bw: f64,
    /// Per-node bandwidth of the *plain-buffer* MPI path, bytes/s per
    /// direction. Equal to `link_bw` on most systems; lower on the NEC
    /// SX-8, where the paper notes IMB was run from `MPI_Alloc_mem`
    /// global memory ("the MPI library on the NEC SX-8 is optimized for
    /// global memory") while the HPCC ring used ordinary buffers.
    pub plain_link_bw: f64,
}

/// A complete machine model: one of the five systems of the paper
/// (plus variants such as Altix with NUMALINK3).
#[derive(Clone, Debug)]
pub struct Machine {
    /// Display name ("NEC SX-8", ...).
    pub name: &'static str,
    /// Scalar or vector.
    pub class: SystemClass,
    /// Node model.
    pub node: NodeModel,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Largest CPU count the real installation supported (caps sweeps).
    pub max_cpus: usize,
}

impl Machine {
    /// Number of SMP nodes needed for `cpus` ranks (block mapping).
    pub fn nodes_for(&self, cpus: usize) -> usize {
        cpus.div_ceil(self.node.cpus)
    }

    /// Peak Gflop/s of a `cpus`-rank configuration.
    pub fn peak_gflops(&self, cpus: usize) -> f64 {
        self.node.peak_gflops * cpus as f64
    }

    /// Builds a fabric for `cpus` ranks (optimised MPI path).
    pub fn fabric(&self, cpus: usize) -> Fabric {
        self.fabric_with_nic(cpus, self.net.link_bw)
    }

    /// Builds a fabric whose NICs run at the plain-buffer MPI rate.
    pub(crate) fn plain_fabric(&self, cpus: usize) -> Fabric {
        self.fabric_with_nic(cpus, self.net.plain_link_bw)
    }

    fn fabric_with_nic(&self, cpus: usize, nic_bw: f64) -> Fabric {
        let nodes = self.nodes_for(cpus).max(1);
        Fabric::new(
            self.net.topology.build(nodes),
            FabricParams {
                link_bw: self.net.link_bw,
                nic_bw,
                nic_duplex: self.net.nic_duplex,
                base_latency: Time::from_us(self.net.mpi_latency_us),
                per_hop_latency: Time::from_us(self.net.per_hop_us),
            },
        )
    }

    /// Sanity-checks the model's parameters; returns the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let n = &self.node;
        let w = &self.net;
        if n.cpus == 0 {
            return Err(format!("{}: zero CPUs per node", self.name));
        }
        for (label, v) in [
            ("peak", n.peak_gflops),
            ("stream", n.stream_bw),
            ("node mem bw", n.mem_bw_node),
            ("link bw", w.link_bw),
            ("per message bw", w.per_msg_bw),
            ("plain link bw", w.plain_link_bw),
            ("intra bw", w.intra_bw),
            ("random concurrency", n.random_concurrency),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{}: non-positive {label}", self.name));
            }
        }
        for (label, v) in [
            ("dgemm efficiency", n.dgemm_eff),
            ("hpl efficiency", n.hpl_eff),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("{}: {label} outside (0, 1]", self.name));
            }
        }
        if n.stream_bw * n.cpus as f64 > n.mem_bw_node * 1.001 {
            return Err(format!(
                "{}: per-CPU stream bandwidth exceeds the node aggregate",
                self.name
            ));
        }
        if self.max_cpus < n.cpus {
            return Err(format!("{}: max_cpus below one node", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Machine {
        Machine {
            name: "toy",
            class: SystemClass::Scalar,
            node: NodeModel {
                cpus: 2,
                peak_gflops: 2.0,
                stream_bw: 1e9,
                mem_bw_node: 2e9,
                dgemm_eff: 0.9,
                hpl_eff: 0.8,
                mem_latency_us: 0.1,
                random_concurrency: 4.0,
            },
            net: NetworkModel {
                topology: TopologyKind::Crossbar,
                link_bw: 1e9,
                nic_duplex: true,
                mpi_latency_us: 5.0,
                per_hop_us: 0.1,
                overhead_us: 0.5,
                intra_latency_us: 1.0,
                intra_bw: 2e9,
                per_msg_bw: 1e9,
                plain_link_bw: 1e9,
            },
            max_cpus: 64,
        }
    }

    #[test]
    fn node_mapping() {
        let m = toy();
        assert_eq!(m.nodes_for(1), 1);
        assert_eq!(m.nodes_for(2), 1);
        assert_eq!(m.nodes_for(3), 2);
        assert_eq!(m.nodes_for(64), 32);
        assert_eq!(m.peak_gflops(4), 8.0);
    }

    #[test]
    fn fabric_construction() {
        let m = toy();
        let f = m.fabric(8);
        assert_eq!(f.num_nodes(), 4);
    }

    #[test]
    fn validation_accepts_sane_models() {
        assert!(toy().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_efficiency() {
        let mut m = toy();
        m.node.hpl_eff = 1.5;
        assert!(m.validate().unwrap_err().contains("hpl efficiency"));
    }

    #[test]
    fn validation_catches_inconsistent_bandwidth() {
        let mut m = toy();
        m.node.stream_bw = 3e9; // 2 CPUs x 3 GB/s > 2 GB/s node
        assert!(m.validate().unwrap_err().contains("exceeds"));
    }

    #[test]
    fn topology_kinds_build() {
        for kind in [
            TopologyKind::FatTree {
                arity: 4,
                blocking: 1.0,
                blocking_from: 1,
            },
            TopologyKind::Hypercube,
            TopologyKind::Crossbar,
            TopologyKind::Torus3D,
            TopologyKind::Clos {
                radix: 16,
                spine: 8,
            },
        ] {
            let t = kind.build(16);
            assert_eq!(t.num_nodes(), 16);
        }
    }
}
