//! Interconnect topologies.
//!
//! The paper's five systems use five different networks with three topology
//! families (Table 2): fat-tree (SGI NUMALINK4, InfiniBand, Myrinet's Clos is
//! modelled separately), 4-D hypercube (Cray X1) and crossbar (NEC IXS).
//!
//! A [`Topology`] enumerates *interior* directed links (NIC injection and
//! ejection at the endpoints are modelled separately by the
//! [`Fabric`](crate::fabric::Fabric)) and answers routing queries. Links may
//! carry a capacity scale relative to the base link bandwidth: an ideal
//! fat-tree link aggregating `k` child links has scale `k`.

mod clos;
mod crossbar;
mod fat_tree;
mod hypercube;
mod torus;

pub use clos::Clos;
pub use crossbar::Crossbar;
pub use fat_tree::FatTree;
pub use hypercube::Hypercube;
pub use torus::Torus3D;

/// Index of a compute node attached to the fabric.
pub type NodeId = usize;
/// Index of a directed interior link.
pub type LinkId = usize;

/// An interconnect topology: a set of nodes joined by directed interior links.
pub trait Topology: Send + Sync {
    /// Human-readable topology family name.
    fn name(&self) -> &'static str;

    /// Number of attached compute nodes.
    fn num_nodes(&self) -> usize;

    /// Number of directed interior links.
    fn num_links(&self) -> usize;

    /// Capacity of `link` relative to the base link bandwidth.
    fn link_capacity_scale(&self, link: LinkId) -> f64;

    /// Appends to `route` the directed interior links traversed from
    /// `src` to `dst`, in order; nothing when `src == dst`. Routes are
    /// deterministic. Returns the walk's switch hops, equal to
    /// [`hops`](Self::hops)`(src, dst)`, so a fabric prices a message's
    /// occupancy and its latency from one walk. Writing into the
    /// caller's buffer lets a fabric price every message out of one
    /// allocation.
    fn route_into(&self, src: NodeId, dst: NodeId, route: &mut Vec<LinkId>) -> usize;

    /// The route from `src` to `dst` as a fresh vector.
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut route = Vec::new();
        self.route_into(src, dst, &mut route);
        route
    }

    /// Switch hops between `src` and `dst` (used for per-hop latency).
    /// At least 1 for distinct nodes even when the interior is non-blocking.
    fn hops(&self, src: NodeId, dst: NodeId) -> usize;

    /// Worst-case bisection capacity in base-link equivalents: the number of
    /// full-rate flows the fabric can carry across a worst-case half/half cut.
    fn bisection_links(&self) -> f64;

    /// Longest hop count between any pair of nodes.
    fn diameter(&self) -> usize {
        let n = self.num_nodes();
        let mut d = 0;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    d = d.max(self.hops(a, b));
                }
            }
        }
        d
    }
}

/// Checks routing invariants shared by every topology; used by the unit
/// tests of each implementation.
#[cfg(test)]
fn check_topology_invariants(t: &dyn Topology) {
    let n = t.num_nodes();
    assert!(n > 0);
    let mut route = Vec::new();
    for src in 0..n {
        assert!(t.route(src, src).is_empty(), "self-route must be empty");
        for dst in 0..n {
            route.clear();
            // The walk's hop count prices latency, so it must be `hops`.
            let walked = t.route_into(src, dst, &mut route);
            assert_eq!(walked, t.hops(src, dst), "{src}->{dst} walk hops");
            if src == dst {
                continue;
            }
            for &l in &route {
                assert!(l < t.num_links(), "route uses out-of-range link {l}");
                assert!(t.link_capacity_scale(l) > 0.0);
            }
            assert!(t.hops(src, dst) >= 1);
            assert!(t.hops(src, dst) == t.hops(dst, src), "hop symmetry");
            // A route never visits the same directed link twice.
            let mut seen = route.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), route.len(), "route revisits a link");
        }
    }
    assert!(t.bisection_links() > 0.0);
}
