//! Full crossbar topology (NEC IXS).
//!
//! "The IXS is a 128x128 crossbar switch. Each individual link has a peak
//! bi-directional bandwidth of 16 GB/s" (paper, Section 2.5). A full
//! crossbar's interior is non-blocking: the only contention points are the
//! per-node ports, which the [`Fabric`](crate::fabric::Fabric) models as NIC
//! injection/ejection resources. The topology therefore contributes no
//! interior links, only a one-switch hop for latency.

use super::{LinkId, NodeId, Topology};

/// A single-stage full crossbar over `n` nodes.
#[derive(Clone, Debug)]
pub struct Crossbar {
    n: usize,
}

impl Crossbar {
    /// Builds an `n`-port crossbar.
    pub fn new(n: usize) -> Crossbar {
        assert!(n > 0, "crossbar needs at least one node");
        Crossbar { n }
    }
}

impl Topology for Crossbar {
    fn name(&self) -> &'static str {
        "crossbar"
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_links(&self) -> usize {
        0
    }

    fn link_capacity_scale(&self, _link: LinkId) -> f64 {
        1.0
    }

    fn route_into(&self, src: NodeId, dst: NodeId, _route: &mut Vec<LinkId>) -> usize {
        assert!(src < self.n && dst < self.n, "node out of range");
        self.hops(src, dst)
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        usize::from(src != dst)
    }

    fn bisection_links(&self) -> f64 {
        (self.n as f64 / 2.0).max(1.0)
    }

    fn diameter(&self) -> usize {
        usize::from(self.n > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_topology_invariants;

    #[test]
    fn interior_is_non_blocking() {
        let t = Crossbar::new(128);
        assert_eq!(t.num_links(), 0);
        assert!(t.route(3, 97).is_empty());
        assert_eq!(t.hops(3, 97), 1);
        assert_eq!(t.hops(5, 5), 0);
        assert_eq!(t.bisection_links(), 64.0);
        assert_eq!(t.diameter(), 1);
        check_topology_invariants(&t);
    }

    #[test]
    fn single_port() {
        let t = Crossbar::new(1);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.bisection_links(), 1.0);
    }
}
