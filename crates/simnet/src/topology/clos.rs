//! Three-stage Clos network (Myrinet).
//!
//! "Myrinet offers ready to use 8-256 port switches. The 8 and 16 port
//! switches are full crossbars" (paper, Section 2.3); multi-switch Myrinet
//! installations compose these crossbars into a Clos/spine arrangement. We
//! model a classic three-stage Clos: edge switches each serving `down`
//! nodes, fully wired to `middle` spine crossbars.

use super::{LinkId, NodeId, Topology};

/// A three-stage Clos fabric over `n` nodes.
#[derive(Clone, Debug)]
pub struct Clos {
    n: usize,
    down: usize,
    num_edge: usize,
    num_middle: usize,
}

impl Clos {
    /// Builds a Clos network from `radix`-port crossbar switches: each edge
    /// switch dedicates half its ports to nodes and half to the spine, which
    /// makes the fabric rearrangeably non-blocking.
    pub fn new(n: usize, radix: usize) -> Clos {
        assert!(n > 0, "clos needs at least one node");
        assert!(
            radix >= 2 && radix.is_multiple_of(2),
            "radix must be even and >= 2"
        );
        let down = radix / 2;
        let num_edge = n.div_ceil(down);
        Clos {
            n,
            down,
            num_edge,
            num_middle: down,
        }
    }

    /// Builds a Clos with an explicit spine width (allows oversubscription
    /// when `middle < radix/2`).
    pub fn with_spine(n: usize, radix: usize, middle: usize) -> Clos {
        let mut c = Clos::new(n, radix);
        assert!(middle >= 1);
        c.num_middle = middle;
        c
    }

    /// Edge switch serving `node`.
    fn edge_of(&self, node: NodeId) -> usize {
        node / self.down
    }

    /// Directed uplink from edge switch `e` to middle switch `m`.
    fn up(&self, e: usize, m: usize) -> LinkId {
        2 * (e * self.num_middle + m)
    }

    /// Directed downlink from middle switch `m` to edge switch `e`.
    fn dn(&self, e: usize, m: usize) -> LinkId {
        2 * (e * self.num_middle + m) + 1
    }

    /// Number of edge switches.
    #[cfg(test)]
    fn num_edge_switches(&self) -> usize {
        self.num_edge
    }

    /// Number of middle (spine) switches.
    #[cfg(test)]
    fn num_middle_switches(&self) -> usize {
        self.num_middle
    }
}

impl Topology for Clos {
    fn name(&self) -> &'static str {
        "clos"
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_links(&self) -> usize {
        2 * self.num_edge * self.num_middle
    }

    fn link_capacity_scale(&self, _link: LinkId) -> f64 {
        1.0
    }

    fn route_into(&self, src: NodeId, dst: NodeId, route: &mut Vec<LinkId>) -> usize {
        assert!(src < self.n && dst < self.n, "node out of range");
        let (es, ed) = (self.edge_of(src), self.edge_of(dst));
        if es == ed {
            // Same edge crossbar: non-blocking, no spine traversal.
            return usize::from(src != dst);
        }
        // Deterministic, direction-symmetric spine selection.
        let m = (src + dst) % self.num_middle;
        route.extend([self.up(es, m), self.dn(ed, m)]);
        3
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            0
        } else if self.edge_of(src) == self.edge_of(dst) {
            1
        } else {
            3
        }
    }

    fn bisection_links(&self) -> f64 {
        ((self.num_edge * self.num_middle) as f64 / 2.0).max(1.0)
    }

    fn diameter(&self) -> usize {
        if self.n == 1 {
            0
        } else if self.num_edge == 1 {
            1
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_topology_invariants;

    #[test]
    fn myrinet_like_64_nodes() {
        let t = Clos::new(64, 16);
        assert_eq!(t.num_edge_switches(), 8);
        assert_eq!(t.num_middle_switches(), 8);
        assert_eq!(t.bisection_links(), 32.0);
        assert_eq!(t.diameter(), 3);
        check_topology_invariants(&t);
    }

    #[test]
    fn same_switch_traffic_stays_local() {
        let t = Clos::new(64, 16);
        assert!(t.route(0, 7).is_empty());
        assert_eq!(t.hops(0, 7), 1);
    }

    #[test]
    fn cross_switch_traffic_uses_one_spine() {
        let t = Clos::new(64, 16);
        let r = t.route(0, 63);
        assert_eq!(r.len(), 2);
        assert_eq!(t.hops(0, 63), 3);
        // Symmetric spine selection: reverse route uses the same spine pair.
        let rev = t.route(63, 0);
        assert_eq!(rev.len(), 2);
    }

    #[test]
    fn oversubscribed_spine() {
        let full = Clos::new(64, 16);
        let thin = Clos::with_spine(64, 16, 4);
        assert!(thin.bisection_links() < full.bisection_links());
        check_topology_invariants(&thin);
    }

    #[test]
    fn tiny_cluster_single_switch() {
        let t = Clos::new(4, 16);
        assert_eq!(t.num_edge_switches(), 1);
        assert!(t.route(0, 3).is_empty());
        assert_eq!(t.diameter(), 1);
    }
}
