//! Binary hypercube topology (Cray X1).
//!
//! "A large system is built by modified torus, called 4D-hypercube using
//! specialized routing chips" (paper, Section 2.2). We model a d-dimensional
//! binary hypercube with dimension-ordered routing; the NASA Cray X1 studied
//! in the paper has 4 nodes (a 2-cube).

use super::{LinkId, NodeId, Topology};

/// A d-dimensional binary hypercube over up to `2^d` nodes.
///
/// Node ids beyond `num_nodes` (when the attached node count is not a power
/// of two) still exist as routing points but never originate traffic.
#[derive(Clone, Debug)]
pub struct Hypercube {
    n: usize,
    dims: u32,
}

impl Hypercube {
    /// Builds the smallest hypercube containing `n` nodes.
    pub fn new(n: usize) -> Hypercube {
        assert!(n > 0, "hypercube needs at least one node");
        let dims = (usize::BITS - (n - 1).leading_zeros()).max(1);
        let dims = if n == 1 { 0 } else { dims };
        Hypercube { n, dims }
    }

    /// Builds a hypercube with exactly `dims` dimensions (`2^dims` vertices).
    #[cfg(test)]
    fn with_dims(dims: u32) -> Hypercube {
        Hypercube {
            n: 1usize << dims,
            dims,
        }
    }

    /// Dimensionality of the cube.
    #[cfg(test)]
    fn dims(&self) -> u32 {
        self.dims
    }

    /// Directed link leaving `node` along `dim`.
    fn link(&self, node: usize, dim: u32) -> LinkId {
        node * self.dims as usize + dim as usize
    }
}

impl Topology for Hypercube {
    fn name(&self) -> &'static str {
        "hypercube"
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_links(&self) -> usize {
        (1usize << self.dims) * self.dims as usize
    }

    fn link_capacity_scale(&self, _link: LinkId) -> f64 {
        1.0
    }

    fn route_into(&self, src: NodeId, dst: NodeId, route: &mut Vec<LinkId>) {
        assert!(src < self.n && dst < self.n, "node out of range");
        let mut cur = src;
        // Dimension-ordered (e-cube) routing: correct bits lowest-first.
        for dim in 0..self.dims {
            let bit = 1usize << dim;
            if (cur ^ dst) & bit != 0 {
                route.push(self.link(cur, dim));
                cur ^= bit;
            }
        }
        debug_assert_eq!(cur, dst);
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        (src ^ dst).count_ones() as usize
    }

    fn bisection_links(&self) -> f64 {
        if self.dims == 0 {
            1.0
        } else {
            (1usize << (self.dims - 1)) as f64
        }
    }

    fn diameter(&self) -> usize {
        self.dims as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_topology_invariants;

    #[test]
    fn four_node_cube_matches_cray_x1() {
        let t = Hypercube::new(4);
        assert_eq!(t.dims(), 2);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.diameter(), 2);
        assert_eq!(t.bisection_links(), 2.0);
        check_topology_invariants(&t);
    }

    #[test]
    fn routing_is_dimension_ordered() {
        let t = Hypercube::with_dims(4);
        let route = t.route(0b0000, 0b1011);
        assert_eq!(route.len(), 3);
        assert_eq!(t.hops(0b0000, 0b1011), 3);
        // First hop flips the lowest differing bit.
        assert_eq!(route[0], t.link(0b0000, 0));
    }

    #[test]
    fn non_power_of_two_padding() {
        let t = Hypercube::new(5);
        assert_eq!(t.dims(), 3);
        assert_eq!(t.num_nodes(), 5);
        check_topology_invariants(&t);
    }

    #[test]
    fn single_node() {
        let t = Hypercube::new(1);
        assert_eq!(t.dims(), 0);
        assert!(t.route(0, 0).is_empty());
    }

    #[test]
    fn hop_counts_are_hamming_distance() {
        let t = Hypercube::with_dims(4);
        for a in 0..16usize {
            for b in 0..16usize {
                assert_eq!(t.hops(a, b), (a ^ b).count_ones() as usize);
                assert_eq!(t.route(a, b).len(), t.hops(a, b));
            }
        }
    }
}
