//! 3-D torus topology.
//!
//! Not used by the paper's five systems, but required for the follow-up
//! machines its conclusion announces: the IBM Blue Gene/P and the Cray
//! XT4 (SeaStar) interconnects are 3-D tori.

use super::{LinkId, NodeId, Topology};

/// A `dx x dy x dz` torus with wraparound links in all three dimensions.
#[derive(Clone, Debug)]
pub struct Torus3D {
    n: usize,
    dims: [usize; 3],
}

/// Directions: +x, -x, +y, -y, +z, -z.
const DIRS: usize = 6;

impl Torus3D {
    /// Builds a torus with the given dimensions; nodes beyond `n` (when
    /// the attached node count is smaller than the full grid) exist as
    /// routing points only.
    #[cfg(test)]
    fn with_dims(n: usize, dims: [usize; 3]) -> Torus3D {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "torus dimensions must be >= 1"
        );
        assert!(
            n >= 1 && n <= dims.iter().product(),
            "node count exceeds the grid"
        );
        Torus3D { n, dims }
    }

    /// Builds a near-cubic torus containing `n` nodes.
    pub fn new(n: usize) -> Torus3D {
        assert!(n >= 1, "torus needs at least one node");
        let side = (n as f64).cbrt().ceil() as usize;
        let mut dims = [side.max(1); 3];
        // Shrink dimensions while the grid still fits n.
        for d in (0..3).rev() {
            while dims[d] > 1 && (dims[0] * dims[1] * dims[2]) / dims[d] * (dims[d] - 1) >= n {
                dims[d] -= 1;
            }
        }
        Torus3D { n, dims }
    }

    /// Grid dimensions.
    #[cfg(test)]
    fn dims(&self) -> [usize; 3] {
        self.dims
    }

    fn coords(&self, node: NodeId) -> [usize; 3] {
        let [dx, dy, _] = self.dims;
        [node % dx, (node / dx) % dy, node / (dx * dy)]
    }

    fn node_at(&self, c: [usize; 3]) -> NodeId {
        let [dx, dy, _] = self.dims;
        c[0] + c[1] * dx + c[2] * dx * dy
    }

    /// Directed link leaving `node` in `dir` (see [`DIRS`]).
    fn link(&self, node: NodeId, dir: usize) -> LinkId {
        node * DIRS + dir
    }

    /// Signed shortest step count along dimension `d` from `a` to `b`
    /// with wraparound (positive = the `+` direction).
    fn signed_dist(&self, d: usize, a: usize, b: usize) -> isize {
        let n = self.dims[d] as isize;
        let fwd = ((b as isize - a as isize) % n + n) % n;
        if fwd <= n - fwd {
            fwd
        } else {
            fwd - n
        }
    }
}

impl Topology for Torus3D {
    fn name(&self) -> &'static str {
        "torus3d"
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_links(&self) -> usize {
        self.dims.iter().product::<usize>() * DIRS
    }

    fn link_capacity_scale(&self, _link: LinkId) -> f64 {
        1.0
    }

    fn route_into(&self, src: NodeId, dst: NodeId, route: &mut Vec<LinkId>) -> usize {
        assert!(src < self.n && dst < self.n, "node out of range");
        let first = route.len();
        let mut cur = self.coords(src);
        let to = self.coords(dst);
        // Dimension-ordered, shortest wraparound direction per dimension.
        for d in 0..3 {
            let mut steps = self.signed_dist(d, cur[d], to[d]);
            while steps != 0 {
                let dir = 2 * d + usize::from(steps < 0);
                route.push(self.link(self.node_at(cur), dir));
                let dim = self.dims[d];
                cur[d] = if steps > 0 {
                    (cur[d] + 1) % dim
                } else {
                    (cur[d] + dim - 1) % dim
                };
                steps -= steps.signum();
            }
        }
        debug_assert_eq!(cur, to);
        route.len() - first
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let a = self.coords(src);
        let b = self.coords(dst);
        (0..3)
            .map(|d| self.signed_dist(d, a[d], b[d]).unsigned_abs())
            .sum()
    }

    fn bisection_links(&self) -> f64 {
        // Cut across the largest dimension: two crossing link sets (the
        // direct and the wraparound side), each of size (other dims).
        let (dmax_idx, _) = self
            .dims
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .expect("three dims");
        let others: usize = self
            .dims
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != dmax_idx)
            .map(|(_, d)| d)
            .product();
        if self.dims[dmax_idx] == 1 {
            return 1.0;
        }
        (2 * others) as f64
    }

    fn diameter(&self) -> usize {
        self.dims.iter().map(|&d| d / 2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_topology_invariants;

    #[test]
    fn small_tori_validate() {
        for n in [1usize, 2, 5, 8, 27, 30, 64] {
            let t = Torus3D::new(n);
            assert_eq!(t.num_nodes(), n);
            assert!(t.dims().iter().product::<usize>() >= n);
            check_topology_invariants(&t);
        }
    }

    #[test]
    fn explicit_dims_route_correctly() {
        let t = Torus3D::with_dims(24, [4, 3, 2]);
        check_topology_invariants(&t);
        assert_eq!(t.diameter(), 2 + 1 + 1);
    }

    #[test]
    fn wraparound_takes_the_short_way() {
        let t = Torus3D::with_dims(8, [8, 1, 1]);
        // 0 -> 7 is one wraparound hop, not seven forward hops.
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.route(0, 7).len(), 1);
        assert_eq!(t.hops(0, 4), 4);
        check_topology_invariants(&t);
    }

    #[test]
    fn route_length_equals_hops_everywhere() {
        let t = Torus3D::with_dims(18, [3, 3, 2]);
        for a in 0..18 {
            for b in 0..18 {
                assert_eq!(t.route(a, b).len(), t.hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn bisection_matches_theory() {
        // 4x4x4 torus: cut in any dim crosses 2*16 links.
        let t = Torus3D::with_dims(64, [4, 4, 4]);
        assert_eq!(t.bisection_links(), 32.0);
        // Degenerate 1-wide dimension.
        let flat = Torus3D::with_dims(16, [16, 1, 1]);
        assert_eq!(flat.bisection_links(), 2.0);
    }

    #[test]
    fn bluegene_like_shape() {
        // BG/P rack-scale: 8x8x16 = 1024 nodes.
        let t = Torus3D::with_dims(1024, [8, 8, 16]);
        check_invariants_sample(&t);
        assert_eq!(t.diameter(), 4 + 4 + 8);
    }

    /// Sampled invariant check (the full pairwise loop is O(n^2)).
    fn check_invariants_sample(t: &Torus3D) {
        for a in (0..t.num_nodes()).step_by(97) {
            for b in (0..t.num_nodes()).step_by(61) {
                assert_eq!(t.hops(a, b), t.hops(b, a));
                assert_eq!(t.route(a, b).len(), t.hops(a, b));
            }
        }
    }
}
