//! Ideal (capacity-scaled) fat-tree topology.
//!
//! SGI's NUMALINK4 and the Dell cluster's InfiniBand fabric are fat-trees:
//! "a fat-tree network topology [in which] the bisection bandwidth scales
//! linearly with the number of processors" (paper, Section 2.1). We model a
//! single k-ary tree whose edge capacities aggregate the leaves beneath them
//! — equivalent, for occupancy accounting, to the multi-rooted constant-rate
//! link fabric real systems build. An optional *blocking factor* thins every
//! level above the leaf switches, modelling configurations like the Dell
//! cluster's "groups of 18 nodes 1:1 with 3:1 blocking through the core IB
//! switches" (Section 2.4).

use super::{LinkId, NodeId, Topology};

/// A k-ary fat-tree over `n` compute nodes.
#[derive(Clone, Debug)]
pub struct FatTree {
    n: usize,
    arity: usize,
    blocking: f64,
    /// First edge level the blocking factor applies to (default 1: all
    /// levels above the leaf switches).
    blocking_from: usize,
    levels: usize,
    /// `level_count[l]` = number of tree vertices at level `l` (level 0 =
    /// compute nodes). Edges exist from each vertex at level `l < levels`
    /// up to its parent.
    level_count: Vec<usize>,
    /// Prefix sums of `level_count` for edge-id computation.
    edge_offset: Vec<usize>,
    num_edges: usize,
}

impl FatTree {
    /// Builds a fat-tree with switch arity `arity` over `n` nodes and no
    /// blocking (full bisection bandwidth).
    pub fn new(n: usize, arity: usize) -> FatTree {
        FatTree::with_blocking(n, arity, 1.0)
    }

    /// Builds a fat-tree whose levels above the leaf switches carry only
    /// `1/blocking` of the ideal capacity.
    pub fn with_blocking(n: usize, arity: usize, blocking: f64) -> FatTree {
        FatTree::with_blocking_from(n, arity, blocking, 1)
    }

    /// Builds a fat-tree that is ideal below edge level `from_level` and
    /// oversubscribed by `blocking` at and above it — the shape of systems
    /// whose intra-"box" fabric is full-bisection but whose box-to-box
    /// links are thin (SGI Altix BX2 beyond one 512-CPU box).
    pub fn with_blocking_from(n: usize, arity: usize, blocking: f64, from_level: usize) -> FatTree {
        assert!(n > 0, "fat-tree needs at least one node");
        assert!(from_level >= 1, "blocking below level 1 is meaningless");
        assert!(arity >= 2, "fat-tree arity must be at least 2");
        assert!(
            blocking.is_finite() && blocking >= 1.0,
            "blocking factor must be >= 1"
        );
        let mut level_count = vec![n];
        let mut c = n;
        while c > 1 {
            c = c.div_ceil(arity);
            level_count.push(c);
        }
        let levels = level_count.len() - 1; // number of edge levels
        let mut edge_offset = Vec::with_capacity(levels + 1);
        let mut acc = 0;
        for &cnt in level_count.iter().take(levels) {
            edge_offset.push(acc);
            acc += cnt;
        }
        edge_offset.push(acc);
        FatTree {
            n,
            arity,
            blocking,
            blocking_from: from_level,
            levels,
            level_count,
            edge_offset,
            num_edges: acc,
        }
    }

    /// Undirected edge id for the edge above vertex `i` at level `l`.
    fn edge_id(&self, level: usize, i: usize) -> usize {
        debug_assert!(level < self.levels && i < self.level_count[level]);
        self.edge_offset[level] + i
    }

    /// Directed link ids: even = upward, odd = downward.
    fn up(&self, level: usize, i: usize) -> LinkId {
        2 * self.edge_id(level, i)
    }

    fn down(&self, level: usize, i: usize) -> LinkId {
        2 * self.edge_id(level, i) + 1
    }

    /// Edge level of a directed link.
    fn link_level(&self, link: LinkId) -> usize {
        let e = link / 2;
        // Levels are few (log_k n); a linear scan is fine and branch-friendly.
        (0..self.levels)
            .find(|&l| e < self.edge_offset[l + 1])
            .expect("link id out of range")
    }

    /// Number of tree levels above the compute nodes.
    #[cfg(test)]
    fn levels(&self) -> usize {
        self.levels
    }
}

impl Topology for FatTree {
    fn name(&self) -> &'static str {
        "fat-tree"
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_links(&self) -> usize {
        2 * self.num_edges
    }

    fn link_capacity_scale(&self, link: LinkId) -> f64 {
        let level = self.link_level(link);
        // An edge above a level-l vertex aggregates up to arity^l leaves.
        let ideal = (self.arity as f64).powi(level as i32);
        if level < self.blocking_from {
            ideal
        } else {
            (ideal / self.blocking).max(1.0 / self.blocking)
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, route: &mut Vec<LinkId>) -> usize {
        assert!(src < self.n && dst < self.n, "node out of range");
        // Up from `src` to the common ancestor, then the way up from
        // `dst` walked backwards.
        let (mut a, mut b) = (src, dst);
        let mut level = 0;
        while a != b {
            route.push(self.up(level, a));
            a /= self.arity;
            b /= self.arity;
            level += 1;
        }
        let top = route.len();
        let mut b = dst;
        for l in 0..level {
            route.push(self.down(l, b));
            b /= self.arity;
        }
        route[top..].reverse();
        // `level` links up and as many down pass `2 * level - 1` switches.
        (2 * level).saturating_sub(1)
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            return 0;
        }
        let (mut a, mut b) = (src / self.arity, dst / self.arity);
        let mut h = 1; // leaf switch
        while a != b {
            a /= self.arity;
            b /= self.arity;
            h += 2; // one more switch up on each side
        }
        h
    }

    fn bisection_links(&self) -> f64 {
        if self.n == 1 {
            return 1.0;
        }
        // The worst-case cut crosses the top edge level; blocking only
        // matters if that level is at or above `blocking_from`.
        let b = if self.levels > self.blocking_from {
            self.blocking
        } else {
            1.0
        };
        (self.n as f64 / 2.0 / b).max(1.0)
    }

    fn diameter(&self) -> usize {
        if self.n == 1 {
            0
        } else {
            2 * self.levels - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_topology_invariants;

    #[test]
    fn small_tree_structure() {
        let t = FatTree::new(8, 2);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.levels(), 3);
        // Edges: 8 at level 0, 4 at level 1, 2 at level 2 = 14; 28 directed.
        assert_eq!(t.num_links(), 28);
        check_topology_invariants(&t);
    }

    #[test]
    fn route_same_switch_is_short() {
        let t = FatTree::new(8, 2);
        let r = t.route(0, 1);
        assert_eq!(r.len(), 2, "siblings route via one switch");
        assert_eq!(t.hops(0, 1), 1);
    }

    #[test]
    fn route_across_root() {
        let t = FatTree::new(8, 2);
        let r = t.route(0, 7);
        assert_eq!(r.len(), 6, "3 up + 3 down");
        assert_eq!(t.hops(0, 7), 5);
        assert_eq!(t.diameter(), 5);
    }

    #[test]
    fn capacity_scales_with_level() {
        let t = FatTree::new(16, 2);
        // Level-0 edge: scale 1; deepest route edges carry more.
        let route = t.route(0, 15);
        let first = t.link_capacity_scale(route[0]);
        let top = t.link_capacity_scale(route[route.len() / 2 - 1]);
        assert_eq!(first, 1.0);
        assert!(top > first, "upper links aggregate capacity");
        assert_eq!(t.bisection_links(), 8.0);
    }

    #[test]
    fn blocking_reduces_upper_capacity_and_bisection() {
        let full = FatTree::new(64, 4);
        let blocked = FatTree::with_blocking(64, 4, 3.0);
        assert_eq!(full.bisection_links(), 32.0);
        assert!((blocked.bisection_links() - 32.0 / 3.0).abs() < 1e-12);
        let route = full.route(0, 63);
        let top_link = route[route.len() / 2 - 1];
        assert!(blocked.link_capacity_scale(top_link) < full.link_capacity_scale(top_link));
        check_topology_invariants(&blocked);
        check_topology_invariants(&FatTree::with_blocking_from(64, 4, 3.0, 2));
    }

    #[test]
    fn non_power_of_arity_node_count() {
        let t = FatTree::new(12, 4);
        check_topology_invariants(&t);
        assert_eq!(t.levels(), 2);
    }

    #[test]
    fn single_node_tree() {
        let t = FatTree::new(1, 2);
        assert_eq!(t.num_links(), 0);
        assert!(t.route(0, 0).is_empty());
        assert_eq!(t.diameter(), 0);
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        let t = FatTree::new(32, 4);
        for a in 0..32 {
            for b in 0..32 {
                assert_eq!(t.route(a, b).len(), t.route(b, a).len());
            }
        }
    }
}
