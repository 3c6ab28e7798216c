//! The fabric: topology + occupancy-timeline resources + latency model.
//!
//! A [`Fabric`] owns one [`Resource`] per directed interior link of its
//! topology plus per-node NIC injection/ejection resources, and answers the
//! single question the benchmark simulations ask: *if node `a` starts
//! sending `b` bytes to node `c` at virtual time `t`, when does the message
//! fully arrive?* Messages are cut-through routed: every resource on the
//! path is occupied for `bytes / bandwidth`, the resources operate
//! concurrently, and arrival is bounded by the most congested one.

use crate::resource::Resource;
use crate::time::Time;
use crate::topology::{LinkId, NodeId, Topology};

/// Bandwidth/latency parameters of a fabric.
#[derive(Clone, Copy, Debug)]
pub struct FabricParams {
    /// Bytes/s of a base interior link, per direction.
    pub link_bw: f64,
    /// Bytes/s a node can inject into (and accept from) the fabric.
    pub nic_bw: f64,
    /// Whether a node can inject and eject at full rate simultaneously.
    /// PCI-X era NICs (Myrinet on the Cray Opteron cluster) effectively
    /// cannot; modern HCAs can.
    pub nic_duplex: bool,
    /// End-to-end zero-byte message latency (the "MPI latency" the paper
    /// quotes per system), charged once per message.
    pub base_latency: Time,
    /// Additional latency per switch hop.
    pub per_hop_latency: Time,
}

impl FabricParams {
    fn validate(&self) {
        assert!(self.link_bw > 0.0 && self.link_bw.is_finite());
        assert!(self.nic_bw > 0.0 && self.nic_bw.is_finite());
    }
}

/// Aggregate traffic statistics of a fabric since the last reset.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FabricStats {
    /// Number of inter-node messages carried.
    pub transfers: u64,
    /// Total payload bytes carried.
    pub bytes: f64,
    /// Busy time of the most-occupied resource (link or NIC).
    pub max_busy: f64,
}

/// One resource's traffic record, for hot-spot analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceStats {
    /// What the resource is.
    pub kind: ResourceKind,
    /// Node or link index within its kind.
    pub index: usize,
    /// Total busy seconds.
    pub busy: f64,
    /// Bytes served.
    pub bytes: f64,
    /// Reservations granted.
    pub reservations: u64,
}

/// Resource classes inside a fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceKind {
    /// Per-node NIC injection (also ejection on half-duplex NICs).
    Inject,
    /// Per-node NIC ejection (full-duplex fabrics only).
    Eject,
    /// Interior topology link.
    Link,
}

/// A simulated interconnect fabric.
pub struct Fabric {
    topo: Box<dyn Topology>,
    params: FabricParams,
    inject: Vec<Resource>,
    eject: Vec<Resource>,
    links: Vec<Resource>,
    /// Route of the message being priced; one buffer reused by every
    /// [`transfer`](Fabric::transfer) so pricing allocates nothing.
    route: Vec<LinkId>,
    transfers: u64,
    bytes: f64,
}

impl Fabric {
    /// Builds a fabric over `topo` with the given parameters.
    pub fn new(topo: Box<dyn Topology>, params: FabricParams) -> Fabric {
        params.validate();
        let n = topo.num_nodes();
        let inject = (0..n).map(|_| Resource::new(params.nic_bw)).collect();
        let eject = if params.nic_duplex {
            (0..n).map(|_| Resource::new(params.nic_bw)).collect()
        } else {
            Vec::new() // half-duplex: ejection shares the injection resource
        };
        let links = (0..topo.num_links())
            .map(|l| Resource::new(params.link_bw * topo.link_capacity_scale(l)))
            .collect();
        Fabric {
            topo,
            params,
            inject,
            eject,
            links,
            route: Vec::new(),
            transfers: 0,
            bytes: 0.0,
        }
    }

    /// Number of attached compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Simulates an inter-node message: `bytes` from `src` to `dst`, ready
    /// to inject at `ready`. Returns the time the last byte arrives.
    ///
    /// Panics if `src == dst`; intra-node traffic never touches the fabric.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, ready: Time) -> Time {
        self.transfer_with_latency(src, dst, bytes, ready).0
    }

    /// [`transfer`](Self::transfer), also returning the message's pure
    /// latency (base plus per-hop, no occupancy): one topology walk
    /// yields the route and its hop count.
    pub fn transfer_with_latency(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        ready: Time,
    ) -> (Time, Time) {
        assert_ne!(src, dst, "intra-node traffic must not enter the fabric");
        self.route.clear();
        let hops = self.topo.route_into(src, dst, &mut self.route);
        let latency = self.params.base_latency + self.params.per_hop_latency * hops as f64;

        // Cut-through pipeline: the head of the message proceeds to the next
        // resource as soon as the previous one starts serving; each resource
        // is occupied for its full serialisation time.
        let (mut head, mut done) = self.inject[src].reserve(ready, bytes);
        for &l in &self.route {
            let (s, e) = self.links[l].reserve(head, bytes);
            head = s;
            done = done.max(e);
        }
        let eject = if self.params.nic_duplex {
            &mut self.eject[dst]
        } else {
            &mut self.inject[dst]
        };
        let (_, e) = eject.reserve(head, bytes);
        done = done.max(e);

        self.transfers += 1;
        self.bytes += bytes as f64;
        (done + latency, latency)
    }

    /// Traffic statistics since construction or the last [`reset`](Self::reset).
    pub fn stats(&self) -> FabricStats {
        let max_busy = self
            .resources()
            .map(|r| r.busy_time().as_secs())
            .fold(0.0, f64::max);
        FabricStats {
            transfers: self.transfers,
            bytes: self.bytes,
            max_busy,
        }
    }

    /// The `k` busiest resources, sorted by busy time descending — the
    /// fabric's hot spots under the traffic simulated so far.
    pub fn hot_spots(&self, k: usize) -> Vec<ResourceStats> {
        let mut all: Vec<ResourceStats> = Vec::new();
        let collect = |kind: ResourceKind, list: &[Resource], all: &mut Vec<ResourceStats>| {
            for (index, r) in list.iter().enumerate() {
                if r.reservations() > 0 {
                    all.push(ResourceStats {
                        kind,
                        index,
                        busy: r.busy_time().as_secs(),
                        bytes: r.served_bytes(),
                        reservations: r.reservations(),
                    });
                }
            }
        };
        collect(ResourceKind::Inject, &self.inject, &mut all);
        collect(ResourceKind::Eject, &self.eject, &mut all);
        collect(ResourceKind::Link, &self.links, &mut all);
        all.sort_by(|a, b| b.busy.total_cmp(&a.busy));
        all.truncate(k);
        all
    }

    /// Every NIC and link resource.
    fn resources(&self) -> impl Iterator<Item = &Resource> {
        self.inject
            .iter()
            .chain(self.eject.iter())
            .chain(self.links.iter())
    }

    /// Every NIC and link resource, mutably.
    fn resources_mut(&mut self) -> impl Iterator<Item = &mut Resource> {
        self.inject
            .iter_mut()
            .chain(self.eject.iter_mut())
            .chain(self.links.iter_mut())
    }

    /// Retires every resource's timeline before `t` (see
    /// [`Resource::retire_before`]): the caller promises that no later
    /// [`transfer`](Self::transfer) is ready before `t`. Every reserve a
    /// transfer makes is ready at or after the transfer itself, so the
    /// promise carries to each resource on its route. Prices and
    /// [`stats`](Self::stats) are unchanged; only memory is given back.
    pub fn retire_before(&mut self, t: Time) {
        for r in self.resources_mut() {
            r.retire_before(t);
        }
    }

    /// Busy intervals held over all resources (what retirement bounds).
    pub fn fragments(&self) -> usize {
        self.resources().map(Resource::fragments).sum()
    }

    /// Clears all occupancy timelines and counters.
    pub fn reset(&mut self) {
        for r in self.resources_mut() {
            r.reset();
        }
        self.transfers = 0;
        self.bytes = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Crossbar, FatTree};

    fn params() -> FabricParams {
        FabricParams {
            link_bw: 1e9,
            nic_bw: 1e9,
            nic_duplex: true,
            base_latency: Time::from_us(5.0),
            per_hop_latency: Time::from_us(0.1),
        }
    }

    #[test]
    fn single_message_time_is_latency_plus_serialisation() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        let arrival = f.transfer(0, 1, 1_000_000, Time::ZERO);
        // 1 MB at 1 GB/s = 1 ms, + 5.1 us latency (1 hop).
        let expected = 1e-3 + 5.1e-6;
        assert!((arrival.as_secs() - expected).abs() < 1e-9, "{arrival:?}");
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        let (arrival, latency) = f.transfer_with_latency(0, 1, 0, Time::ZERO);
        assert!((arrival.as_us() - 5.1).abs() < 1e-9);
        assert_eq!(arrival, latency);
    }

    #[test]
    fn injection_contention_serialises_sends() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        let a1 = f.transfer(0, 1, 1_000_000, Time::ZERO);
        let a2 = f.transfer(0, 2, 1_000_000, Time::ZERO);
        // Second message waits for the first to leave node 0's NIC.
        assert!(a2 > a1);
        assert!((a2.as_secs() - (2e-3 + 5.1e-6)).abs() < 1e-9);
    }

    #[test]
    fn distinct_pairs_do_not_contend_on_a_crossbar() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        let a1 = f.transfer(0, 1, 1_000_000, Time::ZERO);
        let a2 = f.transfer(2, 3, 1_000_000, Time::ZERO);
        assert_eq!(a1, a2, "non-blocking interior: parallel pairs independent");
    }

    #[test]
    fn ejection_contention_applies() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        let a1 = f.transfer(1, 0, 1_000_000, Time::ZERO);
        let a2 = f.transfer(2, 0, 1_000_000, Time::ZERO);
        assert!(a2 > a1, "two senders to one node share its ejection port");
    }

    #[test]
    fn half_duplex_nic_couples_directions() {
        let mut p = params();
        p.nic_duplex = false;
        let mut f = Fabric::new(Box::new(Crossbar::new(2)), p);
        let a1 = f.transfer(0, 1, 1_000_000, Time::ZERO);
        let a2 = f.transfer(1, 0, 1_000_000, Time::ZERO);
        // Node 1's single NIC resource must both eject msg 1 and inject msg 2.
        assert!(a2 > a1);

        let mut fd = Fabric::new(Box::new(Crossbar::new(2)), params());
        let b1 = fd.transfer(0, 1, 1_000_000, Time::ZERO);
        let b2 = fd.transfer(1, 0, 1_000_000, Time::ZERO);
        assert_eq!(b1, b2, "full duplex: opposite directions independent");
    }

    #[test]
    fn fat_tree_upper_links_aggregate() {
        // 8 nodes, arity 2: simultaneous far-pair traffic crosses the root,
        // but ideal fat-tree capacity scaling keeps it uncontended.
        let mut f = Fabric::new(Box::new(FatTree::new(8, 2)), params());
        let a1 = f.transfer(0, 4, 1_000_000, Time::ZERO);
        let a2 = f.transfer(1, 5, 1_000_000, Time::ZERO);
        let serialised = 2e-3;
        assert!(a1.as_secs() < serialised && a2.as_secs() < serialised);
    }

    #[test]
    fn blocked_fat_tree_contends_at_the_core() {
        let full = FatTree::new(8, 2);
        let thin = FatTree::with_blocking(8, 2, 4.0);
        let mut ff = Fabric::new(Box::new(full), params());
        let mut ft = Fabric::new(Box::new(thin), params());
        let mut worst_full = Time::ZERO;
        let mut worst_thin = Time::ZERO;
        for i in 0..4 {
            worst_full = worst_full.max(ff.transfer(i, i + 4, 1_000_000, Time::ZERO));
            worst_thin = worst_thin.max(ft.transfer(i, i + 4, 1_000_000, Time::ZERO));
        }
        assert!(
            worst_thin > worst_full,
            "oversubscription slows core traffic"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        f.transfer(0, 1, 1000, Time::ZERO);
        f.transfer(1, 2, 2000, Time::ZERO);
        let s = f.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes, 3000.0);
        assert!(s.max_busy > 0.0);
        f.reset();
        assert_eq!(f.stats(), FabricStats::default());
    }

    #[test]
    fn retirement_keeps_prices_and_stats() {
        // Round after round of shifted all-pairs traffic, each round ready
        // when the last one finished: one fabric retires behind that
        // point every round, the other never does.
        let thin = || Fabric::new(Box::new(FatTree::with_blocking(16, 2, 4.0)), params());
        let (mut retired, mut kept) = (thin(), thin());
        let mut ready = Time::ZERO;
        for round in 0..4000u64 {
            retired.retire_before(ready);
            let mut done = ready;
            for src in 0..16 {
                let dst = (src + 1 + round as usize % 15) % 16;
                let bytes = 1 + (round * 7919 + src as u64 * 104_729) % 50_000;
                let a = retired.transfer(src, dst, bytes, ready);
                assert_eq!(a, kept.transfer(src, dst, bytes, ready), "round {round}");
                done = done.max(a);
            }
            // Leave idle gaps so the timelines fragment instead of merging.
            ready = done + Time::from_us(1.0);
        }
        assert_eq!(retired.stats(), kept.stats());
        assert_eq!(retired.hot_spots(5), kept.hot_spots(5));
        assert!(
            retired.fragments() * 4 < kept.fragments(),
            "{} of {} intervals still held",
            retired.fragments(),
            kept.fragments()
        );
    }

    #[test]
    fn hot_spots_identify_the_congested_nic() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        // Node 0 receives from everyone: its ejection port is the hot spot.
        for src in 1..4 {
            f.transfer(src, 0, 1_000_000, Time::ZERO);
        }
        let hot = f.hot_spots(3);
        assert_eq!(hot[0].kind, ResourceKind::Eject);
        assert_eq!(hot[0].index, 0);
        assert!(hot[0].busy > hot[1].busy);
        assert_eq!(hot[0].reservations, 3);
        assert_eq!(hot[0].bytes, 3e6);
    }

    #[test]
    fn hot_spots_see_blocked_fat_tree_core() {
        let thin = FatTree::with_blocking(8, 2, 8.0);
        let mut f = Fabric::new(Box::new(thin), params());
        for i in 0..4 {
            f.transfer(i, i + 4, 4_000_000, Time::ZERO);
        }
        let hot = f.hot_spots(1);
        assert_eq!(hot[0].kind, ResourceKind::Link, "the core link dominates");
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn self_transfer_rejected() {
        let mut f = Fabric::new(Box::new(Crossbar::new(4)), params());
        f.transfer(2, 2, 10, Time::ZERO);
    }
}
