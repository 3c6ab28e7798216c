//! Property tests for the simulator substrate: first-fit resource
//! invariants, topology routing laws and fabric causality.

use proptest::prelude::*;

use simnet::{
    Clos, Crossbar, Fabric, FabricParams, FatTree, Hypercube, Resource, Time, Topology, Torus3D,
};

fn build_topology(n: usize, kind: usize) -> Box<dyn Topology> {
    match kind {
        0 => Box::new(FatTree::new(n, 2 + n % 3)),
        1 => Box::new(Hypercube::new(n)),
        2 => Box::new(Crossbar::new(n)),
        3 => Box::new(Clos::new(n, 8)),
        _ => Box::new(Torus3D::new(n)),
    }
}

fn any_topology() -> impl Strategy<Value = (usize, usize)> {
    (2usize..40, 0usize..5)
}

/// Prices `transfers` (endpoints taken modulo `n`, self-sends skipped) on
/// topology `kind` with `n` nodes, checking that no arrival precedes the
/// message's own serialisation plus pure path latency and that the stats
/// account every byte. Returns how many transfers were priced.
fn check_fabric_causality(n: usize, kind: usize, transfers: &[(usize, usize, u64)]) -> usize {
    let topo = build_topology(n, kind);
    let params = FabricParams {
        link_bw: 1e9,
        nic_bw: 1e9,
        nic_duplex: true,
        base_latency: Time::from_us(3.0),
        per_hop_latency: Time::from_us(0.2),
    };
    let mut fabric = Fabric::new(topo, params);
    let mut total_bytes = 0u64;
    let mut priced = 0;
    for &(a, b, bytes) in transfers {
        let (src, dst) = (a % n, b % n);
        if src == dst {
            continue;
        }
        let (arrival, lat) = fabric.transfer_with_latency(src, dst, bytes, Time::ZERO);
        // Physical floor: a message can never beat its own
        // serialisation plus the pure path latency. (First-fit means
        // a *later-issued* small transfer may legitimately finish
        // before an earlier big one — no FIFO law holds per pair.)
        let floor = Time::from_secs(bytes as f64 / 1e9) + lat;
        assert!(
            arrival.as_secs() >= floor.as_secs() - 1e-12,
            "arrival {arrival} below physical floor {floor}"
        );
        total_bytes += bytes;
        priced += 1;
    }
    let stats = fabric.stats();
    assert_eq!(
        stats.bytes as u64, total_bytes,
        "stats must account all bytes"
    );
    priced
}

/// The one failure `fabric_causality` ever saved, as its shrunk inputs:
/// replayed on every run, since the vendored proptest keeps no
/// persistence file.
#[test]
fn fabric_causality_saved_counterexample() {
    let transfers = [
        (11, 6, 869_631),
        (3, 2, 973_126),
        (31, 4, 336_946),
        (10, 3, 214_264),
        (22, 13, 972_368),
        (3, 13, 1),
        (32, 21, 993_072),
        (12, 21, 278_347),
    ];
    assert_eq!(check_fabric_causality(4, 0, &transfers), transfers.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First-fit reservations never overlap, never start before ready,
    /// and account busy time exactly.
    #[test]
    fn resource_first_fit_invariants(
        reqs in prop::collection::vec((0u64..10_000, 1u64..1_000_000), 1..200),
    ) {
        let bw = 1e9;
        let mut r = Resource::new(bw);
        let mut granted: Vec<(f64, f64)> = Vec::new();
        let mut total_service = 0.0;
        for &(ready_us, bytes) in &reqs {
            let ready = Time::from_us(ready_us as f64);
            let (s, e) = r.reserve(ready, bytes);
            prop_assert!(s >= ready);
            prop_assert!(e >= s);
            let service = bytes as f64 / bw;
            prop_assert!((e.as_secs() - s.as_secs() - service).abs() < 1e-12);
            granted.push((s.as_secs(), e.as_secs()));
            total_service += service;
        }
        granted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in granted.windows(2) {
            prop_assert!(w[0].1 <= w[1].0 + 1e-12, "overlap {w:?}");
        }
        prop_assert!((r.busy_time().as_secs() - total_service).abs() < 1e-9);
        prop_assert_eq!(r.reservations(), reqs.len() as u64);
    }

    /// Every topology satisfies the routing laws for arbitrary sizes:
    /// self-routes empty, hop symmetry, in-range links, positive
    /// bisection.
    #[test]
    fn topology_routing_laws((n, kind) in any_topology()) {
        let topo = build_topology(n, kind);
        for a in 0..n {
            prop_assert!(topo.route(a, a).is_empty());
            for b in 0..n {
                if a == b { continue; }
                prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
                for l in topo.route(a, b) {
                    prop_assert!(l < topo.num_links());
                    prop_assert!(topo.link_capacity_scale(l) > 0.0);
                }
            }
        }
        prop_assert!(topo.bisection_links() > 0.0);
        prop_assert!(topo.diameter() <= n);
    }

    /// Fabric causality: arrivals never precede the message's own
    /// serialisation plus pure latency, and stats account every byte.
    #[test]
    fn fabric_causality(
        (n, kind) in any_topology(),
        transfers in prop::collection::vec((0usize..40, 0usize..40, 1u64..1_000_000), 1..60),
    ) {
        check_fabric_causality(n, kind, &transfers);
    }

    /// Reset really clears the fabric: repeating the same transfer list
    /// after a reset yields identical arrivals.
    #[test]
    fn fabric_reset_is_deterministic(
        transfers in prop::collection::vec((0usize..16, 0usize..16, 1u64..100_000), 1..30),
    ) {
        let build = || Fabric::new(Box::new(Crossbar::new(16)), FabricParams {
            link_bw: 1e9, nic_bw: 1e9, nic_duplex: true,
            base_latency: Time::from_us(1.0), per_hop_latency: Time::ZERO,
        });
        let run = |f: &mut Fabric| -> Vec<f64> {
            transfers.iter().filter(|(a, b, _)| a % 16 != b % 16)
                .map(|&(a, b, bytes)| f.transfer(a % 16, b % 16, bytes, Time::ZERO).as_secs())
                .collect()
        };
        let mut f = build();
        let first = run(&mut f);
        f.reset();
        let second = run(&mut f);
        prop_assert_eq!(first, second);
    }
}
