//! Cross-crate property tests: collectives correct for arbitrary shapes,
//! machine models sane under parameter perturbation, simulator invariants
//! under random schedules.

use proptest::prelude::*;

use machines::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};
use simnet::{Round, Schedule, Transfer};

/// Arbitrary-but-valid machine models.
fn arb_machine() -> impl Strategy<Value = Machine> {
    (
        1usize..=8,      // cpus per node
        0.5f64..4.0,     // clock
        1.0f64..20.0,    // peak gflops
        0.5f64..50.0,    // stream GB/s per cpu
        0.1f64..20.0,    // link GB/s
        0.5f64..10.0,    // latency us
        prop::bool::ANY, // duplex
        0usize..4,       // topology selector
    )
        .prop_map(
            |(cpus, clock, peak, stream, link, lat, duplex, topo)| Machine {
                name: "prop",
                class: SystemClass::Scalar,
                node: NodeModel {
                    cpus,
                    clock_ghz: clock,
                    peak_gflops: peak,
                    stream_bw: stream * 1e9,
                    mem_bw_node: stream * 1e9 * cpus as f64 * 1.5,
                    dgemm_eff: 0.9,
                    hpl_eff: 0.7,
                    mem_latency_us: 0.1,
                    random_concurrency: 4.0,
                },
                net: NetworkModel {
                    topology: match topo {
                        0 => TopologyKind::FatTree {
                            arity: 4,
                            blocking: 1.0,
                            blocking_from: 1,
                        },
                        1 => TopologyKind::Hypercube,
                        2 => TopologyKind::Crossbar,
                        _ => TopologyKind::Clos { radix: 8, spine: 4 },
                    },
                    link_bw: link * 1e9,
                    nic_duplex: duplex,
                    mpi_latency_us: lat,
                    per_hop_us: 0.2,
                    overhead_us: 0.5,
                    intra_latency_us: lat / 2.0,
                    intra_bw: stream * 1e9 / 2.0,
                    per_msg_bw: link * 1e9,
                    plain_link_bw: link * 1e9,
                },
                max_cpus: cpus * 64,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated machine validates and prices any IMB benchmark to a
    /// positive, finite time that is monotone in message size.
    #[test]
    fn any_machine_simulates_sanely(m in arb_machine(), bytes in 64u64..1_000_000) {
        prop_assert!(m.validate().is_ok());
        let p = (2 * m.node.cpus).min(m.max_cpus);
        for bench in [imb::Benchmark::Allreduce, imb::Benchmark::Alltoall,
                      imb::Benchmark::Sendrecv] {
            let t1 = imb::sim::simulate(&m, bench, p, bytes).t_max_us();
            let t2 = imb::sim::simulate(&m, bench, p, bytes * 4).t_max_us();
            prop_assert!(t1.is_finite() && t1 > 0.0, "{bench}: {t1}");
            prop_assert!(t2 > t1, "{bench} not monotone: {t2} !> {t1}");
        }
    }

    /// Native allreduce equals the scalar reference for arbitrary world
    /// sizes, vector lengths and contents.
    #[test]
    fn allreduce_matches_reference(
        n in 1usize..10,
        values in prop::collection::vec(-1e6f64..1e6, 1..40),
    ) {
        let len = values.len();
        let results = mp::run(n, |comm| {
            let mut buf: Vec<f64> = values
                .iter()
                .map(|v| v + comm.rank() as f64)
                .collect();
            comm.allreduce(&mut buf, mp::Op::Sum);
            buf
        });
        let rank_sum = (n * (n - 1) / 2) as f64;
        for got in &results {
            for i in 0..len {
                let expect = values[i] * n as f64 + rank_sum;
                prop_assert!(
                    (got[i] - expect).abs() < 1e-6 * expect.abs().max(1.0),
                    "elem {i}: {} vs {expect}", got[i]
                );
            }
        }
    }

    /// Alltoall delivers every (src, dst) block intact for arbitrary
    /// shapes, through whichever algorithm the dispatcher picks.
    #[test]
    fn alltoall_permutes_blocks_correctly(n in 1usize..12, block in 0usize..24) {
        let results = mp::run(n, |comm| {
            let me = comm.rank() as u64;
            let send: Vec<u64> = (0..n as u64)
                .flat_map(|d| (0..block as u64).map(move |i| me * 1_000_000 + d * 1000 + i))
                .collect();
            let mut recv = vec![0u64; n * block];
            comm.alltoall(&send, &mut recv);
            recv
        });
        for (r, got) in results.iter().enumerate() {
            for s in 0..n {
                for i in 0..block {
                    let expect = (s as u64) * 1_000_000 + (r as u64) * 1000 + i as u64;
                    prop_assert_eq!(got[s * block + i], expect);
                }
            }
        }
    }

    /// The DIF distributed FFT inverts for arbitrary power-of-two shapes.
    #[test]
    fn distributed_fft_roundtrips(log_p in 0u32..3, extra in 4u32..8) {
        let p = 1usize << log_p;
        let log2_n = log_p + extra + log_p.max(1);
        let results = mp::run(p, |comm| {
            hpcc::fft_dist::run(comm, &hpcc::fft_dist::FftConfig { log2_n }).passed
        });
        prop_assert!(results.iter().all(|&ok| ok));
    }

    /// Random schedules execute with non-decreasing clocks and a
    /// completion no earlier than any single transfer's serialisation.
    #[test]
    fn random_schedules_execute_causally(
        n in 2usize..8,
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..8, 0u64..100_000), 0..6),
            1..5,
        ),
    ) {
        let mut sched = Schedule::new(n);
        for round in rounds {
            let transfers: Vec<Transfer> = round
                .into_iter()
                .filter(|(s, d, _)| s % n != d % n)
                .map(|(s, d, b)| Transfer { src: s % n, dst: d % n, bytes: b })
                .collect();
            sched.push(Round::of(transfers));
        }
        prop_assert!(sched.validate().is_ok());
        let m = machines::systems::dell_xeon();
        let sim = machines::ClusterSim::new(&m, n);
        let t = sim.run_fresh(&sched);
        prop_assert!(t.as_secs().is_finite());
        let bytes = sched.total_bytes();
        if bytes > 0 {
            // The whole schedule cannot beat a single NIC moving the
            // biggest message.
            let biggest = sched
                .rounds
                .iter()
                .flat_map(|r| r.transfers.iter().map(|t| t.bytes))
                .max()
                .unwrap_or(0);
            prop_assert!(t.as_secs() >= biggest as f64 / m.net.link_bw / 2.0);
        }
    }

    /// Retiring timelines behind the minimum clock changes no price: a
    /// random schedule replayed over and over — clocks carried across
    /// replays, random ranks computing in between so the timelines
    /// fragment — leaves every rank clock bit for bit where the replay
    /// that keeps every interval leaves it.
    #[test]
    fn retirement_leaves_every_clock_alone(
        n in 2usize..24,
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..24, 0usize..24, 1u64..200_000), 0..40),
            1..8,
        ),
        stalls in prop::collection::vec((0usize..24, 0u32..50), 1..6),
        duplex in prop::bool::ANY,
    ) {
        let mut sched = Schedule::new(n);
        for round in rounds {
            let transfers: Vec<Transfer> = round
                .into_iter()
                .filter(|(s, d, _)| s % n != d % n)
                .map(|(s, d, b)| Transfer { src: s % n, dst: d % n, bytes: b })
                .collect();
            sched.push(Round::of(transfers));
        }
        let mut m = machines::systems::cray_opteron();
        m.net.nic_duplex = duplex;
        let retiring = machines::ClusterSim::new(&m, n);
        let keeping = machines::ClusterSim::new(&m, n);
        for replay in 0..150 {
            for &(rank, us) in &stalls {
                let dt = simnet::Time::from_us(f64::from(us));
                retiring.advance(rank % n, dt);
                keeping.advance(rank % n, dt);
            }
            retiring.run(&sched);
            keeping.run_keeping_timelines(&sched);
            let bits = |sim: &machines::ClusterSim| -> Vec<u64> {
                sim.clocks().iter().map(|c| c.as_secs().to_bits()).collect()
            };
            prop_assert_eq!(bits(&retiring), bits(&keeping), "replay {}", replay);
        }
        prop_assert!(retiring.fragments() <= keeping.fragments());
    }
}

/// What retirement is for: pairwise all-to-all is p - 1 rounds in which
/// every rank's clock moves, so the timelines behind the slowest rank die
/// as fast as new ones grow. At 512 ranks on the Altix a replay that keeps
/// everything holds 990 812 intervals after one all-to-all and as many
/// again after each further one (the commit before this kept everything);
/// the retiring replay holds the chunk each resource is filling and at
/// most the one before it — 478 812 after one pass, no more after two.
#[test]
fn retirement_bounds_the_live_timeline_of_an_alltoall() {
    const CEILING: usize = 600_000;
    let m = machines::systems::altix_bx2();
    let sched = mp::sched::alltoall::pairwise(512, 1 << 20);
    let (retiring, keeping) = (
        machines::ClusterSim::new(&m, 512),
        machines::ClusterSim::new(&m, 512),
    );
    for pass in 1..=2 {
        retiring.run(&sched);
        keeping.run_keeping_timelines(&sched);
        assert_eq!(retiring.clocks(), keeping.clocks(), "pass {pass}");
        assert!(keeping.fragments() > pass * 900_000, "pass {pass}");
        assert!(
            retiring.fragments() < CEILING,
            "pass {pass}: {} intervals still held ({} without retirement)",
            retiring.fragments(),
            keeping.fragments()
        );
    }
}
