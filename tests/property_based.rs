//! Cross-crate property tests: collectives correct for arbitrary shapes,
//! machine models sane under parameter perturbation, simulator invariants
//! under random schedules.

use machines::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};
use simnet::{Replay, Round, Schedule, Transfer};

/// The property tests' input source: xorshift64*, seeded through
/// splitmix64 so that neighbouring seeds draw unrelated inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw from `r`.
    fn range(&mut self, r: std::ops::Range<u64>) -> u64 {
        r.start + self.next() % (r.end - r.start)
    }

    /// A uniform draw from `r`.
    fn float(&mut self, r: std::ops::Range<f64>) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        r.start + unit * (r.end - r.start)
    }

    /// A schedule over `n` ranks of `rounds` rounds, each of fewer than
    /// `max_len` transfers between ranks drawn below `ends` (taken modulo
    /// `n`, self-sends dropped) of `bytes` each.
    fn schedule(
        &mut self,
        n: usize,
        rounds: std::ops::Range<u64>,
        max_len: u64,
        ends: u64,
        bytes: std::ops::Range<u64>,
    ) -> Schedule {
        let mut sched = Schedule::new(n);
        for _ in 0..self.range(rounds) {
            let transfers: Vec<Transfer> = (0..self.range(0..max_len))
                .map(|_| {
                    let (s, d) = (self.range(0..ends) as usize, self.range(0..ends) as usize);
                    (s % n, d % n, self.range(bytes.clone()))
                })
                .filter(|(s, d, _)| s != d)
                .map(|(src, dst, bytes)| Transfer { src, dst, bytes })
                .collect();
            sched.push(Round::of(transfers));
        }
        sched
    }
}

/// An arbitrary-but-valid machine model.
fn arb_machine(rng: &mut Rng) -> Machine {
    let cpus = rng.range(1..9) as usize;
    let peak = rng.float(1.0..20.0); // Gflop/s
    let stream = rng.float(0.5..50.0); // GB/s per cpu
    let link = rng.float(0.1..20.0); // GB/s
    let lat = rng.float(0.5..10.0); // us
    let duplex = rng.range(0..2) == 1;
    let topology = match rng.range(0..4) {
        0 => TopologyKind::FatTree {
            arity: 4,
            blocking: 1.0,
            blocking_from: 1,
        },
        1 => TopologyKind::Hypercube,
        2 => TopologyKind::Crossbar,
        _ => TopologyKind::Clos { radix: 8, spine: 4 },
    };
    Machine {
        name: "prop",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus,
            peak_gflops: peak,
            stream_bw: stream * 1e9,
            mem_bw_node: stream * 1e9 * cpus as f64 * 1.5,
            dgemm_eff: 0.9,
            hpl_eff: 0.7,
            mem_latency_us: 0.1,
            random_concurrency: 4.0,
        },
        net: NetworkModel {
            topology,
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
    }
}

/// Any generated machine validates and prices any IMB benchmark to a
/// positive, finite time that is monotone in message size. 24 seeded
/// cases.
#[test]
fn any_machine_simulates_sanely() {
    for case in 0..24 {
        let seed = 0x6d61_6368_0000 + case;
        let mut rng = Rng::new(seed);
        let m = arb_machine(&mut rng);
        let bytes = rng.range(64..1_000_000);
        let at = format!("case {case}, seed {seed:#x}");
        assert!(m.validate().is_ok(), "{at}");
        let p = (2 * m.node.cpus).min(m.max_cpus);
        for bench in [
            imb::Benchmark::Allreduce,
            imb::Benchmark::Alltoall,
            imb::Benchmark::Sendrecv,
        ] {
            let t1 = imb::sim::simulate(&m, bench, p, bytes).t_max_us();
            let t2 = imb::sim::simulate(&m, bench, p, bytes * 4).t_max_us();
            assert!(t1.is_finite() && t1 > 0.0, "{at}: {bench}: {t1}");
            assert!(t2 > t1, "{at}: {bench} not monotone: {t2} !> {t1}");
        }
    }
}

/// Native allreduce equals the scalar reference for arbitrary world
/// sizes, vector lengths and contents. 24 seeded cases.
#[test]
fn allreduce_matches_reference() {
    for case in 0..24 {
        let seed = 0x616c_6c72_0000 + case;
        let mut rng = Rng::new(seed);
        let n = rng.range(1..10) as usize;
        let values: Vec<f64> = (0..rng.range(1..40))
            .map(|_| rng.float(-1e6..1e6))
            .collect();
        let len = values.len();
        let results = mp::run(n, |comm| {
            let mut buf: Vec<f64> = values.iter().map(|v| v + comm.rank() as f64).collect();
            mp::block_on(comm.allreduce_async(&mut buf, mp::Op::Sum));
            buf
        });
        let rank_sum = (n * (n - 1) / 2) as f64;
        for got in &results {
            for i in 0..len {
                let expect = values[i] * n as f64 + rank_sum;
                assert!(
                    (got[i] - expect).abs() < 1e-6 * expect.abs().max(1.0),
                    "case {case}, seed {seed:#x}: elem {i}: {} vs {expect}",
                    got[i]
                );
            }
        }
    }
}

/// Alltoall delivers every (src, dst) block intact for arbitrary shapes,
/// through whichever algorithm the dispatcher picks. 24 seeded cases.
#[test]
fn alltoall_permutes_blocks_correctly() {
    for case in 0..24 {
        let seed = 0x616c_6c74_0000 + case;
        let mut rng = Rng::new(seed);
        let (n, block) = (rng.range(1..12) as usize, rng.range(0..24) as usize);
        let results = mp::run(n, |comm| {
            let me = comm.rank() as u64;
            let send: Vec<u64> = (0..n as u64)
                .flat_map(|d| (0..block as u64).map(move |i| me * 1_000_000 + d * 1000 + i))
                .collect();
            let mut recv = vec![0u64; n * block];
            mp::block_on(comm.alltoall_async(&send, &mut recv));
            recv
        });
        for (r, got) in results.iter().enumerate() {
            for s in 0..n {
                for i in 0..block {
                    let expect = (s as u64) * 1_000_000 + (r as u64) * 1000 + i as u64;
                    assert_eq!(
                        got[s * block + i],
                        expect,
                        "case {case}, seed {seed:#x}: n={n} block={block}"
                    );
                }
            }
        }
    }
}

/// The DIF distributed FFT inverts for arbitrary power-of-two shapes. 24
/// seeded cases.
#[test]
fn distributed_fft_roundtrips() {
    for case in 0..24 {
        let seed = 0x6666_7464_0000 + case;
        let mut rng = Rng::new(seed);
        let (log_p, extra) = (rng.range(0..3) as u32, rng.range(4..8) as u32);
        let p = 1usize << log_p;
        let log2_n = log_p + extra + log_p.max(1);
        let results = mp::run(p, |comm| {
            hpcc::fft_dist::run(comm, &hpcc::fft_dist::FftConfig { log2_n }).passed
        });
        assert!(
            results.iter().all(|&ok| ok),
            "case {case}, seed {seed:#x}: p={p} log2_n={log2_n}"
        );
    }
}

/// Random schedules execute with non-decreasing clocks and a completion
/// no earlier than any single transfer's serialisation. 24 seeded cases.
#[test]
fn random_schedules_execute_causally() {
    for case in 0..24 {
        let seed = 0x7363_6864_0000 + case;
        let mut rng = Rng::new(seed);
        let n = rng.range(2..8) as usize;
        let sched = rng.schedule(n, 1..5, 6, 8, 0..100_000);
        let at = format!("case {case}, seed {seed:#x}");
        assert!(sched.validate().is_ok(), "{at}");
        let m = machines::systems::dell_xeon();
        let sim = machines::ClusterSim::new(&m, n);
        let t = sim.run_fresh(&sched);
        assert!(t.as_secs().is_finite(), "{at}");
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
            assert!(t.as_secs() >= biggest as f64 / m.net.link_bw / 2.0, "{at}");
        }
    }
}

/// Retiring timelines behind the minimum clock changes no price: a random
/// schedule replayed over and over — clocks carried across replays, random
/// ranks computing in between so the timelines fragment — leaves every
/// rank clock bit for bit where the replay that keeps every interval
/// leaves it. 24 seeded cases.
#[test]
fn retirement_leaves_every_clock_alone() {
    for case in 0..24 {
        let seed = 0x7265_7469_0000 + case;
        let mut rng = Rng::new(seed);
        let n = rng.range(2..24) as usize;
        let sched = rng.schedule(n, 1..8, 40, 24, 1..200_000);
        let stalls: Vec<(usize, u32)> = (0..rng.range(1..6))
            .map(|_| (rng.range(0..24) as usize, rng.range(0..50) as u32))
            .collect();
        let duplex = rng.range(0..2) == 1;
        let at = format!("case {case}, seed {seed:#x}");
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
            retiring.run(Replay::new(&sched));
            keeping.run_keeping_timelines(Replay::new(&sched));
            let bits = |sim: &machines::ClusterSim| -> Vec<u64> {
                sim.clocks().iter().map(|c| c.as_secs().to_bits()).collect()
            };
            assert_eq!(bits(&retiring), bits(&keeping), "{at}: replay {replay}");
        }
        assert!(retiring.fragments() <= keeping.fragments(), "{at}");
    }
}

/// What retirement is for: pairwise all-to-all is p - 1 rounds in which
/// every rank's clock moves, so the timelines behind the slowest rank die
/// as fast as new ones grow. At 512 ranks on the Altix a replay that keeps
/// everything holds 990 812 intervals after one all-to-all and as many
/// again after each further one. Retiring whole chunks only held 478 812
/// after one pass; trimming the oldest chunk too, the retiring replay
/// holds what its resources' live windows span — 4 920 intervals after
/// one pass, 7 148 after two. Both replays price the generator's rounds as
/// they come, never a materialised schedule.
#[test]
fn retirement_bounds_the_live_timeline_of_an_alltoall() {
    const CEILING: usize = 20_000;
    let m = machines::systems::altix_bx2();
    let alltoall = || mp::sched::alltoall::pairwise(512, 1 << 20);
    let (retiring, keeping) = (
        machines::ClusterSim::new(&m, 512),
        machines::ClusterSim::new(&m, 512),
    );
    for pass in 1..=2 {
        retiring.run(alltoall());
        keeping.run_keeping_timelines(alltoall());
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
