//! Model conformance: every machine model prices what it declares.
//!
//! One table covers every model in `systems::all_variants()` and
//! `systems::future_systems()`, so a new model is covered with no edit
//! here. Each row recovers one declared parameter from a priced run and
//! compares it with the model's own value:
//!
//! - point-to-point, intra-node (ranks 0 and 1) and inter-node (ranks 0
//!   and `node.cpus`), at 8 B, 1 MiB and 4 MiB, simulated and virtual,
//!   and the Hockney β of the two large sizes;
//! - duplex: a message each way at once against one way alone;
//! - compute: `Comm::v_compute` and the simulated EP-STREAM and EP-DGEMM
//!   records;
//! - virtual execution against schedule replay for five collectives;
//! - Alltoall against the bisection bound.
//!
//! A price that composes declared terms is held to 1e-15 relative, not
//! to `to_bits`: the table adds the terms in its own order, not the
//! simulator's, and the two sums differ in the last bit on some models.
//!
//! The registry's PingPong cannot cross a node: it always runs on ranks 0
//! and 1, and those share a node on every model (the smallest node has 2
//! CPUs). So the simulated inter-node rows price one transfer on a
//! `ClusterSim` of two nodes instead.
//!
//! A *known* row is computed and reported like any other, but it must
//! still fail to conform: the change that fixes it has to flip it here.
//! Run with `--nocapture` to see the largest error or the ratio range of
//! every row.

use std::collections::BTreeMap;

use imb::Benchmark;
use machines::{systems, ClusterSim, Machine, SharedClusterNet};
use simnet::{Round, Schedule, Transfer};

const MIB: u64 = 1 << 20;

/// The bound a composed price is held to, relative.
const REL: f64 = 1e-15;

/// Alltoall cells priced below the bisection bound: (model, ranks, the
/// measured share of the bound). `Topology::bisection_links` prices
/// nothing, and its Clos and fat-tree formulas overstate the blocking of
/// these shapes.
const KNOWN_BELOW_BISECTION: [(&str, usize, f64); 2] = [
    // 8 nodes, `bisection_links` = 1.
    ("Cray Opteron Cluster", 16, 0.884),
    // 32 nodes under arity-24 leaf switches, `bisection_links` = 4.
    ("Linux cluster (GigE)", 64, 0.624),
];

fn models() -> Vec<Machine> {
    let mut models = systems::all_variants();
    models.extend(systems::future_systems());
    models
}

/// What a row demands of its recovered value against the declared one.
#[derive(Clone, Copy)]
enum Bound {
    /// Bit-equal.
    Exact,
    /// Within this relative error.
    Rel(f64),
    /// recovered / declared in `lo..hi`.
    Ratio(f64, f64),
}

/// The rows checked so far: every failure, and per row the range of its
/// measure (the relative error, or the ratio for a ratio row).
#[derive(Default)]
struct Table {
    failures: Vec<String>,
    ranges: BTreeMap<String, (f64, f64, usize)>,
}

impl Table {
    /// Checks one cell, `[model, row, parameter]`. A known row must fail.
    fn row(&mut self, at: [&str; 3], declared: f64, recovered: f64, bound: Bound, known: bool) {
        let [model, row, param] = at;
        let err = if declared == 0.0 {
            recovered.abs()
        } else {
            ((recovered - declared) / declared).abs()
        };
        let (measure, holds) = match bound {
            Bound::Exact => (err, recovered.to_bits() == declared.to_bits()),
            Bound::Rel(rel) => (err, err <= rel),
            Bound::Ratio(lo, hi) => {
                let ratio = recovered / declared;
                (ratio, lo <= ratio && ratio < hi)
            }
        };
        let label = if known {
            format!("{row} (known)")
        } else {
            row.to_string()
        };
        let range = self.ranges.entry(label).or_insert((measure, measure, 0));
        *range = (range.0.min(measure), range.1.max(measure), range.2 + 1);
        let line = format!(
            "{model}: {row}: {param} declared {declared:e}, recovered {recovered:e}, \
             relative error {err:.3e}"
        );
        if known {
            println!("known: {line}");
        }
        if holds == known {
            let verdict = if known { "conforms: flip it" } else { "fails" };
            self.failures.push(format!("{line} {verdict}"));
        }
    }

    fn check(self) {
        for (row, (lo, hi, cells)) in &self.ranges {
            println!("{row}: {lo:.4e} ..= {hi:.4e} over {cells} cell(s)");
        }
        assert!(
            self.failures.is_empty(),
            "{} row(s):\n{}",
            self.failures.len(),
            self.failures.join("\n")
        );
    }
}

fn schedule(nranks: usize, pairs: &[(usize, usize)], bytes: u64) -> Schedule {
    let mut s = Schedule::new(nranks);
    let transfers = pairs.iter().map(|&(src, dst)| Transfer { src, dst, bytes });
    s.push(Round::of(transfers.collect()));
    s
}

/// The declared one-way price from rank 0 to `peer`, in µs, and the
/// declared bandwidth of its path.
fn declared_one_way(m: &Machine, peer: usize, bytes: u64) -> (f64, f64) {
    let net = &m.net;
    if peer < m.node.cpus {
        let bw = net.intra_bw.min(m.node.mem_bw_node / 2.0);
        (net.intra_latency_us + bytes as f64 / bw * 1e6, bw)
    } else {
        let hops = m
            .fabric(2 * m.node.cpus)
            .topology()
            .route_into(0, 1, &mut Vec::new());
        let bw = net.link_bw.min(net.per_msg_bw);
        let latency = net.overhead_us + net.mpi_latency_us + hops as f64 * net.per_hop_us;
        (latency + bytes as f64 / bw * 1e6, bw)
    }
}

/// Simulated one-way price to `peer`, in µs: half the registry's
/// PingPong inside a node, one transfer on two nodes across them.
fn simulated_one_way(m: &Machine, peer: usize, bytes: u64) -> f64 {
    if peer < m.node.cpus {
        imb::sim::simulate(m, Benchmark::PingPong, 2, bytes).t_max_us() / 2.0
    } else {
        let p = 2 * m.node.cpus;
        let sim = ClusterSim::new(m, p);
        sim.run_fresh(&schedule(p, &[(0, peer)], bytes)).as_us()
    }
}

/// Virtual one-way price to `peer`, in µs: half a ping-pong between
/// ranks 0 and `peer` in a world of `cpus + 1` ranks, timed by rank 0's
/// final clock.
fn virtual_one_way(m: &Machine, peer: usize, bytes: u64) -> f64 {
    let n = m.node.cpus + 1;
    let net = SharedClusterNet::new(m, n);
    let (_, clocks) = mp::run_virtual_coop(n, Box::new(net), move |comm| async move {
        let rank = comm.rank();
        if rank == 0 || rank == peer {
            let mut buf = vec![0u8; bytes as usize];
            if rank == 0 {
                comm.send(&buf, peer, 0);
                comm.recv_async(&mut buf, peer, 0).await;
            } else {
                comm.recv_async(&mut buf, 0, 0).await;
                comm.send(&buf, 0, 0);
            }
        }
    });
    clocks[0].as_us() / 2.0
}

/// Point-to-point prices, simulated and virtual, intra- and inter-node,
/// at 8 B, 1 MiB and 4 MiB, and the Hockney β of the two large sizes:
/// each recovers the composed latency and bandwidth the model declares.
#[test]
fn point_to_point_prices_compose_the_declared_parameters() {
    let mut table = Table::default();
    for m in models() {
        for (placement, peer) in [("intra-node", 1), ("inter-node", m.node.cpus)] {
            for (mode, virt) in [("simulated", false), ("virtual", true)] {
                let t = [8, MIB, 4 * MIB].map(|bytes| {
                    let (declared, _) = declared_one_way(&m, peer, bytes);
                    let recovered = if virt {
                        virtual_one_way(&m, peer, bytes)
                    } else {
                        simulated_one_way(&m, peer, bytes)
                    };
                    let row = format!("p2p {placement} {mode} {bytes} B");
                    let at = [m.name, &row, "latency + bytes / bandwidth (us)"];
                    table.row(at, declared, recovered, Bound::Rel(REL), false);
                    recovered
                });
                let (_, bw) = declared_one_way(&m, peer, 0);
                let beta = 3.0 * MIB as f64 / ((t[2] - t[1]) * 1e-6);
                let row = format!("Hockney beta {placement} {mode}");
                let at = [m.name, &row, "bandwidth (B/s)"];
                table.row(at, bw, beta, Bound::Rel(REL), false);
            }
        }
    }
    table.check();
}

/// A message each way at once between nodes 0 and 1 costs what one way
/// costs on a full-duplex NIC, and nearly twice that on a half-duplex one.
#[test]
fn duplex_traffic_prices_the_nic() {
    let mut table = Table::default();
    for m in models() {
        let (cpus, p) = (m.node.cpus, 2 * m.node.cpus);
        let sim = ClusterSim::new(&m, p);
        for bytes in [MIB, 4 * MIB] {
            let one = sim.run_fresh(&schedule(p, &[(0, cpus)], bytes)).as_us();
            let both = sim.run_fresh(&schedule(p, &[(0, cpus), (cpus, 0)], bytes));
            let (nic, bound) = if m.net.nic_duplex {
                ("full", Bound::Rel(1e-12))
            } else {
                ("half", Bound::Ratio(1.7, f64::INFINITY))
            };
            let row = format!("duplex {bytes} B, {nic}-duplex NIC");
            let at = [m.name, &row, "nic_duplex, both ways against one way (us)"];
            table.row(at, one, both.as_us(), bound, false);
        }
    }
    table.check();
}

/// Compute is priced from the node model: `v_compute` at peak charges
/// its caller one second and an idle rank nothing, and the simulated
/// EP-STREAM, EP-STREAM-triad and EP-DGEMM records are the declared
/// rates.
#[test]
fn compute_prices_the_node_model() {
    let mut table = Table::default();
    for m in models() {
        let flops = m.node.peak_gflops * 1e9;
        let net = SharedClusterNet::new(&m, 2);
        let (_, clocks) = mp::run_virtual_coop(2, Box::new(net), move |comm| async move {
            if comm.rank() == 0 {
                comm.v_compute(flops, 1.0);
            }
        });
        let at = [m.name, "v_compute at peak (s)", "peak_gflops"];
        table.row(at, 1.0, clocks[0].as_secs(), Bound::Exact, false);
        let at = [m.name, "v_compute, idle rank (s)", "none"];
        table.row(at, 0.0, clocks[1].as_secs(), Bound::Exact, false);

        let node = &m.node;
        let records = [hpcc::Component::Stream, hpcc::Component::Dgemm]
            .into_iter()
            .flat_map(|c| hpcc::sim::component_records(&m, node.cpus, c))
            .collect::<Vec<_>>();
        assert_eq!(records.len(), 3, "{}: EP-STREAM, triad, EP-DGEMM", m.name);
        for record in records {
            let (param, declared) = match record.benchmark {
                "EP-STREAM" => ("stream_bw / 1e9", node.stream_bw / 1e9),
                "EP-STREAM-triad" => ("stream_bw * 1.05 / 1e9", node.stream_bw * 1.05 / 1e9),
                "EP-DGEMM" => ("peak_gflops * dgemm_eff", node.peak_gflops * node.dgemm_eff),
                other => panic!("{}: unexpected record {other}", m.name),
            };
            let row = format!("simulated {}", record.benchmark);
            let at = [m.name, &row, param];
            table.row(at, declared, record.value, Bound::Exact, false);
        }
    }
    table.check();
}

/// Virtual execution against schedule replay for `benches` at 8 ranks,
/// 256 KiB and 1 MiB, 3 iterations: the real benchmark code executed
/// under virtual time lands near the price of its generated schedule.
fn virtual_vs_replay(benches: &[Benchmark]) {
    let mut table = Table::default();
    for m in models() {
        let p = 8.min(m.max_cpus);
        for &bench in benches {
            for bytes in [256 << 10, MIB] {
                let executed = imb::run_virtual(&m, bench, p, bytes, 3).t_max_us();
                let replayed = imb::sim::simulate(&m, bench, p, bytes).t_max_us();
                let param = format!("{bench} at {p} ranks, {bytes} B (us)");
                let at = [m.name, "virtual / replay", &param];
                table.row(at, replayed, executed, Bound::Ratio(0.4, 2.5), false);
            }
        }
    }
    table.check();
}

#[test]
fn virtual_execution_agrees_with_schedule_replay() {
    virtual_vs_replay(&[
        Benchmark::Allreduce,
        Benchmark::Allgather,
        Benchmark::Bcast,
        Benchmark::ReduceScatter,
    ]);
}

/// Alltoall on its own, so the two halves run side by side: a debug build
/// spends most of a virtual cell filling its ghost buffers, and
/// Alltoall's are the largest.
#[test]
fn virtual_alltoall_agrees_with_schedule_replay() {
    virtual_vs_replay(&[Benchmark::Alltoall]);
}

/// The registry's virtual 8 B PingPong at one iteration, against the
/// declared intra-node price. Known: it carries the all-rank allreduce
/// that `v_sync_async` leaves inside the timed span (ROADMAP item 1(a)).
/// On the Altix BX2 it reads 0.7040 µs against 0.7027 µs declared; at 20
/// iterations it reads 0.7027 µs.
#[test]
fn registry_virtual_pingpong_carries_the_sync_allreduce() {
    let mut table = Table::default();
    for m in models() {
        let (declared, _) = declared_one_way(&m, 1, 8);
        let recovered = imb::run_virtual(&m, Benchmark::PingPong, 2, 8, 1).t_max_us() / 2.0;
        let row = "registry virtual PingPong 8 B, 1 iteration";
        let at = [m.name, row, "intra_latency_us + 8 / bandwidth (us)"];
        table.row(at, declared, recovered, Bound::Rel(REL), true);
    }
    table.check();
}

/// Ranks at which the Alltoall rows run: every power of two from two
/// nodes up to `min(max_cpus, cap)`, and `max_cpus` itself when it is
/// not a power of two and fits under `cap`.
fn alltoall_procs(m: &Machine, cap: usize) -> Vec<usize> {
    let top = m.max_cpus.min(cap);
    let mut procs: Vec<usize> = std::iter::successors(Some(2 * m.node.cpus), |p| Some(p * 2))
        .take_while(|&p| p <= top)
        .collect();
    if !m.max_cpus.is_power_of_two() && m.max_cpus <= cap {
        procs.push(m.max_cpus);
    }
    procs
}

/// A 1 MiB Alltoall at `p` ranks moves `(p/2)²` MiB across any half/half
/// cut, so it takes at least that over the bisection's capacity.
fn alltoall_rows(cap: usize) -> Table {
    let mut table = Table::default();
    for m in models() {
        for p in alltoall_procs(&m, cap) {
            let links = m.fabric(p).topology().bisection_links();
            let half = (p / 2) as f64;
            let bound_us = half * half * MIB as f64 / (links * m.net.link_bw) * 1e6;
            let t_us = imb::sim::simulate(&m, Benchmark::Alltoall, p, MIB).t_max_us();
            let recorded = KNOWN_BELOW_BISECTION
                .iter()
                .find(|&&(name, procs, _)| name == m.name && procs == p)
                .map(|&(_, _, ratio)| ratio);
            let mut param = format!("bisection_links = {links} at {p} ranks (us)");
            if let Some(ratio) = recorded {
                param += &format!(", recorded at {ratio} of the bound");
            }
            let at = [m.name, "Alltoall 1 MiB / bisection bound", &param];
            let bound = Bound::Ratio(1.0, f64::INFINITY);
            table.row(at, bound_us, t_us, bound, recorded.is_some());
        }
    }
    table
}

#[test]
fn alltoall_respects_the_bisection_bound() {
    alltoall_rows(256).check();
}

/// The Alltoall rows at each model's full installation, capped at 2 048
/// ranks.
#[test]
#[ignore = "release scale: Alltoall up to 2048 ranks; run with --release --ignored"]
fn alltoall_respects_the_bisection_bound_at_full_installation() {
    let start = std::time::Instant::now();
    let table = alltoall_rows(2048);
    println!("host time {:.1} s", start.elapsed().as_secs_f64());
    table.check();
}
