//! Builds a *custom* machine model — a hypothetical commodity cluster
//! with a faster network — and evaluates it against the paper's systems
//! using the same HPCC balance analysis, demonstrating the public
//! modelling API end to end.
//!
//! ```text
//! cargo run --example custom_machine --release
//! ```

use hpcbench::ratios;
use machines::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};

/// A fictional 2006-era cluster: Opteron-class nodes on a full-bisection
/// fat-tree with modern-for-the-time 10 GbE-like NICs.
fn my_cluster() -> Machine {
    Machine {
        name: "Custom Opteron + fast fabric",
        class: SystemClass::Scalar,
        node: NodeModel {
            cpus: 4,
            peak_gflops: 4.8,
            stream_bw: 3.0e9,
            mem_bw_node: 12.8e9,
            dgemm_eff: 0.9,
            hpl_eff: 0.78,
            mem_latency_us: 0.09,
            random_concurrency: 6.0,
        },
        net: NetworkModel {
            topology: TopologyKind::FatTree {
                arity: 8,
                blocking: 1.0,
                blocking_from: 1,
            },
            link_bw: 2.4e9,
            nic_duplex: true,
            mpi_latency_us: 3.5,
            per_hop_us: 0.2,
            overhead_us: 0.6,
            intra_latency_us: 0.9,
            intra_bw: 2.2e9,
            per_msg_bw: 2.4e9,
            plain_link_bw: 2.4e9,
        },
        max_cpus: 1024,
    }
}

fn main() {
    let custom = my_cluster();
    custom.validate().expect("model must be self-consistent");

    let p = 64;
    println!("HPCC balance at {p} CPUs (simulated):\n");
    println!(
        "{:<30} {:>10} {:>12} {:>12} {:>10}",
        "machine", "HPL GF/s", "ring GB/s", "B/kFlop", "B/F"
    );
    let mut all = machines::systems::paper_systems();
    all.push(custom);
    for m in &all {
        if p > m.max_cpus {
            continue;
        }
        let s = hpcc::sim::summary(m, p);
        let b = ratios::balance_point(&s);
        println!(
            "{:<30} {:>10.1} {:>12.2} {:>12.1} {:>10.2}",
            m.name, b.hpl_gflops, b.accum_ring_bw, b.b_per_kflop, b.stream_b_per_flop
        );
    }

    // Where does the custom design land on the paper's headline test?
    let mine = imb::sim::simulate(&all[5], imb::Benchmark::Alltoall, p, 1 << 20);
    let opteron = imb::sim::simulate(
        &machines::systems::cray_opteron(),
        imb::Benchmark::Alltoall,
        p,
        1 << 20,
    );
    println!(
        "\n1 MB Alltoall at {p} CPUs: custom {:.0} us vs Cray Opteron {:.0} us \
         ({:.1}x faster)",
        mine.t_max_us(),
        opteron.t_max_us(),
        opteron.t_max_us() / mine.t_max_us()
    );
    assert!(mine.t_max_us() < opteron.t_max_us());
}
