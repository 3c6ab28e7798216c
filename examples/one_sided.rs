//! One-sided communication (the paper's announced follow-up study):
//! runs the IMB-EXT benchmarks natively under all three MPI-2
//! synchronisation schemes, then runs the same epochs under virtual clocks
//! on the paper's machine models to compare the schemes there.
//!
//! ```text
//! cargo run --example one_sided --release
//! ```

use harness::Runner;
use imb::ext::{run_native, run_virtual};
use imb::{ExtBenchmark, SyncScheme};

fn main() {
    println!("IMB-EXT natively on this host (2 ranks):\n");
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>14}",
        "benchmark", "bytes", "fence us", "pscw us", "lock us"
    );
    for bench in ExtBenchmark::ALL {
        for bytes in [1024u64, 1 << 20] {
            let t: Vec<f64> = SyncScheme::ALL
                .iter()
                .map(|&s| run_native(bench, s, bytes, 10).t_us)
                .collect();
            println!(
                "{:<12} {:>10} {:>14.2} {:>14.2} {:>14.2}",
                bench.to_string(),
                bytes,
                t[0],
                t[1],
                t[2]
            );
        }
    }

    let virt = |m: &machines::Machine, b, s| run_virtual(m, b, s, 1 << 20, &Runner::standard()).mbs;
    println!("\nVirtual Unidir_Put at 1 MiB across the paper's machines:\n");
    println!(
        "{:<30} {:>12} {:>12} {:>12}   [MB/s]",
        "machine", "fence", "pscw", "lock"
    );
    for m in machines::systems::paper_systems() {
        let v = SyncScheme::ALL.map(|s| virt(&m, ExtBenchmark::UnidirPut, s));
        println!(
            "{:<30} {:>12.0} {:>12.0} {:>12.0}",
            m.name, v[0], v[1], v[2]
        );
    }

    // The put/get asymmetry the paper's Section 2.4 RDMA discussion
    // predicts: a get is a request/response round trip.
    let m = machines::systems::dell_xeon();
    let put = virt(&m, ExtBenchmark::UnidirPut, SyncScheme::Lock);
    let get = virt(&m, ExtBenchmark::UnidirGet, SyncScheme::Lock);
    println!("\nDell Xeon, 1 MiB passive-target: put {put:.0} MB/s vs get {get:.0} MB/s");
    assert!(put > get);
}
