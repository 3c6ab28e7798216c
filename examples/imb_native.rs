//! Runs the IMB benchmark subset natively on this machine, printing the
//! classic IMB-style table per benchmark (message size, repetitions,
//! t_min/t_avg/t_max, bandwidth where applicable).
//!
//! ```text
//! cargo run --example imb_native --release -- [ranks] [max_log2_bytes]
//! ```

use imb::{default_repetitions, Benchmark, MetricKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(4);
    let max_log2: u32 = args.next().and_then(|v| v.parse().ok()).unwrap_or(16);

    let sizes: Vec<u64> = imb::standard_sizes()
        .into_iter()
        .filter(|&s| s <= 1 << max_log2)
        .collect();

    println!("# {}", mp::waiting_regime(ranks));
    for bench in Benchmark::ALL {
        let p = ranks.max(bench.min_procs());
        println!("\n#--------------------------------------------------");
        println!("# Benchmarking {bench}  ({p} processes)");
        println!("#--------------------------------------------------");
        match bench.metric() {
            MetricKind::BandwidthMBs => println!(
                "{:>10} {:>8} {:>12} {:>12}",
                "#bytes", "#reps", "t_max[us]", "MB/s"
            ),
            _ => println!(
                "{:>10} {:>8} {:>12} {:>12} {:>12}",
                "#bytes", "#reps", "t_min[us]", "t_avg[us]", "t_max[us]"
            ),
        }
        let bench_sizes: &[u64] = if bench.sized() { &sizes } else { &[0] };
        for &bytes in bench_sizes {
            // Scale the IMB repetition rule down for in-process runs.
            let reps = (default_repetitions(bytes) / 20).max(3);
            let m = imb::run_native(bench, p, bytes, reps);
            match bench.metric() {
                MetricKind::BandwidthMBs => println!(
                    "{:>10} {:>8} {:>12.2} {:>12.2}",
                    bytes,
                    reps,
                    m.t_max_us(),
                    m.bandwidth_mbs().unwrap_or(0.0)
                ),
                _ => println!(
                    "{:>10} {:>8} {:>12.2} {:>12.2} {:>12.2}",
                    bytes,
                    reps,
                    m.t_min_us(),
                    m.t_avg_us(),
                    m.t_max_us()
                ),
            }
        }
    }
}
