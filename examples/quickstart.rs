//! Quickstart: the three layers of the workspace in one minute.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use hpcbench::figures::{self, FigureConfig};

fn main() {
    // 1. The message-passing runtime: an SPMD program on 4 rank threads.
    //    Every operation is awaitable; a rank thread waits on one with
    //    `mp::block_on`.
    let sums = mp::run(4, |comm| {
        let mut x = [comm.rank() as f64 + 1.0];
        mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
        x[0]
    });
    println!("allreduce over 4 ranks: {:?}", sums);

    // 2. A native benchmark: IMB Allreduce, 1 MiB, on this machine.
    let meas = imb::run_native(imb::Benchmark::Allreduce, 4, 1 << 20, 10);
    println!(
        "native IMB Allreduce, 4 ranks, 1 MiB: {:.1} us/call",
        meas.t_max_us()
    );

    // 3. The same benchmark on the paper's machines, simulated.
    println!("simulated IMB Allreduce, 16 CPUs, 1 MiB:");
    for m in machines::systems::paper_systems() {
        let s = imb::sim::simulate(&m, imb::Benchmark::Allreduce, 16, 1 << 20);
        println!("  {:<28} {:>10.1} us/call", m.name, s.t_max_us());
    }

    // 4. One figure of the paper, regenerated at reduced scale: the
    //    paper's cells priced once, then projected.
    let records = figures::paper_plan(&FigureConfig::quick()).execute(&hpcbench::registry());
    let figures = figures::figures_from(&records);
    let fig = figures.iter().find(|f| f.id == "fig12").expect("Fig. 12");
    println!("\n{}", fig.to_markdown());
}
