//! The paper's Section 4.1 ratio analysis, end to end: sweeps every
//! machine model, prints the Fig. 2-style B/kFlop table, the Fig. 5
//! normalised comparison and Table 3 — then checks the paper's headline
//! qualitative findings hold in the reproduction.
//!
//! ```text
//! cargo run --example balance_analysis --release
//! ```

use hpcbench::figures::{self, FigureConfig};
use hpcbench::ratios;

fn main() {
    let cfg = FigureConfig {
        max_procs: 256,
        imb_bytes: 1 << 20,
        ..FigureConfig::default()
    };

    println!("Communication/computation balance (Fig. 2): B/kFlop by CPUs\n");
    // Only the HPCC half of the paper plan: the IMB figures are not read here.
    let plan = harness::RunPlan {
        workloads: Some(hpcbench::registry::hpcc_names()),
        ..figures::paper_plan(&cfg)
    };
    let sweeps = figures::hpcc_sweeps_from(&plan.execute(&hpcbench::registry()));
    for sw in &sweeps {
        print!("{:<30}", sw.machine.name);
        for s in &sw.rows {
            let b = ratios::balance_point(s);
            print!(" {:>8.1}@{}", b.b_per_kflop, b.cpus);
        }
        println!();
    }

    let kiviat = figures::kiviat_rows_from(&sweeps);
    println!("\n{}", figures::fig05_from(&kiviat).to_markdown());
    println!("{}", figures::table3_from(&kiviat).to_markdown());

    // Headline findings of Section 5.1.
    let by_name = |name: &str| {
        sweeps
            .iter()
            .find(|sw| sw.machine.name.contains(name))
            .expect("machine present")
    };
    let sx8 = by_name("NEC");
    let opteron = by_name("Opteron");

    let sx8_last = ratios::balance_point(sx8.rows.last().unwrap());
    let sx8_first = ratios::balance_point(&sx8.rows[0]);
    let opt_last = ratios::balance_point(opteron.rows.last().unwrap());
    let opt_first = ratios::balance_point(&opteron.rows[0]);

    // "NEC SX-8 system scales well which can be noted by a relatively
    // flat curve" vs "a strong decrease ... in the case of Cray Opteron".
    let sx8_drop = sx8_first.b_per_kflop / sx8_last.b_per_kflop;
    let opt_drop = opt_first.b_per_kflop / opt_last.b_per_kflop;
    println!("B/kFlop decline, first->last point: SX-8 {sx8_drop:.1}x, Opteron {opt_drop:.1}x");
    assert!(
        opt_drop > sx8_drop,
        "the Opteron cluster must lose balance faster than the SX-8"
    );

    // "The Byte/Flop for NEC SX-8 is consistently above 2.67".
    for row in &sx8.rows {
        let b = ratios::balance_point(row);
        assert!(
            b.stream_b_per_flop > 2.67,
            "SX-8 B/F fell below the paper's floor"
        );
    }
    println!("all headline balance findings reproduced");
}
