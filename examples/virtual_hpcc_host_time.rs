//! Where a virtual HPCC run's host time goes: host milliseconds per
//! component, each in a world of its own, and of the whole suite in one
//! world, at 8 and 16 ranks on the Dell Xeon model. Median of 21 runs.
//! The records are virtual time; this is the harness overhead behind them.
//!
//! ```text
//! cargo run --example virtual_hpcc_host_time --release
//! ```

use hpcc::virtual_run::run_virtual_components;
use hpcc::{Component, SuiteConfig};

/// Median host milliseconds of 21 virtual runs of `components`.
fn median_ms(procs: usize, components: &[Component]) -> f64 {
    let machine = machines::systems::dell_xeon();
    let cfg = SuiteConfig::small(procs);
    let mut ms: Vec<f64> = (0..21)
        .map(|_| {
            let t = std::time::Instant::now();
            let recs = run_virtual_components(&machine, procs, &cfg, components);
            assert!(recs.iter().all(|r| r.passed), "{components:?} failed");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    println!("| component | 8 ranks | 16 ranks |\n|---|---:|---:|");
    let rows = Component::ALL.map(|c| (c.name(), vec![c]));
    for (name, list) in rows.into_iter().chain([("whole", Component::ALL.to_vec())]) {
        let [p8, p16] = [8, 16].map(|p| median_ms(p, &list));
        println!("| {name} | {p8:.2} | {p16:.2} |");
    }
}
