//! Where simulated pricing spends host time, per transfer. First the ten
//! most expensive cells of the paper plan at 128 CPUs and 1 MiB: median
//! host milliseconds of 5 runs, the transfers the cell prices and the
//! host nanoseconds per transfer. Then G-FFT on `exascale_cluster` at
//! 256, 512 and 1 024 ranks, median of 3 runs: its three pairwise
//! transposes are 3 p(p-1) transfers, so its ns per transfer is the cost
//! of pricing one transfer as the world grows.
//!
//! A cell's transfers are the messages of the schedules its model prices
//! (`imb::sim::simulate` prices a warm-up pass and a measured one;
//! `hpcc::sim` prices G-PTRANS's exchange once, G-FFT's three times and
//! each of RandomRing's four permutations at two sizes, twice each).
//! G-HPL, G-RandomAccess, EP-STREAM and EP-DGEMM price none.
//!
//! ```text
//! cargo run --example pricing_host_time --release
//! ```

use std::time::Instant;

use harness::{Mode, ProcGrid, RunPlan, Runner};
use hpcbench::figures::{self, FigureConfig};
use hpcc::Component;
use machines::Machine;
use mp::sched;
use simnet::units::MIB;

const PROCS: usize = 128;

/// Median host seconds of `runs` calls of `f`.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Transfers a simulated cell of workload `name` prices at `p` ranks.
fn transfers(name: &str, p: usize) -> usize {
    let pairwise = || p * (p - 1);
    if let Some(b) = imb::Benchmark::ALL.into_iter().find(|b| b.name() == name) {
        let procs = match b.class() {
            imb::Class::SingleTransfer => 2,
            _ => p,
        };
        return 2 * imb::sim::schedule_for(b, procs, MIB).total_messages();
    }
    match name {
        "G-PTRANS" => pairwise(),
        "G-FFT" => 3 * pairwise(),
        "RandomRing" => {
            let ring = sched::p2p::random_ring(&(0..p).collect::<Vec<_>>(), 8);
            4 * 2 * 2 * ring.total_messages()
        }
        _ => 0,
    }
}

fn per_transfer_ns(secs: f64, transfers: usize) -> String {
    if transfers == 0 {
        "-".into()
    } else {
        format!("{:.0}", secs * 1e9 / transfers as f64)
    }
}

fn main() {
    let cfg = FigureConfig {
        max_procs: PROCS,
        imb_bytes: MIB,
        ..FigureConfig::quick()
    };
    let plan = figures::paper_plan(&cfg);
    let registry = hpcbench::registry();
    let ProcGrid::PerWorkload(grid) = &plan.procs else {
        unreachable!("the paper plan sets a per-machine grid");
    };
    let names = plan.workloads.as_deref().unwrap_or_default();

    // Every cell of the plan at 128 CPUs, priced alone.
    let mut cells: Vec<(f64, &'static str, &Machine)> = Vec::new();
    for w in registry.iter().filter(|w| names.contains(&w.meta.name)) {
        for m in &plan.machines {
            if !grid(Some(m), &w.meta).contains(&PROCS) {
                continue;
            }
            let cell = RunPlan {
                modes: vec![Mode::Simulated],
                machines: vec![m.clone()],
                procs: ProcGrid::List(vec![PROCS]),
                bytes: vec![MIB],
                workloads: Some(vec![w.meta.name]),
                runner: Runner::standard(),
            };
            let secs = median_secs(5, || {
                assert!(cell.execute(&registry).iter().all(|r| r.passed));
            });
            cells.push((secs, w.meta.name, m));
        }
    }
    cells.sort_by(|a, b| b.0.total_cmp(&a.0));
    let total: f64 = cells.iter().map(|c| c.0).sum();
    println!(
        "{} paper-plan cells at {PROCS} CPUs, {:.1} ms in all; the ten most expensive:\n",
        cells.len(),
        total * 1e3
    );
    println!("| cell | machine | host ms | transfers | ns/transfer |\n|---|---|---:|---:|---:|");
    for &(secs, name, m) in cells.iter().take(10) {
        let n = transfers(name, PROCS);
        let ns = per_transfer_ns(secs, n);
        println!("| {name} | {} | {:.2} | {n} | {ns} |", m.name, secs * 1e3);
    }

    let exa = machines::systems::exascale_cluster();
    println!("\nG-FFT on {}:\n", exa.name);
    println!("| ranks | host ms | transfers | ns/transfer |\n|---:|---:|---:|---:|");
    for p in [256, 512, 1024] {
        let secs = median_secs(3, || {
            let recs = hpcc::sim::component_records(&exa, p, Component::Fft);
            assert!(recs.iter().all(|r| r.passed && r.value > 0.0));
        });
        let n = transfers("G-FFT", p);
        let ns = per_transfer_ns(secs, n);
        println!("| {p} | {:.1} | {n} | {ns} |", secs * 1e3);
    }
}
