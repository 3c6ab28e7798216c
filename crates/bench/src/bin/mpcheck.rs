//! The schedule-space analysis CLI: a DPOR explorer over the coop
//! scheduler, with replayable counterexamples.
//!
//! ```text
//! cargo run -p bench --bin mpcheck -- explore                   # gallery + workload slices
//! cargo run -p bench --bin mpcheck -- explore --gallery-only    # misuse gallery alone
//! cargo run -p bench --bin mpcheck -- explore --workloads A,B   # registry-name filter
//! cargo run -p bench --bin mpcheck -- explore --machine NAME    # model for the slices
//! cargo run -p bench --bin mpcheck -- explore --max-procs N     # slice world cap (default 4)
//! cargo run -p bench --bin mpcheck -- explore --bytes N         # sized-workload bytes
//! cargo run -p bench --bin mpcheck -- explore --max-schedules N # per-target budget
//! cargo run -p bench --bin mpcheck -- explore --preemption-bound N
//! cargo run -p bench --bin mpcheck -- explore --out DIR         # artefacts (default out)
//! cargo run -p bench --bin mpcheck -- replay FILE               # re-run one counterexample
//! ```
//!
//! `explore` enumerates meaningfully distinct interleavings of every
//! target — no random seeds — and fails (exit 1) when a gallery entry
//! misses its expected finding class, the clean control turns up a
//! finding, or any workload slice produces a finding. The merged
//! `mpcheck-report-v3` document lands at `<out>/mpcheck-explore.json`
//! and every finding's `hpcbench-schedule-v1` counterexample at
//! `<out>/schedules/`, where `replay` re-executes it deterministically.

#[path = "../explore_driver.rs"]
mod explore_driver;

use std::path::PathBuf;

use explore_driver::ExplorePlan;
use machines::systems;

fn usage() -> ! {
    eprintln!(
        "usage: mpcheck explore [--gallery-only] [--workloads A,B] [--machine NAME] \
         [--max-procs N] [--bytes N] [--max-schedules N] [--preemption-bound N] [--out DIR]\n\
         \x20      mpcheck replay FILE"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("explore") => explore(args),
        Some("replay") => replay(args),
        _ => usage(),
    }
}

fn explore(mut args: impl Iterator<Item = String>) {
    let mut plan = ExplorePlan::default();
    let mut out_dir = PathBuf::from("out");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--gallery-only" => plan.gallery_only = true,
            "--workloads" => {
                let list = args.next().expect("--workloads needs a,b,c names");
                plan.workloads = Some(list.split(',').map(str::to_string).collect());
            }
            "--machine" => {
                let name = args.next().expect("--machine needs a model name");
                plan.machine = systems::all_variants()
                    .into_iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| {
                        let known: Vec<&str> =
                            systems::all_variants().iter().map(|m| m.name).collect();
                        panic!("unknown machine {name:?}; known: {}", known.join(", "))
                    });
            }
            "--max-procs" => {
                plan.max_procs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&p| p >= 2)
                    .expect("--max-procs needs a world cap >= 2");
            }
            "--bytes" => {
                plan.bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--bytes needs a message size");
            }
            "--max-schedules" => {
                plan.opts.max_schedules = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--max-schedules needs a budget >= 1");
            }
            "--preemption-bound" => {
                plan.opts.preemption_bound = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--preemption-bound needs a count"),
                );
            }
            "--out" => out_dir = PathBuf::from(args.next().expect("--out needs a path")),
            _ => usage(),
        }
    }

    let summary = explore_driver::run(&plan, &out_dir).expect("write exploration artefacts");
    print!("{}", summary.report);
    let report_path = out_dir.join("mpcheck-explore.json");
    std::fs::write(&report_path, summary.report.to_json()).expect("write exploration report");
    println!("wrote {}", report_path.display());
    println!(
        "wrote {} counterexample trace(s) under {}",
        summary.traces.len(),
        out_dir.join("schedules").display()
    );
    if !summary.failures.is_empty() {
        for failure in &summary.failures {
            eprintln!("mpcheck explore: {failure}");
        }
        std::process::exit(1);
    }
}

fn replay(mut args: impl Iterator<Item = String>) {
    let Some(path) = args.next() else { usage() };
    if args.next().is_some() {
        usage();
    }
    match explore_driver::replay_file(std::path::Path::new(&path)) {
        Ok(report) => {
            print!("{report}");
            println!("replay: schedule reproduced without divergence");
        }
        Err(e) => {
            eprintln!("mpcheck replay: {e}");
            std::process::exit(1);
        }
    }
}
