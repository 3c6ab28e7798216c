//! The repo's benchmark: five workloads over the whole hpcbench stack,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run. See `README.md` beside this package and `BENCHMARK.json` at
//! the repo root.
//!
//! ```text
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, JSON last
//! benchmark/run.sh [--seed N] [--seconds S]                        # all five, then traced
//! benchmark/run.sh --smoke                                         # one pass each, no probes
//! benchmark/run.sh --aa                                            # two sets, compared
//! benchmark/run.sh --spec                                          # prints BENCHMARK.json
//! ```

mod cells;
mod child;
mod drive;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::Stopwatch;

use cells::WorkloadId;
use drive::RunArgs;

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
         [--smoke] [--aa] [--spec]\n\
         workloads: {}",
        WorkloadId::ALL.map(WorkloadId::name).join(", ")
    );
    std::process::exit(2);
}

fn main() {
    // Set-up time is counted from here.
    let start = Stopwatch::start();

    let mut workload: Option<WorkloadId> = None;
    let mut child: Option<WorkloadId> = None;
    let mut seed = spec::DEFAULT_SEED;
    let mut process = 0u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let (mut traced_child, mut smoke, mut aa, mut print_spec) = (false, false, false, false);

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::from_name(&value()).unwrap_or_else(|| usage()))
            }
            "--child" => child = Some(WorkloadId::from_name(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--process" => process = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage());
                if !(0.0..=3600.0).contains(&seconds) {
                    usage();
                }
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => traced_child = true,
            "--smoke" => smoke = true,
            "--aa" => aa = true,
            "--spec" => print_spec = true,
            _ => usage(),
        }
    }

    if let Some(id) = child {
        child::run(
            &child::ChildArgs {
                id,
                seed,
                process,
                seconds: if smoke { 0.0 } else { seconds },
                traced: traced_child,
                min_passes: if smoke { 1 } else { 2 },
            },
            &start,
        );
        return;
    }
    if print_spec {
        print!("{}", spec::benchmark_json().pretty());
        return;
    }
    let run = RunArgs {
        seed,
        seconds,
        smoke,
    };
    let code = match workload {
        Some(id) => drive::run_one(id, run, trace),
        None if aa => drive::run_aa(run),
        None => drive::run_all(run),
    };
    std::process::exit(code);
}
