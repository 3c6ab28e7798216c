//! The campaign driver: one invocation runs {machines x modes x
//! workloads x proc counts} through the unified workload registry and
//! writes the resulting record stream as JSON.
//!
//! ```text
//! cargo run -p bench --bin campaign --release               # paper campaign + figures
//! cargo run -p bench --bin campaign -- --smoke              # fast CI sweep, all 3 modes
//! cargo run -p bench --bin campaign -- --records FILE       # records JSON path
//! cargo run -p bench --bin campaign -- --out DIR            # artefact directory
//! cargo run -p bench --bin campaign -- --no-figures         # records only
//! cargo run -p bench --bin campaign -- --no-extensions      # the paper only: no extension studies
//! cargo run -p bench --bin campaign -- --check              # mpcheck-verify native runs
//! cargo run -p bench --bin campaign -- --check-report FILE  # mpcheck report JSON path
//! cargo run -p bench --bin campaign -- --high-rank N        # virtual slice at N coop ranks
//! cargo run -p bench --bin campaign -- --workloads A,B      # registry-name filter
//! cargo run -p bench --bin campaign -- --smoke --nprocs 2   # native cells over 2-process fleets
//! ```
//!
//! Full mode prices the paper: the simulated cells Table 3 and Figs.
//! 1-15 read, each once and no other (`hpcbench::figures::paper_plan`),
//! written to `records.json` and handed to `hpcbench::output::write_from`,
//! which projects every table and figure out of them. Smoke mode
//! exercises every execution path — native, simulated and virtual — on a
//! small cross product so CI proves all three routes stay wired through
//! the registry and Runner.
//!
//! Two flag combinations are refused with exit status 2 rather than
//! honoured in name only: `--check` (or `--check-report`) without
//! `--smoke`, since the paper plan runs no native world to instrument, and
//! `--workloads` in full mode without `--no-figures`, since the figures
//! read the whole plan and nothing prices a cell the filter left out.
//!
//! # Process fleets
//!
//! The process count is the switch. `--nprocs 1` (the default) runs every
//! rank as a thread of this process. With `--nprocs N`, N >= 2 (tcp on
//! loopback on one host, as in CI), every native cell of the smoke cross
//! product runs as a fleet of up to N worker processes: the driver
//! re-execs *this binary* per cell through
//! [`mp::transport::launcher::Launcher`], which wires the world topology
//! via the `MP_*` environment. A worker finds `HPCB_CELL_WORKLOAD` set
//! before argument parsing, installs the session, runs the one workload
//! at the session's world size, and — when it hosts rank 0 — writes the
//! canonical record lines for the driver to splice into the unified
//! stream. Simulated and virtual records are deterministic model
//! evaluation and always run in the driver. The record stream is
//! line-for-line comparable with the in-process run of the same plan
//! (modulo timing statistics), which is exactly what the backend-parity
//! test asserts.

use std::path::{Path, PathBuf};
use std::time::Duration;

use harness::{records_json_from_lines, Cell, Mode, ProcGrid, Record, RunPlan, Runner};
use hpcbench::figures::{self, FigureConfig};
use hpcbench::output::{self, OutputConfig};
use machines::systems;
use mp::transport::launcher::Launcher;
use mpcheck::json::{self, Value};

/// Cell-description environment (set by the driver's fleet launcher on
/// top of the launcher's own `MP_*` session wiring): which workload a
/// worker runs, at what message size, and where the rank-0 host writes
/// records. The world size is the session's; the runner is the smoke
/// plan's.
const CELL_WORKLOAD: &str = "HPCB_CELL_WORKLOAD";
/// Message size in bytes, or `none` for unsized workloads.
const CELL_BYTES: &str = "HPCB_CELL_BYTES";
/// Path the rank-0-hosting worker writes the record JSON lines to.
const CELL_OUT: &str = "HPCB_CELL_OUT";

/// The smoke cross product: all three modes over a reduced grid. The
/// same plan drives the in-process path and the fleet path, so the two
/// record streams stay line-for-line comparable.
fn smoke_plan(workloads: Option<Vec<&'static str>>) -> RunPlan {
    RunPlan {
        modes: vec![Mode::Native, Mode::Simulated, Mode::Virtual],
        machines: vec![systems::dell_xeon(), systems::nec_sx8()],
        procs: ProcGrid::List(vec![2, 4]),
        bytes: vec![1024, 65536],
        workloads,
        runner: Runner::smoke(),
    }
}

fn smoke_records(
    check: bool,
    workloads: Option<Vec<&'static str>>,
) -> (Vec<Record>, Option<mpcheck::Report>) {
    let reg = hpcbench::registry();
    let plan = smoke_plan(workloads);
    if check {
        let (records, report) = plan.execute_checked(&reg, mpcheck::Settings::default());
        (records, Some(report))
    } else {
        (plan.execute(&reg), None)
    }
}

/// The multi-process smoke sweep: native cells delegated to per-cell
/// worker fleets, simulated and virtual records produced in-process,
/// interleaved in the plan's deterministic order.
fn smoke_lines_multiproc(nprocs: usize, workloads: Option<Vec<&'static str>>) -> Vec<String> {
    let reg = hpcbench::registry();
    let plan = smoke_plan(workloads);
    let exe = std::env::current_exe().expect("campaign executable path");
    let scratch = std::env::temp_dir().join(format!("campaign-cells-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create cell scratch directory");
    let lines = plan.execute_lines(&reg, |cell| run_cell_fleet(nprocs, &exe, &scratch, cell));
    let _ = std::fs::remove_dir_all(&scratch);
    lines
}

/// Launches one native cell as a worker fleet and returns the canonical
/// record lines its rank-0 host emitted.
fn run_cell_fleet(nprocs: usize, exe: &Path, scratch: &Path, cell: &Cell) -> Vec<String> {
    let bytes_tag = cell
        .bytes
        .map_or_else(|| "none".to_string(), |b| b.to_string());
    let out_path = scratch.join(format!(
        "{}-p{}-b{}.jsonl",
        cell.workload, cell.procs, bytes_tag
    ));
    // A fleet never has more processes than ranks (the smoke grid's
    // smallest world is two ranks).
    let np = nprocs.min(cell.procs);
    println!(
        "  {} procs={} bytes={bytes_tag} over {np} worker processes",
        cell.workload, cell.procs
    );
    Launcher::new(cell.procs, np, exe)
        .env(CELL_WORKLOAD, cell.workload)
        .env(CELL_BYTES, bytes_tag)
        .env(CELL_OUT, out_path.display().to_string())
        .timeout(Duration::from_secs(600))
        .run();
    let body = std::fs::read_to_string(&out_path).unwrap_or_else(|e| {
        panic!(
            "cell {} left no records at {}: {e}",
            cell.workload,
            out_path.display()
        )
    });
    body.lines().map(str::to_string).collect()
}

/// Worker-process entry: runs the one native cell the cell environment
/// describes, at the world size of the `MP_*` session the launcher wired
/// and with the smoke plan's runner, then writes the record lines if this
/// process hosts rank 0 (whose records are the canonical stream — every
/// rank's records agree on everything but timing, because the statistics
/// are allreduced).
fn run_cell_worker() {
    let proc = mp::transport::init_from_env()
        .expect("cell workers are launched with an MP_* session environment");
    let var =
        |key: &str| std::env::var(key).unwrap_or_else(|_| panic!("cell worker: {key} must be set"));
    let name = var(CELL_WORKLOAD);
    let bytes = match var(CELL_BYTES).as_str() {
        "none" => None,
        v => Some(v.parse::<u64>().expect("cell bytes")),
    };
    let reg = hpcbench::registry();
    let workload = reg
        .get(&name)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"));
    let records = workload
        .run(
            Mode::Native,
            &smoke_plan(None).runner,
            None,
            proc.world(),
            bytes,
        )
        .expect("the driver only ships admissible native cells");
    if proc.resident(0) {
        let out = var(CELL_OUT);
        let lines: String = records.iter().map(|r| r.to_json() + "\n").collect();
        std::fs::write(&out, lines).unwrap_or_else(|e| panic!("cell worker: write {out}: {e}"));
    }
}

fn highrank_records(procs: usize) -> Vec<Record> {
    RunPlan::high_rank(procs).execute(&hpcbench::registry())
}

/// Why a flag combination cannot run as asked, if it cannot: each one
/// would do nothing or could not be honoured, and `main` exits 2 naming it.
fn refusal(
    smoke: bool,
    nprocs: usize,
    check: bool,
    filtered: bool,
    with_figures: bool,
) -> Option<&'static str> {
    Some(if nprocs > 1 && !smoke {
        "--nprocs drives the smoke cross product; add --smoke"
    } else if check && nprocs > 1 {
        "--check instruments in-process native runs; it does not compose with --nprocs"
    } else if check && !smoke {
        "--check instruments native runs, and the paper plan is simulated only; add --smoke"
    } else if filtered && !smoke && with_figures {
        "--workloads narrows the paper plan, but the figures read all of it; add --no-figures"
    } else {
        return None;
    })
}

/// The campaign verdict, coded once for every process count: the identity
/// (`benchmark/mode/machine/procs/bytes`) of each record that did not
/// pass. `lines` are canonical [`Record::to_json`] objects — the form
/// worker fleets hand their native records back in — and a line that
/// does not parse is itself a failure, named by its text.
fn failed_records(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|line| {
            let Ok(rec) = json::parse(line) else {
                return Some(format!("unparsable record line {line:?}"));
            };
            if rec.get("passed").and_then(Value::as_bool) == Some(true) {
                return None;
            }
            let text = |key| rec.get(key).and_then(Value::as_str).unwrap_or("?");
            let number = |key| match rec.get(key).and_then(Value::as_u64) {
                Some(n) => n.to_string(),
                None => "none".to_string(),
            };
            Some(format!(
                "{}/{}/{}/{}/{}",
                text("benchmark"),
                text("mode"),
                text("machine"),
                number("procs"),
                number("bytes")
            ))
        })
        .collect()
}

/// Prints the per-mode summary and writes the unified records document —
/// *then* judges it: a campaign with failed records still leaves its
/// artefact behind, names every failed record on stderr and exits 1.
fn publish_records(lines: &[String], out_dir: &Path, records_path: Option<PathBuf>) {
    let failed = failed_records(lines);
    let count = |mode: Mode| {
        let needle = format!("\"mode\": \"{}\"", mode.as_str());
        lines.iter().filter(|l| l.contains(&needle)).count()
    };
    println!(
        "{} records ({} native, {} simulated, {} virtual), all passed: {}",
        lines.len(),
        count(Mode::Native),
        count(Mode::Simulated),
        count(Mode::Virtual),
        failed.is_empty()
    );
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let records_path = records_path.unwrap_or_else(|| out_dir.join("records.json"));
    std::fs::write(&records_path, records_json_from_lines(lines)).expect("write records json");
    println!("wrote {}", records_path.display());
    if !failed.is_empty() {
        for id in &failed {
            eprintln!("campaign: failed record {id}");
        }
        std::process::exit(1);
    }
}

fn main() {
    // Fleet workers re-exec this binary with the cell environment set;
    // they never parse arguments.
    if std::env::var_os(CELL_WORKLOAD).is_some() {
        run_cell_worker();
        return;
    }

    let mut out_dir = PathBuf::from("out");
    let mut records_path: Option<PathBuf> = None;
    let mut check_report_path: Option<PathBuf> = None;
    let mut smoke = false;
    let mut check = false;
    let mut with_figures = true;
    let mut with_extensions = true;
    let mut max_procs = 2048usize;
    let mut nprocs = 1usize;
    let mut workload_filter: Option<Vec<String>> = None;
    // Smoke runs a 16384-rank virtual slice by default; `--high-rank N`
    // raises it (65536+ for the scaling acceptance run) or adds the
    // slice to a full campaign. 0 disables it.
    let mut high_rank: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--check-report" => {
                check = true;
                check_report_path = Some(PathBuf::from(
                    args.next().expect("--check-report needs a path"),
                ));
            }
            "--no-figures" => with_figures = false,
            "--no-extensions" => with_extensions = false,
            "--out" => out_dir = PathBuf::from(args.next().expect("--out needs a path")),
            "--records" => {
                records_path = Some(PathBuf::from(args.next().expect("--records needs a path")));
            }
            "--max-procs" => {
                max_procs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-procs needs a number");
            }
            "--high-rank" => {
                high_rank = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--high-rank needs a rank count (0 disables the slice)"),
                );
            }
            "--nprocs" => {
                nprocs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--nprocs needs a process count >= 1");
            }
            "--workloads" => {
                let list = args.next().expect("--workloads needs a,b,c names");
                workload_filter = Some(list.split(',').map(str::to_string).collect());
            }
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: campaign [--smoke] [--check] [--no-figures] [--no-extensions] \
                     [--max-procs N] [--high-rank N] [--nprocs N] \
                     [--workloads A,B] [--out DIR] [--records FILE] [--check-report FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    // Resolve the filter against the registry up front: unknown names
    // fail loudly instead of silently matching nothing, and the plan's
    // filter wants the registry's 'static names.
    let workloads: Option<Vec<&'static str>> = workload_filter.map(|names| {
        let reg = hpcbench::registry();
        names
            .iter()
            .map(|n| {
                reg.get(n)
                    .unwrap_or_else(|| panic!("unknown workload {n:?} in --workloads"))
                    .meta
                    .name
            })
            .collect()
    });

    if let Some(why) = refusal(smoke, nprocs, check, workloads.is_some(), with_figures) {
        eprintln!("{why}");
        std::process::exit(2);
    }

    if nprocs > 1 {
        println!(
            "campaign --smoke --nprocs {nprocs}: native cells over {nprocs}-process fleets, \
             simulated + virtual in-process"
        );
        let mut lines = smoke_lines_multiproc(nprocs, workloads);
        let high_rank = high_rank.unwrap_or(16_384);
        if high_rank > 0 {
            println!("high-rank slice: virtual IMB at {high_rank} cooperative ranks");
            lines.extend(highrank_records(high_rank).iter().map(Record::to_json));
        }
        publish_records(&lines, &out_dir, records_path);
        return;
    }

    let figure_cfg = FigureConfig {
        max_procs,
        ..FigureConfig::default()
    };
    let (records, check_report) = if smoke {
        println!("campaign --smoke: native + simulated + virtual on a reduced cross product");
        smoke_records(check, workloads)
    } else {
        println!(
            "campaign: the paper's simulated cells, Table 3 and Figs. 1-15 \
             (max_procs = {max_procs})"
        );
        let mut plan = figures::paper_plan(&figure_cfg);
        if workloads.is_some() {
            plan.workloads = workloads;
        }
        (plan.execute(&hpcbench::registry()), None)
    };

    let mut lines: Vec<String> = records.iter().map(Record::to_json).collect();
    let high_rank = high_rank.unwrap_or(if smoke { 16_384 } else { 0 });
    if high_rank > 0 {
        println!("high-rank slice: virtual IMB at {high_rank} cooperative ranks");
        lines.extend(highrank_records(high_rank).iter().map(Record::to_json));
    }
    publish_records(&lines, &out_dir, records_path);

    if let Some(report) = check_report {
        print!("{report}");
        let report_path = check_report_path.unwrap_or_else(|| out_dir.join("mpcheck-report.json"));
        std::fs::write(&report_path, report.to_json()).expect("write mpcheck report json");
        println!("wrote {}", report_path.display());
        if !report.clean() {
            eprintln!(
                "campaign --check: {} finding(s), failing",
                report.findings.len()
            );
            std::process::exit(1);
        }
    }

    // Smoke keeps CI fast: records only, the figure sweep has its own test
    // coverage. The full campaign projects the paper artefacts out of the
    // paper plan's records (the high-rank slice is not part of them).
    if with_figures && !smoke {
        let cfg = OutputConfig {
            out_dir,
            figures: figure_cfg,
            with_extensions,
            verbose: true,
        };
        let report = output::write_from(&cfg, &records).expect("write figure artefacts");
        println!("done: {}", report.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{MetricKind, Stats, Suite};

    #[test]
    fn a_failed_record_is_named_by_its_identity() {
        let line = |benchmark, bytes, passed| {
            Record {
                benchmark,
                suite: Suite::Imb,
                mode: Mode::Virtual,
                machine: "Dell Xeon",
                procs: 4,
                threads: 1,
                bytes,
                metric: MetricKind::TimeUs,
                value: 1.0,
                stats: Stats::deterministic(1.0),
                passed,
            }
            .to_json()
        };
        let lines = vec![
            line("PingPong", Some(1024), true),
            line("Barrier", None, false),
            "{ truncated".to_string(),
        ];
        assert_eq!(
            failed_records(&lines),
            [
                "Barrier/virtual/Dell Xeon/4/none",
                "unparsable record line \"{ truncated\""
            ]
        );
        assert!(failed_records(&lines[..1]).is_empty());
    }

    #[test]
    fn flags_that_would_do_nothing_are_refused() {
        // (smoke, nprocs, check, filtered, with_figures)
        let check_in_full_mode = refusal(false, 1, true, false, true).unwrap();
        assert!(
            check_in_full_mode.contains("--check"),
            "{check_in_full_mode}"
        );
        assert!(refusal(false, 1, true, false, false).is_some());
        assert_eq!(refusal(true, 1, true, false, true), None);

        let filtered_figures = refusal(false, 1, false, true, true).unwrap();
        assert!(
            filtered_figures.contains("--workloads"),
            "{filtered_figures}"
        );
        assert_eq!(refusal(false, 1, false, true, false), None);
        assert_eq!(refusal(true, 1, false, true, true), None);

        assert!(refusal(false, 2, false, false, true).is_some());
        assert!(refusal(true, 2, true, false, true).is_some());
        assert_eq!(refusal(true, 2, false, true, true), None);
        assert_eq!(refusal(false, 1, false, false, true), None);
    }
}
