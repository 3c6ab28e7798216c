//! The schedule-exploration driver behind `mpcheck explore` and
//! `mpcheck replay`: runs the misuse gallery and small-world
//! virtual slices of every registry workload under the DPOR explorer,
//! merges the per-target reports into one `mpcheck-report-v3` document,
//! and writes each finding's replayable counterexample as an
//! `hpcbench-schedule-v1` trace file.
//!
//! `bench` deliberately has no library target, so the `mpcheck` binary
//! includes this module by path.

use std::io;
use std::path::{Path, PathBuf};

use harness::Mode;
use machines::{systems, Machine};
use mpcheck::{gallery, ExploreOptions, Report, Schedule, ScheduleStats};

/// What to explore and how hard.
pub(crate) struct ExplorePlan {
    /// Run only the misuse gallery, skipping the workload slices.
    pub gallery_only: bool,
    /// Registry-name filter for the workload slices (`None` = all).
    pub workloads: Option<Vec<String>>,
    /// Machine model the virtual slices run on.
    pub machine: Machine,
    /// Largest world a workload slice may use; each workload explores at
    /// its smallest admissible world in `2..=max_procs`.
    pub max_procs: usize,
    /// Message size handed to sized workloads.
    pub bytes: u64,
    /// Explorer budget and base run settings, shared by every target.
    pub opts: ExploreOptions,
}

impl Default for ExplorePlan {
    fn default() -> ExplorePlan {
        ExplorePlan {
            gallery_only: false,
            workloads: None,
            machine: systems::dell_xeon(),
            max_procs: 4,
            bytes: 1024,
            opts: ExploreOptions {
                max_schedules: 32,
                ..ExploreOptions::default()
            },
        }
    }
}

/// The merged outcome of an exploration sweep.
pub(crate) struct ExploreSummary {
    /// All targets' findings and schedule accounting, merged.
    pub report: Report,
    /// Acceptance failures: unmet gallery expectations, a dirty clean
    /// control, or workload findings. Empty means the sweep passed.
    pub failures: Vec<String>,
    /// Counterexample trace files written under `<out>/schedules/`.
    pub traces: Vec<PathBuf>,
}

/// Runs the sweep described by `plan`, writing counterexample traces
/// under `out_dir/schedules/`.
pub(crate) fn run(plan: &ExplorePlan, out_dir: &Path) -> io::Result<ExploreSummary> {
    let schedules_dir = out_dir.join("schedules");
    std::fs::create_dir_all(&schedules_dir)?;
    let mut summary = ExploreSummary {
        report: Report {
            schedules: Some(ScheduleStats {
                exhaustive: true,
                ..ScheduleStats::default()
            }),
            ..Report::default()
        },
        failures: Vec::new(),
        traces: Vec::new(),
    };

    println!("mpcheck explore: misuse gallery");
    for entry in gallery::entries() {
        let report = entry.explore(&plan.opts);
        match entry.expect {
            Some(class) if !report.findings.iter().any(|f| f.class == class) => {
                summary.failures.push(format!(
                    "{}: expected a {class} finding, explorer found none",
                    entry.target()
                ));
            }
            None if !report.clean() => {
                summary.failures.push(format!(
                    "{}: clean control produced {} finding(s)",
                    entry.target(),
                    report.findings.len()
                ));
            }
            _ => {}
        }
        absorb(&mut summary, &entry.target(), report, &schedules_dir)?;
    }

    if !plan.gallery_only {
        println!(
            "mpcheck explore: workload slices on {} (worlds of 2..={} ranks)",
            plan.machine.name, plan.max_procs
        );
        let reg = hpcbench::registry();
        for workload in reg.iter() {
            let name = workload.meta.name;
            if let Some(filter) = &plan.workloads {
                if !filter.iter().any(|n| n == name) {
                    continue;
                }
            }
            if !workload.supports(Mode::Virtual) {
                println!("  {name}: no virtual closure, skipped");
                continue;
            }
            let admissible = (2..=plan.max_procs).find(|&p| workload.meta.admits(p, Mode::Virtual));
            let Some(procs) = admissible else {
                println!(
                    "  {name}: no admissible world within {} ranks, skipped",
                    plan.max_procs
                );
                continue;
            };
            let bytes = workload.meta.sized.then_some(plan.bytes);
            let report = harness::explore::explore_workload(
                workload,
                &plan.machine,
                procs,
                bytes,
                &plan.opts,
            );
            if !report.clean() {
                summary.failures.push(format!(
                    "workload {name}: {} finding(s) under exploration",
                    report.findings.len()
                ));
            }
            let target = harness::explore::workload_target(name, &plan.machine, procs, bytes);
            absorb(&mut summary, &target, report, &schedules_dir)?;
        }
    }
    Ok(summary)
}

/// Merges one target's report into the sweep summary, printing its
/// one-line accounting and writing its counterexample traces.
fn absorb(
    summary: &mut ExploreSummary,
    target: &str,
    report: Report,
    schedules_dir: &Path,
) -> io::Result<()> {
    let stats = report.schedules.unwrap_or_default();
    println!(
        "  {target}: {} finding(s), {} visited, {} pruned{}",
        report.findings.len(),
        stats.visited,
        stats.pruned,
        if stats.exhaustive {
            ""
        } else {
            " (budget-limited)"
        }
    );
    for (i, finding) in report.findings.iter().enumerate() {
        if let Some(cx) = &finding.counterexample {
            let path =
                schedules_dir.join(format!("{}-{}-{i}.json", sanitize(target), finding.class));
            std::fs::write(&path, cx)?;
            summary.traces.push(path);
        }
    }
    let merged = &mut summary.report;
    merged.runs += report.runs;
    merged.events += report.events;
    merged.dropped += report.dropped;
    if let Some(m) = merged.schedules.as_mut() {
        m.visited += stats.visited;
        m.pruned += stats.pruned;
        m.bounded_skips += stats.bounded_skips;
        m.exhaustive &= stats.exhaustive;
    }
    merged.findings.extend(report.findings);
    Ok(())
}

/// Replays one `hpcbench-schedule-v1` trace file, resolving its target
/// against the gallery or the workload registry.
pub(crate) fn replay_file(path: &Path) -> Result<Report, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let schedule = Schedule::from_json(&text)?;
    if schedule.target.starts_with("gallery:") {
        let entry = gallery::find(&schedule.target)
            .ok_or_else(|| format!("unknown gallery entry {:?}", schedule.target))?;
        let body = entry.body;
        return mpcheck::replay(&schedule, mpcheck::Settings::default(), move |comm| {
            body(comm)
        });
    }
    let (name, machine_name, _, _) = harness::explore::parse_target(&schedule.target)
        .ok_or_else(|| format!("unrecognized schedule target {:?}", schedule.target))?;
    let reg = hpcbench::registry();
    let workload = reg
        .get(&name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let machine = systems::all_variants()
        .into_iter()
        .find(|m| m.name == machine_name)
        .ok_or_else(|| format!("unknown machine {machine_name:?}"))?;
    harness::explore::replay_workload(workload, &machine, &schedule, &mpcheck::Settings::default())
}

/// Filesystem-safe rendering of a schedule target label.
fn sanitize(target: &str) -> String {
    target
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}
