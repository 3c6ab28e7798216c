//! Schedule-space exploration of registry workloads: runs a workload's
//! virtual-mode closure under the DPOR explorer
//! ([`mpcheck::explore`](mod@mpcheck::explore)), so every `mp` world the
//! workload creates is driven through all meaningfully distinct
//! interleavings.
//!
//! The virtual closures call [`mp::run_virtual_coop`] internally; the
//! explorer's ambient hook ([`mp::check::install_scoped`]) reroutes those
//! runs through its [`Guided`](mpcheck::Guided) controller without
//! touching the workload signatures — the same hook [`mpcheck::Session`]
//! installs for `--check`.

use machines::Machine;
use mpcheck::{ExploreOptions, Report, Schedule};

use crate::record::Mode;
use crate::runner::Runner;
use crate::workload::Workload;

/// The schedule-file target label for a workload exploration, parsable
/// by [`parse_target`].
pub fn workload_target(name: &str, machine: &Machine, procs: usize, bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("workload:{name}:m={}:p={procs}:b={b}", machine.name),
        None => format!("workload:{name}:m={}:p={procs}", machine.name),
    }
}

/// Splits a `workload:<name>:m=<machine>:p=<procs>[:b=<bytes>]` target
/// label back into its parts (workload name, machine name, procs,
/// bytes). Gallery targets and malformed labels yield `None`.
pub fn parse_target(target: &str) -> Option<(String, String, usize, Option<u64>)> {
    let rest = target.strip_prefix("workload:")?;
    let mut fields = rest.split(':');
    let name = fields.next()?.to_string();
    let mut machine = None;
    let mut procs = None;
    let mut bytes = None;
    for field in fields {
        if let Some(m) = field.strip_prefix("m=") {
            machine = Some(m.to_string());
        } else if let Some(p) = field.strip_prefix("p=") {
            procs = p.parse().ok();
        } else if let Some(b) = field.strip_prefix("b=") {
            bytes = Some(b.parse().ok()?);
        }
    }
    Some((name, machine?, procs?, bytes))
}

/// Runs the workload's virtual closure once, as the explorer's target.
fn run_virtual(workload: &Workload, machine: &Machine, procs: usize, bytes: Option<u64>) {
    let runner = Runner::fixed(1);
    workload.run(Mode::Virtual, &runner, Some(machine), procs, bytes);
}

/// Explores the schedule space of one workload at one (machine, procs,
/// bytes) cell. The workload must support virtual mode and admit
/// `procs`; inadmissible cells return an empty exhausted report.
pub fn explore_workload(
    workload: &Workload,
    machine: &Machine,
    procs: usize,
    bytes: Option<u64>,
    opts: &ExploreOptions,
) -> Report {
    let target = workload_target(workload.meta.name, machine, procs, bytes);
    mpcheck::explore_with(&target, opts, || {
        run_virtual(workload, machine, procs, bytes)
    })
}

/// Replays one recorded workload schedule, strictly. The caller looks
/// the workload up from the schedule's target (see [`parse_target`]).
pub fn replay_workload(
    workload: &Workload,
    machine: &Machine,
    schedule: &Schedule,
    settings: &mpcheck::Settings,
) -> Result<Report, String> {
    let (_, _, procs, bytes) = parse_target(&schedule.target)
        .ok_or_else(|| format!("target {:?} is not a workload label", schedule.target))?;
    mpcheck::replay_with(schedule, settings, || {
        run_virtual(workload, machine, procs, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MetricKind, Record, Stats, Suite};
    use crate::workload::WorkloadMeta;
    use mpcheck::FindingClass;

    /// A minimal virtual-mode workload built directly on
    /// [`mp::run_virtual_coop`], standing in for the imb/hpcc closures
    /// (which live above this crate).
    fn toy_workload(racy: bool) -> Workload {
        Workload::new(WorkloadMeta {
            name: "toy",
            suite: Suite::Imb,
            metric: MetricKind::TimeUs,
            min_procs: 2,
            pow2_procs: false,
            sized: false,
        })
        .virtual_mode(move |_, machine, procs, _| {
            let net = machines::SharedClusterNet::new(machine, procs);
            let (_, clocks) = mp::run_virtual_coop(procs, Box::new(net), move |comm| async move {
                if racy && comm.rank() == 0 {
                    let mut sync = [0u8; 1];
                    for peer in 1..comm.size() {
                        comm.recv_async(&mut sync, peer, 99).await;
                    }
                    for _ in 1..comm.size() {
                        let _ = comm.recv_any_async::<u64>(None, Some(1)).await;
                    }
                } else if racy {
                    comm.send(&[comm.rank() as u64], 0, 1);
                    comm.send(&[1u8], 0, 99);
                } else {
                    let mut x = [comm.rank() as f64];
                    comm.allreduce_async(&mut x, mp::Op::Sum).await;
                }
                comm.v_sync_async().await;
            });
            vec![Record {
                benchmark: "toy",
                suite: Suite::Imb,
                mode: Mode::Virtual,
                machine: machine.name,
                procs,
                threads: 1,
                bytes: None,
                metric: MetricKind::TimeUs,
                value: clocks.last().map(|t| t.as_secs() * 1e6).unwrap_or(0.0),
                stats: Stats::deterministic(0.0),
                passed: true,
            }]
        })
    }

    #[test]
    fn workload_exploration_finds_a_wildcard_race() {
        let machine = machines::systems::dell_xeon();
        let report = explore_workload(
            &toy_workload(true),
            &machine,
            3,
            None,
            &ExploreOptions {
                max_schedules: 32,
                ..ExploreOptions::default()
            },
        );
        let stats = report.schedules.expect("explorer stats");
        assert!(stats.visited >= 2, "wildcard alternatives enumerated");
        let finding = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::WildcardRace)
            .unwrap_or_else(|| panic!("expected wildcard race:\n{report}"));
        let schedule = Schedule::from_json(finding.counterexample.as_deref().expect("replayable"))
            .expect("valid schedule");
        assert!(schedule.target.starts_with("workload:toy:"));
        // And the counterexample replays to the same finding class.
        let replayed = replay_workload(
            &toy_workload(true),
            &machine,
            &schedule,
            &mpcheck::Settings::default(),
        )
        .expect("replays");
        assert!(
            replayed
                .findings
                .iter()
                .any(|f| f.class == FindingClass::WildcardRace),
            "replay reproduces the race:\n{replayed}"
        );
    }

    #[test]
    fn clean_workload_explores_clean_and_exhaustively() {
        let machine = machines::systems::dell_xeon();
        let report = explore_workload(
            &toy_workload(false),
            &machine,
            2,
            None,
            &ExploreOptions {
                max_schedules: 64,
                ..ExploreOptions::default()
            },
        );
        assert!(report.clean(), "unexpected findings:\n{report}");
        let stats = report.schedules.expect("stats");
        assert!(stats.visited >= 1);
        assert!(stats.exhaustive);
    }

    #[test]
    fn target_labels_round_trip() {
        let machine = machines::systems::dell_xeon();
        let target = workload_target("pingpong", &machine, 2, Some(1024));
        let (name, m, procs, bytes) = parse_target(&target).expect("parses");
        assert_eq!(name, "pingpong");
        assert_eq!(m, machine.name);
        assert_eq!(procs, 2);
        assert_eq!(bytes, Some(1024));
        let (_, _, _, none_bytes) =
            parse_target(&workload_target("barrier", &machine, 4, None)).expect("parses");
        assert_eq!(none_bytes, None);
        assert!(parse_target("gallery:recv-cycle-2").is_none());
    }
}
