//! mpcheck — deadlock, race, and MPI-misuse analysis for the `mp`
//! message-passing runtime.
//!
//! Two analyses of an instrumented run, built on the instrumentation in
//! [`mp::check`], and an explorer that decides which runs there are:
//!
//! 1. **Wait-for-graph deadlock detection.** Every blocking point in the
//!    runtime (mailbox receives, rendezvous posts, and through them every
//!    collective phase) leaves a per-rank wait edge in its mailbox's
//!    posted receives. The instant the world's last runnable rank blocks,
//!    cycle detection over the resulting graph reports the actual cycle —
//!    the ranks, the operations they block on, the collective call sites,
//!    and the pending-message inventory per mailbox lane — instead of the
//!    run hanging.
//! 2. **Communication-trace lints.** Each rank records its events into a
//!    bounded ring; `analyze` replays the merged trace after the run
//!    and flags unmatched sends at finalize, collective call-sequence
//!    divergence (operation order, root, payload-shape mismatches),
//!    tag/comm leaks, and wildcard-receive races.
//!
//! Findings render as human-readable text ([`Report`]'s `Display`) and as
//! an `mpcheck-report-v3` JSON document ([`Report::to_json`]).
//!
//! Every analysis reads one record, a world's [`mp::check::RunLog`] (rank
//! panics included). Three entry points produce it, the last two through
//! the one hook [`mp::check::install_scoped`]:
//!
//! - [`check`] — run a closure as an SPMD program on rank threads, once,
//!   and get a [`Report`] back. This is what the misuse gallery tests use.
//! - [`Session`] — install the hook on the current thread so existing
//!   code paths that start worlds (the harness's plan executor, bench
//!   binaries) are checked without changing their signatures. This is
//!   what `campaign --check` uses.
//! - [`explore`](mod@explore) — the one way to see a second schedule: a DPOR explorer
//!   over the cooperative scheduler that installs the hook with a
//!   [`Guided`] controller, so every ready-set pick and wildcard match is
//!   an explicit decision; it enumerates the schedule space, prunes
//!   equivalent interleavings, and emits replayable
//!   `hpcbench-schedule-v1` counterexamples ([`Schedule`]). This is what
//!   the `mpcheck explore` CLI uses.

mod analyze;
pub mod explore;
pub mod gallery;
pub mod json;
mod report;
mod schedule;

use analyze::analyze;
pub use explore::{explore, explore_with, replay, replay_with, ExploreOptions, Guided};
pub use mp::check::Settings;
pub use report::{Finding, FindingClass, Report, ScheduleStats};
pub use schedule::{Decision, DecisionKind, Schedule};

use std::sync::{Arc, Mutex};

use mp::check::{install_scoped, Event, RunLog, ScopedCheck, ScopedGuard};

/// Per-rank sequence of sources matched by wildcard receives, used to
/// compare matching between explored schedules.
pub(crate) fn wildcard_orders(log: &RunLog) -> Vec<Vec<usize>> {
    log.events
        .iter()
        .map(|events| {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Recv {
                        wildcard: true,
                        src,
                        ..
                    } => Some(*src),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// Runs `f` once as an instrumented `n`-rank SPMD program on rank threads
/// and analyzes the run. Deadlocks are diagnosed, not hung on; rank panics
/// become [`FindingClass::RankPanic`] findings.
pub fn check<R, F>(n: usize, settings: &Settings, f: F) -> Report
where
    R: Send,
    F: Fn(&mp::Comm) -> R + Send + Sync,
{
    let f = &f;
    let body = move |comm: mp::Comm| async move { f(&comm) };
    let log = mp::check::run_checked(n, mp::Engine::Threads, settings.clone(), body).log;
    let mut report = Report {
        runs: 1,
        findings: analyze(&log),
        ..Report::default()
    };
    report.count(&log);
    analyze::dedup(&mut report.findings);
    report
}

/// Scoped instrumentation for code that starts `mp` worlds internally
/// (the harness plan executor, bench binaries).
///
/// Between [`Session::begin`] and [`Session::finish`], every world started
/// on the *current thread* ([`mp::run`], [`mp::run_coop`],
/// [`mp::run_virtual_coop`]) runs instrumented; each run's log is analyzed
/// as it completes and the findings accumulate into one [`Report`]. A
/// detected deadlock still panics out of the launcher (with the full
/// diagnosis as the panic message) — a deadlocked benchmark cannot
/// meaningfully continue — but the diagnosis is also in the report held
/// by the session's accumulator up to that point.
pub struct Session {
    acc: Arc<Mutex<Report>>,
    guard: ScopedGuard,
}

impl Session {
    /// Installs instrumentation on the current thread.
    pub fn begin(settings: Settings) -> Session {
        let acc = Arc::new(Mutex::new(Report::default()));
        let sink = Arc::clone(&acc);
        let guard = install_scoped(ScopedCheck {
            settings,
            controller: None,
            sink: Arc::new(move |log: RunLog| {
                let mut report = sink.lock().unwrap();
                report.runs += 1;
                report.count(&log);
                report.findings.extend(analyze(&log));
            }),
        });
        Session { acc, guard }
    }

    /// Uninstalls the instrumentation and returns the accumulated,
    /// deduplicated report.
    pub fn finish(self) -> Report {
        let Session { acc, guard } = self;
        drop(guard);
        let mut report = acc.lock().unwrap().clone();
        analyze::dedup(&mut report.findings);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_on_clean_program_is_clean() {
        let report = check(4, &Settings::default(), |comm| {
            let mut x = [comm.rank() as u64];
            mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
            assert_eq!(x[0], 6);
        });
        assert!(report.clean(), "unexpected findings:\n{report}");
        assert_eq!(report.runs, 1);
        assert!(report.events > 0);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn deadlock_is_diagnosed_with_cycle_members() {
        // Head-to-head blocking receives: sends are eager in mp, so the
        // classic send/send deadlock manifests as recv/recv.
        let report = check(2, &Settings::default(), |comm| {
            let peer = comm.size() - 1 - comm.rank();
            let mut buf = [0u8];
            mp::block_on(comm.recv_async(&mut buf, peer, 9));
            comm.send(&buf, peer, 9);
        });
        let deadlock = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::Deadlock)
            .expect("deadlock finding");
        assert_eq!(deadlock.ranks, vec![0, 1]);
    }

    #[test]
    fn rank_panic_is_reported_not_swallowed() {
        let report = check(2, &Settings::default(), |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            mp::block_on(comm.barrier_async());
        });
        // Rank 0 blocks in a barrier rank 1 never reaches -> both a panic
        // finding and a stall diagnosis are acceptable; the panic one is
        // mandatory.
        assert!(report
            .findings
            .iter()
            .any(|f| f.class == FindingClass::RankPanic && f.ranks == vec![1]));
    }

    #[test]
    fn session_accumulates_scoped_runs() {
        let session = Session::begin(Settings::default());
        let sums = mp::run(3, |comm| {
            let mut x = [1u64];
            mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
            x[0]
        });
        assert_eq!(sums, vec![3, 3, 3]);
        let report = session.finish();
        assert!(report.clean(), "unexpected findings:\n{report}");
        assert_eq!(report.runs, 1);
        assert!(report.events > 0);
    }

    /// A session states a bug once, however many of its runs hit it
    /// (`analyze::dedup` at `finish`).
    #[test]
    fn session_reports_a_repeated_race_once() {
        let session = Session::begin(Settings::default());
        for _ in 0..2 {
            mp::run(3, |comm| {
                if comm.rank() == 0 {
                    let mut sync = [0u64];
                    mp::block_on(comm.recv_async(&mut sync, 1, 99));
                    mp::block_on(comm.recv_async(&mut sync, 2, 99));
                    let _ = mp::block_on(comm.recv_any_async::<u64>(None, Some(1)));
                    let _ = mp::block_on(comm.recv_any_async::<u64>(None, Some(1)));
                } else {
                    comm.send(&[comm.rank() as u64], 0, 1);
                    comm.send(&[1u64], 0, 99);
                }
                mp::block_on(comm.barrier_async());
            });
        }
        let report = session.finish();
        assert_eq!(report.runs, 2);
        let races = report.findings.iter();
        let races = races.filter(|f| f.class == FindingClass::WildcardRace);
        assert_eq!(races.count(), 1, "one finding for two runs:\n{report}");
    }
}
