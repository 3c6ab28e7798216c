//! mpcheck — deadlock, race, and MPI-misuse analysis for the `mp`
//! message-passing runtime.
//!
//! Three cooperating analyses, built on the instrumentation in
//! [`mp::check`]:
//!
//! 1. **Wait-for-graph deadlock detection.** Every blocking point in the
//!    runtime (mailbox receives, rendezvous posts, and through them every
//!    collective phase) publishes a per-rank wait edge. A detector thread
//!    runs cycle detection over the resulting graph and reports the
//!    actual cycle — the ranks, the operations they block on, the
//!    collective call sites, and the pending-message inventory per
//!    mailbox lane — instead of hanging until a wall-clock timeout.
//! 2. **Communication-trace lints.** Each rank records its events into a
//!    bounded ring; [`analyze`] replays the merged trace after the run
//!    and flags unmatched sends at finalize, collective call-sequence
//!    divergence (operation order, root, payload-shape mismatches),
//!    tag/comm leaks, and wildcard-receive races.
//! 3. **Schedule perturbation.** [`check`] reruns the program under a
//!    sweep of deterministic perturbation seeds (seed 0 = unperturbed)
//!    and cross-compares wildcard matching between schedules, surfacing
//!    order-dependent behavior a single lucky schedule would hide.
//!
//! Findings render as human-readable text ([`Report`]'s `Display`) and as
//! an `mpcheck-report-v2` JSON document ([`Report::to_json`]).
//!
//! Three entry points:
//!
//! - [`check`] — run a closure as an SPMD program under the full
//!   multi-seed sweep and get a [`Report`] back. This is what the misuse
//!   gallery tests use.
//! - [`Session`] — install scoped instrumentation on the current thread
//!   so existing code paths that call [`mp::run`] (the harness's plan
//!   executor, bench binaries) are checked without changing their
//!   signatures. This is what `campaign --check` uses.
//! - [`explore`] — *enumerate* the schedule space instead of sampling
//!   it: a DPOR explorer over the cooperative scheduler that drives
//!   every ready-set pick and wildcard match as an explicit decision,
//!   prunes equivalent interleavings, and emits replayable
//!   `hpcbench-schedule-v1` counterexamples ([`Schedule`]). This is what
//!   the `mpcheck explore` CLI uses.

mod analyze;
pub mod explore;
pub mod gallery;
pub mod json;
mod report;
mod schedule;

pub use analyze::analyze;
pub use explore::{
    classify_panic, explore, explore_with, replay, replay_with, ExploreOptions, Guided, RunOutcome,
};
pub use mp::check::Settings;
pub use report::{Finding, FindingClass, Report, ScheduleStats, REPORT_SCHEMA};
pub use schedule::{Decision, DecisionKind, Schedule, SCHEDULE_SCHEMA};

use std::sync::{Arc, Mutex};

use mp::check::{install_scoped, Event, RunLog, ScopedCheck, ScopedGuard};

/// Options for a multi-seed [`check`] sweep.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Perturbation seeds to run, in order (duplicates are skipped).
    /// Seed 0 runs unperturbed.
    pub seeds: Vec<u64>,
    /// Base settings; each run uses `settings.with_seed(seed)`.
    pub settings: Settings,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            seeds: vec![0, 1, 2],
            settings: Settings::default(),
        }
    }
}

impl CheckOptions {
    /// Reads overrides from the environment: `MPCHECK_SEEDS` (comma-
    /// separated list) and `MPCHECK_RING` (per-rank event ring capacity).
    pub fn from_env() -> CheckOptions {
        let mut opts = CheckOptions::default();
        if let Ok(raw) = std::env::var("MPCHECK_SEEDS") {
            let seeds: Vec<u64> = raw
                .split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .collect();
            if !seeds.is_empty() {
                opts.seeds = seeds;
            }
        }
        if let Ok(raw) = std::env::var("MPCHECK_RING") {
            if let Ok(cap) = raw.trim().parse() {
                opts.settings.ring_capacity = cap;
            }
        }
        opts
    }
}

/// Per-rank sequence of sources matched by wildcard receives, used to
/// compare matching between seeds and between explored schedules.
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

/// Runs `f` as an `n`-rank SPMD program once per seed in `opts.seeds`,
/// analyzing every run and cross-comparing wildcard matching between
/// schedules. Deadlocks are diagnosed, not hung on; rank panics become
/// [`FindingClass::RankPanic`] findings.
pub fn check<R, F>(n: usize, opts: &CheckOptions, f: F) -> Report
where
    R: Send,
    F: Fn(&mp::Comm) -> R + Send + Sync,
{
    let mut report = Report::default();
    // (seed, per-rank wildcard match order) for runs that completed
    // cleanly — deadlocked or panicked runs have truncated traces whose
    // order differences are symptoms, not independent races.
    let mut orders: Vec<(u64, Vec<Vec<usize>>)> = Vec::new();
    for &seed in &opts.seeds {
        if report.seeds.contains(&seed) {
            continue;
        }
        let checked = mp::check::run_checked(n, opts.settings.with_seed(seed), &f);
        report.runs += 1;
        report.seeds.push(seed);
        report.events += checked
            .log
            .events
            .iter()
            .map(|v| v.len() as u64)
            .sum::<u64>();
        report.dropped += checked.log.dropped.iter().sum::<u64>();
        for (rank, msg) in &checked.panics {
            // The summary is deliberately seed-free so the same panic
            // rediscovered under every seed dedupes to one finding; the
            // seed that surfaced it is in the `seed` field.
            report.findings.push(Finding {
                seed: Some(seed),
                ..Finding::new(
                    FindingClass::RankPanic,
                    vec![*rank],
                    format!("rank {rank} panicked"),
                    format!("seed {seed}: {msg}"),
                )
            });
        }
        let clean = checked.log.deadlock.is_none() && checked.panics.is_empty();
        report
            .findings
            .extend(analyze(&checked.log).into_iter().map(|mut f| {
                f.seed = Some(seed);
                f
            }));
        if clean {
            orders.push((seed, wildcard_orders(&checked.log)));
        }
    }
    if let Some(((first_seed, first), rest)) = orders.split_first() {
        for (seed, other) in rest {
            for rank in 0..n {
                if other.get(rank) != first.get(rank) {
                    // Seed numbers stay out of the summary: every seed
                    // pair that disagrees is the same underlying race,
                    // and must dedupe to one finding per rank.
                    report.findings.push(Finding {
                        seed: Some(*seed),
                        ..Finding::new(
                            FindingClass::WildcardRace,
                            vec![rank],
                            format!(
                                "wildcard matching on rank {rank} depends on the schedule: \
                                 matched source order differs between perturbation seeds"
                            ),
                            format!(
                                "seed {first_seed}: matched sources {:?}\n\
                                 seed {seed}: matched sources {:?}",
                                first.get(rank).map(Vec::as_slice).unwrap_or(&[]),
                                other.get(rank).map(Vec::as_slice).unwrap_or(&[]),
                            ),
                        )
                    });
                }
            }
        }
    }
    analyze::dedup(&mut report.findings);
    report
}

/// Scoped instrumentation for code that calls [`mp::run`] internally
/// (the harness plan executor, bench binaries).
///
/// Between [`Session::begin`] and [`Session::finish`], every `mp::run` on
/// the *current thread* runs instrumented; each run's log is analyzed as
/// it completes and the findings accumulate into one [`Report`]. A
/// detected deadlock still panics out of `mp::run` (with the full
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
            sink: Arc::new(move |log: RunLog| {
                let mut report = sink.lock().unwrap();
                report.runs += 1;
                if !report.seeds.contains(&log.seed) {
                    report.seeds.push(log.seed);
                }
                report.events += log.events.iter().map(|v| v.len() as u64).sum::<u64>();
                report.dropped += log.dropped.iter().sum::<u64>();
                // Every finding records the seed of the run that
                // produced it, not just runs that failed outright.
                report
                    .findings
                    .extend(analyze(&log).into_iter().map(|mut f| {
                        f.seed = Some(log.seed);
                        f
                    }));
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
    use std::time::Duration;

    fn fast() -> Settings {
        Settings {
            poll: Duration::from_millis(2),
            ..Settings::default()
        }
    }

    #[test]
    fn multi_seed_sweep_on_clean_program_is_clean() {
        let opts = CheckOptions::default();
        let report = check(4, &opts, |comm| {
            let mut x = [comm.rank() as u64];
            comm.allreduce(&mut x, mp::Op::Sum);
            assert_eq!(x[0], 6);
        });
        assert!(report.clean(), "unexpected findings:\n{report}");
        assert_eq!(report.runs, 3);
        assert_eq!(report.seeds, vec![0, 1, 2]);
        assert!(report.events > 0);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn deadlock_is_diagnosed_with_cycle_members() {
        let opts = CheckOptions {
            seeds: vec![0],
            settings: fast(),
        };
        // Head-to-head blocking receives: sends are eager in mp, so the
        // classic send/send deadlock manifests as recv/recv.
        let report = check(2, &opts, |comm| {
            let peer = comm.size() - 1 - comm.rank();
            let mut buf = [0u8];
            comm.recv(&mut buf, peer, 9);
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
        let opts = CheckOptions {
            seeds: vec![0],
            settings: fast(),
        };
        let report = check(2, &opts, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            comm.barrier();
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
            comm.allreduce(&mut x, mp::Op::Sum);
            x[0]
        });
        assert_eq!(sums, vec![3, 3, 3]);
        let report = session.finish();
        assert!(report.clean(), "unexpected findings:\n{report}");
        assert_eq!(report.runs, 1);
        assert!(report.events > 0);
    }

    #[test]
    fn findings_carry_the_seed_that_produced_them() {
        let opts = CheckOptions {
            seeds: vec![0],
            settings: fast(),
        };
        let report = check(2, &opts, |comm| {
            let peer = comm.size() - 1 - comm.rank();
            let mut buf = [0u8];
            comm.recv(&mut buf, peer, 9);
            comm.send(&buf, peer, 9);
        });
        let deadlock = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::Deadlock)
            .expect("deadlock finding");
        assert_eq!(
            deadlock.seed,
            Some(0),
            "the seed is recorded on the finding, not only on failures"
        );
    }

    #[test]
    fn cross_seed_rediscoveries_dedupe_to_one_finding() {
        // Regression: summaries used to embed the seed pair ("between
        // seeds 0 and 2"), so a race rediscovered under every seed
        // produced one finding per seed pair instead of one finding.
        let opts = CheckOptions {
            seeds: vec![0, 1, 2, 3],
            settings: fast(),
        };
        let report = check(3, &opts, |comm| {
            if comm.rank() == 0 {
                let mut sync = [0u64];
                comm.recv(&mut sync, 1, 99);
                comm.recv(&mut sync, 2, 99);
                let _ = comm.recv_any::<u64>(None, Some(1));
                let _ = comm.recv_any::<u64>(None, Some(1));
            } else {
                comm.send(&[comm.rank() as u64], 0, 1);
                comm.send(&[1u64], 0, 99);
            }
            comm.barrier();
        });
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.class == FindingClass::WildcardRace),
            "the race is found:\n{report}"
        );
        for f in &report.findings {
            assert!(f.seed.is_some(), "every finding is seed-attributed: {f}");
            for s in 0..4 {
                assert!(
                    !f.summary.contains(&format!("seed {s}"))
                        && !f.summary.contains(&format!("seeds {s}")),
                    "summaries stay free of seed numbers so rediscoveries dedupe: {}",
                    f.summary
                );
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for f in &report.findings {
            assert!(
                seen.insert((f.class, f.ranks.clone(), f.summary.clone())),
                "cross-seed rediscovery was not deduplicated: {f}"
            );
        }
    }

    #[test]
    fn options_from_env_fall_back_to_defaults() {
        // Not setting the variables must yield the defaults.
        let opts = CheckOptions::from_env();
        assert_eq!(opts.seeds, vec![0, 1, 2]);
        assert_eq!(opts.settings.ring_capacity, 1 << 16);
    }
}
