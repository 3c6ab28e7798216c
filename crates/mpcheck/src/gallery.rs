//! The misuse gallery: small, self-contained SPMD programs with known
//! bugs (and one clean control), as async bodies the schedule explorer
//! can enumerate.
//!
//! Each entry mirrors a pattern from the integration-test gallery in
//! `tests/mpcheck_detects.rs`, but as a registry the `mpcheck explore`
//! CLI and the CI job can run by name: the explorer must find every
//! expected finding class exhaustively, by enumerating schedules, and
//! must find nothing in the control.

use std::future::Future;
use std::pin::Pin;

use crate::explore::{explore, ExploreOptions};
use crate::report::{FindingClass, Report};

/// An async SPMD rank body.
pub(crate) type Body = fn(mp::Comm) -> Pin<Box<dyn Future<Output = ()>>>;

/// One gallery program.
pub struct GalleryEntry {
    /// Registry name (used as the schedule target `gallery:<name>`).
    pub name: &'static str,
    /// World size the program needs.
    pub world: usize,
    /// The finding class the explorer must produce (`None` for the
    /// clean control, which must stay clean under every schedule).
    pub expect: Option<FindingClass>,
    /// The rank body.
    pub body: Body,
}

impl GalleryEntry {
    /// The schedule-file target label for this entry.
    pub fn target(&self) -> String {
        format!("gallery:{}", self.name)
    }

    /// Explores this entry's schedule space.
    pub fn explore(&self, opts: &ExploreOptions) -> Report {
        explore(self.world, &self.target(), opts, self.body)
    }
}

/// Head-to-head blocking receives: sends are eager in `mp`, so the
/// classic send/send deadlock manifests as recv/recv. Deadlocks under
/// every schedule.
fn recv_cycle_2(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        let peer = comm.size() - 1 - comm.rank();
        let mut buf = [0u8];
        comm.recv_async(&mut buf, peer, 9).await;
        comm.send(&buf, peer, 9);
    })
}

/// A three-rank receive ring: every rank first receives from its
/// successor, so nobody ever reaches its send.
fn recv_cycle_3(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let mut buf = [0u8];
        comm.recv_async(&mut buf, next, 7).await;
        comm.send(&buf, prev, 7);
    })
}

/// Two live senders racing into wildcard receives on rank 0. The
/// pinned tag-99 receives first guarantee both tag-1 messages are
/// queued, so every schedule sees ≥ 2 candidate lanes, and different
/// wildcard picks yield different match orders.
fn wildcard_race(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        if comm.rank() == 0 {
            let mut sync = [0u8; 1];
            comm.recv_async(&mut sync, 1, 99).await;
            comm.recv_async(&mut sync, 2, 99).await;
            let _ = comm.recv_any_async::<u64>(None, Some(1)).await;
            let _ = comm.recv_any_async::<u64>(None, Some(1)).await;
        } else {
            comm.send(&[comm.rank() as u64], 0, 1);
            comm.send(&[1u8], 0, 99);
        }
    })
}

/// The same race without the handshake: under the FIFO schedule the two
/// senders are never queued at the same instant (rank 0 posts its first
/// wildcard before either runs), so a single run lints clean. Only a
/// schedule that runs both senders ahead of rank 0 shows two candidate
/// lanes — the bug that takes a second schedule to see, which the
/// explorer, enumerating them, cannot miss.
fn wildcard_race_unsynced(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        if comm.rank() == 0 {
            let _ = comm.recv_any_async::<u64>(None, Some(1)).await;
            let _ = comm.recv_any_async::<u64>(None, Some(1)).await;
        } else {
            comm.send(&[comm.rank() as u64], 0, 1);
        }
    })
}

/// Ranks disagree on a broadcast root: rank 1 names itself root while
/// the others name rank 0.
fn bcast_root_mismatch(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        let root = usize::from(comm.rank() == 1);
        let mut buf = [42u64];
        comm.bcast_async(&mut buf, root).await;
    })
}

/// A message sent on a tag its receiver never receives on.
fn tag_leak(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        if comm.rank() == 0 {
            comm.send(&[1u8], 1, 5);
        }
        comm.barrier_async().await;
    })
}

/// The clean control: a correct allreduce + barrier. The explorer must
/// find nothing under any interleaving.
fn clean_allreduce(comm: mp::Comm) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        let mut x = [comm.rank() as u64 + 1];
        comm.allreduce_async(&mut x, mp::Op::Sum).await;
        assert_eq!(x[0], (1..=comm.size() as u64).sum::<u64>());
        comm.barrier_async().await;
    })
}

/// The registry, in the order the CLI and CI run it.
pub fn entries() -> Vec<GalleryEntry> {
    vec![
        GalleryEntry {
            name: "recv-cycle-2",
            world: 2,
            expect: Some(FindingClass::Deadlock),
            body: recv_cycle_2,
        },
        GalleryEntry {
            name: "recv-cycle-3",
            world: 3,
            expect: Some(FindingClass::Deadlock),
            body: recv_cycle_3,
        },
        GalleryEntry {
            name: "wildcard-race",
            world: 3,
            expect: Some(FindingClass::WildcardRace),
            body: wildcard_race,
        },
        GalleryEntry {
            name: "wildcard-race-unsynced",
            world: 3,
            expect: Some(FindingClass::WildcardRace),
            body: wildcard_race_unsynced,
        },
        GalleryEntry {
            name: "bcast-root-mismatch",
            world: 3,
            expect: Some(FindingClass::CollectiveDivergence),
            body: bcast_root_mismatch,
        },
        GalleryEntry {
            name: "tag-leak",
            world: 2,
            expect: Some(FindingClass::TagLeak),
            body: tag_leak,
        },
        GalleryEntry {
            name: "clean-allreduce",
            world: 4,
            expect: None,
            body: clean_allreduce,
        },
    ]
}

/// Looks up a gallery entry by name or by schedule target label.
pub fn find(name: &str) -> Option<GalleryEntry> {
    let bare = name.strip_prefix("gallery:").unwrap_or(name);
    entries().into_iter().find(|e| e.name == bare)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    fn opts() -> ExploreOptions {
        ExploreOptions {
            max_schedules: 64,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn explorer_finds_the_two_rank_recv_cycle_exhaustively() {
        let entry = find("recv-cycle-2").unwrap();
        let report = entry.explore(&opts());
        let stats = report.schedules.expect("explorer reports stats");
        assert!(stats.exhaustive, "tiny space must be fully explored");
        assert!(stats.visited >= 1);
        let finding = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::Deadlock)
            .expect("deadlock finding");
        assert_eq!(finding.ranks, vec![0, 1]);
        let cx = finding.counterexample.as_deref().expect("replayable");
        assert!(Schedule::from_json(cx).is_ok());
    }

    #[test]
    fn explorer_finds_the_three_rank_recv_ring_exhaustively() {
        let entry = find("recv-cycle-3").unwrap();
        let report = entry.explore(&opts());
        assert!(report.schedules.unwrap().exhaustive);
        let finding = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::Deadlock)
            .expect("deadlock finding");
        let mut ranks = finding.ranks.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
    }

    #[test]
    fn explorer_enumerates_the_wildcard_race_without_seeds() {
        let entry = find("wildcard-race").unwrap();
        let report = entry.explore(&opts());
        let stats = report.schedules.expect("stats");
        assert!(stats.exhaustive, "race space must be fully explored");
        assert!(
            stats.visited >= 2,
            "both wildcard matches must be enumerated (visited {})",
            stats.visited
        );
        let finding = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::WildcardRace)
            .expect("wildcard-race finding");
        assert_eq!(finding.ranks, vec![0]);
        assert!(finding.counterexample.is_some());
        // The cross-schedule divergence (not just the candidate-count
        // heuristic) must surface: different picks matched different
        // source orders.
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.class == FindingClass::WildcardRace
                    && f.summary.contains("differs across explored interleavings")),
            "expected a cross-schedule divergence finding:\n{report}"
        );
    }

    /// Why enumeration replaced sampling: one FIFO run of the unsynced
    /// race lints clean, and the explorer still finds it, exhaustively,
    /// with a counterexample.
    #[test]
    fn unsynced_race_needs_a_second_schedule_and_the_explorer_finds_it() {
        let entry = find("wildcard-race-unsynced").unwrap();
        let settings = crate::Settings::default();
        let fifo = mp::check::run_checked(entry.world, mp::Engine::Coop, settings, entry.body);
        assert!(fifo.results.is_some());
        assert!(crate::analyze(&fifo.log).is_empty(), "one run sees nothing");
        let report = entry.explore(&opts());
        let stats = report.schedules.expect("stats");
        assert!(stats.exhaustive && stats.visited >= 2, "{stats:?}");
        let mut findings = report.findings.iter();
        let race = findings.find(|f| f.class == FindingClass::WildcardRace);
        assert!(race.expect("the race is found").counterexample.is_some());
    }

    #[test]
    fn explorer_finds_collective_divergence_and_tag_leak() {
        let report = find("bcast-root-mismatch").unwrap().explore(&opts());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.class == FindingClass::CollectiveDivergence),
            "expected collective divergence:\n{report}"
        );
        let report = find("tag-leak").unwrap().explore(&opts());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.class == FindingClass::TagLeak),
            "expected tag leak:\n{report}"
        );
    }

    #[test]
    fn clean_control_stays_clean_under_every_schedule() {
        let entry = find("clean-allreduce").unwrap();
        let report = entry.explore(&ExploreOptions {
            max_schedules: 128,
            ..ExploreOptions::default()
        });
        assert!(report.clean(), "unexpected findings:\n{report}");
        let stats = report.schedules.unwrap();
        assert!(stats.visited >= 1);
    }

    #[test]
    fn counterexample_replays_to_the_same_finding() {
        let entry = find("wildcard-race").unwrap();
        let report = entry.explore(&opts());
        let finding = report
            .findings
            .iter()
            .find(|f| f.class == FindingClass::WildcardRace)
            .expect("wildcard-race finding");
        let schedule =
            Schedule::from_json(finding.counterexample.as_deref().unwrap()).expect("parses");
        assert_eq!(schedule.target, "gallery:wildcard-race");
        assert_eq!(schedule.world, 3);
        let body = entry.body;
        let replayed = crate::explore::replay(&schedule, crate::Settings::default(), move |comm| {
            body(comm)
        })
        .expect("replays without divergence");
        assert!(
            replayed
                .findings
                .iter()
                .any(|f| f.class == FindingClass::WildcardRace && f.ranks == finding.ranks),
            "replay must reproduce the finding:\n{replayed}"
        );
    }

    #[test]
    fn preemption_bound_zero_still_explores_wildcards() {
        let entry = find("wildcard-race").unwrap();
        let report = entry.explore(&ExploreOptions {
            max_schedules: 64,
            preemption_bound: Some(0),
            ..ExploreOptions::default()
        });
        // Wildcard branching is not a preemption: the race is still
        // fully enumerated under a zero bound.
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.class == FindingClass::WildcardRace),
            "expected wildcard race under bound 0:\n{report}"
        );
        assert!(report.schedules.unwrap().visited >= 2);
    }

    #[test]
    fn registry_lookup_accepts_target_labels() {
        assert!(find("gallery:recv-cycle-2").is_some());
        assert!(find("recv-cycle-2").is_some());
        assert!(find("no-such-entry").is_none());
        assert_eq!(entries().len(), 7);
    }
}
