//! The misuse gallery: known-bad `mp` programs that `mpcheck` must
//! diagnose *by class*, with concrete evidence (cycle members, diverging
//! call sites), and fast — each diagnosis must land in well under two
//! seconds, i.e. come from the wait-for graph or the trace, never from a
//! wall-clock timeout.

use mpcheck::json::{self, Value};
use mpcheck::{check, FindingClass, Settings};

/// Asserts that `report`, obtained in `elapsed` seconds, diagnoses the
/// receive cycle between ranks 0 and 1 by name.
fn assert_two_rank_cycle(report: &mpcheck::Report, elapsed: f64) {
    assert!(
        elapsed < 2.0,
        "diagnosis must come from the wait-for graph, not a timeout ({elapsed:.2}s)"
    );
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::Deadlock)
        .expect("deadlock finding");
    assert_eq!(finding.ranks, vec![0, 1], "the actual cycle members");
    assert!(
        finding.summary.contains("cycle"),
        "a 2-cycle, not a generic stall: {}",
        finding.summary
    );
    // The diagnosis names what each rank blocks on.
    assert!(finding.detail.contains("rank 0"), "{}", finding.detail);
    assert!(finding.detail.contains("rank 1"), "{}", finding.detail);
}

#[test]
fn two_rank_head_to_head_receive_cycle() {
    // The classic send/send deadlock: in mp, sends are eager (they buffer
    // at the destination and complete immediately), so the textbook
    // exchange-ordered-wrong bug manifests at the receives — both ranks
    // block receiving before either sends.
    let clock = harness::Stopwatch::start();
    let report = check(2, &Settings::default(), |comm| {
        let peer = 1 - comm.rank();
        let mut buf = [0u64];
        mp::block_on(comm.recv_async(&mut buf, peer, 42));
        comm.send(&[comm.rank() as u64], peer, 42);
    });
    assert_two_rank_cycle(&report, clock.elapsed_secs());
}

#[test]
fn receive_cycle_in_a_world_that_spins_is_still_a_named_cycle() {
    // What spin-then-park could have broken: a receive that spins in
    // `block_on` before it parks must still leave its wait edge first and
    // still be woken by the poison, or the count never sees two waiting
    // ranks, or sees them and cannot unwind them. The exchanges before the
    // cycle put both ranks through waits that are caught spinning.
    if !mp::receives_spin(2) {
        eprintln!("one online CPU: a 2-rank world parks at once, as in the test above");
    }
    let clock = harness::Stopwatch::start();
    let report = check(2, &Settings::default(), |comm| {
        let peer = 1 - comm.rank();
        let mut buf = [0u64];
        for i in 0..1000u64 {
            if comm.rank() == 0 {
                comm.send(&[i], peer, 7);
                mp::block_on(comm.recv_async(&mut buf, peer, 7));
            } else {
                mp::block_on(comm.recv_async(&mut buf, peer, 7));
                comm.send(&buf, peer, 7);
            }
            assert_eq!(buf[0], i);
        }
        mp::block_on(comm.recv_async(&mut buf, peer, 42));
        comm.send(&[comm.rank() as u64], peer, 42);
    });
    assert_two_rank_cycle(&report, clock.elapsed_secs());
}

#[test]
fn three_rank_receive_ring_reports_full_cycle() {
    let clock = harness::Stopwatch::start();
    let report = check(3, &Settings::default(), |comm| {
        // Every rank receives from its left neighbor before anyone sends:
        // a 3-cycle in the wait-for graph.
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let right = (comm.rank() + 1) % comm.size();
        let mut buf = [0u64];
        mp::block_on(comm.recv_async(&mut buf, left, 7));
        comm.send(&[1u64], right, 7);
    });
    assert!(clock.elapsed_secs() < 2.0);
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::Deadlock)
        .expect("deadlock finding");
    let mut ranks = finding.ranks.clone();
    ranks.sort_unstable();
    assert_eq!(ranks, vec![0, 1, 2], "all three ring members");

    // One diagnosis, whichever engine met the stall: a native checked
    // world's runnable count and the cooperative engine's run queue both
    // read the mailboxes' wait edges and assemble the same `Deadlock`
    // (`Deadlock::from_waits`; its other caller, a fleet's process 0, is
    // pinned by `mp/tests/multiproc.rs`).
    let ring = |comm: mp::Comm| async move {
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        comm.recv_async(&mut [0u64], left, 7).await;
    };
    let [threads, tasks] = [mp::Engine::Threads, mp::Engine::Coop]
        .map(|engine| mp::check::run_checked(3, engine, Settings::default(), ring));
    let counted = threads.log.deadlock.expect("the count reached zero");
    let instant = tasks.log.deadlock.expect("the stall was diagnosed");
    assert_eq!(counted.cycle.as_ref().map(Vec::len), Some(3));
    assert_eq!(format!("{counted:?}"), format!("{instant:?}"));
    assert_eq!(finding.detail, counted.to_string());
}

#[test]
fn bcast_root_mismatch_is_collective_divergence() {
    // Both ranks call bcast at the same call index but disagree on the
    // root. With eager "root sends, leaves receive" semantics this can
    // even complete — the misuse is only visible by comparing traces.
    let report = check(2, &Settings::default(), |comm| {
        let mut buf = [comm.rank() as u64];
        let root = comm.rank(); // everyone thinks they are the root
        mp::block_on(comm.bcast_async(&mut buf, root));
    });
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::CollectiveDivergence)
        .expect("collective-divergence finding:\n{report}");
    assert!(
        finding.summary.contains("bcast"),
        "names the operation: {}",
        finding.summary
    );
    assert!(
        finding.summary.contains("root"),
        "names the mismatched root: {}",
        finding.summary
    );
}

#[test]
fn collective_order_divergence_barrier_vs_reduce() {
    // Rank 0 calls barrier-then-allreduce, rank 1 allreduce-then-barrier.
    // The traces disagree on which operation call #0 on the world
    // communicator is.
    let clock = harness::Stopwatch::start();
    let report = check(2, &Settings::default(), |comm| {
        let mut x = [1u64];
        if comm.rank() == 0 {
            mp::block_on(comm.barrier_async());
            mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
        } else {
            mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
            mp::block_on(comm.barrier_async());
        }
    });
    assert!(clock.elapsed_secs() < 2.0);
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::CollectiveDivergence)
        .expect("collective-divergence finding");
    assert!(
        finding.summary.contains("barrier") && finding.summary.contains("allreduce"),
        "names both diverging operations: {}",
        finding.summary
    );
}

#[test]
fn unreceived_tag_is_a_tag_leak() {
    // Rank 0 sends on tags 5 and 6; rank 1 only ever receives tag 6. The
    // tag-5 message sits in its lane at finalize and rank 1's trace shows
    // no receive on that tag at all: a leak, not a count mismatch.
    let report = check(2, &Settings::default(), |comm| {
        if comm.rank() == 0 {
            comm.send(&[10u64], 1, 5);
            comm.send(&[20u64], 1, 6);
        } else {
            let mut buf = [0u64];
            mp::block_on(comm.recv_async(&mut buf, 0, 6));
            assert_eq!(buf[0], 20);
        }
        mp::block_on(comm.barrier_async());
    });
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::TagLeak)
        .expect("tag-leak finding");
    assert_eq!(finding.ranks, vec![0, 1], "sender and receiver");
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.class == FindingClass::Deadlock),
        "the program completes; this is a finalize-time lint"
    );
}

#[test]
fn excess_sends_on_a_received_tag_are_unmatched_sends() {
    let report = check(2, &Settings::default(), |comm| {
        if comm.rank() == 0 {
            comm.send(&[1u64], 1, 9);
            comm.send(&[2u64], 1, 9);
            comm.send(&[3u64], 1, 9);
        } else {
            let mut buf = [0u64];
            mp::block_on(comm.recv_async(&mut buf, 0, 9));
        }
        mp::block_on(comm.barrier_async());
    });
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::UnmatchedSend)
        .expect("unmatched-send finding");
    assert_eq!(finding.ranks, vec![0, 1]);
    assert!(
        finding.summary.contains("2 message(s)"),
        "counts the queued leftovers: {}",
        finding.summary
    );
}

#[test]
fn wildcard_receive_with_two_live_senders_is_a_race() {
    // Ranks 1 and 2 both send to rank 0, which syncs (so both messages
    // are definitely queued) and then receives with a wildcard source:
    // at match time two candidate lanes are nonempty, so the result is
    // arrival-order dependent.
    let report = check(3, &Settings::default(), |comm| {
        if comm.rank() == 0 {
            let mut sync = [0u64];
            mp::block_on(comm.recv_async(&mut sync, 1, 99));
            mp::block_on(comm.recv_async(&mut sync, 2, 99));
            let (_, src1, _) = mp::block_on(comm.recv_any_async::<u64>(None, Some(1)));
            let (_, src2, _) = mp::block_on(comm.recv_any_async::<u64>(None, Some(1)));
            assert_ne!(src1, src2);
        } else {
            comm.send(&[comm.rank() as u64], 0, 1);
            comm.send(&[1u64], 0, 99); // sync AFTER the racy send
        }
        mp::block_on(comm.barrier_async());
    });
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == FindingClass::WildcardRace)
        .expect("wildcard-race finding");
    assert_eq!(finding.ranks, vec![0], "the receiving rank races");
}

#[test]
fn exact_source_receives_are_not_flagged_as_races() {
    // Same traffic as above but with pinned sources: deterministic, no
    // finding of any class.
    let report = check(3, &Settings::default(), |comm| {
        if comm.rank() == 0 {
            let mut buf = [0u64];
            mp::block_on(comm.recv_async(&mut buf, 1, 1));
            mp::block_on(comm.recv_async(&mut buf, 2, 1));
        } else {
            comm.send(&[comm.rank() as u64], 0, 1);
        }
        mp::block_on(comm.barrier_async());
    });
    assert!(report.clean(), "unexpected findings:\n{report}");
}

#[test]
fn report_json_carries_the_gallery_finding() {
    let report = check(2, &Settings::default(), |comm| {
        let peer = 1 - comm.rank();
        let mut buf = [0u64];
        mp::block_on(comm.recv_async(&mut buf, peer, 3));
        comm.send(&buf, peer, 3);
    });
    // The document, read back by the workspace's JSON parser, names the
    // finding the report holds: its class, its ranks, and no
    // counterexample (a run on threads has no schedule to replay).
    let doc = json::parse(&report.to_json()).expect("well-formed JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("mpcheck-report-v3")
    );
    let findings = doc
        .get("findings")
        .and_then(Value::as_arr)
        .expect("findings");
    let deadlock = findings
        .iter()
        .find(|f| f.get("class").and_then(Value::as_str) == Some("deadlock"))
        .unwrap_or_else(|| panic!("no deadlock finding in:\n{report}"));
    let ranks: Vec<u64> = deadlock
        .get("ranks")
        .and_then(Value::as_arr)
        .expect("ranks")
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    assert_eq!(ranks, [0, 1]);
    assert!(matches!(deadlock.get("counterexample"), Some(Value::Null)));
}

#[test]
fn explorer_covers_the_gallery_without_seeds() {
    // The integration-level acceptance check for the DPOR explorer: the
    // misuse patterns this file runs once on rank threads are found by
    // *enumerating* schedules — no randomness — each with a replayable
    // counterexample.
    for entry in mpcheck::gallery::entries() {
        let report = entry.explore(&mpcheck::ExploreOptions {
            max_schedules: 64,
            ..mpcheck::ExploreOptions::default()
        });
        let stats = report.schedules.expect("explorer accounting");
        assert!(stats.visited >= 1, "{}: no schedules visited", entry.name);
        match entry.expect {
            Some(class) => {
                let finding = report
                    .findings
                    .iter()
                    .find(|f| f.class == class)
                    .unwrap_or_else(|| {
                        panic!("{}: expected a {class} finding:\n{report}", entry.name)
                    });
                assert!(
                    finding.counterexample.is_some(),
                    "{}: finding is not replayable",
                    entry.name
                );
            }
            None => assert!(report.clean(), "{}: dirty control:\n{report}", entry.name),
        }
    }
}
