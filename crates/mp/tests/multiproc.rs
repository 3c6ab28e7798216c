//! End-to-end multi-process worlds: the test binary re-execs itself as
//! the worker fleet.
//!
//! Each driver test launches `nprocs` copies of this very binary (via
//! [`mp::transport::launcher::Launcher`]) filtered down to the single
//! [`worker_entry`] test, with `MP_TEST_CASE` selecting the worker body.
//! The workers install the session from the environment, run the same
//! `mp::run` calls, and assert their resident ranks' results; the driver
//! asserts fleet success (or, for the deadlock case, the diagnosis).

use std::time::Duration;

use mp::transport::launcher::{FleetOutcome, Launcher};

/// Message sizes for the ping-pong sweep, in `u64` words: empty, tiny,
/// eager, and past the 32 KiB rendezvous threshold (which multi-process
/// sends must fall back from, eagerly, without corruption).
const PINGPONG_WORDS: &[usize] = &[0, 1, 128, 8192];

/// A loopback tcp fleet of this binary's [`worker_entry`] running `case`.
fn fleet(case: &str, world: usize, nprocs: usize) -> Launcher {
    let exe = std::env::current_exe().expect("test binary path");
    Launcher::new(world, nprocs, exe)
        .arg("worker_entry")
        .arg("--exact")
        .arg("--nocapture")
        .env("MP_TEST_CASE", case)
        .timeout(Duration::from_secs(120))
}

fn all_output(outcome: &FleetOutcome) -> String {
    outcome
        .procs
        .iter()
        .map(|p| format!("{}{}", p.stdout, p.stderr))
        .collect()
}

// ---------------------------------------------------------------------
// Worker bodies
// ---------------------------------------------------------------------

fn w_pingpong() {
    let results = mp::run(2, |comm| {
        let me = comm.rank();
        let mut moved = 0u64;
        for (t, &len) in PINGPONG_WORDS.iter().enumerate() {
            let tag = t as u32;
            if me == 0 {
                let data: Vec<u64> = (0..len as u64).map(|i| i * 3 + tag as u64).collect();
                comm.send(&data, 1, tag);
                let mut back = vec![0u64; len];
                comm.recv(&mut back, 1, tag);
                let want: Vec<u64> = data.iter().map(|x| x + 1).collect();
                assert_eq!(back, want, "echo at {len} words");
            } else {
                let mut buf = vec![0u64; len];
                comm.recv(&mut buf, 0, tag);
                for x in &mut buf {
                    *x += 1;
                }
                comm.send(&buf, 0, tag);
            }
            moved += len as u64;
        }
        moved
    });
    // One rank per process: exactly one resident result.
    assert_eq!(results, vec![PINGPONG_WORDS.iter().sum::<usize>() as u64]);
}

fn w_collectives() {
    let results = mp::run(4, |comm| {
        let n = comm.size() as u64;
        let r = comm.rank() as u64;
        let mut x = [r + 1];
        comm.allreduce(&mut x, mp::Op::Sum);
        assert_eq!(x[0], n * (n + 1) / 2);
        let mut b = [0u64; 3];
        if comm.rank() == 2 {
            b = [7, 8, 9];
        }
        comm.bcast(&mut b, 2);
        assert_eq!(b, [7, 8, 9]);
        let mut all = vec![0u64; n as usize];
        comm.allgather(&[r * r], &mut all);
        assert_eq!(all, vec![0, 1, 4, 9]);
        let send: Vec<u64> = (0..n).map(|d| r * 100 + d).collect();
        let mut recv = vec![0u64; n as usize];
        comm.alltoall(&send, &mut recv);
        let want: Vec<u64> = (0..n).map(|s| s * 100 + r).collect();
        assert_eq!(recv, want);
        comm.barrier();
        x[0]
    });
    for v in results {
        assert_eq!(v, 10);
    }
}

fn w_wildcard() {
    mp::run(4, |comm| {
        if comm.rank() == 0 {
            // Any-source receives must deliver exactly one message per
            // sender: the multiset of sources is {1, 2, 3}.
            let mut srcs = Vec::new();
            for _ in 1..4 {
                let (data, src, tag) = comm.recv_any::<u64>(None, Some(5));
                assert_eq!(tag, 5);
                assert_eq!(data, vec![src as u64 * 11]);
                srcs.push(src);
            }
            srcs.sort_unstable();
            assert_eq!(srcs, vec![1, 2, 3]);
        } else {
            comm.send(&[comm.rank() as u64 * 11], 0, 5);
        }
    });
}

fn w_epochs() {
    // Sequential epochs of one session: the flush barrier must keep the
    // worlds cleanly separated even though both use the same tags.
    for epoch in 0..3u64 {
        let results = mp::run(2, |comm| {
            let me = comm.rank();
            let peer = 1 - me;
            let mut got = [0u64];
            comm.sendrecv(&[me as u64 + epoch * 10], peer, &mut got, peer, 3);
            assert_eq!(got[0], peer as u64 + epoch * 10);
            got[0]
        });
        assert_eq!(results.len(), 1);
    }
}

fn w_resident_results(proc: &mp::Proc) {
    // Under the block map proc 0 hosts ranks {0, 1} and proc 1 hosts
    // {2, 3}; run() returns exactly the resident results, in ascending
    // rank order.
    let results = mp::run(4, |comm| {
        let mut x = [comm.rank() as u64];
        comm.allreduce(&mut x, mp::Op::Max);
        assert_eq!(x[0], 3);
        comm.rank() as u64 * 10
    });
    let want = if proc.resident(0) {
        vec![0, 10]
    } else {
        vec![20, 30]
    };
    assert_eq!(results, want);
}

fn w_deadlock() {
    // Head-to-head receives across processes: rank 0 (proc 0) waits on
    // rank 1 (proc 1) and vice versa. The cross-process detector must
    // assemble the cycle and poison both sides.
    mp::run(2, |comm| {
        let peer = 1 - comm.rank();
        let mut buf = [0u8];
        comm.recv(&mut buf, peer, 1);
    });
}

fn w_cycle_beside_a_finished_process() {
    // Rank 2 (proc 2) returns at once while ranks 0 and 1 wait on each
    // other: proc 2's report has no waits, and the cycle is still named.
    mp::run(3, |comm| {
        if comm.rank() < 2 {
            let mut buf = [0u8];
            comm.recv(&mut buf, 1 - comm.rank(), 1);
        }
    });
}

fn w_lost_peer() {
    // Proc 1 dies after its first receive while rank 0 waits for a reply.
    mp::run(2, |comm| {
        let mut buf = [0u8];
        if comm.rank() == 0 {
            comm.send(&[1u8], 1, 1);
            comm.recv(&mut buf, 1, 2);
        } else {
            comm.recv(&mut buf, 0, 1);
            std::process::abort();
        }
    });
}

/// CPU time this process has used, in clock ticks: `utime + stime` of
/// `/proc/self/stat`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("(comm)")
        .1
        .split_whitespace()
        .collect();
    // Fields 14 and 15 of proc(5), counted after the parenthesised comm.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Idles the calling thread for `d`: a bounded wait on a channel that
/// nobody sends on.
fn idle(d: Duration) {
    let (_tx, rx) = std::sync::mpsc::channel::<()>();
    assert!(rx.recv_timeout(d).is_err());
}

fn w_idle_after_peer_exit(proc: &mp::Proc) {
    // Proc 1 exits once the epoch ends; proc 0 then idles, and its pump,
    // with no peer left, must stop rather than spin.
    mp::run(2, |comm| comm.barrier());
    if proc.resident(0) {
        idle(Duration::from_millis(300));
        let before = cpu_ticks();
        idle(Duration::from_millis(500));
        let used = cpu_ticks() - before;
        assert!(
            used < 10,
            "proc 0 used {used} CPU ticks idling after its peer left"
        );
    }
}

/// Dispatch point for worker processes. Under a normal `cargo test` run
/// (no `MP_TEST_CASE`), this is a no-op.
#[test]
fn worker_entry() {
    let Ok(case) = std::env::var("MP_TEST_CASE") else {
        return;
    };
    let proc = mp::transport::init_from_env().expect("worker requires a session environment");
    match case.as_str() {
        "pingpong" => w_pingpong(),
        "collectives" => w_collectives(),
        "wildcard" => w_wildcard(),
        "epochs" => w_epochs(),
        "resident_results" => w_resident_results(&proc),
        "deadlock" => w_deadlock(),
        "cycle_beside_finished" => w_cycle_beside_a_finished_process(),
        "lost_peer" => w_lost_peer(),
        "idle_after_peer_exit" => w_idle_after_peer_exit(&proc),
        other => panic!("unknown MP_TEST_CASE {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Drivers (tcp over loopback)
// ---------------------------------------------------------------------

#[test]
fn tcp_pingpong_loopback() {
    fleet("pingpong", 2, 2).run();
}

#[test]
fn tcp_collectives_and_barrier_loopback() {
    fleet("collectives", 4, 2).run();
}

#[test]
fn tcp_sendrecv_epochs_loopback() {
    fleet("epochs", 2, 2).run();
}

#[test]
fn tcp_wildcard_multiset_loopback() {
    fleet("wildcard", 4, 2).run();
}

#[test]
fn tcp_block_mapping_returns_the_resident_results() {
    fleet("resident_results", 4, 2).run();
}

#[test]
fn tcp_recv_cycle_is_diagnosed_across_processes() {
    let outcome = fleet("deadlock", 2, 2).spawn().wait();
    assert!(!outcome.success(), "a deadlocked fleet must not succeed");
    assert!(
        !outcome.timed_out,
        "the detector must fire well before the fleet deadline"
    );
    let output = all_output(&outcome);
    assert!(
        output.contains("wait-for cycle: 0 -> 1 -> 0")
            || output.contains("wait-for cycle: 1 -> 0 -> 1"),
        "diagnosis must name the cross-process cycle; got:\n{output}"
    );
    assert!(output.contains("blocked in receive"), "waits listed");
    assert_every_proc_names_the_cycle(&outcome);
}

/// Every process exited by itself — the `Poison` frame reached it and the
/// watchdog killed nobody — and its stderr names the cycle of ranks 0 and
/// 1.
fn assert_every_proc_names_the_cycle(outcome: &FleetOutcome) {
    for p in &outcome.procs {
        assert!(
            p.status.is_some(),
            "proc {} was killed:\n{}",
            p.proc,
            p.stderr
        );
        assert!(
            p.stderr.contains("wait-for cycle: 0 -> 1 -> 0"),
            "proc {} must name the cycle; got:\n{}",
            p.proc,
            p.stderr
        );
    }
}

#[test]
fn tcp_recv_cycle_beside_a_finished_process() {
    let outcome = fleet("cycle_beside_finished", 3, 3).spawn().wait();
    assert!(!outcome.success() && !outcome.timed_out);
    assert_every_proc_names_the_cycle(&outcome);
}

/// A peer that dies mid-epoch is named by the survivor, which exits by
/// itself instead of waiting for the launcher's watchdog.
#[test]
fn a_lost_peer_is_named_not_waited_for() {
    let outcome = fleet("lost_peer", 2, 2).spawn().wait();
    let survivor = &outcome.procs[0];
    assert!(
        matches!(survivor.status, Some(code) if code != 0),
        "proc 0 must fail by itself, not be killed: {:?}\n{}",
        survivor.status,
        survivor.stderr
    );
    assert!(
        survivor.stderr.contains("peer lost: proc 1 left epoch 0"),
        "proc 0 must name proc 1 and epoch 0; got:\n{}",
        survivor.stderr
    );
}

/// Once every peer is gone the receive pump stops: a process idling after
/// its only peer exited uses (almost) no CPU.
#[test]
fn the_pump_stops_when_every_peer_is_gone() {
    fleet("idle_after_peer_exit", 2, 2).run();
}

#[test]
fn tcp_four_procs() {
    fleet("collectives", 4, 4).run();
}
