//! A thread world that no instrument watches names its stall the moment
//! its last runnable rank blocks: a receive cycle panics within 100 ms
//! naming both ranks and the cycle, a receive from a rank that returned
//! is a global stall, and a rank that is busy computing is no stall at
//! all. Latencies are read off bounded channel waits, not a clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `body` as an unchecked world of `n` ranks on its own thread and
/// returns a receiver of the run's panic message (none if it completed).
fn launch(n: usize, body: fn(&mp::Comm)) -> mpsc::Receiver<Option<String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| mp::run(n, body));
        let msg = outcome.err().map(|err| {
            let msg = err.downcast_ref::<String>().cloned();
            msg.expect("a formatted panic message")
        });
        tx.send(msg).unwrap();
    });
    rx
}

fn assert_names(msg: &str, parts: &[&str]) {
    for part in parts {
        assert!(msg.contains(part), "{part:?} missing from: {msg}");
    }
}

#[test]
fn an_uninstrumented_receive_cycle_is_named_at_once() {
    let rx = launch(2, |comm| {
        let mut buf = [0u8; 1];
        mp::block_on(comm.recv_async(&mut buf, 1 - comm.rank(), 5));
    });
    let msg = rx
        .recv_timeout(Duration::from_millis(100))
        .expect("the cycle is named within 100 ms")
        .expect("a receive cycle cannot complete");
    assert_names(
        &msg,
        &[
            mp::check::POISON_MARK,
            "wait-for cycle: 0 -> 1 -> 0",
            "rank 0: blocked in receive (src 1",
            "rank 1: blocked in receive (src 0",
        ],
    );
}

#[test]
fn a_receive_from_a_rank_that_returned_is_a_global_stall() {
    let rx = launch(2, |comm| {
        if comm.rank() == 0 {
            mp::block_on(comm.recv_async(&mut [0u8; 1], 1, 5));
        }
    });
    let msg = rx
        .recv_timeout(Duration::from_millis(100))
        .expect("the stall is named within 100 ms")
        .expect("rank 0's receive cannot complete");
    assert_names(
        &msg,
        &[
            "global stall: 1 rank(s) blocked",
            "rank 0: blocked in receive (src 1",
        ],
    );
}

/// Released by the test once rank 2 has computed for 200 ms.
static COMPUTED: AtomicBool = AtomicBool::new(false);

#[test]
fn a_rank_that_computes_before_it_sends_is_no_stall() {
    let rx = launch(3, |comm| match comm.rank() {
        2 => {
            while !COMPUTED.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            comm.send(&[1u8], 0, 5);
            comm.send(&[1u8], 1, 5);
        }
        _ => mp::block_on(comm.recv_async(&mut [0u8; 1], 2, 5)),
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(200)),
        Err(RecvTimeoutError::Timeout),
        "the world ended while rank 2 was still computing"
    );
    COMPUTED.store(true, Ordering::Release);
    let outcome = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the world completes once rank 2 sends");
    assert_eq!(outcome, None, "no stall was declared");
}
