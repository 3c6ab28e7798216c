//! A receive cycle that no instrument watches still ends: after
//! `MP_DEADLOCK_TIMEOUT_SECS` of waiting, the blocked receive panics and
//! names its rank, its filter and the likely deadlock. One test, alone in
//! its binary on purpose: it sets that variable for the whole process.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

#[test]
fn an_uninstrumented_receive_cycle_panics_naming_rank_and_filter() {
    std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", "1");
    let (tx, rx) = mpsc::channel();
    let cycle = std::thread::spawn(move || {
        let err = std::panic::catch_unwind(|| {
            mp::run(2, |comm| {
                let mut buf = [0u8; 1];
                comm.recv(&mut buf, 1 - comm.rank(), 5);
            })
        })
        .expect_err("a receive cycle cannot complete");
        let msg = err.downcast_ref::<String>().cloned();
        tx.send(msg.expect("a formatted panic message")).unwrap();
    });
    // Bounded waits, not a clock: the panic comes after the timeout, and
    // within a few seconds of it.
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(500)),
        Err(RecvTimeoutError::Timeout),
        "the cycle ended before its 1 s timeout"
    );
    let msg = rx
        .recv_timeout(Duration::from_secs(4))
        .expect("no deadlock panic within 4.5 s of a 1 s timeout");
    // `run` reports the lowest rank that panicked: rank 0, waiting on 1.
    for part in [
        "rank 0 panicked: mp: rank 0 waited 1s",
        "src: Some(1), tag: Some(5)",
        "likely deadlock",
    ] {
        assert!(msg.contains(part), "{part:?} missing from: {msg}");
    }
    cycle.join().expect("the world's panic was caught");
}
