//! Cross-crate one-sided communication tests: the RMA window machinery
//! (`mp::rma`) driven through the IMB-EXT benchmarks (`imb::ext`), natively
//! and under virtual clocks on the paper's machine models.

use std::sync::{Arc, Mutex};

use harness::Runner;
use imb::{ExtBenchmark, SyncScheme};
use mp::{block_on, Op, Window};

/// A halo-exchange stencil via one-sided puts — the application pattern
/// one-sided communication exists for (each rank writes its boundary
/// into its neighbours' ghost cells, no receives posted).
#[test]
fn halo_exchange_with_put_and_fence() {
    let n = 6;
    let width = 16usize;
    let results = mp::run(n, |comm| {
        // Window layout: [left ghost | interior | right ghost].
        let win = block_on(Window::create::<f64>(comm, width + 2));
        let me = comm.rank();
        // Fill the interior.
        let interior: Vec<f64> = (0..width).map(|i| (me * width + i) as f64).collect();
        win.put(&interior, me, 1);
        block_on(win.fence());
        // Push my boundary cells into the neighbours' ghosts.
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;
        win.put(&interior[..1], left, width + 1); // my first -> left's right ghost
        win.put(&interior[width - 1..], right, 0); // my last -> right's left ghost
        block_on(win.fence());
        let mut all = vec![0.0f64; width + 2];
        win.get(&mut all, me, 0);
        all
    });
    for (r, got) in results.iter().enumerate() {
        let left_neighbor = (r + n - 1) % n;
        let right_neighbor = (r + 1) % n;
        assert_eq!(
            got[0],
            (left_neighbor * width + width - 1) as f64,
            "rank {r} left ghost"
        );
        assert_eq!(
            got[width + 1],
            (right_neighbor * width) as f64,
            "rank {r} right ghost"
        );
        for i in 0..width {
            assert_eq!(got[1 + i], (r * width + i) as f64);
        }
    }
}

/// A one-sided allreduce built from accumulate + fence matches the
/// two-sided collective.
#[test]
fn accumulate_reduction_matches_allreduce() {
    let n = 5;
    let len = 8usize;
    let results = mp::run(n, |comm| {
        let me = comm.rank();
        let contribution: Vec<f64> = (0..len).map(|i| ((me + 1) * (i + 2)) as f64).collect();

        // One-sided: everyone accumulates into rank 0's window.
        let win = block_on(Window::create::<f64>(comm, len));
        block_on(win.fence());
        win.accumulate(&contribution, 0, 0, Op::Sum);
        block_on(win.fence());
        let mut onesided = vec![0.0f64; len];
        win.get(&mut onesided, 0, 0);

        // Two-sided reference.
        let mut reference = contribution;
        mp::block_on(comm.allreduce_async(&mut reference, Op::Sum));
        (onesided, reference)
    });
    for (r, (os, re)) in results.iter().enumerate() {
        assert_eq!(os, re, "rank {r}");
    }
}

/// All EXT benchmark/scheme combinations run natively, and under virtual
/// clocks a get (request, then the data's reply) is slower than a put (one
/// transfer) at 1 MiB under lock on every paper system.
#[test]
fn ext_matrix_native_and_virtual() {
    for b in ExtBenchmark::ALL {
        for s in SyncScheme::ALL {
            let m = imb::ext::run_native(b, s, 2048, 4);
            assert!(m.t_us > 0.0 && m.mbs > 0.0, "native {b}/{s}");
        }
    }
    let runner = Runner::fixed(3);
    for machine in machines::systems::paper_systems() {
        let at = |b| imb::ext::run_virtual(&machine, b, SyncScheme::Lock, 1 << 20, &runner);
        let (put, get) = (at(ExtBenchmark::UnidirPut), at(ExtBenchmark::UnidirGet));
        assert!(
            get.t_us > put.t_us,
            "{}: get {} !> put {}",
            machine.name,
            get.t_us,
            put.t_us
        );
    }
}

/// The virtual twin is `mpcheck`-clean: every world the 15-cell virtual
/// EXT matrix starts, instrumented through the one ambient hook, ends with
/// no deadlock, no unmatched message and no rank panic.
#[test]
fn virtual_ext_matrix_is_mpcheck_clean() {
    let logs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&logs);
    let guard = mp::check::install_scoped(mp::check::ScopedCheck {
        settings: mp::check::Settings::default(),
        controller: None,
        sink: Arc::new(move |log| sink.lock().unwrap().push(log)),
    });
    let machine = machines::systems::dell_xeon();
    for b in ExtBenchmark::ALL {
        for s in SyncScheme::ALL {
            imb::ext::run_virtual(&machine, b, s, 4096, &Runner::fixed(2));
        }
    }
    drop(guard);
    let logs = logs.lock().unwrap();
    assert_eq!(logs.len(), 15, "one instrumented world per cell");
    for log in logs.iter() {
        assert!(log.deadlock.is_none(), "{:?}", log.deadlock);
        assert!(log.leftover.is_empty(), "{:?}", log.leftover);
        assert!(log.panics.is_empty(), "{:?}", log.panics);
    }
}

/// PSCW restricts exposure to the named origin group; serialised epochs
/// order writes from two origins.
#[test]
fn pscw_two_origin_epochs_serialise() {
    let results = mp::run(3, |comm| {
        let win = block_on(Window::create::<u64>(comm, 1));
        let me = comm.rank();
        match me {
            0 => {
                // Expose to origin 1, then to origin 2 — the later epoch's
                // write wins.
                win.post(&[1]);
                block_on(win.wait(&[1]));
                win.post(&[2]);
                block_on(win.wait(&[2]));
                let mut v = [0u64];
                win.get(&mut v, 0, 0);
                v[0]
            }
            1 => {
                block_on(win.start(&[0]));
                win.put(&[111u64], 0, 0);
                win.complete(&[0]);
                0
            }
            _ => {
                block_on(win.start(&[0]));
                win.put(&[222u64], 0, 0);
                win.complete(&[0]);
                0
            }
        }
    });
    assert_eq!(
        results[0], 222,
        "the second exposure epoch's write is final"
    );
}
