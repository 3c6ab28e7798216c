//! Cross-crate one-sided communication tests: the RMA window machinery
//! (`mp::rma`) driven through the IMB-EXT benchmarks (`imb::ext`) and
//! checked against the simulated models.

use imb::{ExtBenchmark, SyncScheme};
use mp::{Op, Window};

/// A halo-exchange stencil via one-sided puts — the application pattern
/// one-sided communication exists for (each rank writes its boundary
/// into its neighbours' ghost cells, no receives posted).
#[test]
fn halo_exchange_with_put_and_fence() {
    let n = 6;
    let width = 16usize;
    let results = mp::run(n, |comm| {
        // Window layout: [left ghost | interior | right ghost].
        let win = Window::create::<f64>(comm, width + 2);
        let me = comm.rank();
        // Fill the interior.
        let interior: Vec<f64> = (0..width).map(|i| (me * width + i) as f64).collect();
        win.put(&interior, me, 1);
        win.fence();
        // Push my boundary cells into the neighbours' ghosts.
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;
        win.put(&interior[..1], left, width + 1); // my first -> left's right ghost
        win.put(&interior[width - 1..], right, 0); // my last -> right's left ghost
        win.fence();
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
        let win = Window::create::<f64>(comm, len);
        win.fence();
        win.accumulate(&contribution, 0, 0, Op::Sum);
        win.fence();
        let mut onesided = vec![0.0f64; len];
        win.get(&mut onesided, 0, 0);

        // Two-sided reference.
        let mut reference = contribution;
        comm.allreduce(&mut reference, Op::Sum);
        (onesided, reference)
    });
    for (r, (os, re)) in results.iter().enumerate() {
        assert_eq!(os, re, "rank {r}");
    }
}

/// All EXT benchmark/scheme combinations run natively and produce times
/// consistent with their simulated schedules' structure (put one-way
/// cheaper than get round trip on every machine model).
#[test]
fn ext_matrix_native_and_simulated() {
    for b in ExtBenchmark::ALL {
        for s in SyncScheme::ALL {
            let m = imb::ext::run_native(b, s, 2048, 4);
            assert!(m.t_us > 0.0 && m.mbs > 0.0, "native {b}/{s}");
        }
    }
    for machine in machines::systems::paper_systems() {
        let put = imb::ext::simulate(&machine, ExtBenchmark::UnidirPut, SyncScheme::Lock, 1 << 20);
        let get = imb::ext::simulate(&machine, ExtBenchmark::UnidirGet, SyncScheme::Lock, 1 << 20);
        assert!(
            get.t_us > put.t_us,
            "{}: get {} !> put {}",
            machine.name,
            get.t_us,
            put.t_us
        );
    }
}

/// PSCW restricts exposure to the named origin group; serialised epochs
/// order writes from two origins.
#[test]
fn pscw_two_origin_epochs_serialise() {
    let results = mp::run(3, |comm| {
        let win = Window::create::<u64>(comm, 1);
        let me = comm.rank();
        match me {
            0 => {
                // Expose to origin 1, then to origin 2 — the later epoch's
                // write wins.
                win.post(&[1]);
                win.wait(&[1]);
                win.post(&[2]);
                win.wait(&[2]);
                let mut v = [0u64];
                win.get(&mut v, 0, 0);
                v[0]
            }
            1 => {
                win.start(&[0]);
                win.put(&[111u64], 0, 0);
                win.complete(&[0]);
                0
            }
            _ => {
                win.start(&[0]);
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
