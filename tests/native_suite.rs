//! End-to-end native runs: the complete HPCC suite and the IMB subset
//! executing for real on host threads, with every built-in verification
//! active — the "run the benchmarks yourself" half of the reproduction.

use hpcc::suite::{run_native, SuiteConfig};

#[test]
fn hpcc_suite_verifies_on_power_of_two_ranks() {
    let s = run_native(4, &SuiteConfig::small(4));
    assert!(s.all_passed, "{s:?}");
    assert!(s.ghpl > 0.0 && s.ptrans > 0.0 && s.gups > 0.0 && s.gfft > 0.0);
    assert!(s.stream_copy > 0.0 && s.ep_dgemm > 0.0 && s.ring_bw > 0.0);
}

#[test]
fn hpcc_suite_verifies_on_odd_ranks() {
    let s = run_native(5, &SuiteConfig::small(5));
    assert!(s.all_passed, "{s:?}");
    // Power-of-two-only benchmarks are skipped, not failed.
    assert_eq!(s.gups, 0.0);
    assert_eq!(s.gfft, 0.0);
}

#[test]
fn hpcc_hpl_scales_down_to_one_rank() {
    let s = run_native(1, &SuiteConfig::small(1));
    assert!(s.all_passed, "{s:?}");
}

#[test]
fn imb_full_subset_runs_at_1mib() {
    // The paper's headline size on every benchmark, natively.
    for bench in imb::Benchmark::ALL {
        let p = bench.min_procs().max(4);
        let bytes = if bench.sized() { 1 << 20 } else { 0 };
        let m = imb::run_native(bench, p, bytes, 2);
        assert!(m.t_max_us() > 0.0, "{bench}");
        assert!(m.t_min_us() <= m.t_max_us(), "{bench}");
    }
}

#[test]
fn imb_size_sweep_is_monotone_in_time() {
    // Moving 1024x the payload must take longer per call — a robust
    // check of the measurement plumbing that holds even on loaded hosts
    // and unoptimised builds (bandwidth itself is too jittery to order).
    let small = imb::run_native(imb::Benchmark::Sendrecv, 4, 1 << 10, 20);
    let large = imb::run_native(imb::Benchmark::Sendrecv, 4, 1 << 20, 5);
    assert!(
        large.t_max_us() > small.t_max_us(),
        "1 MiB should take longer than 1 KiB: {large:?} vs {small:?}"
    );
    assert!(small.bandwidth_mbs().unwrap() > 0.0);
    assert!(large.bandwidth_mbs().unwrap() > 0.0);
}

#[test]
fn hpl_residual_quality_across_block_sizes() {
    for nb in [8usize, 17, 32] {
        let results = mp::run(4, |comm| {
            hpcc::hpl::run(
                comm,
                &hpcc::hpl::HplConfig {
                    n: 120,
                    nb,
                    ..hpcc::hpl::HplConfig::default()
                },
            )
        });
        assert!(
            results[0].passed,
            "nb={nb}: residual {}",
            results[0].residual
        );
    }
}

/// The one LU is pinned to the arithmetic and the wire of the two it
/// replaced (goldens recorded from `hpl.rs` and `hpl2d.rs` at the commit
/// before the merge, where both codebases already agreed on every bit):
/// every grid of one (n, nb) returns the same residual bits — grid shape
/// is a schedule input, not a numerics input — and a `1 x Q` grid sends
/// exactly the column code's messages.
#[test]
fn hpl_grids_share_one_residual_and_the_column_wire() {
    let solve = |p_rows: usize, n: usize| {
        move |comm: &mp::Comm| {
            let cfg = hpcc::hpl::HplConfig { n, nb: 16, p_rows };
            hpcc::hpl::run(comm, &cfg).residual
        }
    };
    for (ranks, n, golden) in [
        (4usize, 200usize, 4.073105951152392e-3f64),
        (6, 203, 4.493414677119985e-3),
        (4, 96, 5.995602816466517e-3),
    ] {
        for p_rows in (1..=ranks).filter(|p| ranks.is_multiple_of(*p)) {
            let got = mp::run(ranks, solve(p_rows, n))[0];
            assert_eq!(
                got.to_bits(),
                golden.to_bits(),
                "{p_rows}x{} n={n}: {got:e} != {golden:e}",
                ranks / p_rows
            );
        }
    }

    // Per-sender program order is the trace's order within a sender; the
    // stable sort groups the senders.
    for (ranks, transfers, bytes, digest) in [
        (4usize, 32usize, 180_528u64, 0xf8ef_de55_7564_b120u64),
        (3, 22, 136_736, 0x840d_1fd9_39b3_4cdd),
        (1, 0, 0, 0xcbf2_9ce4_8422_2325),
    ] {
        let solve = &solve(1, 96);
        let body = move |comm: mp::Comm| async move { solve(&comm) };
        let (_, mut trace) = mp::run_traced(ranks, mp::Engine::Threads, body);
        trace.sort_by_key(|t| t.src);
        let fnv = trace
            .iter()
            .flat_map(|t| [t.src as u64, t.dst as u64, t.bytes])
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let what = format!("1x{ranks} n=96");
        assert_eq!(trace.len(), transfers, "{what}: transfers");
        assert_eq!(trace.iter().map(|t| t.bytes).sum::<u64>(), bytes, "{what}");
        assert_eq!(fnv, digest, "{what}: (src, dst, bytes) sequence moved");
    }
}

#[test]
fn random_access_gups_verifies_at_scale_points() {
    for p in [2usize, 8] {
        let cfg = hpcc::random_access::RandomAccessConfig {
            log2_size: 14,
            updates_per_entry: 1,
            batch: 256,
        };
        let results = mp::run(p, |comm| {
            mp::block_on(hpcc::random_access::run_async(comm, &cfg))
        });
        assert!(results[0].passed, "p={p}");
        assert_eq!(results[0].updates, 1 << 14);
    }
}
