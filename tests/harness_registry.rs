//! Integration tests for the unified harness layer: registry
//! completeness across both suites, cross-mode record identity, and the
//! statistics invariants of the shared `Record` schema.

use harness::{Mode, ProcGrid, Record, RunPlan, Runner, Stats, Suite};
use hpcbench::registry::{hpcc_names, imb_names, registry};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Registry completeness
// ----------------------------------------------------------------------

#[test]
fn registry_covers_both_suites_completely() {
    let reg = registry();
    let hpcc_expected = [
        "G-HPL",
        "G-PTRANS",
        "G-RandomAccess",
        "EP-STREAM",
        "G-FFT",
        "EP-DGEMM",
        "RandomRing",
    ];
    let imb_expected = [
        "PingPong",
        "PingPing",
        "Sendrecv",
        "Exchange",
        "Bcast",
        "Allgather",
        "Allgatherv",
        "Alltoall",
        "Reduce",
        "Reduce_scatter",
        "Allreduce",
        "Barrier",
    ];
    assert_eq!(hpcc_names(), hpcc_expected.to_vec());
    for name in imb_expected {
        assert!(imb_names().contains(&name), "{name} missing from registry");
    }
    assert_eq!(reg.len(), hpcc_expected.len() + imb_expected.len());

    for w in reg.iter() {
        // Metadata consistency: every entry names itself coherently,
        // supports all three execution modes and declares sane bounds.
        assert_eq!(reg.get(w.meta.name).unwrap().meta.suite, w.meta.suite);
        assert!(w.meta.min_procs >= 1, "{}", w.meta.name);
        for mode in Mode::ALL {
            assert!(w.supports(mode), "{} lacks {mode}", w.meta.name);
        }
        match w.meta.suite {
            Suite::Hpcc => {
                assert!(!w.meta.sized, "HPCC components are not message-sized");
                assert!(hpcc_names().contains(&w.meta.name));
            }
            Suite::Imb => {
                assert!(!w.meta.pow2_procs, "IMB runs at any world size");
                assert!(imb_names().contains(&w.meta.name));
            }
        }
    }
}

#[test]
fn registry_metadata_matches_suite_declarations() {
    let reg = registry();
    for b in imb::Benchmark::ALL {
        let w = reg.get(b.name()).expect("every IMB benchmark registered");
        assert_eq!(w.meta.metric, b.metric(), "{b}");
        assert_eq!(w.meta.min_procs, b.min_procs(), "{b}");
        assert_eq!(w.meta.sized, b.sized(), "{b}");
    }
    for c in hpcc::Component::ALL {
        let w = reg.get(c.name()).expect("every HPCC component registered");
        assert_eq!(w.meta.metric, c.metric(), "{}", c.name());
        assert_eq!(w.meta.pow2_procs, c.pow2_procs(), "{}", c.name());
    }
}

// ----------------------------------------------------------------------
// Cross-mode identity: one workload, three modes, comparable records
// ----------------------------------------------------------------------

#[test]
fn native_and_virtual_records_share_identity_fields() {
    let reg = registry();
    let machine = machines::systems::dell_xeon();
    let runner = Runner::smoke();
    for name in ["PingPong", "Alltoall", "EP-DGEMM"] {
        let w = reg.get(name).unwrap();
        let bytes = w.meta.sized.then_some(4096);
        let native = w
            .run(Mode::Native, &runner, None, 2, bytes)
            .unwrap_or_else(|| panic!("{name} native"));
        let virt = w
            .run(Mode::Virtual, &runner, Some(&machine), 2, bytes)
            .unwrap_or_else(|| panic!("{name} virtual"));
        // identity() = (benchmark, suite, procs, bytes): the cross-mode
        // join key for comparing a native run with its virtual replay.
        assert_eq!(native[0].identity(), virt[0].identity(), "{name}");
        assert_eq!(native[0].mode, Mode::Native);
        assert_eq!(virt[0].mode, Mode::Virtual);
        assert_ne!(native[0].machine, virt[0].machine);
    }
}

#[test]
fn one_plan_runs_all_three_modes_through_one_registry() {
    let reg = registry();
    let plan = RunPlan {
        backend: harness::Backend::Local,
        modes: vec![Mode::Native, Mode::Simulated, Mode::Virtual],
        machines: vec![machines::systems::nec_sx8()],
        procs: ProcGrid::List(vec![4]),
        bytes: vec![65536],
        workloads: Some(vec!["Allreduce"]),
        runner: Runner::smoke(),
    };
    let records = plan.execute(&reg);
    let modes: Vec<Mode> = records.iter().map(|r| r.mode).collect();
    assert_eq!(modes, vec![Mode::Native, Mode::Simulated, Mode::Virtual]);
    let mut identities: Vec<_> = records.iter().map(Record::identity).collect();
    identities.dedup();
    assert_eq!(identities.len(), 1, "same workload identity across modes");
    assert!(records.iter().all(|r| r.passed));
}

/// Differential pin of the one virtual engine, over two paths that both
/// ship: the virtual closure of every registry workload (all 19, see
/// `registry_covers_both_suites_completely`) run plainly (the default
/// FIFO queue) and run under the schedule explorer's hook with the
/// trivial [`mp::FifoController`] must produce the same records —
/// every field, full f64 precision via the round-trippable Debug form.
/// Virtual clocks are schedule-order-sensitive, so equality means the
/// interleaving itself was identical. Each run is one `mp` world, so the
/// sink sees exactly one run log per workload, and none deadlocked.
#[test]
fn virtual_runs_are_identical_under_the_fifo_controller() {
    use std::sync::{Arc, Mutex};

    let reg = registry();
    let machine = machines::systems::dell_xeon();
    let runner = Runner::fixed(2);
    for w in reg.iter() {
        let name = w.meta.name;
        let bytes = w.meta.sized.then_some(4096);
        let run = || {
            w.run(Mode::Virtual, &runner, Some(&machine), 4, bytes)
                .unwrap_or_else(|| panic!("{name} virtual at p=4"))
        };
        let plain = run();
        let logs = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&logs);
        let guard = mp::install_explore(mp::ScopedExplore {
            controller: Arc::new(mp::FifoController),
            settings: mp::check::Settings::default(),
            sink: Arc::new(move |log| sink.lock().unwrap().push(log)),
        });
        let controlled = run();
        drop(guard);
        assert_eq!(
            format!("{plain:?}"),
            format!("{controlled:?}"),
            "{name}: records diverge under the FIFO controller"
        );
        let logs = logs.lock().unwrap();
        assert_eq!(logs.len(), 1, "{name}: one run log per world");
        assert!(logs[0].deadlock.is_none(), "{name}: {:?}", logs[0].deadlock);
    }
}

// ----------------------------------------------------------------------
// Statistics invariants (property-based)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any set of per-rank timings, the IMB statistics are ordered
    /// (t_min <= t_avg <= t_max) and best-of equals t_min.
    #[test]
    fn stats_are_ordered_and_best_of_is_min(
        per_rank in prop::collection::vec(1e-3f64..1e7, 1..32),
        reps in 1usize..2000,
    ) {
        let s = Stats::across(&per_rank, reps);
        prop_assert!(s.is_ordered(), "{s:?}");
        prop_assert_eq!(s.best_of_us(), s.t_min_us);
        prop_assert_eq!(s.repetitions, reps);
        let lo = per_rank.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_rank.iter().cloned().fold(0.0f64, f64::max);
        prop_assert_eq!(s.t_min_us, lo);
        prop_assert_eq!(s.t_max_us, hi);
    }

    /// Degenerate (single-shot) stats collapse to one value and stay
    /// ordered.
    #[test]
    fn deterministic_stats_collapse(t in 0.0f64..1e9) {
        let s = Stats::deterministic(t);
        prop_assert!(s.is_ordered());
        prop_assert_eq!(s.t_min_us, t);
        prop_assert_eq!(s.t_avg_us, t);
        prop_assert_eq!(s.t_max_us, t);
        prop_assert_eq!(s.best_of_us(), t);
    }
}

/// Measured native records obey the same ordering invariant end to end.
#[test]
fn native_measurements_have_ordered_stats() {
    for b in [imb::Benchmark::Allreduce, imb::Benchmark::PingPong] {
        let m = imb::run_native(b, 2, 1024, 5);
        assert!(m.stats.is_ordered(), "{b}: {:?}", m.stats);
        assert_eq!(m.stats.best_of_us(), m.t_min_us(), "{b}");
    }
}
