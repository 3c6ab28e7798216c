//! Determinism guarantees: regenerated figures are bit-stable — the
//! property that makes `out/` diffable across runs and machines.

use hpcbench::figures::{self, FigureConfig};

#[test]
fn figure_regeneration_is_bit_stable() {
    let cfg = FigureConfig::quick();
    let a = figures::fig12(&cfg);
    let b = figures::fig12(&cfg);
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(hpcbench::svg::render(&a), hpcbench::svg::render(&b));
}

#[test]
fn balance_sweeps_are_bit_stable() {
    let cfg = FigureConfig::quick();
    let a = figures::hpcc_sweeps(&cfg);
    let b = figures::hpcc_sweeps(&cfg);
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.machine.name, sb.machine.name);
        for (ra, rb) in sa.rows.iter().zip(&sb.rows) {
            assert_eq!(ra.ghpl, rb.ghpl, "{}", sa.machine.name);
            assert_eq!(ra.ring_bw, rb.ring_bw, "{}", sa.machine.name);
            assert_eq!(ra.ptrans, rb.ptrans, "{}", sa.machine.name);
        }
    }
}

#[test]
fn tables_are_bit_stable() {
    let cfg = FigureConfig::quick();
    assert_eq!(
        figures::table3(&cfg).to_csv(),
        figures::table3(&cfg).to_csv()
    );
    assert_eq!(figures::fig05(&cfg).to_csv(), figures::fig05(&cfg).to_csv());
}

#[test]
fn simulated_measurements_are_deterministic() {
    for m in machines::systems::paper_systems() {
        let a = imb::sim::simulate(&m, imb::Benchmark::Alltoall, 8, 1 << 20);
        let b = imb::sim::simulate(&m, imb::Benchmark::Alltoall, 8, 1 << 20);
        assert_eq!(a.t_max_us(), b.t_max_us(), "{}", m.name);
    }
}

/// The `campaign --high-rank` plan at 4096 cooperative ranks, twice:
/// the FIFO run queue fixes the order messages hit the fabric timelines,
/// so the virtual records are byte-identical run to run.
#[test]
fn highrank_virtual_slice_is_deterministic() {
    let run = || {
        let records = harness::RunPlan::high_rank(4096).execute(&hpcbench::registry());
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.passed));
        harness::records_json(&records)
    };
    assert_eq!(run(), run());
}

#[test]
fn native_results_are_value_deterministic() {
    // Wall-clock timings vary; computed *values* must not.
    let run = || {
        mp::run(4, |comm| {
            let r = hpcc::hpl::run(
                comm,
                &hpcc::hpl::HplConfig {
                    n: 64,
                    nb: 8,
                    ..hpcc::hpl::HplConfig::default()
                },
            );
            r.residual
        })[0]
    };
    assert_eq!(
        run(),
        run(),
        "HPL residual must be bit-identical across runs"
    );
}
