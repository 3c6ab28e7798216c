//! The paper's qualitative findings, asserted against the regenerated
//! figures — the reproduction bar: orderings, order-of-magnitude gaps
//! and crossovers, not absolute testbed numbers.

use hpcbench::figures::{self, FigureConfig};
use hpcbench::ratios;
use machines::systems;

fn cfg() -> FigureConfig {
    FigureConfig {
        max_procs: 16,
        imb_bytes: 1 << 20,
        ..FigureConfig::default()
    }
}

/// The paper plan at `cfg`, priced.
fn paper(cfg: &FigureConfig) -> Vec<harness::Record> {
    figures::paper_plan(cfg).execute(&hpcbench::registry())
}

/// Figure `id` of the paper at [`cfg`].
fn paper_figure(id: &str) -> hpcbench::Figure {
    let all = figures::figures_from(&paper(&cfg()));
    all.into_iter()
        .find(|f| f.id == id)
        .expect("a paper figure")
}

fn series_value(fig: &hpcbench::Figure, name_part: &str, x: f64) -> f64 {
    fig.series
        .iter()
        .find(|s| s.name.contains(name_part))
        .unwrap_or_else(|| panic!("series {name_part} missing"))
        .points
        .iter()
        .find(|p| p.0 == x)
        .unwrap_or_else(|| panic!("{name_part} has no point at {x}"))
        .1
}

/// Fig. 7/8: "performance of vector systems is an order of magnitude
/// better than scalar systems" on the 1 MB reductions.
#[test]
fn reductions_cluster_by_architecture() {
    for fig in ["fig07", "fig08"].map(paper_figure) {
        let p = 16.0;
        let sx8 = series_value(&fig, "NEC", p);
        let x1 = series_value(&fig, "X1 (MSP)", p);
        let worst_vector = sx8.max(x1);
        for scalar in ["BX2", "Opteron", "Xeon"] {
            let t = series_value(&fig, scalar, p);
            // Every scalar system behind every vector system; the SX-8
            // ahead of the scalar field by a large factor.
            assert!(
                t > 1.5 * worst_vector,
                "{}: {scalar} at {t} vs vector {worst_vector}",
                fig.id
            );
            assert!(t > 2.5 * sx8, "{}: {scalar} at {t} vs SX-8 {sx8}", fig.id);
        }
        // "More than one order of magnitude difference between the
        // fastest and slowest platforms" (Fig. 7).
        let opt = series_value(&fig, "Opteron", p);
        assert!(opt > 8.0 * sx8, "{}: spread {opt} vs {sx8}", fig.id);
        assert!(sx8 < x1, "{}: SX-8 must beat the X1", fig.id);
    }
}

/// Fig. 12's full ordering at 1 MB:
/// NEC SX-8 > Cray X1 > SGI Altix BX2 > Dell Xeon > Cray Opteron.
#[test]
fn alltoall_ordering_matches_fig12() {
    let fig = paper_figure("fig12");
    let p = 16.0;
    let order = ["NEC", "X1 (MSP)", "BX2", "Xeon", "Opteron"];
    let times: Vec<f64> = order.iter().map(|n| series_value(&fig, n, p)).collect();
    for w in times.windows(2) {
        assert!(w[0] < w[1], "fig12 ordering violated: {times:?}");
    }
}

/// Fig. 13: every system is fastest at 2 processes (shared memory), and
/// the NEC SX-8's 2-process Sendrecv is an order of magnitude above the
/// clusters'.
#[test]
fn sendrecv_shared_memory_peak() {
    let fig = paper_figure("fig13");
    for s in &fig.series {
        let at2 = s.points.first().expect("2-proc point").1;
        let best = s.points.iter().map(|p| p.1).fold(0.0, f64::max);
        assert!(
            at2 >= best * (1.0 - 1e-9),
            "{}: 2 procs must be fastest ({at2} vs {best})",
            s.name
        );
    }
    let sx8 = series_value(&fig, "NEC", 2.0);
    let xeon = series_value(&fig, "Xeon", 2.0);
    assert!(sx8 > 10.0 * xeon);
}

/// Fig. 14: "the second best system is the Xeon Cluster and its
/// performance is almost constant" once past the shared-memory point.
#[test]
fn exchange_xeon_is_flat() {
    let fig = paper_figure("fig14");
    let xeon: Vec<f64> = fig
        .series
        .iter()
        .find(|s| s.name.contains("Xeon"))
        .unwrap()
        .points
        .iter()
        .skip(1) // drop the 2-proc shared-memory point
        .map(|p| p.1)
        .collect();
    let (min, max) = xeon.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    assert!(max / min < 2.5, "Xeon Exchange not flat: {xeon:?}");
}

/// Fig. 15: the broadcast ranking "NEC SX-8, SGI Altix BX2, Cray X1,
/// Xeon Cluster and Cray Opteron Cluster" (best to worst). The model
/// reproduces the outer ranking exactly; BX2 and X1 swap in the middle
/// band at small processor counts (recorded in EXPERIMENTS.md), so the
/// middle pair is order-insensitive here.
#[test]
fn broadcast_ranking_matches_fig15() {
    let fig = paper_figure("fig15");
    let p = 16.0;
    let sx8 = series_value(&fig, "NEC", p);
    let bx2 = series_value(&fig, "BX2", p);
    let x1 = series_value(&fig, "X1 (MSP)", p);
    let xeon = series_value(&fig, "Xeon", p);
    let opt = series_value(&fig, "Opteron", p);
    assert!(sx8 < bx2.min(x1), "SX-8 best: {sx8}");
    assert!(
        bx2.max(x1) < xeon,
        "middle band beats the Xeon: {bx2}/{x1} vs {xeon}"
    );
    assert!(xeon < opt, "Opteron worst: {xeon} vs {opt}");
    // "The broadcast bandwidth of NEC SX-8 is more than an order of
    // magnitude higher than that of all other presented systems."
    assert!(opt > 10.0 * sx8);
}

/// Fig. 2's balance story at the paper's scales (the analytic HPL model
/// and ring simulation are cheap enough to run at full size):
/// * the Altix BX2's in-box ratio is far above the SX-8's;
/// * beyond one 512-CPU box it collapses below the SX-8 (the crossover);
/// * NUMALINK3 sits about 4x below NUMALINK4;
/// * the SX-8 curve is flat from 64 to 576 CPUs.
#[test]
fn fig2_balance_crossover_story() {
    let b_per_kflop = |m: &machines::Machine, p: usize| {
        let (ring_bw, _) = hpcc::sim::random_ring(m, p);
        let hpl = hpcc::sim::hpl(m, p);
        ring_bw * p as f64 / hpl * 1000.0
    };
    let bx2 = systems::altix_bx2();
    let nl3 = systems::altix_nl3();
    let sx8 = systems::nec_sx8();

    let bx2_box = b_per_kflop(&bx2, 512);
    let bx2_multi = b_per_kflop(&bx2, 2048);
    let sx8_mid = b_per_kflop(&sx8, 128);
    let sx8_big = b_per_kflop(&sx8, 576);
    let nl3_box = b_per_kflop(&nl3, 512);

    assert!(
        bx2_box > 2.0 * sx8_big,
        "in-box Altix above SX-8: {bx2_box} vs {sx8_big}"
    );
    assert!(
        bx2_multi < sx8_big,
        "multi-box Altix collapses below SX-8: {bx2_multi}"
    );
    assert!(
        bx2_box > 3.0 * nl3_box,
        "NUMALINK4 ~4x NUMALINK3: {bx2_box} vs {nl3_box}"
    );
    let flatness = sx8_mid.max(sx8_big) / sx8_mid.min(sx8_big);
    assert!(
        flatness < 1.5,
        "SX-8 curve must be flat: {sx8_mid} vs {sx8_big}"
    );
}

/// Fig. 4: "the Byte/Flop for NEC SX-8 is consistently above 2.67, for
/// SGI Altix it is above 0.36 and for the Cray Opteron between 0.84 and
/// 1.07" — checked as floors (and a loose ceiling for the Opteron).
#[test]
fn fig4_stream_balance_bands() {
    let stream_bf = |m: &machines::Machine, p: usize| {
        let hpl = hpcc::sim::hpl(m, p);
        m.node.stream_bw / 1e9 * p as f64 / hpl
    };
    for p in [16usize, 64] {
        assert!(stream_bf(&systems::nec_sx8(), p) > 2.67);
        assert!(stream_bf(&systems::altix_bx2(), p) > 0.36);
        let opt = stream_bf(&systems::cray_opteron(), p);
        assert!((0.8..2.0).contains(&opt), "Opteron B/F {opt}");
    }
}

/// Fig. 5 / Table 3: the normalised comparison marks the SX-8 best in the
/// memory-and-network columns (STREAM-copy ratio), as Section 4.1.2 says.
#[test]
fn fig5_sx8_wins_stream_column() {
    let sweeps = figures::hpcc_sweeps_from(&paper(&cfg()));
    let (rows, _) = ratios::normalise(&figures::kiviat_rows_from(&sweeps));
    let sx8 = rows.iter().find(|r| r.machine.contains("NEC")).unwrap();
    // Column 4 = G-StreamCopy/G-HPL.
    assert_eq!(sx8.values[4], 1.0, "SX-8 must top the STREAM/HPL column");
}

/// Tables render at full paper scale without panicking and with the
/// expected shapes (smoke test of the whole pipeline at default config,
/// kept at a size that stays fast in debug builds).
#[test]
fn quick_figure_pipeline_end_to_end() {
    let set = paper(&FigureConfig::quick());
    let figs = figures::figures_from(&set);
    assert_eq!(figs.len(), 14, "figs 1-4 and 6-15");
    for f in &figs {
        assert!(!f.series.is_empty(), "{} empty", f.id);
        let csv = f.to_csv();
        assert!(csv.lines().count() > f.series.len());
    }
    let tables = figures::tables_from(&set);
    assert_eq!(tables.len(), 4, "tables 1-3 plus fig5");
}
