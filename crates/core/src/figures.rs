//! Regeneration of every figure and table in the paper's evaluation.
//!
//! | id | paper content | projection of |
//! |----|----|----|
//! | table1, table2 | architecture tables | `machines::tables` (no records) |
//! | fig01-fig04 | random-ring / STREAM balance vs HPL | every point of the HPCC sweep (`balance_figures`) |
//! | fig05, table3 | HPL-normalised benchmark comparison | the last point of the five paper systems' HPCC sweeps ([`kiviat_rows_from`]) |
//! | fig06-fig15 | IMB collectives / transfers at 1 MB | the IMB sweep, one benchmark each (`IMB_FIGURES`) |
//!
//! [`paper_plan`] is the one statement of the cells all of these read.
//! Executing it through the workload registry
//! ([`crate::registry`](mod@crate::registry))
//! prices each cell once; [`figures_from`] and [`tables_from`] project
//! the records and price nothing. Nothing else prices a paper cell: one
//! figure is `figures_from(&paper_plan(&cfg).execute(&registry()))` and a
//! lookup by id. The extension studies, which are not the paper, are plans
//! of their own in [`crate::extensions`]; `price` prices both for
//! [`crate::output::write_all`], over one registry.

use harness::{MetricKind, Mode, ProcGrid, Record, Registry, RunPlan, Runner, Suite};
use machines::{systems, Machine};
use simnet::units::MIB;

use crate::ratios;
use crate::report::{figure_from_records, fmt_num, Figure, Series, Table};

/// Sweep scale configuration. The default regenerates the paper's full
/// processor ranges; tests use a smaller cap.
#[derive(Clone, Copy, Debug)]
pub struct FigureConfig {
    /// Upper bound on simulated CPUs (per machine, also capped by the
    /// installation size).
    pub max_procs: usize,
    /// IMB message size (the paper reports 1 MB = 2^20 bytes).
    pub imb_bytes: u64,
    /// Ceiling of the high-rank scaling figures (powers of two; the
    /// grid runs over the top three octaves below it). These sweeps run
    /// on the exascale extension model, far past any paper-era
    /// installation — the axis the cooperative rank scheduler opened.
    pub highrank_procs: usize,
}

impl Default for FigureConfig {
    fn default() -> FigureConfig {
        FigureConfig {
            max_procs: 2048,
            imb_bytes: MIB,
            highrank_procs: 65_536,
        }
    }
}

impl FigureConfig {
    /// A scaled-down configuration for fast tests.
    pub fn quick() -> FigureConfig {
        FigureConfig {
            max_procs: 16,
            imb_bytes: 64 * 1024,
            highrank_procs: 1024,
        }
    }
}

/// Processor grid for the HPCC balance sweeps (Figs. 1-4): powers of two
/// from 4, plus the SX-8's odd installation endpoint of 576 CPUs. A cap
/// below 4 leaves the one point `min(node CPUs, cap)`, at least 2.
fn hpcc_grid(m: &Machine, cap: usize) -> Vec<usize> {
    let limit = m.max_cpus.min(cap);
    let mut grid = Vec::new();
    let mut p = 4;
    while p <= limit {
        grid.push(p);
        p *= 2;
    }
    if m.max_cpus == 576 && limit >= 576 {
        grid.push(576);
    }
    if grid.is_empty() {
        grid.push(m.node.cpus.max(2).min(limit.max(2)));
    }
    grid
}

/// Processor grid for the IMB figures (Figs. 6-15): powers of two from 2.
fn imb_grid(m: &Machine, cap: usize) -> Vec<usize> {
    let limit = m.max_cpus.min(cap).min(512);
    let mut grid = Vec::new();
    let mut p = 2;
    while p <= limit {
        grid.push(p);
        p *= 2;
    }
    if m.max_cpus == 576 && cap >= 576 {
        grid.push(576);
    }
    grid
}

/// Figs. 1-4 as `(id, title, y label, y of a balance point)`; x is G-HPL.
type BalanceFigure = (
    &'static str,
    &'static str,
    &'static str,
    fn(&ratios::BalancePoint) -> f64,
);
const BALANCE_FIGURES: [BalanceFigure; 4] = [
    (
        "fig01",
        "Accumulated random ring bandwidth versus HPL performance",
        "Accumulated random ring bandwidth (GB/s)",
        |b| b.accum_ring_bw,
    ),
    (
        "fig02",
        "Accumulated random ring bandwidth ratio versus HPL performance",
        "Random ring bandwidth / HPL (B/kFlop)",
        |b| b.b_per_kflop,
    ),
    (
        "fig03",
        "Accumulated EP stream copy versus HPL performance",
        "Accumulated EP STREAM copy (GB/s)",
        |b| b.accum_stream,
    ),
    (
        "fig04",
        "Accumulated EP stream copy ratio versus HPL performance",
        "STREAM copy / HPL (B/F)",
        |b| b.stream_b_per_flop,
    ),
];

/// Figs. 6-15 as `(id, benchmark, title)`: every one plots its benchmark
/// at `imb_bytes` over [`imb_grid`] on every machine variant but the Altix
/// NUMALINK3 configuration (the five systems, with the Cray X1 in both MSP
/// and SSP modes, as in the paper's plots).
type ImbFigure = (&'static str, imb::Benchmark, &'static str);
const IMB_FIGURES: [ImbFigure; 10] = {
    use imb::Benchmark as B;
    [
        (
            "fig06",
            B::Barrier,
            "Execution time of Barrier Benchmark (us/call)",
        ),
        (
            "fig07",
            B::Allreduce,
            "Execution time of Allreduce Benchmark for 1 MB message (us/call)",
        ),
        (
            "fig08",
            B::Reduce,
            "Execution time of Reduction Benchmark, 1 MB message (us/call)",
        ),
        (
            "fig09",
            B::ReduceScatter,
            "Execution time of Reduce_scatter Benchmark, 1 MB message (us/call)",
        ),
        (
            "fig10",
            B::Allgather,
            "Execution time of Allgather Benchmark, 1 MB message (us/call)",
        ),
        (
            "fig11",
            B::Allgatherv,
            "Execution time of Allgatherv Benchmark, 1 MB message (us/call)",
        ),
        (
            "fig12",
            B::Alltoall,
            "Execution time of AlltoAll Benchmark, 1 MB message (us/call)",
        ),
        (
            "fig13",
            B::Sendrecv,
            "Bandwidth of Sendrecv Benchmark, 1 MB message (MB/s)",
        ),
        (
            "fig14",
            B::Exchange,
            "Bandwidth of Exchange Benchmark, 1 MB message (MB/s)",
        ),
        (
            "fig15",
            B::Bcast,
            "Execution time of Broadcast Benchmark, 1 MB message (us/call)",
        ),
    ]
};

/// The one statement of the paper's cells: every simulated
/// `(workload, machine, procs, bytes)` point Table 3 and Figs. 1-15 read,
/// each once, and no other. HPCC's 7 components run on every machine
/// variant of Figs. 1-4 (the Altix NUMALINK3 configuration included) at
/// powers of two from 4; Fig. 5 and Table 3 read the last point of the
/// five paper systems out of the same records. The ten benchmarks of
/// Figs. 6-15 run on the other six variants at powers of two from 2 up to
/// 512, at `imb_bytes`. The SX-8 adds its 576 CPUs to both grids.
/// [`figures_from`] and [`tables_from`] project what the plan yields.
pub fn paper_plan(cfg: &FigureConfig) -> RunPlan {
    let cap = cfg.max_procs;
    let nl3 = systems::altix_nl3().name;
    let mut workloads = crate::registry::hpcc_names();
    workloads.extend(
        IMB_FIGURES
            .iter()
            .map(|&(_, benchmark, _)| benchmark.name()),
    );
    RunPlan {
        modes: vec![Mode::Simulated],
        machines: systems::all_variants(),
        procs: ProcGrid::per_workload(move |m, meta| {
            let m = m.expect("simulated grids resolve per machine");
            match meta.suite {
                Suite::Hpcc => hpcc_grid(m, cap),
                Suite::Imb if m.name == nl3 => Vec::new(),
                Suite::Imb => imb_grid(m, cap),
            }
        }),
        bytes: vec![cfg.imb_bytes],
        workloads: Some(workloads),
        runner: Runner::standard(),
    }
}

/// One machine's HPCC sweep.
#[derive(Clone, Debug)]
pub struct HpccSweep {
    /// The machine.
    pub machine: Machine,
    /// Summaries at each grid point.
    pub rows: Vec<hpcc::HpccSummary>,
}

/// The HPCC sweeps in a record set: per machine variant, one summary per
/// processor count, in ascending order, whatever order the set is in.
pub fn hpcc_sweeps_from(set: &[Record]) -> Vec<HpccSweep> {
    systems::all_variants()
        .into_iter()
        .map(|machine| {
            let mut mine: Vec<Record> = set
                .iter()
                .filter(|r| r.suite == Suite::Hpcc && r.machine == machine.name)
                .copied()
                .collect();
            mine.sort_by_key(|r| r.procs);
            let rows = mine
                .chunk_by(|a, b| a.procs == b.procs)
                .map(hpcc::HpccSummary::from_records)
                .collect();
            HpccSweep { machine, rows }
        })
        .collect()
}

/// Figs. 1-4 — accumulated random-ring bandwidth and EP-STREAM copy, and
/// their ratios to HPL, versus HPL performance — one series per sweep.
pub(crate) fn balance_figures(sweeps: &[HpccSweep]) -> Vec<Figure> {
    BALANCE_FIGURES
        .iter()
        .map(|&(id, title, ylabel, y)| Figure {
            id,
            title: title.to_string(),
            xlabel: "HPL Gflop/s".into(),
            ylabel: ylabel.into(),
            series: sweeps
                .iter()
                .map(|sw| Series {
                    name: sw.machine.name.to_string(),
                    points: sw
                        .rows
                        .iter()
                        .map(|s| {
                            let b = ratios::balance_point(s);
                            (b.hpl_gflops, y(&b))
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect()
}

/// The Kiviat rows behind Fig. 5 / Table 3: each of the five paper
/// systems at its largest configuration, the last point of its sweep.
///
/// As in the paper, "the global ratios of systems with over 1 TFlop/s
/// HPL performance are plotted" — the globally-measured columns (G-FFTE,
/// G-Ptrans, G-RandomAccess) are blanked for smaller systems, whose
/// easier scaling would otherwise give them "an undue advantage".
pub fn kiviat_rows_from(sweeps: &[HpccSweep]) -> Vec<ratios::KiviatRow> {
    systems::paper_systems()
        .iter()
        .map(|m| {
            let largest = sweeps
                .iter()
                .find(|sw| sw.machine.name == m.name)
                .and_then(|sw| sw.rows.last())
                .expect("the sweeps cover every paper system");
            let mut row = ratios::kiviat_row(m, largest);
            if row.values[0] < 1.0 {
                // values[0] is G-HPL in TF/s; columns 2/3/7 are the
                // global-measurement ratios.
                for i in [2, 3, 7] {
                    row.values[i] = 0.0;
                }
            }
            row
        })
        .collect()
}

/// Fig. 5: all benchmarks normalised with the HPL value, column maxima
/// scaled to 1.
pub(crate) fn fig05_from(rows: &[ratios::KiviatRow]) -> Table {
    let (rows, _) = ratios::normalise(rows);
    Table {
        id: "fig05",
        title: "Comparison of all the benchmarks normalized with HPL value".into(),
        columns: std::iter::once("Machine".to_string())
            .chain(ratios::KIVIAT_COLUMNS.iter().map(|c| c.to_string()))
            .collect(),
        rows: rows
            .iter()
            .map(|r| {
                std::iter::once(r.machine.clone())
                    .chain(r.values.iter().map(|v| fmt_num(*v)))
                    .collect()
            })
            .collect(),
    }
}

/// Table 3: the per-column maxima behind Fig. 5.
pub(crate) fn table3_from(rows: &[ratios::KiviatRow]) -> Table {
    let (_, maxima) = ratios::normalise(rows);
    Table {
        id: "table3",
        title: "Ratio values corresponding to 1 in Fig. 5".into(),
        columns: vec!["Ratio".into(), "Maximum value".into()],
        rows: ratios::KIVIAT_COLUMNS
            .iter()
            .zip(maxima.iter())
            .map(|(c, v)| vec![c.to_string(), fmt_num(*v)])
            .collect(),
    }
}

/// Table 1: architecture parameters of the SGI Altix BX2.
pub(crate) fn table1() -> Table {
    Table {
        id: "table1",
        title: "Architecture parameters of SGI Altix BX2".into(),
        columns: vec!["Characteristics".into(), "SGI Altix BX2".into()],
        rows: machines::tables::TABLE1
            .iter()
            .map(|r| vec![r.characteristic.to_string(), r.value.to_string()])
            .collect(),
    }
}

/// Table 2: system characteristics of the five computing platforms.
pub(crate) fn table2() -> Table {
    Table {
        id: "table2",
        title: "System characteristics of the five computing platforms".into(),
        columns: [
            "Platform",
            "Type",
            "CPUs/node",
            "Clock (GHz)",
            "Peak/node (Gflop/s)",
            "Network",
            "Network topology",
            "Operating system",
            "Location",
            "Processor vendor",
            "System vendor",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows: machines::tables::table2()
            .iter()
            .map(|r| {
                vec![
                    r.platform.to_string(),
                    format!("{:?}", r.class),
                    r.cpus_per_node.to_string(),
                    fmt_num(r.clock_ghz),
                    fmt_num(r.peak_per_node),
                    r.network.to_string(),
                    r.network_topology.to_string(),
                    r.operating_system.to_string(),
                    r.location.to_string(),
                    r.processor_vendor.to_string(),
                    r.system_vendor.to_string(),
                ]
            })
            .collect(),
    }
}

/// One of Figs. 6-15 out of a record set: a series per machine, in the
/// set's order, of its benchmark's records.
fn imb_figure_from(&(id, benchmark, title): &ImbFigure, set: &[Record]) -> Figure {
    let records: Vec<Record> = set
        .iter()
        .filter(|r| r.benchmark == benchmark.name())
        .copied()
        .collect();
    let ylabel = match benchmark.metric() {
        MetricKind::BandwidthMBs => "bandwidth (MB/s)",
        _ => "time per call (us)",
    };
    // For TimeUs records `value` is t_max; for bandwidth records it is the
    // MB/s figure itself — so the projection is uniform.
    figure_from_records(id, title, "processes", ylabel, &records, |r| r.value)
}

/// What [`crate::output::write_all`] writes, each cell priced once: the
/// records of [`paper_plan`] and, with `ext`, the extension figures.
pub(crate) fn price(cfg: &FigureConfig, ext: bool) -> (Vec<Record>, Vec<Figure>) {
    price_over(&crate::registry(), cfg, ext)
}

/// [`price`] over `reg`.
pub(crate) fn price_over(
    reg: &Registry,
    cfg: &FigureConfig,
    ext: bool,
) -> (Vec<Record>, Vec<Figure>) {
    let figures = ext.then(|| crate::extensions::execute(cfg, reg).1);
    (paper_plan(cfg).execute(reg), figures.unwrap_or_default())
}

/// Every figure of the paper, in order, out of a record set.
pub fn figures_from(set: &[Record]) -> Vec<Figure> {
    let mut figures = balance_figures(&hpcc_sweeps_from(set));
    figures.extend(IMB_FIGURES.iter().map(|f| imb_figure_from(f, set)));
    figures
}

/// Every table of the paper (Fig. 5 is tabular here), in order, out of a
/// record set.
pub fn tables_from(set: &[Record]) -> Vec<Table> {
    let rows = kiviat_rows_from(&hpcc_sweeps_from(set));
    vec![table1(), table2(), fig05_from(&rows), table3_from(&rows)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_paper_ranges() {
        let sx8 = systems::nec_sx8();
        let cfg = FigureConfig::default();
        assert_eq!(*imb_grid(&sx8, cfg.max_procs).last().unwrap(), 576);
        let x1 = systems::cray_x1_msp();
        assert_eq!(*imb_grid(&x1, cfg.max_procs).last().unwrap(), 16);
        let altix = systems::altix_bx2();
        assert!(hpcc_grid(&altix, cfg.max_procs).contains(&2048));
    }

    /// The paper plan at [`FigureConfig::quick`], priced.
    fn quick_set() -> Vec<Record> {
        paper_plan(&FigureConfig::quick()).execute(&crate::registry())
    }

    #[test]
    fn quick_figures_have_all_series() {
        let figures = figures_from(&quick_set());
        let ids: Vec<&str> = figures.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            [
                "fig01", "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10",
                "fig11", "fig12", "fig13", "fig14", "fig15"
            ]
        );
        let f = figures.iter().find(|f| f.id == "fig12").unwrap();
        assert_eq!(f.series.len(), 6);
        for s in &f.series {
            assert!(!s.points.is_empty(), "{} has no points", s.name);
            for (_, y) in &s.points {
                assert!(*y > 0.0);
            }
        }
    }

    #[test]
    fn quick_balance_figures_are_consistent() {
        let figures = balance_figures(&hpcc_sweeps_from(&quick_set()));
        let (f1, f2) = (&figures[0], &figures[1]);
        assert_eq!((f1.id, f2.id), ("fig01", "fig02"));
        assert_eq!(f1.series.len(), 7, "five systems + X1 SSP + Altix NL3");
        // fig2 = fig1 / HPL * 1000 pointwise.
        for (s1, s2) in f1.series.iter().zip(&f2.series) {
            for ((x1, y1), (x2, y2)) in s1.points.iter().zip(&s2.points) {
                assert_eq!(x1, x2);
                let expect = y1 / x1 * 1000.0;
                assert!((y2 - expect).abs() < 1e-6 * expect, "{} vs {expect}", y2);
            }
        }
    }

    /// `RunPlan` yields records workload by workload; the HPCC projections
    /// group them by machine and processor count, so any order of the
    /// same set gives the same tables and balance figures.
    #[test]
    fn hpcc_projections_ignore_record_order() {
        let set = quick_set();
        let mut reversed = set.clone();
        reversed.reverse();
        let csv = |set: &[Record]| {
            let mut out: Vec<String> = tables_from(set).iter().map(Table::to_csv).collect();
            let sweeps = hpcc_sweeps_from(set);
            out.extend(balance_figures(&sweeps).iter().map(Figure::to_csv));
            out
        };
        assert_eq!(csv(&set), csv(&reversed));
    }

    #[test]
    fn registry_routed_figures_match_direct_simulation() {
        let cfg = FigureConfig::quick();
        let figures = figures_from(&quick_set());
        for (id, bench) in [
            ("fig12", imb::Benchmark::Alltoall),
            ("fig13", imb::Benchmark::Sendrecv),
            ("fig06", imb::Benchmark::Barrier),
        ] {
            let fig = figures.iter().find(|f| f.id == id).unwrap();
            for s in &fig.series {
                let m = systems::all_variants()
                    .into_iter()
                    .find(|m| m.name == s.name)
                    .unwrap();
                for (x, y) in &s.points {
                    let bytes = if bench.sized() { cfg.imb_bytes } else { 0 };
                    let direct = imb::sim::simulate(&m, bench, *x as usize, bytes);
                    assert_eq!(*y, direct.value, "{} {} p={}", fig.id, s.name, x);
                }
            }
        }
    }

    #[test]
    fn plan_driven_sweeps_match_direct_models() {
        for sw in &hpcc_sweeps_from(&quick_set()) {
            for row in &sw.rows {
                let direct = hpcc::sim::summary(&sw.machine, row.cpus);
                assert_eq!(row.ghpl, direct.ghpl, "{} p={}", sw.machine.name, row.cpus);
                assert_eq!(row.stream_copy, direct.stream_copy);
                assert_eq!(row.ring_bw, direct.ring_bw);
            }
        }
    }

    #[test]
    fn tables_render() {
        let tables = tables_from(&quick_set());
        let ids: Vec<&str> = tables.iter().map(|t| t.id).collect();
        assert_eq!(ids, ["table1", "table2", "fig05", "table3"]);
        assert_eq!(tables[0].rows.len(), 9);
        assert_eq!(tables[1].rows.len(), 5);
        assert_eq!(tables[2].rows.len(), 5);
        assert_eq!(tables[2].columns.len(), 9);
        assert_eq!(tables[3].rows.len(), 8);
    }
}
