//! Regeneration of every figure and table in the paper's evaluation.
//!
//! | id | paper content | projection of |
//! |----|----|----|
//! | table1, table2 | architecture tables | `machines::tables` (no records) |
//! | fig01-fig04 | random-ring / STREAM balance vs HPL | every point of the HPCC sweep ([`balance_figures`]) |
//! | fig05, table3 | HPL-normalised benchmark comparison | the last point of the five paper systems' HPCC sweeps ([`kiviat_rows_from`]) |
//! | fig06-fig15 | IMB collectives / transfers at 1 MB | the IMB sweep, one benchmark each (`IMB_FIGURES`) |
//!
//! [`paper_records`] builds the one record set all of these read: every
//! `(workload, machine, procs, bytes)` cell priced once through the
//! workload registry ([`crate::registry`]), or taken from records the
//! caller already has. [`figures_from`] and [`tables_from`] project it
//! and price nothing. The per-figure entry points (`fig06(&cfg)`,
//! `hpcc_sweeps(&cfg)`, ...) price just their own cells and project
//! those — convenient for one figure, wasteful for several, which is what
//! [`crate::output`] and the `_from` forms are for. The high-rank
//! extension figures at the end keep their own [`harness::RunPlan`]s.

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
/// from 4, plus the odd installation endpoints the paper reports (576 on
/// the SX-8, 2024-like multi-box sizes on the Altix).
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
/// at `imb_bytes` over [`imb_machines`] x [`imb_grid`].
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

/// The machine variants plotted in the IMB figures (the five systems,
/// with the Cray X1 in both MSP and SSP modes, as in the paper's plots).
fn imb_machines() -> Vec<Machine> {
    vec![
        systems::altix_bx2(),
        systems::cray_x1_msp(),
        systems::cray_x1_ssp(),
        systems::cray_opteron(),
        systems::dell_xeon(),
        systems::nec_sx8(),
    ]
}

/// Whether `r` is the simulated record of grid point `(m, p, bytes)`.
fn at(r: &Record, m: &Machine, p: usize, bytes: Option<u64>) -> bool {
    r.mode == Mode::Simulated && r.machine == m.name && r.procs == p && r.bytes == bytes
}

/// Prices one cell through the registry. A cell its workload does not
/// admit has no records, as in a [`harness::RunPlan`].
fn price(reg: &Registry, name: &str, m: &Machine, p: usize, bytes: Option<u64>) -> Vec<Record> {
    let workload = reg.get(name).expect("figures name registry entries");
    workload
        .run(Mode::Simulated, &Runner::standard(), Some(m), p, bytes)
        .unwrap_or_default()
}

/// The HPCC half of the record set: every component on every machine
/// variant of Figs. 1-4 (including the Altix NUMALINK3 configuration) at
/// every point of its [`hpcc_grid`]. Fig. 5 and Table 3 read the last
/// point of the five paper systems out of the same records. A component
/// `known` holds at a point (a run's first record carries its workload's
/// name) is taken from there, any other is priced now.
fn hpcc_records(reg: &Registry, cfg: &FigureConfig, known: &[Record]) -> Vec<Record> {
    let mut out = Vec::new();
    for m in systems::all_variants() {
        for p in hpcc_grid(&m, cfg.max_procs) {
            let first = out.len();
            let here = |r: &&Record| r.suite == Suite::Hpcc && at(r, &m, p, None);
            out.extend(known.iter().filter(here).copied());
            for name in crate::registry::hpcc_names() {
                if !out[first..].iter().any(|r| r.benchmark == name) {
                    out.extend(price(reg, name, &m, p, None));
                }
            }
        }
    }
    out
}

/// The IMB half of the record set: each of `figures`' benchmarks on
/// every [`imb_machines`] variant at every point of its [`imb_grid`],
/// taken from `known` where it holds the cell and priced otherwise.
fn imb_records(
    reg: &Registry,
    cfg: &FigureConfig,
    figures: &[ImbFigure],
    known: &[Record],
) -> Vec<Record> {
    let mut out = Vec::new();
    for &(_, benchmark, _) in figures {
        let bytes = benchmark.sized().then_some(cfg.imb_bytes);
        for m in imb_machines() {
            for p in imb_grid(&m, cfg.max_procs) {
                let name = benchmark.name();
                match known
                    .iter()
                    .find(|r| r.benchmark == name && at(r, &m, p, bytes))
                {
                    Some(r) => out.push(*r),
                    None => out.extend(price(reg, name, &m, p, bytes)),
                }
            }
        }
    }
    out
}

/// The one record set behind Table 3 and Figs. 1-15: every simulated
/// cell they read, each exactly once. Cells `known` already holds (a
/// campaign's records, say) are taken from it; every other cell is priced
/// through `reg`, so a partial `known` costs time, never a missing point.
/// Nothing outlives the call: asking again prices again.
pub fn paper_records(reg: &Registry, cfg: &FigureConfig, known: &[Record]) -> Vec<Record> {
    let mut set = hpcc_records(reg, cfg, known);
    set.extend(imb_records(reg, cfg, &IMB_FIGURES, known));
    set
}

/// One machine's HPCC sweep.
#[derive(Clone, Debug)]
pub struct HpccSweep {
    /// The machine.
    pub machine: Machine,
    /// Summaries at each grid point.
    pub rows: Vec<hpcc::HpccSummary>,
}

/// The HPCC sweeps in a record set laid out as [`paper_records`] lays it
/// out: per machine variant, one summary per run of HPCC records at one
/// processor count.
pub fn hpcc_sweeps_from(set: &[Record]) -> Vec<HpccSweep> {
    systems::all_variants()
        .into_iter()
        .map(|machine| {
            let mine: Vec<Record> = set
                .iter()
                .filter(|r| r.suite == Suite::Hpcc && r.machine == machine.name)
                .copied()
                .collect();
            let rows = mine
                .chunk_by(|a, b| a.procs == b.procs)
                .map(hpcc::HpccSummary::from_records)
                .collect();
            HpccSweep { machine, rows }
        })
        .collect()
}

/// Prices the HPCC model sweep of Figs. 1-5 and Table 3.
pub fn hpcc_sweeps(cfg: &FigureConfig) -> Vec<HpccSweep> {
    hpcc_sweeps_from(&hpcc_records(&crate::registry(), cfg, &[]))
}

/// Figs. 1-4 — accumulated random-ring bandwidth and EP-STREAM copy, and
/// their ratios to HPL, versus HPL performance — one series per sweep.
pub fn balance_figures(sweeps: &[HpccSweep]) -> Vec<Figure> {
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

/// [`kiviat_rows_from`] a freshly priced sweep.
pub fn kiviat_rows(cfg: &FigureConfig) -> Vec<ratios::KiviatRow> {
    kiviat_rows_from(&hpcc_sweeps(cfg))
}

/// Fig. 5: all benchmarks normalised with the HPL value, column maxima
/// scaled to 1.
pub fn fig05_from(rows: &[ratios::KiviatRow]) -> Table {
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
pub fn table3_from(rows: &[ratios::KiviatRow]) -> Table {
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

/// [`fig05_from`] a freshly priced sweep.
pub fn fig05(cfg: &FigureConfig) -> Table {
    fig05_from(&kiviat_rows(cfg))
}

/// [`table3_from`] a freshly priced sweep.
pub fn table3(cfg: &FigureConfig) -> Table {
    table3_from(&kiviat_rows(cfg))
}

/// Table 1: architecture parameters of the SGI Altix BX2.
pub fn table1() -> Table {
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
pub fn table2() -> Table {
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

/// One of Figs. 6-15, pricing its own benchmark only.
fn imb_figure(figure: &ImbFigure, cfg: &FigureConfig) -> Figure {
    let set = imb_records(&crate::registry(), cfg, std::slice::from_ref(figure), &[]);
    imb_figure_from(figure, &set)
}

/// Fig. 6: execution time of the Barrier benchmark.
pub fn fig06(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[0], cfg)
}

/// Fig. 7: Allreduce, 1 MB.
pub fn fig07(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[1], cfg)
}

/// Fig. 8: Reduce, 1 MB.
pub fn fig08(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[2], cfg)
}

/// Fig. 9: Reduce_scatter, 1 MB.
pub fn fig09(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[3], cfg)
}

/// Fig. 10: Allgather, 1 MB.
pub fn fig10(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[4], cfg)
}

/// Fig. 11: Allgatherv, 1 MB.
pub fn fig11(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[5], cfg)
}

/// Fig. 12: AlltoAll, 1 MB.
pub fn fig12(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[6], cfg)
}

/// Fig. 13: Sendrecv bandwidth, 1 MB.
pub fn fig13(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[7], cfg)
}

/// Fig. 14: Exchange bandwidth, 1 MB.
pub fn fig14(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[8], cfg)
}

/// Fig. 15: Broadcast, 1 MB.
pub fn fig15(cfg: &FigureConfig) -> Figure {
    imb_figure(&IMB_FIGURES[9], cfg)
}

/// The high-rank scaling grid: the top three octaves below the
/// configured ceiling (e.g. 16384, 32768, 65536 for the default).
fn highrank_grid(cfg: &FigureConfig) -> Vec<usize> {
    let cap = cfg.highrank_procs.next_power_of_two().max(8);
    vec![cap / 4, cap / 2, cap]
}

/// High-rank figure: IMB collectives *virtually executed* at 16k-64k
/// cooperative ranks on the exascale extension model. Every point is
/// the real benchmark code running as resumable rank tasks with the
/// communication priced by virtual clocks — worlds this size are
/// impossible with one OS thread per rank. One series per collective.
pub fn fig_highrank_collectives(cfg: &FigureConfig) -> Figure {
    let reg = crate::registry::registry();
    let machine = systems::exascale_cluster();
    let grid = highrank_grid(cfg);
    let benches = ["Barrier", "Bcast", "Allreduce"];
    let series = benches
        .iter()
        .map(|&name| {
            let plan = RunPlan {
                backend: harness::Backend::Local,
                modes: vec![Mode::Virtual],
                machines: vec![machine.clone()],
                procs: ProcGrid::List(grid.clone()),
                // Small payloads keep the footprint O(ranks), not
                // O(ranks x message): the figure is about scaling the
                // world, not the buffers.
                bytes: vec![1024],
                workloads: Some(vec![name]),
                runner: Runner::fixed(2),
            };
            let records = plan.execute(&reg);
            Series {
                name: name.to_string(),
                points: records.iter().map(|r| (r.procs as f64, r.value)).collect(),
            }
        })
        .collect();
    Figure {
        id: "fig_highrank_collectives",
        title: format!(
            "IMB collectives virtually executed at up to {} cooperative ranks ({}, 1 KB)",
            cfg.highrank_procs, machine.name
        ),
        xlabel: "processes".into(),
        ylabel: "time per call (us)".into(),
        series,
    }
}

/// High-rank figure: G-FFT and G-PTRANS scaling on the exascale model
/// at the same 16k-64k rank axis. The dense kernels hold O(n^2 / p) or
/// n >= p^2 state per world, so these curves come from the calibrated
/// closed-form models (`Mode::Simulated`) rather than virtual
/// execution; the virtual G-FFT point at 4096 ranks lives in the hpcc
/// release-scale tests.
pub fn fig_highrank_hpcc(cfg: &FigureConfig) -> Figure {
    let reg = crate::registry::registry();
    let machine = systems::exascale_cluster();
    let grid = highrank_grid(cfg);
    let plan = RunPlan {
        backend: harness::Backend::Local,
        modes: vec![Mode::Simulated],
        machines: vec![machine.clone()],
        procs: ProcGrid::List(grid),
        bytes: vec![],
        workloads: Some(vec!["G-FFT", "G-PTRANS"]),
        runner: Runner::standard(),
    };
    let records = plan.execute(&reg);
    let series = ["G-FFT", "G-PTRANS"]
        .iter()
        .map(|&name| Series {
            name: name.to_string(),
            points: records
                .iter()
                .filter(|r| r.benchmark == name)
                .map(|r| (r.procs as f64, r.value))
                .collect(),
        })
        .collect();
    Figure {
        id: "fig_highrank_hpcc",
        title: format!(
            "G-FFT and G-PTRANS modelled at up to {} ranks ({})",
            cfg.highrank_procs, machine.name
        ),
        xlabel: "processes".into(),
        ylabel: "Gflop/s / GB/s (model)".into(),
        series,
    }
}

/// The high-rank scaling figures (cooperative-scheduler extension
/// study) — not part of the paper's own figure list.
pub fn highrank_figures(cfg: &FigureConfig) -> Vec<Figure> {
    vec![fig_highrank_collectives(cfg), fig_highrank_hpcc(cfg)]
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

/// [`figures_from`] a freshly priced record set.
pub fn all_figures(cfg: &FigureConfig) -> Vec<Figure> {
    figures_from(&paper_records(&crate::registry(), cfg, &[]))
}

/// [`tables_from`] a freshly priced HPCC sweep.
pub fn all_tables(cfg: &FigureConfig) -> Vec<Table> {
    tables_from(&hpcc_records(&crate::registry(), cfg, &[]))
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

    #[test]
    fn quick_figures_have_all_series() {
        let cfg = FigureConfig::quick();
        let by_number: [fn(&FigureConfig) -> Figure; 10] = [
            fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13, fig14, fig15,
        ];
        for (n, figure) in (6..).zip(by_number) {
            assert_eq!(figure(&cfg).id, format!("fig{n:02}"));
        }
        let f = fig12(&cfg);
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
        let cfg = FigureConfig::quick();
        let figures = balance_figures(&hpcc_sweeps(&cfg));
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

    #[test]
    fn highrank_figures_sweep_the_extension_model() {
        let cfg = FigureConfig::quick();
        let grid = highrank_grid(&cfg);
        assert_eq!(grid, vec![256, 512, 1024]);

        let coll = fig_highrank_collectives(&cfg);
        assert_eq!(coll.series.len(), 3, "Barrier, Bcast, Allreduce");
        for s in &coll.series {
            let xs: Vec<f64> = s.points.iter().map(|&(x, _)| x).collect();
            assert_eq!(xs, vec![256.0, 512.0, 1024.0], "{}", s.name);
            // Bigger worlds can't make a collective cheaper.
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{}: {:?}", s.name, s.points);
            }
        }

        let hpcc = fig_highrank_hpcc(&cfg);
        assert_eq!(hpcc.series.len(), 2, "G-FFT and G-PTRANS");
        for s in &hpcc.series {
            assert_eq!(s.points.len(), 3, "{}", s.name);
            for (_, y) in &s.points {
                assert!(*y > 0.0, "{}", s.name);
            }
        }
    }

    #[test]
    fn registry_routed_figures_match_direct_simulation() {
        let cfg = FigureConfig::quick();
        for (fig, bench) in [
            (fig12(&cfg), imb::Benchmark::Alltoall),
            (fig13(&cfg), imb::Benchmark::Sendrecv),
            (fig06(&cfg), imb::Benchmark::Barrier),
        ] {
            for s in &fig.series {
                let m = imb_machines()
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
        let cfg = FigureConfig::quick();
        for sw in &hpcc_sweeps(&cfg) {
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
        let t1 = table1();
        assert_eq!(t1.rows.len(), 9);
        let t2 = table2();
        assert_eq!(t2.rows.len(), 5);
        let cfg = FigureConfig::quick();
        let f5 = fig05(&cfg);
        assert_eq!(f5.rows.len(), 5);
        assert_eq!(f5.columns.len(), 9);
        let t3 = table3(&cfg);
        assert_eq!(t3.rows.len(), 8);
    }
}
