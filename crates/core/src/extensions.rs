//! Extension studies beyond the paper's published figures: the two
//! follow-ups its conclusion announces — "study the performance as a
//! function of varying message sizes starting from 1 byte to 2 MB for all
//! 11 benchmarks" (`ext_size_*`) and "one-sided (GET/PUT) MPI
//! communication functions with three synchronization schemes"
//! (`ext_onesided_*`) — its follow-up systems (`ext_future_alltoall`), and
//! the high-rank axis the cooperative rank scheduler opened
//! (`fig_highrank_*`). Each study is a plan and a projection of that
//! plan's records.

use harness::{MetricKind, Mode, ProcGrid, Record, Registry, RunPlan, Runner};
use machines::systems;

use crate::figures::FigureConfig;
use crate::report::{figure_from_records, Figure, Series};

/// Prices each study's plan once over `reg`: their records (sizes,
/// follow-up systems, high-rank collectives, high-rank HPCC), and the 17
/// figures in report order. IMB-EXT has no registry entry yet, so the
/// one-sided figures call its virtual run directly.
pub fn execute(cfg: &FigureConfig, reg: &Registry) -> (Vec<Record>, Vec<Figure>) {
    let sizes = msgsize_plan(cfg).execute(reg);
    let future = future_plan(cfg).execute(reg);
    let collectives = highrank_plan(cfg, Mode::Virtual, COLLECTIVES).execute(reg);
    let hpcc = highrank_plan(cfg, Mode::Simulated, HPCC).execute(reg);
    let (top, machine) = (cfg.highrank_procs, systems::exascale_cluster().name);
    let mut figures = msgsize_figures(&sizes);
    figures.extend(imb::SyncScheme::ALL.map(onesided_figure));
    figures.push(figure_from_records(
        "ext_future_alltoall",
        "[extension] 1 MB Alltoall on the announced follow-up systems",
        "processes",
        "time per call (us)",
        &future,
        |r| r.t_max_us(),
    ));
    figures.push(highrank_figure(
        "fig_highrank_collectives",
        format!(
            "IMB collectives virtually executed at up to {top} cooperative ranks ({machine}, 1 KB)"
        ),
        "time per call (us)",
        COLLECTIVES,
        &collectives,
    ));
    figures.push(highrank_figure(
        "fig_highrank_hpcc",
        format!("G-FFT and G-PTRANS modelled at up to {top} ranks ({machine})"),
        "Gflop/s / GB/s (model)",
        HPCC,
        &hpcc,
    ));
    ([sizes, future, collectives, hpcc].concat(), figures)
}

/// The message-size grid of the planned study: 1 byte to 2 MB.
fn size_grid() -> Vec<u64> {
    let mut v = vec![1u64];
    let mut s = 4u64;
    while s <= 2 * 1024 * 1024 {
        v.push(s);
        s *= 4;
    }
    v.push(2 * 1024 * 1024);
    v.dedup();
    v
}

/// The sized IMB benchmarks: the "all 11 benchmarks" of the size study.
fn sized() -> impl Iterator<Item = imb::Benchmark> {
    imb::Benchmark::ALL.into_iter().filter(|b| b.sized())
}

/// The size study: every sized IMB benchmark over [`size_grid`] on every
/// machine variant, at one processor count per machine.
fn msgsize_plan(cfg: &FigureConfig) -> RunPlan {
    let cap = cfg.max_procs;
    RunPlan {
        modes: vec![Mode::Simulated],
        machines: systems::all_variants(),
        procs: ProcGrid::per_workload(move |m, meta| {
            let m = m.expect("simulated grids resolve per machine");
            vec![m.max_cpus.min(cap).min(64).max(meta.min_procs)]
        }),
        bytes: size_grid(),
        workloads: Some(sized().map(|b| b.name()).collect()),
        runner: Runner::standard(),
    }
}

/// One figure per sized benchmark out of the size study's records: a
/// series per machine, x = bytes, y = time (us) or bandwidth (MB/s).
fn msgsize_figures(set: &[Record]) -> Vec<Figure> {
    sized()
        .map(|benchmark| {
            let records: Vec<Record> = set
                .iter()
                .filter(|r| r.benchmark == benchmark.name())
                .copied()
                .collect();
            // The plan yields each machine's records together, smallest
            // size first.
            let series = records
                .chunk_by(|a, b| a.machine == b.machine)
                .map(|run| Series {
                    name: format!("{} (p={})", run[0].machine, run[0].procs),
                    points: run
                        .iter()
                        .map(|r| {
                            let y = match benchmark.metric() {
                                MetricKind::BandwidthMBs => r.bandwidth_mbs().unwrap_or(0.0),
                                _ => r.t_max_us(),
                            };
                            (r.bytes.unwrap_or(0) as f64, y)
                        })
                        .collect(),
                })
                .collect();
            Figure {
                id: msgsize_id(benchmark),
                title: format!("[extension] {benchmark} versus message size (1 B .. 2 MB)"),
                xlabel: "message bytes".into(),
                ylabel: match benchmark.metric() {
                    MetricKind::BandwidthMBs => "bandwidth (MB/s)".into(),
                    _ => "time per call (us)".into(),
                },
                series,
            }
        })
        .collect()
}

fn msgsize_id(benchmark: imb::Benchmark) -> &'static str {
    use imb::Benchmark as B;
    match benchmark {
        B::PingPong => "ext_size_pingpong",
        B::PingPing => "ext_size_pingping",
        B::Sendrecv => "ext_size_sendrecv",
        B::Exchange => "ext_size_exchange",
        B::Barrier => "ext_size_barrier",
        B::Bcast => "ext_size_bcast",
        B::Allgather => "ext_size_allgather",
        B::Allgatherv => "ext_size_allgatherv",
        B::Alltoall => "ext_size_alltoall",
        B::Reduce => "ext_size_reduce",
        B::Allreduce => "ext_size_allreduce",
        B::ReduceScatter => "ext_size_reduce_scatter",
    }
}

/// One-sided bandwidth versus message size for one synchronisation
/// scheme (Unidir_Put): series per machine, each point the epoch body
/// executed under virtual clocks with the standard runner's repetitions.
fn onesided_figure(scheme: imb::SyncScheme) -> Figure {
    let (grid, runner) = (size_grid(), Runner::standard());
    let series = systems::all_variants()
        .iter()
        .map(|m| Series {
            name: m.name.to_string(),
            points: grid
                .iter()
                .map(|&bytes| {
                    let put = imb::ExtBenchmark::UnidirPut;
                    let e = imb::ext::run_virtual(m, put, scheme, bytes, &runner);
                    (bytes as f64, e.mbs)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: match scheme {
            imb::SyncScheme::Fence => "ext_onesided_fence",
            imb::SyncScheme::Pscw => "ext_onesided_pscw",
            imb::SyncScheme::Lock => "ext_onesided_lock",
        },
        title: format!("[extension] one-sided Unidir_Put bandwidth, {scheme} synchronisation"),
        xlabel: "message bytes".into(),
        ylabel: "bandwidth (MB/s)".into(),
        series,
    }
}

/// Simulated 1 MB Alltoall across the conclusion's five announced
/// follow-up systems, with the NEC SX-8 as the reference winner of the
/// original study.
fn future_plan(cfg: &FigureConfig) -> RunPlan {
    let mut machines = systems::future_systems();
    machines.push(systems::nec_sx8());
    let cap = cfg.max_procs;
    RunPlan {
        modes: vec![Mode::Simulated],
        machines,
        procs: ProcGrid::per_workload(move |m, _| {
            let limit = m
                .expect("simulated grids resolve per machine")
                .max_cpus
                .min(cap)
                .min(512);
            std::iter::successors(Some(2), |p| Some(p * 2))
                .take_while(|&p| p <= limit)
                .collect()
        }),
        bytes: vec![cfg.imb_bytes],
        workloads: Some(vec![imb::Benchmark::Alltoall.name()]),
        runner: Runner::standard(),
    }
}

/// The high-rank collectives, *virtually executed*: the real benchmark
/// code as resumable rank tasks, priced by virtual clocks.
const COLLECTIVES: &[&str] = &["Barrier", "Bcast", "Allreduce"];

/// The high-rank HPCC components, from the closed-form models: the dense
/// kernels hold O(n^2 / p) or n >= p^2 state per world.
const HPCC: &[&str] = &["G-FFT", "G-PTRANS"];

/// A high-rank study on the exascale extension model over the top three
/// octaves below the ceiling (16384, 32768, 65536 by default), at 1 KiB so
/// that the footprint is O(ranks); the runner only matters to `Virtual`.
fn highrank_plan(cfg: &FigureConfig, mode: Mode, workloads: &[&'static str]) -> RunPlan {
    let cap = cfg.highrank_procs.next_power_of_two().max(8);
    RunPlan {
        modes: vec![mode],
        machines: vec![systems::exascale_cluster()],
        procs: ProcGrid::List(vec![cap / 4, cap / 2, cap]),
        bytes: vec![1024],
        workloads: Some(workloads.to_vec()),
        runner: Runner::fixed(2),
    }
}

/// A high-rank figure out of its study's records: one series per name in
/// `names`, x = processes, y = the record's value.
fn highrank_figure(
    id: &'static str,
    title: String,
    ylabel: &str,
    names: &[&str],
    set: &[Record],
) -> Figure {
    Figure {
        id,
        title,
        xlabel: "processes".into(),
        ylabel: ylabel.into(),
        series: names
            .iter()
            .map(|&name| Series {
                name: name.to_string(),
                points: set
                    .iter()
                    .filter(|r| r.benchmark == name)
                    .map(|r| (r.procs as f64, r.value))
                    .collect(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// Every extension study at [`FigureConfig::quick`], priced once for
    /// all the tests below.
    fn quick() -> &'static (Vec<Record>, Vec<Figure>) {
        static RUN: OnceLock<(Vec<Record>, Vec<Figure>)> = OnceLock::new();
        RUN.get_or_init(|| execute(&FigureConfig::quick(), &crate::registry()))
    }

    fn figure(id: &str) -> &'static Figure {
        quick().1.iter().find(|f| f.id == id).expect(id)
    }

    #[test]
    fn size_grid_spans_1b_to_2mb() {
        let g = size_grid();
        assert_eq!(g[0], 1);
        assert_eq!(*g.last().unwrap(), 2 * 1024 * 1024);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn msgsize_sweep_is_monotone_in_time() {
        for s in &figure("ext_size_allreduce").series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "{}: {last} !> {first}", s.name);
        }
    }

    #[test]
    fn bandwidth_sweeps_saturate_upward() {
        for s in &figure("ext_size_sendrecv").series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "{}: bandwidth should grow with size", s.name);
        }
    }

    #[test]
    fn onesided_figures_cover_all_schemes() {
        let figs: Vec<&Figure> = quick()
            .1
            .iter()
            .filter(|f| f.id.starts_with("ext_onesided_"))
            .collect();
        assert_eq!(figs.len(), 3);
        for f in &figs {
            assert_eq!(f.series.len(), 7);
            for s in &f.series {
                assert!(s.points.iter().all(|p| p.1 > 0.0));
            }
        }
    }

    #[test]
    fn eleven_sized_benchmarks_swept() {
        let swept = quick().1.iter().filter(|f| f.id.starts_with("ext_size_"));
        assert_eq!(swept.count(), 11, "all 11 sized benchmarks");
    }

    #[test]
    fn future_figure_has_six_series() {
        let fig = figure("ext_future_alltoall");
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert!(!s.points.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn gige_cluster_is_slowest_followup() {
        let fig = figure("ext_future_alltoall");
        let at16 = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.name.contains(name))
                .and_then(|s| s.points.iter().find(|p| p.0 == 16.0))
                .map(|p| p.1)
        };
        let gige = at16("GigE").expect("gige point");
        for other in ["Blue Gene", "XT4", "POWER5"] {
            if let Some(t) = at16(other) {
                assert!(gige > t, "GigE {gige} vs {other} {t}");
            }
        }
    }

    #[test]
    fn highrank_figures_sweep_the_extension_model() {
        let plan = highrank_plan(&FigureConfig::quick(), Mode::Virtual, COLLECTIVES);
        assert!(matches!(plan.procs, ProcGrid::List(ref grid) if *grid == [256, 512, 1024]));

        let coll = figure("fig_highrank_collectives");
        assert_eq!(coll.series.len(), 3, "Barrier, Bcast, Allreduce");
        for s in &coll.series {
            let xs: Vec<f64> = s.points.iter().map(|&(x, _)| x).collect();
            assert_eq!(xs, vec![256.0, 512.0, 1024.0], "{}", s.name);
            // Bigger worlds can't make a collective cheaper.
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{}: {:?}", s.name, s.points);
            }
        }

        let hpcc = figure("fig_highrank_hpcc");
        assert_eq!(hpcc.series.len(), 2, "G-FFT and G-PTRANS");
        for s in &hpcc.series {
            assert_eq!(s.points.len(), 3, "{}", s.name);
            for (_, y) in &s.points {
                assert!(*y > 0.0, "{}", s.name);
            }
        }
    }
}
