//! Extension studies beyond the paper's published figures — the two
//! follow-ups its conclusion announces:
//!
//! * "study the performance as a function of varying message sizes
//!   starting from 1 byte to 2 MB for all 11 benchmarks"
//!   ([`msgsize_figure`], [`all_msgsize_figures`]);
//! * "one-sided (GET/PUT) MPI communication functions with three
//!   synchronization schemes" ([`onesided_figure`],
//!   [`all_onesided_figures`]).
//!
//! Output ids are prefixed `ext_` to keep them distinct from the paper's
//! own figures.

use harness::{MetricKind, Mode, ProcGrid, RunPlan, Runner};
use machines::systems;

use crate::figures::FigureConfig;
use crate::report::{figure_from_records, Figure, Series};

/// The message-size grid of the planned study: 1 byte to 2 MB.
pub(crate) fn size_grid() -> Vec<u64> {
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

/// Message-size sweep for one sized IMB benchmark at a fixed processor
/// count: series per machine, x = bytes, y = time (us) or bandwidth (MB/s).
pub(crate) fn msgsize_figure(benchmark: imb::Benchmark, cfg: &FigureConfig) -> Figure {
    let cap = cfg.max_procs;
    let plan = RunPlan {
        modes: vec![Mode::Simulated],
        machines: systems::all_variants(),
        procs: ProcGrid::per_workload(move |m, meta| {
            let m = m.expect("simulated grids resolve per machine");
            vec![m.max_cpus.min(cap).min(64).max(meta.min_procs)]
        }),
        bytes: size_grid(),
        workloads: Some(vec![benchmark.name()]),
        runner: Runner::standard(),
    };
    let records = plan.execute(&crate::registry());
    // The plan yields each machine's records together, smallest size first.
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

/// Size sweeps for every sized IMB benchmark (the "all 11 benchmarks"
/// study).
pub(crate) fn all_msgsize_figures(cfg: &FigureConfig) -> Vec<Figure> {
    imb::Benchmark::ALL
        .into_iter()
        .filter(|b| b.sized())
        .map(|b| msgsize_figure(b, cfg))
        .collect()
}

/// One-sided bandwidth versus message size for one synchronisation
/// scheme (Unidir_Put): series per machine, each point the epoch body
/// executed under virtual clocks with `runner`'s repetitions. The one study
/// priced outside the registry: IMB-EXT has no registry entry, so it calls
/// its virtual run directly until the one-sided benchmarks report through
/// `Runner`.
pub(crate) fn onesided_figure(scheme: imb::SyncScheme, runner: &Runner) -> Figure {
    let grid = size_grid();
    let series = systems::all_variants()
        .iter()
        .map(|m| Series {
            name: m.name.to_string(),
            points: grid
                .iter()
                .map(|&bytes| {
                    let put = imb::ExtBenchmark::UnidirPut;
                    let e = imb::ext::run_virtual(m, put, scheme, bytes, runner);
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

/// The one-sided study across all three synchronisation schemes.
pub(crate) fn all_onesided_figures(runner: &Runner) -> Vec<Figure> {
    imb::SyncScheme::ALL
        .into_iter()
        .map(|scheme| onesided_figure(scheme, runner))
        .collect()
}

/// Simulated 1 MB Alltoall across the conclusion's five announced
/// follow-up systems, with the NEC SX-8 as the reference winner of the
/// original study.
pub(crate) fn future_systems_figure(cfg: &FigureConfig) -> Figure {
    let mut machines = systems::future_systems();
    machines.push(systems::nec_sx8());
    let cap = cfg.max_procs;
    let plan = RunPlan {
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
    };
    figure_from_records(
        "ext_future_alltoall",
        "[extension] 1 MB Alltoall on the announced follow-up systems",
        "processes",
        "time per call (us)",
        &plan.execute(&crate::registry()),
        |r| r.t_max_us(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_grid_spans_1b_to_2mb() {
        let g = size_grid();
        assert_eq!(g[0], 1);
        assert_eq!(*g.last().unwrap(), 2 * 1024 * 1024);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn msgsize_sweep_is_monotone_in_time() {
        let cfg = FigureConfig::quick();
        let fig = msgsize_figure(imb::Benchmark::Allreduce, &cfg);
        for s in &fig.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "{}: {last} !> {first}", s.name);
        }
    }

    #[test]
    fn bandwidth_sweeps_saturate_upward() {
        let cfg = FigureConfig::quick();
        let fig = msgsize_figure(imb::Benchmark::Sendrecv, &cfg);
        for s in &fig.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "{}: bandwidth should grow with size", s.name);
        }
    }

    #[test]
    fn onesided_figures_cover_all_schemes() {
        let figs = all_onesided_figures(&Runner::smoke());
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
        let cfg = FigureConfig::quick();
        let figs = all_msgsize_figures(&cfg);
        assert_eq!(figs.len(), 11, "all 11 sized benchmarks");
    }

    #[test]
    fn future_figure_has_six_series() {
        let cfg = FigureConfig::quick();
        let fig = future_systems_figure(&cfg);
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert!(!s.points.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn gige_cluster_is_slowest_followup() {
        let cfg = FigureConfig::quick();
        let fig = future_systems_figure(&cfg);
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
}
