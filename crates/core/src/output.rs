//! Output stage of the `campaign` binary: writes every regenerated table
//! and figure (CSV + SVG + combined markdown report) into a directory, and
//! prices nothing. Every table and figure of the paper is a projection of
//! the records of [`figures::paper_plan`]; the extension figures come
//! projected by [`crate::extensions::execute`]. [`write_all`] prices both,
//! each cell once; a campaign that has priced them hands them to
//! [`write_from`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use harness::Record;

use crate::figures::{self, FigureConfig};
use crate::Figure;

/// What [`write_all`] should produce.
#[derive(Clone, Debug)]
pub struct OutputConfig {
    /// Destination directory (created if missing).
    pub out_dir: PathBuf,
    /// Sweep scale.
    pub figures: FigureConfig,
    /// Also write the extension studies (message-size sweeps, one-sided
    /// schemes, future systems, high-rank scaling).
    pub with_extensions: bool,
    /// Print a one-line progress note per artefact.
    pub verbose: bool,
}

/// Writes all tables, figures, extensions and the combined `report.md`,
/// pricing every cell of the paper plan, and of the extension studies when
/// asked for, once. Returns the path of the written report.
pub fn write_all(cfg: &OutputConfig) -> io::Result<PathBuf> {
    let (set, ext) = figures::price(&cfg.figures, cfg.with_extensions);
    write_from(cfg, &set, &ext)
}

/// [`write_all`] out of `set`, the records of
/// [`figures::paper_plan`]`(&cfg.figures)`, and `ext`, the extension
/// figures written after the paper's: nothing is priced.
pub fn write_from(cfg: &OutputConfig, set: &[Record], ext: &[Figure]) -> io::Result<PathBuf> {
    fs::create_dir_all(&cfg.out_dir)?;
    let mut report = String::from(
        "# Regenerated tables and figures\n\nSaini et al., *Performance evaluation of \
         supercomputers using HPCC and IMB Benchmarks* — simulated reproduction.\n\n",
    );

    if cfg.verbose {
        println!("writing tables ...");
    }
    for table in figures::tables_from(set) {
        fs::write(
            cfg.out_dir.join(format!("{}.csv", table.id)),
            table.to_csv(),
        )?;
        report.push_str(&table.to_markdown());
        report.push('\n');
        if cfg.verbose {
            println!("  {} ({} rows)", table.id, table.rows.len());
        }
    }

    if cfg.verbose {
        println!("writing figures ...");
    }
    for fig in figures::figures_from(set).iter().chain(ext) {
        write_figure(&cfg.out_dir, fig)?;
        report.push_str(&fig.to_markdown());
        report.push('\n');
        if cfg.verbose {
            let points: usize = fig.series.iter().map(|s| s.points.len()).sum();
            println!(
                "  {} ({} series, {points} points)",
                fig.id,
                fig.series.len()
            );
        }
    }

    let report_path = cfg.out_dir.join("report.md");
    fs::write(&report_path, &report)?;
    Ok(report_path)
}

fn write_figure(dir: &Path, fig: &Figure) -> io::Result<()> {
    fs::write(dir.join(format!("{}.csv", fig.id)), fig.to_csv())?;
    fs::write(dir.join(format!("{}.svg", fig.id)), crate::svg::render(fig))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    use harness::{Mode, Registry, Runner, Workload};

    fn quick(dir: &Path) -> OutputConfig {
        OutputConfig {
            out_dir: dir.to_path_buf(),
            figures: FigureConfig::quick(),
            with_extensions: false,
            verbose: false,
        }
    }

    /// The whole tree is written the way `write_all` writes it, from a
    /// registry whose every simulated entry counts its calls before
    /// handing over to the real one: each `(workload, machine, procs,
    /// bytes)` of the paper plan runs once per call, again on the next call
    /// (nothing is remembered between calls), and not at all when the
    /// caller brings the plan's records to `write_from`.
    #[test]
    fn every_cell_is_priced_once_per_call() {
        type Cell = (&'static str, &'static str, usize, Option<u64>);
        let real = Arc::new(crate::registry());
        let runs: Arc<Mutex<HashMap<Cell, usize>>> = Arc::default();
        let mut counting = Registry::new();
        for w in real.iter() {
            let (real, runs, name) = (Arc::clone(&real), Arc::clone(&runs), w.meta.name);
            counting.register(Workload::new(w.meta).simulated(move |m, p, bytes| {
                *runs
                    .lock()
                    .unwrap()
                    .entry((name, m.name, p, bytes))
                    .or_default() += 1;
                let entry = real.get(name).expect("same names");
                entry
                    .run(Mode::Simulated, &Runner::standard(), Some(m), p, bytes)
                    .expect("admitted once, admitted again")
            }));
        }
        let dir = std::env::temp_dir().join(format!("hpcbench-once-{}", std::process::id()));
        let cfg = quick(&dir);
        let all = |n: usize| runs.lock().unwrap().values().all(|&c| c == n);

        let write_all = || {
            let (set, ext) = figures::price_over(&counting, &cfg.figures, cfg.with_extensions);
            write_from(&cfg, &set, &ext).unwrap();
        };
        write_all();
        let set = figures::paper_plan(&cfg.figures).execute(&real);
        let cells = set.iter().filter(|r| real.get(r.benchmark).is_some());
        assert_eq!(runs.lock().unwrap().len(), cells.count());
        assert!(all(1), "a cell was priced twice in one call");

        write_all();
        assert!(all(2), "the second call must price again");

        write_from(&cfg, &set, &[]).unwrap();
        assert!(all(2), "a cell the caller brought was priced anyway");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_output_writes_report_and_core_artefacts() {
        let dir = std::env::temp_dir().join(format!("hpcbench-out-{}", std::process::id()));
        let report = write_all(&quick(&dir)).unwrap();
        assert!(report.ends_with("report.md"));
        let text = fs::read_to_string(&report).unwrap();
        assert!(text.contains("fig12"));
        for id in ["table1", "table2", "fig05", "table3", "fig06", "fig15"] {
            assert!(dir.join(format!("{id}.csv")).exists(), "{id}.csv missing");
        }
        assert!(dir.join("fig12.svg").exists());
        fs::remove_dir_all(&dir).ok();
    }

    /// With the extension studies, `write_all` writes the paper's files
    /// and the 17 extension figures, each as CSV and SVG, and nothing else.
    #[test]
    fn quick_output_writes_every_extension_figure() {
        let dir = std::env::temp_dir().join(format!("hpcbench-ext-{}", std::process::id()));
        write_all(&OutputConfig {
            with_extensions: true,
            ..quick(&dir)
        })
        .unwrap();
        let sizes = [
            "pingpong",
            "pingping",
            "sendrecv",
            "exchange",
            "bcast",
            "allgather",
            "allgatherv",
            "alltoall",
            "reduce",
            "allreduce",
            "reduce_scatter",
        ]
        .map(|b| format!("ext_size_{b}"));
        let schemes = ["fence", "pscw", "lock"].map(|s| format!("ext_onesided_{s}"));
        let others = [
            "ext_future_alltoall",
            "fig_highrank_collectives",
            "fig_highrank_hpcc",
        ];
        let paper = (1..=15).filter(|&n| n != 5).map(|n| format!("fig{n:02}"));
        let plotted = paper
            .chain(sizes)
            .chain(schemes)
            .chain(others.map(String::from));
        let mut want: Vec<String> = ["table1", "table2", "fig05", "table3"]
            .iter()
            .map(|id| format!("{id}.csv"))
            .chain(plotted.flat_map(|id| [format!("{id}.csv"), format!("{id}.svg")]))
            .chain(["report.md".to_string()])
            .collect();
        want.sort();
        let mut have: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        have.sort();
        assert_eq!(have, want);
        assert_eq!(
            have.len(),
            67,
            "33 paper files and 17 extension figures twice"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
