//! Output stage of the `campaign` binary: writes
//! every regenerated table and figure (CSV + SVG + combined markdown
//! report) into a directory. Every table and figure of the paper is a
//! projection of one record set, the records of [`figures::paper_plan`]:
//! [`write_all`] executes the plan, a campaign that has executed it
//! already hands its records to [`write_from`], and neither prices a
//! paper cell twice (Fig. 5 and Table 3 read the last points of the sweep
//! behind Figs. 1-4).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use harness::{Record, Registry};

use crate::extensions;
use crate::figures::{self, FigureConfig};

/// What [`write_all`] should produce.
#[derive(Clone, Debug)]
pub struct OutputConfig {
    /// Destination directory (created if missing).
    pub out_dir: PathBuf,
    /// Sweep scale.
    pub figures: FigureConfig,
    /// Also write the extension studies (message-size sweeps, one-sided
    /// schemes, future systems).
    pub with_extensions: bool,
    /// Print a one-line progress note per artefact.
    pub verbose: bool,
}

impl OutputConfig {
    /// Full paper-scale output into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> OutputConfig {
        OutputConfig {
            out_dir: dir.into(),
            figures: FigureConfig::default(),
            with_extensions: true,
            verbose: true,
        }
    }
}

/// Writes all tables, figures, extensions and the combined `report.md`,
/// pricing every cell of the paper plan once. Returns the path of the
/// written report.
pub fn write_all(cfg: &OutputConfig) -> io::Result<PathBuf> {
    write_with(&crate::registry(), cfg)
}

fn write_with(reg: &Registry, cfg: &OutputConfig) -> io::Result<PathBuf> {
    if cfg.verbose {
        println!(
            "pricing the paper plan (max_procs = {}) ...",
            cfg.figures.max_procs
        );
    }
    write_from(cfg, &figures::paper_plan(&cfg.figures).execute(reg))
}

/// [`write_all`] out of `set`, the records of
/// [`figures::paper_plan`]`(&cfg.figures)`: the tables and figures are
/// projections of it and price nothing, and only the extension studies,
/// which are not the paper, run plans of their own.
pub fn write_from(cfg: &OutputConfig, set: &[Record]) -> io::Result<PathBuf> {
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
    for fig in figures::figures_from(set) {
        write_figure(&cfg.out_dir, &fig)?;
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

    if cfg.with_extensions {
        if cfg.verbose {
            println!("writing extension studies (the paper's announced future work) ...");
        }
        let mut ext_figs = extensions::all_msgsize_figures(&cfg.figures);
        ext_figs.extend(extensions::all_onesided_figures());
        ext_figs.push(extensions::future_systems_figure(&cfg.figures));
        ext_figs.extend(figures::highrank_figures(&cfg.figures));
        for fig in ext_figs {
            write_figure(&cfg.out_dir, &fig)?;
            report.push_str(&fig.to_markdown());
            report.push('\n');
            if cfg.verbose {
                println!("  {}", fig.id);
            }
        }
    }

    let report_path = cfg.out_dir.join("report.md");
    fs::write(&report_path, &report)?;
    Ok(report_path)
}

fn write_figure(dir: &Path, fig: &crate::Figure) -> io::Result<()> {
    fs::write(dir.join(format!("{}.csv", fig.id)), fig.to_csv())?;
    fs::write(dir.join(format!("{}.svg", fig.id)), crate::svg::render(fig))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    use harness::{Mode, Runner, Workload};

    fn quick(dir: &Path) -> OutputConfig {
        OutputConfig {
            out_dir: dir.to_path_buf(),
            figures: FigureConfig::quick(),
            with_extensions: false,
            verbose: false,
        }
    }

    /// The whole tree is written from a registry whose every simulated
    /// entry counts its calls before handing over to the real one: each
    /// `(workload, machine, procs, bytes)` of the paper plan runs once per
    /// `write_all`, again on the next call (nothing is remembered between
    /// calls), and not at all when the caller brings the plan's records to
    /// `write_from`.
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

        write_with(&counting, &cfg).unwrap();
        let set = figures::paper_plan(&cfg.figures).execute(&real);
        let cells = set.iter().filter(|r| real.get(r.benchmark).is_some());
        assert_eq!(runs.lock().unwrap().len(), cells.count());
        assert!(all(1), "a cell was priced twice in one call");

        write_with(&counting, &cfg).unwrap();
        assert!(all(2), "the second call must price again");

        write_from(&cfg, &set).unwrap();
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
}
