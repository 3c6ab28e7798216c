//! Figure/table data structures and report writers (CSV + markdown).

use std::fmt::Write as _;

use harness::Record;

/// One plotted series: a named list of (x, y) points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (usually a machine name).
    pub name: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure: the data behind one plot of the paper.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier ("fig06", "table3", ...).
    pub id: &'static str,
    /// Title, matching the paper's caption.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the figure as CSV: `series,x,y` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{x},{y}", csv_escape(&s.name));
            }
        }
        out
    }

    /// Renders the figure as a markdown table (x down, series across).
    pub fn to_markdown(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();

        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        let _ = writeln!(
            out,
            "| {} | {} |",
            self.xlabel,
            self.series
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(" | ")
        );
        let _ = writeln!(out, "|{}", "---|".repeat(self.series.len() + 1));
        for x in xs {
            let mut row = format!("| {} |", fmt_num(x));
            for s in &self.series {
                let cell = s
                    .points
                    .iter()
                    .find(|p| p.0 == x)
                    .map(|p| fmt_num(p.1))
                    .unwrap_or_default();
                let _ = write!(row, " {cell} |");
            }
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out, "\n*y: {}*", self.ylabel);
        out
    }
}

/// Builds a figure from a unified record stream: one series per machine
/// (in first-appearance order), x = processor count, y extracted per
/// record. This is how the paper's IMB figures consume the campaign
/// driver's output.
pub(crate) fn figure_from_records(
    id: &'static str,
    title: impl Into<String>,
    xlabel: impl Into<String>,
    ylabel: impl Into<String>,
    records: &[Record],
    y: impl Fn(&Record) -> f64,
) -> Figure {
    let mut series: Vec<Series> = Vec::new();
    for r in records {
        let point = (r.procs as f64, y(r));
        match series.iter_mut().find(|s| s.name == r.machine) {
            Some(s) => s.points.push(point),
            None => series.push(Series {
                name: r.machine.to_string(),
                points: vec![point],
            }),
        }
    }
    Figure {
        id,
        title: title.into(),
        xlabel: xlabel.into(),
        ylabel: ylabel.into(),
        series,
    }
}

/// Human-friendly number formatting for tables.
pub(crate) fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 && v.abs() < 1e6 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A plain named-rows table (for Tables 1-3).
#[derive(Clone, Debug)]
pub struct Table {
    /// Identifier.
    pub id: &'static str,
    /// Caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(self.columns.len()));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "figX",
            title: "test".into(),
            xlabel: "procs".into(),
            ylabel: "us".into(),
            series: vec![
                Series {
                    name: "A".into(),
                    points: vec![(2.0, 10.0), (4.0, 20.0)],
                },
                Series {
                    name: "B,quoted".into(),
                    points: vec![(2.0, 5.0)],
                },
            ],
        }
    }

    #[test]
    fn csv_round_numbers_and_escaping() {
        let csv = fig().to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert!(csv.contains("A,2,10"));
        assert!(csv.contains("\"B,quoted\",2,5"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn markdown_grid_includes_all_x() {
        let md = fig().to_markdown();
        assert!(md.contains("| procs | A | B,quoted |"));
        assert!(md.contains("| 2 |"));
        assert!(md.contains("| 4 |"));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(2.0), "2");
        assert_eq!(fmt_num(47.4321), "47.432");
        assert_eq!(fmt_num(203.12), "203.1");
        assert_eq!(fmt_num(1.5e9), "1.500e9");
        assert_eq!(fmt_num(2.5e-5), "2.500e-5");
    }

    #[test]
    fn table_rendering() {
        let t = Table {
            id: "table1",
            title: "params".into(),
            columns: vec!["k".into(), "v".into()],
            rows: vec![vec!["CPUs".into(), "512".into()]],
        };
        assert!(t.to_csv().contains("CPUs,512"));
        assert!(t.to_markdown().contains("| CPUs | 512 |"));
    }
}
