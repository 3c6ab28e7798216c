//! Dependency-free SVG line-chart rendering for regenerated figures.
//!
//! The paper's figures are log-scale line charts (time or bandwidth
//! versus processor count or message size); this module renders a
//! [`Figure`] into a self-contained SVG with log-log axes, per-series
//! colours and markers, a legend, and tick labels — so `out/` contains
//! viewable plots next to the CSVs.

use std::fmt::Write as _;

use crate::report::Figure;

/// Canvas layout constants (pixels).
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 520.0;
const MARGIN_L: f64 = 80.0;
const MARGIN_R: f64 = 250.0; // room for the legend
const MARGIN_T: f64 = 50.0;
const MARGIN_B: f64 = 60.0;

/// A qualitative palette (colour-blind-safe Okabe-Ito).
const COLORS: [&str; 8] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9", "#F0E442", "#000000",
];

/// Axis scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Base-10 logarithmic axis (requires positive data).
    Log,
}

/// Renders `figure` as an SVG document. Axis scales are chosen
/// automatically: logarithmic when the data spans more than 1.5 decades
/// and is strictly positive (the shape of every figure in the paper).
pub fn render(figure: &Figure) -> String {
    let (xs, ys): (Vec<f64>, Vec<f64>) = figure
        .series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .unzip();
    let x_scale = auto_scale(&xs);
    let y_scale = auto_scale(&ys);
    render_scaled(figure, x_scale, y_scale)
}

fn auto_scale(v: &[f64]) -> Scale {
    let (min, max) = bounds(v);
    if min > 0.0 && max / min > 30.0 {
        Scale::Log
    } else {
        Scale::Linear
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in v {
        min = min.min(x);
        max = max.max(x);
    }
    if !min.is_finite() || !max.is_finite() {
        (0.0, 1.0)
    } else {
        (min, max)
    }
}

/// Renders with explicit axis scales.
pub fn render_scaled(figure: &Figure, x_scale: Scale, y_scale: Scale) -> String {
    let (xs, ys): (Vec<f64>, Vec<f64>) = figure
        .series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .unzip();
    let (x0, x1) = pad_domain(bounds(&xs), x_scale);
    let (y0, y1) = pad_domain(bounds(&ys), y_scale);

    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
    let px = |x: f64| MARGIN_L + frac(x, x0, x1, x_scale) * plot_w;
    let py = |y: f64| MARGIN_T + (1.0 - frac(y, y0, y1, y_scale)) * plot_h;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
    );
    let _ = writeln!(
        out,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );

    // Title and axis labels.
    let _ = writeln!(
        out,
        r#"<text x="{}" y="28" font-size="15" text-anchor="middle" font-weight="bold">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        escape(&figure.title)
    );
    let _ = writeln!(
        out,
        r#"<text x="{}" y="{}" font-size="12" text-anchor="middle">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        HEIGHT - 14.0,
        escape(&figure.xlabel)
    );
    let _ = writeln!(
        out,
        r#"<text x="18" y="{}" font-size="12" text-anchor="middle" transform="rotate(-90 18 {})">{}</text>"#,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        escape(&figure.ylabel)
    );

    // Frame + grid + ticks.
    let _ = writeln!(
        out,
        r##"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#444"/>"##
    );
    for t in ticks(x0, x1, x_scale) {
        let x = px(t);
        let _ = writeln!(
            out,
            r##"<line x1="{x:.1}" y1="{MARGIN_T}" x2="{x:.1}" y2="{:.1}" stroke="#ddd"/>"##,
            MARGIN_T + plot_h
        );
        let _ = writeln!(
            out,
            r#"<text x="{x:.1}" y="{:.1}" font-size="10" text-anchor="middle">{}</text>"#,
            MARGIN_T + plot_h + 16.0,
            tick_label(t)
        );
    }
    for t in ticks(y0, y1, y_scale) {
        let y = py(t);
        let _ = writeln!(
            out,
            r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
            MARGIN_L + plot_w
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="end">{}</text>"#,
            MARGIN_L - 6.0,
            y + 3.5,
            tick_label(t)
        );
    }

    // Series.
    for (i, s) in figure.series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        if s.points.is_empty() {
            continue;
        }
        let path: Vec<String> = s
            .points
            .iter()
            .enumerate()
            .map(|(k, &(x, y))| {
                format!(
                    "{}{:.1},{:.1}",
                    if k == 0 { "M" } else { "L" },
                    px(x),
                    py(y)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            r#"<path d="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
            path.join(" ")
        );
        for &(x, y) in &s.points {
            let _ = writeln!(
                out,
                r#"<circle cx="{:.1}" cy="{:.1}" r="2.6" fill="{color}"/>"#,
                px(x),
                py(y)
            );
        }
        // Legend entry.
        let ly = MARGIN_T + 14.0 + i as f64 * 18.0;
        let lx = WIDTH - MARGIN_R + 16.0;
        let _ = writeln!(
            out,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2.5"/>"#,
            lx + 22.0
        );
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{:.1}" font-size="11">{}</text>"#,
            lx + 28.0,
            ly + 3.5,
            escape(&s.name)
        );
    }

    out.push_str("</svg>\n");
    out
}

/// Fraction of the way along the axis domain.
fn frac(v: f64, lo: f64, hi: f64, scale: Scale) -> f64 {
    let f = match scale {
        Scale::Linear => {
            if hi > lo {
                (v - lo) / (hi - lo)
            } else {
                0.5
            }
        }
        Scale::Log => {
            if hi > lo && lo > 0.0 && v > 0.0 {
                (v.log10() - lo.log10()) / (hi.log10() - lo.log10())
            } else {
                0.5
            }
        }
    };
    f.clamp(0.0, 1.0)
}

/// Pads the data bounds so points don't sit on the frame.
fn pad_domain((lo, hi): (f64, f64), scale: Scale) -> (f64, f64) {
    match scale {
        Scale::Linear => {
            let span = (hi - lo).max(1e-12);
            ((lo - 0.05 * span).min(0.0_f64.max(lo)), hi + 0.05 * span)
        }
        Scale::Log => (lo / 1.5, hi * 1.5),
    }
}

/// Tick positions: decades for log axes, ~6 round steps for linear.
fn ticks(lo: f64, hi: f64, scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Log => {
            let mut t = Vec::new();
            let mut d = lo.max(1e-30).log10().floor();
            while 10f64.powf(d) <= hi * 1.0001 {
                let v = 10f64.powf(d);
                if v >= lo * 0.9999 {
                    t.push(v);
                }
                d += 1.0;
            }
            if t.len() < 2 {
                t = vec![lo, hi];
            }
            t
        }
        Scale::Linear => {
            let span = (hi - lo).max(1e-12);
            let step = 10f64.powf((span / 5.0).log10().floor());
            let step = if span / step > 10.0 {
                step * 5.0
            } else if span / step > 5.0 {
                step * 2.0
            } else {
                step
            };
            let mut t = Vec::new();
            let mut v = (lo / step).floor() * step;
            while v <= hi + step * 0.5 {
                if v >= lo - step * 0.5 {
                    t.push(v);
                }
                v += step;
            }
            t
        }
    }
}

fn tick_label(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 || v.abs() < 1e-2 {
        format!("1e{}", v.abs().log10().round() as i64)
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Series;

    fn fig() -> Figure {
        Figure {
            id: "t",
            title: "Test <figure> & more".into(),
            xlabel: "procs".into(),
            ylabel: "us".into(),
            series: vec![
                Series {
                    name: "A".into(),
                    points: vec![(2.0, 10.0), (4.0, 100.0), (8.0, 1000.0)],
                },
                Series {
                    name: "B".into(),
                    points: vec![(2.0, 5.0), (8.0, 50000.0)],
                },
            ],
        }
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = render(&fig());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 2, "one path per series");
        assert_eq!(svg.matches("<circle").count(), 5, "one marker per point");
        assert!(svg.contains("Test &lt;figure&gt; &amp; more"));
    }

    #[test]
    fn auto_scale_picks_log_for_wide_ranges() {
        assert_eq!(auto_scale(&[1.0, 10.0, 10000.0]), Scale::Log);
        assert_eq!(auto_scale(&[5.0, 6.0, 9.0]), Scale::Linear);
        assert_eq!(
            auto_scale(&[-1.0, 1000.0]),
            Scale::Linear,
            "negatives stay linear"
        );
    }

    #[test]
    fn fractions_are_clamped_and_monotone() {
        let f1 = frac(1.0, 1.0, 100.0, Scale::Log);
        let f2 = frac(10.0, 1.0, 100.0, Scale::Log);
        let f3 = frac(100.0, 1.0, 100.0, Scale::Log);
        assert_eq!(f1, 0.0);
        assert!((f2 - 0.5).abs() < 1e-12);
        assert_eq!(f3, 1.0);
        assert_eq!(frac(1000.0, 1.0, 100.0, Scale::Log), 1.0, "clamped");
    }

    #[test]
    fn log_ticks_are_decades() {
        let t = ticks(2.0, 3000.0, Scale::Log);
        assert_eq!(t, vec![10.0, 100.0, 1000.0]);
    }

    #[test]
    fn linear_ticks_are_round() {
        let t = ticks(0.0, 10.0, Scale::Linear);
        assert!(t.contains(&0.0) && t.contains(&10.0));
        assert!(t.len() >= 4 && t.len() <= 12);
    }

    #[test]
    fn empty_series_do_not_break_rendering() {
        let mut f = fig();
        f.series.push(Series {
            name: "empty".into(),
            points: vec![],
        });
        let svg = render(&f);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn real_figure_renders() {
        use crate::figures::{figures_from, paper_plan, FigureConfig};
        let records = paper_plan(&FigureConfig::quick()).execute(&crate::registry());
        let figures = figures_from(&records);
        let fig = figures.iter().find(|f| f.id == "fig06").unwrap();
        let svg = render(fig);
        assert!(svg.len() > 2000);
        assert_eq!(svg.matches("<path").count(), fig.series.len());
    }
}
