//! `hpcbench` — the evaluation harness reproducing Saini et al.,
//! *"Performance evaluation of supercomputers using HPCC and IMB
//! Benchmarks"* (J. Computer and System Sciences 74, 2008).
//!
//! Layers:
//!
//! * [`registry`](mod@registry) declares the unified workload table — one entry per
//!   HPCC component and per IMB benchmark — wiring each to its native,
//!   simulated and virtual execution paths through the `harness` crate.
//! * [`figures`] regenerates every table and figure of the paper: one
//!   plan of the cells they read ([`figures::paper_plan`]), priced
//!   through the registry, each cell once, and every table and figure a
//!   projection of its [`harness::Record`]s.
//! * [`extensions`] holds the studies beyond the paper, each a plan of its
//!   own and a projection of its records ([`extensions::execute`]).
//! * [`ratios`] implements the paper's ratio-based analysis (Section
//!   4.1): communication/computation balance and the HPL-normalised
//!   Kiviat comparison.
//! * [`report`] renders figures and tables to CSV and markdown;
//!   [`output`] writes the full artefact set to a directory, pricing
//!   nothing itself.
//!
//! Native benchmark execution (real runs on this host) lives in the
//! `hpcc` and `imb` crates; this crate consumes their record streams.
//!
//! ```
//! use hpcbench::figures::{figures_from, paper_plan, FigureConfig};
//!
//! let records = paper_plan(&FigureConfig::quick()).execute(&hpcbench::registry());
//! let figures = figures_from(&records);
//! let fig06 = figures.iter().find(|f| f.id == "fig06").unwrap();
//! assert!(fig06.to_csv().lines().count() > 5);
//! ```

pub mod extensions;
pub mod figures;
pub mod output;
pub mod ratios;
pub mod registry;
pub mod report;
pub mod svg;

pub use registry::registry;
pub use report::{Figure, Series, Table};
