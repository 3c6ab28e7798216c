//! The unified benchmark harness.
//!
//! This crate is the layer every execution path in the workspace routes
//! through:
//!
//! - [`Record`] — one structured result schema (benchmark, mode,
//!   machine, procs, bytes, statistics) shared by the HPCC and IMB
//!   suites across native, simulated and virtual execution.
//! - [`Runner`] — owns warm-up, the IMB-2.3 repetition rule and the
//!   cross-rank min/avg/max statistics, replacing hand-rolled timing
//!   loops.
//! - [`Workload`] / [`Registry`] — one entry per benchmark declaring
//!   metadata plus native/simulated/virtual closures, replacing
//!   per-crate dispatch.
//! - [`RunPlan`] — the campaign driver: {machines x modes x workloads x
//!   proc counts} executed against a registry, yielding one record
//!   stream that regenerates every paper table and figure.
//!
//! The harness sits below `hpcc`/`imb` (it depends only on `mp`,
//! `simnet` and `machines`); the registry wiring the suites' closures
//! together lives above them, in `hpcbench::registry`.

pub mod explore;
mod plan;
mod record;
mod runner;
pub mod timer;
mod workload;

pub use mp::Backend;
pub use plan::{Cell, GridFn, ProcGrid, RunPlan};
pub use record::{records_json, records_json_from_lines, MetricKind, Mode, Record, Stats, Suite};
pub use runner::{RepetitionPolicy, Runner};
pub use timer::Stopwatch;
pub use workload::{Registry, Workload, WorkloadMeta};
