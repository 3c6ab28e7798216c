//! `imb` — the Intel MPI Benchmarks (IMB 2.3) subset evaluated in the
//! paper: PingPong, PingPing, Sendrecv, Exchange, Barrier, Bcast,
//! Allgather, Allgatherv, Alltoall, Reduce, Allreduce and Reduce_scatter.
//!
//! Each benchmark runs *natively* on the [`mp`] runtime
//! ([`native::run_native`], IMB timing conventions: warm-up, synchronised
//! timed loop, min/avg/max over ranks, root rotation) and is *simulated*
//! against any [`machines::Machine`] model ([`sim::simulate`]) to
//! regenerate the paper's Figs. 6-15. Every mode returns the workspace's
//! unified [`harness::Record`].
//!
//! ```
//! use imb::{Benchmark, native};
//!
//! let m = native::run_native(Benchmark::Allreduce, 4, 4096, 5);
//! assert!(m.t_max_us() > 0.0);
//! ```

pub mod benchmark;
pub mod ext;
pub mod native;
pub mod sim;
pub mod virtual_run;

pub use benchmark::{default_repetitions, standard_sizes, Benchmark, Class};
pub use ext::{ExtBenchmark, ExtMeasurement, SyncScheme};
pub use harness::{MetricKind, Mode, Record, Stats};
pub use native::{run_native, run_native_with};
pub use virtual_run::{run_virtual, run_virtual_with};
