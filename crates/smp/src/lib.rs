//! Hybrid-SMP support for the benchmark suite: a per-rank worker-thread
//! pool, host CPU-topology detection, and the kernels' blocking
//! parameters.
//!
//! The paper's machines all ran HPCC in hybrid MPI+SMP mode — a few
//! ranks per node, each fanning out over the node's cores. This crate is
//! the intra-rank half of that model:
//!
//! * [`pool`] — a fork-join worker pool sized per execution mode. Native
//!   ranks get `cores / ranks` threads; cooperative/virtual worlds (up
//!   to 65k ranks hosted on one OS thread) degrade to pool size 1
//!   without ever spawning.
//! * [`topo`] — CPU model and core-count detection, the core budget the
//!   pool sizing divides among ranks.
//! * [`tune`] — DGEMM blocking, FFT block schedule and HPL panel width:
//!   one set of constants, checked at build time.

pub mod pool;
pub mod topo;
pub mod tune;

pub use pool::{ambient_threads, AmbientGuard, Pool};
pub use tune::{Tuned, TUNED};
